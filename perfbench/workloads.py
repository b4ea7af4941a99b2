"""The four closed-loop workloads: inputs, one op, and the op's output check.

Each workload reaches one layer that no other workload reaches, so a
change to that layer shows on one workload and should leave the others
flat. An op runs softpu the way a user does, through ``softpu.cli.main``
with a config the benchmark wrote; ``call(span_name, fn, *args)`` is how
the op calls into softpu, so a traced run can record the cli span.

``check`` returns a digest of the op's outputs (compared across the ops of
a run, which must agree byte for byte) and a list of problems found.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

import inputs
from softpu import cli, labeling


class OpFailed(RuntimeError):
    """A softpu command exited with a non-zero status."""


def _cli(call, cmd: str, config: Path, out: Path):
    code = call(f"cli.{cmd}", cli.main, [cmd, "--config", str(config), "--out", str(out)])
    if code != 0:
        raise OpFailed(f"softpu {cmd} exited with status {code}")


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class Workload:
    def op_counters(self, ctx) -> dict:
        """Counters the op's inputs give, added to each traced op."""
        return {}


class Experiment(Workload):
    name = "experiment"

    def prepare(self, work: Path, seed: int, scale: inputs.Scale) -> dict:
        cfg = inputs.experiment_config(seed, scale)
        return {
            "config": inputs.write_json(cfg, work / "experiment.json"),
            "out": work / "out",
            "n": scale.experiment_n,
            "epochs": scale.experiment_epochs,
        }

    def op(self, ctx, call):
        _cli(call, "experiment", ctx["config"], ctx["out"])

    def check(self, ctx):
        report = _read_json(ctx["out"] / "report.json")
        problems = []
        for arm, record in report["arms"].items():
            metrics = record["metrics"]
            for key, value in metrics.items():
                if not 0.0 <= value <= 1.0:
                    problems.append(f"{arm} {key}={value} outside [0, 1]")
            # the tolerance metrics.bound_report allows for rounding
            if metrics["validation.auc_spu"] > metrics["validation.auc_spu_bound"] + 1e-9:
                problems.append(f"{arm} validation auc_spu exceeds its bound")
        report.pop("wall_clock_s", None)
        return _digest(json.dumps(report, sort_keys=True).encode()), problems

    def working_set_bytes(self, ctx) -> int:
        n, epochs = ctx["n"], ctx["epochs"]
        features = n * 5 * 8
        order_per_arm = epochs * int(0.7 * n) * 8
        return features + 2 * order_per_arm


class CsvEval(Workload):
    name = "csv-eval"

    def prepare(self, work: Path, seed: int, scale: inputs.Scale) -> dict:
        out = work / "out"
        model = inputs.write_json(inputs.linear_model(seed), work / "model.json")
        return {
            "generate": inputs.write_json(inputs.generate_config(seed, scale),
                                          work / "generate.json"),
            "eval": inputs.write_json(
                inputs.eval_config(seed, str(out / "dataset.csv"), str(model)),
                work / "eval.json"),
            "out": out,
            "rows": scale.csv_rows,
        }

    def op(self, ctx, call):
        _cli(call, "generate", ctx["generate"], ctx["out"])
        _cli(call, "eval", ctx["eval"], ctx["out"])
        _cli(call, "bound-check", ctx["eval"], ctx["out"])

    def check(self, ctx):
        out = ctx["out"]
        files = ["dataset.csv", "provenance.json", "curve_spu.csv", "curve_real.csv",
                 "eval.json", "bound.json"]
        blobs = [(out / f).read_bytes() for f in files]
        evaluated = _read_json(out / "eval.json")
        bound = _read_json(out / "bound.json")
        problems = []
        if abs(evaluated["spu.auc"] - bound["auc_spu"]) > 1e-12:
            problems.append(f"eval spu.auc {evaluated['spu.auc']} != bound-check "
                            f"auc_spu {bound['auc_spu']}")
        if bound["satisfied"] is not True:
            problems.append("bound-check: auc_spu exceeds its bound")
        return _digest(*blobs), problems

    def working_set_bytes(self, ctx) -> int:
        rows = ctx["rows"]
        csv_bytes = (ctx["out"] / "dataset.csv").stat().st_size
        arrays = rows * (2 + 1) * 8 + rows
        curves = 2 * 3 * (rows + 1) * 8
        return csv_bytes + arrays + curves


class PriorFit(Workload):
    name = "prior-fit"

    def prepare(self, work: Path, seed: int, scale: inputs.Scale) -> dict:
        n, k = inputs.check_records(seed, scale.prior_users)
        records = inputs.write_records_csv(n, k, work / "records.csv")
        distinct = len(set(zip(n.tolist(), k.tolist())))
        return {
            "config": inputs.write_json(inputs.fit_prior_config(str(records), scale),
                                        work / "fit_prior.json"),
            "records": records,
            "out": work / "out",
            "users": scale.prior_users,
            "distinct_pair_frac": distinct / scale.prior_users,
        }

    def op(self, ctx, call):
        _cli(call, "fit-prior", ctx["config"], ctx["out"])
        records = labeling.records_from_csv(ctx["records"])
        prior = labeling.prior_from_json(ctx["out"] / "prior.json")
        ctx["labels"] = [labeling.bayes_soft_label(r, prior) for r in records]

    def check(self, ctx):
        prior_bytes = (ctx["out"] / "prior.json").read_bytes()
        prior = json.loads(prior_bytes)
        weights = np.asarray(prior["weights"])
        trace = np.asarray(prior["objective_trace"])
        labels = np.asarray(ctx["labels"], dtype=np.float64)
        problems = []
        if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-9:
            problems.append("prior weights are not on the simplex")
        if np.any(np.diff(trace) > 0.0):
            problems.append("objective trace increases")
        if labels.size != ctx["users"] or np.any(~((labels >= 0.0) & (labels <= 1.0))):
            problems.append("a soft label lies outside [0, 1] or is missing")
        return _digest(prior_bytes, labels.tobytes()), problems

    def working_set_bytes(self, ctx) -> int:
        likelihood = ctx["users"] * 101 * 8
        return ctx["records"].stat().st_size + likelihood

    def op_counters(self, ctx) -> dict:
        return {"labeling.distinct_pair_frac": ctx["distinct_pair_frac"]}


class Frontier(Workload):
    name = "frontier"

    def prepare(self, work: Path, seed: int, scale: inputs.Scale) -> dict:
        problem = inputs.write_json(inputs.frontier_problem(seed, scale.frontier_cells),
                                    work / "problem.json")
        return {
            "config": inputs.write_json(inputs.frontier_config(str(problem)),
                                        work / "frontier.json"),
            "out": work / "out",
            "cells": scale.frontier_cells,
        }

    def op(self, ctx, call):
        _cli(call, "frontier", ctx["config"], ctx["out"])

    def check(self, ctx):
        blob = (ctx["out"] / "frontier.json").read_bytes()
        record = json.loads(blob)
        problems = []
        for kind in ("spu", "real"):
            pts = np.asarray(record[kind]["points"])
            # the rates are sums of per-cell fractions, so the full classifier
            # lands within rounding of (1, 1); 1e-12 is the oracle's HULL_ATOL
            ends = np.abs(pts[[0, -1]] - [[0.0, 0.0], [1.0, 1.0]])
            if np.any(ends > 1e-12):
                problems.append(f"{kind} frontier does not run from (0,0) to (1,1)")
            d = np.diff(pts, axis=0)
            # slope k+1 <= slope k, compared without dividing
            cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
            if np.any(cross > 0.0):
                problems.append(f"{kind} frontier slopes increase")
        return _digest(blob), problems

    def working_set_bytes(self, ctx) -> int:
        m = ctx["cells"]
        outputs = 2 * (1 << m) * 8
        bit_chunk = min(1 << 16, 1 << m) * m * 8
        return outputs + bit_chunk


WORKLOADS = {w.name: w for w in (Experiment(), CsvEval(), PriorFit(), Frontier())}
