"""The layers of softpu, the functions traced in each, and the per-layer metrics.

A layer is a module of the package: cli, experiment, dataset, training,
kernels, labeling, metrics, oracle. A span is named ``<layer>.<function>``;
the cli spans are named ``cli.<command>`` and are recorded by the benchmark
around its calls to ``softpu.cli.main``.

Each per-layer metric is the median, over the traced ops of a run, of the
value one op gives, except ``*.errors``, which counts failed calls over all
traced ops. A layer a workload never reaches reads 0. The last field of
each ``PER_OP`` entry says which end-to-end metric, on which workload, a
change in the metric should move.

There is one process, one thread of Python and no queue, so no layer waits
on another: the per-layer metrics are busy time and work counts only.
"""

import math
from statistics import median

from spans import Target

CLI_COMMANDS = ("experiment", "generate", "eval", "bound-check", "fit-prior", "frontier")


def _batches(args, kwargs, result):
    order, batch_size = args[3], args[4]
    return {"kernels.mlp_epochs.batches": order.shape[0] * math.ceil(order.shape[1] / batch_size)}


def _order_bytes(args, kwargs, result):
    data, cfg = args[0], args[2]
    return {"training.order_bytes": cfg.epochs * len(data) * 8}


def _eg_iters(args, kwargs, result):
    iters = len(result[1]) - 1
    return {"kernels.eg_minimize.iters": iters,
            "kernels.eg_minimize.hit_max_iters": int(iters >= args[5])}


def _rows_of(key, pick):
    return lambda args, kwargs, result: {key: len(pick(args, result))}


TARGETS = [
    Target("experiment.build_dataset", "softpu.experiment", "build_dataset"),
    Target("experiment.split_indices", "softpu.experiment", "split_indices"),
    Target("experiment.run_experiment", "softpu.experiment", "run_experiment"),
    Target("dataset.load_csv", "softpu.dataset", "load_csv",
           _rows_of("dataset.load_csv.rows", lambda a, r: r)),
    Target("dataset.save_csv", "softpu.dataset", "save_csv",
           _rows_of("dataset.save_csv.rows", lambda a, r: a[0])),
    Target("dataset.pu_labelize", "softpu.dataset", "pu_labelize"),
    Target("training.train", "softpu.training", "train", _order_bytes),
    Target("training.load_model", "softpu.training", "load_model"),
    Target("training.scores", "softpu.training:ScoringModel", "scores",
           _rows_of("training.scores.rows", lambda a, r: r)),
    Target("kernels.mlp_epochs", "softpu.kernels", "mlp_epochs", _batches),
    Target("kernels.eg_minimize", "softpu.kernels", "eg_minimize", _eg_iters),
    Target("kernels.enumerate_confusions", "softpu.kernels", "enumerate_confusions",
           lambda a, kw, r: {"kernels.enumerate_confusions.computed_bytes":
                             r[0].nbytes + r[1].nbytes}),
    Target("labeling.records_from_csv", "softpu.labeling", "records_from_csv"),
    Target("labeling.fit_prior", "softpu.labeling", "fit_prior"),
    Target("labeling.bayes_soft_label", "softpu.labeling", "bayes_soft_label"),
    Target("labeling.mean_log_likelihood", "softpu.labeling", "mean_log_likelihood"),
    Target("metrics.roc_spu", "softpu.metrics", "roc_spu"),
    Target("metrics.roc_real", "softpu.metrics", "roc_real"),
    Target("metrics.auc_spu_bound", "softpu.metrics", "auc_spu_bound"),
    Target("metrics.bound_report", "softpu.metrics", "bound_report"),
    Target("metrics.curve_to_csv", "softpu.metrics", "curve_to_csv",
           _rows_of("metrics.curve_to_csv.rows", lambda a, r: a[0])),
    Target("oracle.exhaustive_frontier", "softpu.oracle", "exhaustive_frontier"),
    Target("oracle.enumerate_points", "softpu.oracle", "enumerate_points"),
    Target("oracle.verify_noisy_gap", "softpu.oracle", "verify_noisy_gap"),
]

SPAN_NAMES = [f"cli.{cmd}" for cmd in CLI_COMMANDS] + [t.span for t in TARGETS]


def _ratio(num, den):
    return num / den if den else 0.0


def _total(name):
    return lambda o: o.total_s[name]


def _self(name):
    return lambda o: o.self_s[name]


def _count(key):
    return lambda o: o.counters[key]


def _calls(name):
    return lambda o: o.calls[name]


def _rate(rows_key, name):
    return lambda o: _ratio(o.counters[rows_key], o.total_s[name])


E2E_EXPERIMENT = "op_s.p50 and peak_rss_mb on experiment"
E2E_CSV = "op_s.p50 on csv-eval"
E2E_METRICS = "op_s.p50 on csv-eval a little, on experiment barely"
E2E_PRIOR = "op_s.p50 on prior-fit"
E2E_FRONTIER = "op_s.p50 and peak_rss_mb on frontier"
E2E_NONE = "nothing: expected near zero, kept so a regression shows"

# (name, unit, value of one op, what it should move)
PER_OP = [
    ("kernels.mlp_epochs.s", "s", _total("kernels.mlp_epochs"), E2E_EXPERIMENT),
    ("kernels.mlp_epochs.batches", "count", _count("kernels.mlp_epochs.batches"), E2E_EXPERIMENT),
    ("kernels.mlp_epochs.us_per_batch", "us",
     lambda o: 1e6 * _ratio(o.total_s["kernels.mlp_epochs"],
                            o.counters["kernels.mlp_epochs.batches"]), E2E_EXPERIMENT),
    ("training.train.self_s", "s", _self("training.train"), E2E_EXPERIMENT),
    ("training.order_bytes", "bytes", _count("training.order_bytes"), E2E_EXPERIMENT),
    ("dataset.load_csv.s", "s", _total("dataset.load_csv"),
     "op_s.p50 and peak_rss_mb on csv-eval"),
    ("dataset.load_csv.rows_per_s", "rows/s",
     _rate("dataset.load_csv.rows", "dataset.load_csv"), E2E_CSV),
    ("dataset.save_csv.s", "s", _total("dataset.save_csv"), E2E_CSV),
    ("dataset.save_csv.rows_per_s", "rows/s",
     _rate("dataset.save_csv.rows", "dataset.save_csv"), E2E_CSV),
    ("metrics.curve_to_csv.s", "s", _total("metrics.curve_to_csv"), E2E_CSV),
    ("metrics.curve_to_csv.rows_per_s", "rows/s",
     _rate("metrics.curve_to_csv.rows", "metrics.curve_to_csv"), E2E_CSV),
    ("training.load_model.s", "s", _total("training.load_model"), E2E_CSV),
    ("metrics.roc_spu.s", "s", _total("metrics.roc_spu"), E2E_METRICS),
    ("metrics.roc_real.s", "s", _total("metrics.roc_real"), E2E_METRICS),
    ("metrics.auc_spu_bound.s", "s", _total("metrics.auc_spu_bound"), E2E_METRICS),
    ("metrics.bound_report.s", "s", _total("metrics.bound_report"), E2E_METRICS),
    ("training.scores.s", "s", _total("training.scores"), E2E_METRICS),
    ("training.scores.rows", "rows", _count("training.scores.rows"), E2E_METRICS),
    ("labeling.records_from_csv.s", "s", _total("labeling.records_from_csv"), E2E_PRIOR),
    ("labeling.fit_prior.self_s", "s", _self("labeling.fit_prior"), E2E_PRIOR),
    ("kernels.eg_minimize.s", "s", _total("kernels.eg_minimize"), E2E_PRIOR),
    ("kernels.eg_minimize.iters", "count", _count("kernels.eg_minimize.iters"), E2E_PRIOR),
    ("kernels.eg_minimize.ms_per_iter", "ms",
     lambda o: 1e3 * _ratio(o.total_s["kernels.eg_minimize"],
                            o.counters["kernels.eg_minimize.iters"]), E2E_PRIOR),
    ("kernels.eg_minimize.hit_max_iters", "count",
     _count("kernels.eg_minimize.hit_max_iters"), E2E_PRIOR),
    ("labeling.bayes_soft_label.s", "s", _total("labeling.bayes_soft_label"), E2E_PRIOR),
    ("labeling.bayes_soft_label.calls", "count", _calls("labeling.bayes_soft_label"), E2E_PRIOR),
    ("labeling.mean_log_likelihood.s", "s", _total("labeling.mean_log_likelihood"), E2E_PRIOR),
    ("labeling.distinct_pair_frac", "fraction", _count("labeling.distinct_pair_frac"),
     "op_s.p50 on prior-fit, once the fit works on distinct (n, k) pairs"),
    ("oracle.exhaustive_frontier.calls", "count", _calls("oracle.exhaustive_frontier"),
     E2E_FRONTIER),
    ("oracle.exhaustive_frontier.self_s", "s", _self("oracle.exhaustive_frontier"),
     E2E_FRONTIER),
    ("oracle.enumerate_points.calls", "count", _calls("oracle.enumerate_points"), E2E_FRONTIER),
    ("kernels.enumerate_confusions.s", "s", _total("kernels.enumerate_confusions"),
     E2E_FRONTIER),
    ("kernels.enumerate_confusions.computed_bytes", "bytes",
     _count("kernels.enumerate_confusions.computed_bytes"), E2E_FRONTIER),
    ("oracle.verify_noisy_gap.self_s", "s", _self("oracle.verify_noisy_gap"), E2E_FRONTIER),
    ("experiment.build_dataset.s", "s", _total("experiment.build_dataset"), E2E_NONE),
    ("experiment.split_indices.s", "s", _total("experiment.split_indices"), E2E_NONE),
    ("experiment.run_experiment.self_s", "s", _self("experiment.run_experiment"), E2E_NONE),
    ("dataset.pu_labelize.s", "s", _total("dataset.pu_labelize"), E2E_NONE),
] + [
    (f"cli.{cmd}.self_s", "s", _self(f"cli.{cmd}"), E2E_NONE) for cmd in CLI_COMMANDS
] + [
    ("trace.top_level_coverage", "fraction", lambda o: _ratio(o.top_level_s, o.wall_s),
     "nothing: top-level spans' share of the op's wall time, at least 0.95"),
    ("trace.spans_per_op", "count", lambda o: o.spans,
     "nothing: tracing cost grows with it"),
]

ERRORS = [(f"{name}.errors", "count") for name in SPAN_NAMES]
OVERHEAD = ("trace.overhead_ratio", "ratio")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    return [(name, unit) for name, unit, _, _ in PER_OP] + ERRORS + [OVERHEAD]


def per_layer_metrics(stats, overhead_ratio):
    """Per-layer metric values from the OpStats of the traced ops."""
    ops = list(stats.values())
    values = {}
    for name, _, per_op, _ in PER_OP:
        values[name] = median([float(per_op(o)) for o in ops]) if ops else 0.0
    for name in SPAN_NAMES:
        values[f"{name}.errors"] = float(sum(o.errors[name] for o in ops))
    values[OVERHEAD[0]] = overhead_ratio
    return values

