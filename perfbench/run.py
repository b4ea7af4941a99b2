"""softpu benchmark: one closed-loop workload per process.

Usage, from the repository root:

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 20 --trace 0

Workloads: experiment, csv-eval, prior-fit, frontier (see workloads.py).
One client runs ops back to back: a warm-up op, then timed ops until the
next one would end after ``--seconds``, and at least four. softpu is
imported from ``src/`` of the checkout and gets only the inputs generated
from ``--seed``.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:

* ``op_s.p50`` -- median wall seconds per successful timed op;
* ``setup_s`` -- from the start of this script to the first timed op:
  importing softpu, plus the median of three seeded input writes, plus
  the untimed warm-up op;
* ``peak_rss_mb`` -- peak resident set of this process.

The two times are given at reference machine speed. The speed of a shared
vCPU drifts: on the 2-vCPU Xeon this was written on, a fixed block of work
took up to 1.6 times as long from one minute to the next, and op times
moved with it. So before set-up and before every op the run times
``calibration_block`` for about 4% of the last op's time, at least three
times, and scales each wall time by ``CALIBRATION_REF_S / mean(block
time)``. The mean, because an op's time integrates the slowdown over its
length. The raw wall times and the block times are in the ``summary:``
line and the result file.

With ``--trace 1`` every second timed op runs with the tracer installed
and the last line reports the per-layer metrics of layers.py, plus the
tracing overhead (traced over untraced ``op_s.p50``). Spans are written
to ``perfbench/.work/trace-<workload>.json.gz``.

``attempted`` counts timed ops and ``failed`` those that raised, exited
non-zero, gave output different from the warm-up op's, or failed their
output check. ``--tiny`` runs the same paths on tiny inputs (smoke test).
"""

import argparse
import io
import json
import os
import resource
import shutil
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median

T_START = time.perf_counter()  # numpy and softpu load after this: setup_s counts them

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
MIN_OPS = 4
SETUP_REPEATS = 3
CALIBRATION_MIN_REPEATS = 3
CALIBRATION_SHARE = 0.04
# about the time of calibration_block() on that Xeon
CALIBRATION_REF_S = 0.015
END_TO_END = (("op_s.p50", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
WORKLOAD_NAMES = ("experiment", "csv-eval", "prior-fit", "frontier")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    return parser.parse_args(argv)


def import_softpu():
    """Import softpu from src/ of this checkout, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "softpu" / "__init__.py").is_file():
        raise SystemExit(f"error: no softpu sources under {src}")
    sys.path.insert(0, str(src))
    import softpu
    import softpu.cli  # noqa: F401  (imports every layer)

    if Path(softpu.__file__).resolve().parent != (src / "softpu").resolve():
        raise SystemExit(f"error: imported softpu from {softpu.__file__}, not {src}")


CALIBRATION_TEXTS = [repr(i * 0.6180339887 % 1.0) for i in range(5000)]


def calibration_block():
    """Fixed work whose time follows the machine's current speed, in the mix
    softpu's ops run: a Python integer loop, small numpy calls, and floats
    parsed from and formatted to text."""
    import numpy as np

    total = 0
    for i in range(100_000):
        total += i * i
    a = np.ones(16)
    for _ in range(1500):
        a = np.tanh(a * 0.5 + 0.1)
    rows = [[float(t), float(t)] for t in CALIBRATION_TEXTS]
    return total, ",".join(repr(r[0]) for r in rows)


def calibrate(samples, last_op_s=0.0):
    share = round(CALIBRATION_SHARE * last_op_s / CALIBRATION_REF_S)
    repeats = max(CALIBRATION_MIN_REPEATS, share)
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_block()
        samples.append(time.perf_counter() - start)


def plain_call(name, fn, *args):
    return fn(*args)


def run_op(wl, ctx, call):
    """Run one op with softpu's own prints captured; returns (seconds, error).

    The op writes into an output directory removed beforehand, so it writes
    new files: on ext4, truncating a file and writing it again starts its
    writeback at close, and disk I/O would enter the op's time.
    """
    shutil.rmtree(ctx["out"], ignore_errors=True)
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            wl.op(ctx, call)
    except Exception as exc:  # a failed op is counted, and the run goes on
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


def check_op(wl, ctx, reference):
    """(digest, problems) of the op just run; the digest must match the
    warm-up op's ``reference`` unless this is the warm-up op."""
    try:
        digest, problems = wl.check(ctx)
    except Exception as exc:
        return None, [f"output check raised {type(exc).__name__}: {exc}"]
    if reference is not None and digest != reference:
        problems.append("output differs from the warm-up op's")
    return digest, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    import_softpu()
    import envinfo
    import inputs
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    calibration = []
    calibrate(calibration)
    wl = WORKLOADS[args.workload]
    scale = inputs.TINY if args.tiny else inputs.FULL
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        writes = []
        for rep in range(SETUP_REPEATS):
            rep_dir = work / f"setup{rep}"
            rep_dir.mkdir(parents=True)
            start = time.perf_counter()
            ctx = wl.prepare(rep_dir.relative_to(ROOT), args.seed, scale)
            writes.append(time.perf_counter() - start)
        warmup_s, error = run_op(wl, ctx, plain_call)
        if error is None:
            reference, problems = check_op(wl, ctx, None)
        else:
            reference, problems = None, [error]
        problems = [f"warm-up op: {p}" for p in problems]
        setup_wall_s = import_s + median(writes) + warmup_s

        tracer = Tracer(layers.TARGETS, "softpu") if args.trace else None
        durations, traced_ok, untraced_ok = [], [], []
        failed = 0
        t0 = time.perf_counter()
        while len(durations) < MIN_OPS or (
            time.perf_counter() - t0 + median(durations) <= args.seconds
        ):
            calibrate(calibration, durations[-1] if durations else warmup_s)
            op_id = len(durations)
            traced = tracer is not None and op_id % 2 == 1
            if traced:
                tracer.install()
                tracer.begin_op(op_id)
                seconds, error = run_op(wl, ctx, tracer.call)
                tracer.end_op(seconds, wl.op_counters(ctx))
                tracer.uninstall()
            else:
                seconds, error = run_op(wl, ctx, plain_call)
            durations.append(seconds)
            op_problems = [error] if error else check_op(wl, ctx, reference)[1]
            if op_problems:
                failed += 1
                problems.extend(f"op {op_id}: {p}" for p in op_problems)
            else:
                (traced_ok if traced else untraced_ok).append(seconds)

        ok = traced_ok + untraced_ok or durations
        speed = CALIBRATION_REF_S / (sum(calibration) / len(calibration))
        op_s, setup_s = median(ok) * speed, setup_wall_s * speed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = envinfo.environment(ROOT, wl.working_set_bytes(ctx))
        if tracer is None:
            values = {"op_s.p50": op_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
            units = dict(END_TO_END)
        else:
            overhead = (median(traced_ok) / median(untraced_ok)
                        if traced_ok and untraced_ok else 0.0)
            values = layers.per_layer_metrics(tracer.op_stats(), overhead)
            units = dict(layers.per_layer_units())
            tracer.dump(WORK / f"trace-{wl.name}.json.gz",
                        {"workload": wl.name, "seed": args.seed, "environment": env})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        result = {
            "correct": not problems,
            "attempted": len(durations),
            "failed": failed,
            "metrics": metrics,
        }
        detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                  "tiny": args.tiny, "samples_s": durations, "calibration_s": calibration,
                  "speed_factor": speed, "setup": {
                      "wall_s": setup_wall_s, "import_s": import_s,
                      "input_writes_s": writes, "warmup_s": warmup_s},
                  "problems": problems, "environment": env, "result": result}
        (WORK / f"result-{wl.name}-trace{args.trace}.json").write_text(
            json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"summary: workload={wl.name} seed={args.seed} trace={args.trace} "
          f"ops={len(durations)} op_s.p50={op_s:.4f}s setup_s={setup_s:.4f}s "
          f"peak_rss_mb={peak_rss_mb:.1f}MiB fail_frac={failed / len(durations):.4f} "
          f"wall_op_s.p50={median(ok):.4f}s wall_setup_s={setup_wall_s:.4f}s "
          f"calibration_s.mean={sum(calibration) / len(calibration):.5f}s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
