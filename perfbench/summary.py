"""Run every workload once, untraced, and print the end-to-end metrics.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--tiny]

Each workload runs in its own process (perfbench/run.py), one after the
other. The table gives op_s.p50, setup_s, peak_rss_mb and fail_frac
(failed over attempted timed ops) with their units. The two times are at
reference machine speed; the last column is the raw wall op_s.p50.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def main(argv=None) -> int:
    default_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    header = f"{'workload':<11} {'ops':>4} {'op_s.p50':>12} {'setup_s':>12} " \
             f"{'peak_rss_mb':>14} {'fail_frac':>9} {'wall_op_s.p50':>14}"
    print(header)
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<11} run failed (exit {proc.returncode}): {proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        m = result["metrics"]

        def cell(key, width):
            return f"{m[key]['value']:.4f} {m[key]['unit']}".rjust(width)

        fail_frac = result["failed"] / result["attempted"]
        summary = dict(f.split("=", 1) for f in lines[-2].split()[1:])
        print(f"{name:<11} {result['attempted']:>4} {cell('op_s.p50', 12)} "
              f"{cell('setup_s', 12)} {cell('peak_rss_mb', 14)} {fail_frac:>9.4f} "
              f"{summary['wall_op_s.p50']:>14}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
