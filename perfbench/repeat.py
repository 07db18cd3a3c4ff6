"""Run one workload N times and report each metric's spread.

    python3 perfbench/repeat.py --workload fork_family --runs 10
    python3 perfbench/repeat.py --workload explorer_sweep --runs 3 \\
        --trace 1 --fixed-seed          # exact counters must repeat

Each run is a separate ``run.py`` process with its own seed
(``--seed-base``, ``--seed-base + 1``, ...; all the same with
``--fixed-seed``).  For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and, for end-to-end metrics, the bound from
``BENCHMARK.json``.  With ``--fixed-seed`` every exact per-layer counter
must be identical in all runs.  It exits non-zero when a spread is wider
than its bound, a counter differs, a run is not correct, or the failed
share differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Units of host-dependent metrics; every other per-layer metric is an
#: exact count that must repeat bit for bit on a fixed seed.
HOST_UNITS = {"s", "1/s", "x"}


def run_once(workload, seed, seconds, trace) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"run with seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}"
        )
    lines = completed.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), "report": lines[:-1]}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--fixed-seed", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m for m in config["end_to_end"]}
    runs = []
    for index in range(args.runs):
        seed = args.seed_base + (0 if args.fixed_seed else index)
        result = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, **result})
        print(f"run {index + 1}/{args.runs} seed {seed}: correct "
              f"{result['correct']}, {result['failed']}/{result['attempted']} "
              "failed", flush=True)

    shares = {run["failed"] / run["attempted"] for run in runs}
    print(f"failed share: {sorted(shares)}"
          f"{'' if len(shares) == 1 else '  (DIFFERS between runs)'}")
    correct = all(run["correct"] for run in runs)
    print(f"all correct: {correct}")
    print(f"{'metric':<32} {'median':>13} {'q1':>13} {'q3':>13} "
          f"{'spread':>7} {'bound':>6}  verdict")
    ok = True
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median, q1, q3, width = spread(values)
        line = (f"{name:<32} {median:>13.6g} {q1:>13.6g} {q3:>13.6g} "
                f"{width:>7.2%}")
        metric = bounds.get(name)
        if metric is not None:
            bound = metric["bound"]
            if width < bound / 3:
                verdict = "steady"
            elif width <= bound:
                verdict = "within bound"
            else:
                verdict, ok = "WIDER THAN BOUND", False
            line += f" {bound:>6.2f}  {verdict}"
        elif args.fixed_seed and first["unit"] not in HOST_UNITS:
            if len(set(values)) == 1:
                line += "         identical"
            else:
                line += "         DIFFERS"
                ok = False
        print(line + f" {first['unit']}")
    return 0 if ok and correct and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
