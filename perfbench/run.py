"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figure_grid --seed 1 --seconds 30
    python3 perfbench/run.py --workload fork_family --trace 1
    python3 perfbench/run.py            # every workload, one process each

A run builds the workload's inputs from ``--seed`` (the set-up), then
repeats whole rounds of them until another round would end past
``--seconds``, checks the outputs, and prints one JSON object as its
last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced round, one round with stage timers and exact work counters, one
round with the kernel profiler splitting events by layer, and one round
with cProfile on every seventh operation, and reports the per-layer
metrics (no end-to-end number comes from a traced run).  Everything
runs in this process, serially, with no threads; the campaign runner
gets ``jobs=1``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
#: Scratch space for stores and checkpoints, inside the checkout.
WORK_PARENT = ROOT / ".perfbench_work"
#: Set-ups measured per run (this process's own plus fresh interpreters).
SETUP_SAMPLES = 11
WORKLOAD_NAMES = ("figure_grid", "explorer_sweep", "fork_family")


def load_program():
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def set_up(name: str, seed: int, workdir: Path):
    """Import, fingerprint and build the inputs: the timed set-up."""
    load_program()
    from repro.campaign import code_fingerprint

    import suite

    code_fingerprint()
    return suite.WORKLOADS[name](seed, workdir)


def setup_probe(name: str, seed: int) -> float:
    """One set-up in a fresh interpreter; its seconds."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def tail_percentile(values):
    """The highest of p99.9/p99/p90/p75 with ten samples beyond it."""
    for fraction, label in ((0.999, "p99.9"), (0.99, "p99"),
                            (0.9, "p90"), (0.75, "p75")):
        if len(values) * (1 - fraction) >= 10:
            return label, percentile(values, fraction)
    return None, None


def run_rounds(workload, seconds: float):
    """Whole rounds until the next one would end past ``seconds``."""
    rounds = []
    started = time.perf_counter()
    while True:
        # Start every round from the same heap, so peak RSS does not
        # depend on when the cyclic collector last ran.
        gc.collect()
        rounds.append(workload.run_round())
        if len(rounds) > 1:
            rounds[-1].outputs = None  # the checks read the first round's
        elapsed = time.perf_counter() - started
        if elapsed + rounds[-1].wall_s > seconds:
            return rounds


def check_rounds(workload, rounds) -> list:
    problems = list(workload.check(rounds[0]))
    digests = {round_.digest for round_ in rounds}
    if len(digests) != 1:
        problems.append(
            f"{len(rounds)} rounds on the same inputs gave "
            f"{len(digests)} different outputs"
        )
    return problems


def end_to_end(rounds, setup_samples) -> dict:
    op_times = [t for round_ in rounds for t in round_.op_times]
    wall = statistics.median(round_.wall_s for round_ in rounds)
    rate = statistics.median(round_.sim_ops / round_.wall_s for round_ in rounds)
    return {
        "wall_s": (wall, "s"),
        "sim_ops_per_s": (rate, "1/s"),
        "scenario_ms_p50": (statistics.median(op_times) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def traced(workload):
    """Reference, stage-timer, event-split and profiled rounds."""
    import layers

    gc.collect()
    reference = workload.run_round()
    probe = layers.LayerProbe()
    gc.collect()
    with layers.instrumented(probe):
        staged = workload.run_round(probe)
    gc.collect()
    with layers.event_split(probe):
        split = workload.run_round()
    gc.collect()
    sampler = layers.SampledProfile()
    profiled = workload.run_round(sampler)
    metrics = probe.metrics(layers.class_layers())
    metrics.update(sampler.metrics())
    for metric, round_ in (("trace.overhead_x", staged),
                           ("trace.events_overhead_x", split),
                           ("trace.profile_overhead_x", profiled)):
        metrics[metric] = (round_.wall_s / reference.wall_s, "x")
    return [reference, staged, split, profiled], metrics


def report(name, rounds, metrics, problems, setup_samples):
    attempted = sum(round_.attempted for round_ in rounds)
    failures = [f for round_ in rounds for f in round_.failures]
    op_times = [t for round_ in rounds for t in round_.op_times]
    print(f"workload {name}: {len(rounds)} round(s), "
          f"{attempted} operations attempted, {len(failures)} failed")
    print("  round wall s: " + ", ".join(f"{r.wall_s:.3f}" for r in rounds))
    print("  set-up s: " + ", ".join(f"{s:.3f}" for s in setup_samples))
    label, value = tail_percentile(op_times)
    tail = f", {label} {value * 1e3:.2f} ms" if label else ""
    print(f"  per operation: p50 {statistics.median(op_times) * 1e3:.2f} ms"
          f"{tail} over {len(op_times)} samples")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'pass' if not problems else f'{len(problems)} failed'}")
    for metric, (number, unit) in metrics.items():
        print(f"  {metric:<34} {number:>16.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            metric: {"value": number, "unit": unit}
            for metric, (number, unit) in metrics.items()
        },
    }


def run_workload(args) -> dict:
    import suite

    with suite.work_directory(WORK_PARENT) as workdir:
        workload = set_up(args.workload, args.seed, workdir)
        setup_samples = [time.perf_counter() - _STARTED]
        if args.trace:
            rounds, metrics = traced(workload)
        else:
            rounds = run_rounds(workload, args.seconds)
        problems = check_rounds(workload, rounds)
        if args.workload == "figure_grid":
            for line in suite.figure_accuracy(rounds[0].outputs["results"]):
                print(line)
    if not args.trace:
        setup_samples += [
            setup_probe(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = end_to_end(rounds, setup_samples)
    return report(args.workload, rounds, metrics, problems, setup_samples)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            return completed.returncode
        results[name] = json.loads(completed.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        import suite

        with suite.work_directory(WORK_PARENT) as workdir:
            set_up(args.workload, args.seed, workdir)
            print(time.perf_counter() - _STARTED)
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
