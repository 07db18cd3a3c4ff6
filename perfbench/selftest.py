"""Fast self-test of the benchmark's output checks, at tiny sizes.

Runs one small round of each workload, requires its checks to pass, then
doctors the round's outputs and requires the checks to reject each
doctored copy::

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py
"""

import atexit
import contextlib
import copy
import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import suite  # noqa: E402

run.load_program()

TINY = {
    "figure_grid": suite.FigureGrid.Scale(
        workloads=("apache",), n_procs=16, ops_per_proc=100
    ),
    "explorer_sweep": suite.ExplorerSweep.Scale(
        grid_seeds=1, fault_seeds=1, mutant_seeds=(0,),
        protocols=("tokenb", "directory"),
    ),
    "fork_family": suite.ForkFamily.Scale(
        warmup_ops=60, tail_ops=12, n_tails=2, n_procs=4,
        pairs=(("tokenb", "torus"), ("directory", "tree")),
    ),
}

_rounds = {}
_cleanup = contextlib.ExitStack()
atexit.register(_cleanup.close)


def tiny_round(name):
    """(workload, round) at the tiny scale, run once per process."""
    if name not in _rounds:
        workdir = _cleanup.enter_context(suite.work_directory(run.WORK_PARENT))
        workload = suite.WORKLOADS[name](3, workdir, TINY[name])
        _rounds[name] = (workload, workload.run_round())
    return _rounds[name]


def test_figure_grid_checks_pass_and_reject_a_swapped_runtime_pair():
    workload, round_ = tiny_round("figure_grid")
    assert round_.failures == []
    assert workload.check(round_) == []
    results = copy.deepcopy(round_.outputs["results"])
    bars = results["apache"]
    tokenb, snooping = bars["TokenB / torus"], bars["Snooping / tree"]
    tokenb["runtime_ns"], snooping["runtime_ns"] = (
        snooping["runtime_ns"], tokenb["runtime_ns"]
    )
    problems = suite.check_figure_results(results, 16 * 100)
    assert any("Fig 4a" in problem for problem in problems), problems


def test_figure_grid_rejects_a_short_run_and_inverted_traffic():
    _workload, round_ = tiny_round("figure_grid")
    results = copy.deepcopy(round_.outputs["results"])
    bars = results["apache"]
    bars["Hammer / torus"]["total_ops"] -= 1
    bars["Directory / torus"]["traffic_bytes"] = {"data": 10**9}
    problems = suite.check_figure_results(results, 16 * 100)
    assert any("retired" in problem for problem in problems), problems
    assert any("Fig 5b" in problem for problem in problems), problems


def test_explorer_checks_pass_and_count_an_undetected_mutant():
    workload, round_ = tiny_round("explorer_sweep")
    assert round_.failures == []
    assert workload.check(round_) == []
    outcomes = copy.deepcopy(round_.outputs["cold"])
    index = next(
        i for i, scenario in enumerate(workload.scenarios) if scenario.mutant
    )
    outcomes[index] = dataclasses.replace(
        outcomes[index], ok=True, violation_type=None, violation_message=None
    )
    failures = suite.failed_scenarios(workload.scenarios, outcomes)
    assert len(failures) == 1 and "mutant not caught" in failures[0], failures


def test_explorer_rejects_armed_drift_and_a_busy_replay():
    workload, round_ = tiny_round("explorer_sweep")
    outputs = dict(round_.outputs)
    outputs["cold"] = copy.deepcopy(outputs["cold"])
    first_legal = next(
        i for i, scenario in enumerate(workload.scenarios)
        if scenario.mutant is None and scenario.lineage
    )
    outputs["cold"][first_legal].events_fired += 1
    outputs["warm_executed"] = 1
    problems = suite.check_explorer_round(workload.scenarios, outputs)
    assert any("armed and unarmed" in p for p in problems), problems
    assert any("warm re-run executed" in p for p in problems), problems


def test_fork_family_checks_pass_and_reject_a_changed_counter():
    workload, round_ = tiny_round("fork_family")
    assert round_.failures == []
    assert workload.check(round_) == []
    families = copy.deepcopy(round_.outputs["families"])
    _config, calls = families[0]
    _tail, _hit, payload = calls[0]
    payload["counters"]["l2_miss"] += 1
    problems = suite.check_fork_round(workload.family, families, len(calls))
    assert any("counters differs from a cold replay" in p for p in problems), problems
    assert any("differs from its first fork" in p for p in problems), problems


def main() -> int:
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
