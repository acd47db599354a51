"""Self-test of the benchmark on A2 and G2.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that every metric named in
BENCHMARK.json is printed with its unit, that each tracer wrapper fires
where the workload reaches it and stays silent where the workload bypasses
it, that self time never exceeds inclusive time, that a missing name is
reported instead of crashing, that the correctness gate fails on a
corrupted reference, and that the speed probe interrupts a timed section
and is left out of its time.  Exit status 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run  # noqa: E402
from speed import PERIOD_S, SpeedProbe  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import ALL_CHECKS, QUADRIC_CHECKS, RESTRICTION_CHECKS  # noqa: E402

SPEC = {"types": ["A2", "G2"], "checks": list(ALL_CHECKS), "suite": True}


class Failed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise Failed(message)


def _traced(call):
    tracer = Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer


def test_metrics_emitted_with_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    # a stray cap would skip checks; the child environment must drop it
    os.environ["PETCOH_REDUCED_WORD_CAP"] = "-1"
    try:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(ROOT, SPEC, 0.0, trace, gate.load_reference())
            expect(result["correct"], f"trace={trace}: gate failed: {result['failures']}")
            expect(not result["missing"], f"missing names: {result['missing']}")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared[key]}
            expect(emitted == wanted, f"{key}: emitted {emitted} != declared {wanted}")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()), "non-numeric value")
    finally:
        del os.environ["PETCOH_REDUCED_WORD_CAP"]


def test_wrappers_fire_and_self_time_bounded():
    from petcoh import cli
    from petcoh.roots import cartan_matrix, parse_lie_type
    from petcoh.weyl import WeylGroup

    tracer = _traced(lambda: cli.run_suite(SPEC["types"]))
    silent = {layer for layer, stats in tracer.stats.items() if not stats["calls"]}
    # the pipeline never enumerates positive roots; reach them directly
    expect(silent == {"roots.positive_roots"}, f"wrappers that did not fire: {silent}")
    for layer, stats in tracer.stats.items():
        expect(stats["self_s"] <= stats["s"] + 1e-9,
               f"{layer}: self {stats['self_s']} > inclusive {stats['s']}")
    group = WeylGroup(cartan_matrix(parse_lie_type("G2")))
    tracer = _traced(group.all_elements)
    expect(tracer.stats["roots.positive_roots"]["calls"] == 1, "positive_roots did not fire")


def test_bypasses():
    from petcoh import cli

    quadric = _traced(lambda: cli.run_certification(
        cli.RunConfig("A2", checks=QUADRIC_CHECKS)))
    expect(quadric.stats["billey.localization"]["calls"] == 0, "quadric checks localized")
    gb = quadric.stats["commalg.groebner_basis"]
    expect((gb["calls"], len(gb["keys"])) == (6, 4),
           f"groebner calls/distinct {gb['calls']}/{len(gb['keys'])}, expected 6/4")
    restriction = _traced(lambda: cli.run_certification(
        cli.RunConfig("G2", checks=RESTRICTION_CHECKS)))
    expect(restriction.stats["commalg.groebner_basis"]["calls"] == 0,
           "restriction checks computed a Groebner basis")
    expect(restriction.stats["billey.localization"]["calls"] > 0, "no localization")


def test_missing_name_reported():
    tracer = Tracer()
    tracer.install(TARGETS[:1] + (("x.gone", "petcoh.weyl", "WeylGroup.gone", None, {}),))
    tracer.uninstall()
    expect(tracer.missing == ["petcoh.weyl.WeylGroup.gone"], f"missing: {tracer.missing}")


def test_gate_rejects_corrupted_reference():
    from petcoh import cli

    payload = cli.run_suite(SPEC["types"])
    observed = gate.observe(json.loads(json.dumps(payload))["types"])
    reference = gate.load_reference()
    _, failures = gate.judge(observed, SPEC["checks"], reference)
    expect(not failures, f"clean run failed the gate: {failures}")
    corrupted = copy.deepcopy(reference)
    corrupted["G2"]["graded_dims"]["computed"][1] += 1
    attempted, failures = gate.judge(observed, SPEC["checks"], corrupted)
    expect(failures == ["G2/graded_dims: witnesses differ from the reference"],
           f"corrupted reference gave {failures}")
    expect(attempted == 2 * (len(ALL_CHECKS) + 1), f"attempted {attempted}")


def test_speed_probe_co_samples():
    start = time.perf_counter()
    with SpeedProbe() as timer:
        while time.perf_counter() - start < 0.3:
            pass
    elapsed = time.perf_counter() - start
    expect(timer.probes >= 0.3 / PERIOD_S / 2, f"only {timer.probes} probes in 0.3 s")
    expect(0 < timer.wall_s < elapsed - timer.probe_s + 1e-3,
           f"wall {timer.wall_s} not net of {timer.probe_s} s of probes in {elapsed}")
    expect(timer.reference_s > 0, "no reference time")
    with SpeedProbe() as timer:
        pass
    expect(timer.probes >= 1 and timer.reference_s >= 0, "empty section not probed")


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Failed as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
