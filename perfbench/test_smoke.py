"""Smoke test of the benchmark's own code: no timing, every check on.

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smallest_input_of_each_workload_passes_its_checks(name):
    wl = run.make_workload(name, 0)
    wl.setup()
    item = wl.smallest()
    assert run.run_op(wl, item, wl.call)[3]
    assert run.run_op(wl, item, wl.call_in_process)[3]
    tracer = run.Tracer()
    tracer.install(wl.lib.modules)
    try:
        assert run.run_op(wl, item, wl.call_in_process)[3]
    finally:
        tracer.uninstall()
    assert tracer.spans and not any(tracer.errors.values())
    assert run.pins_hold(wl.lib)


def test_reference_routes_give_the_headline_integers():
    for (n, degrees), count in reference.PINNED_LINE_COUNTS.items():
        assert reference.lines_on(n, degrees) == ("finite", count)
    assert reference.lines_on(4, (3,)) == ("family", 2, True)
    assert reference.lines_on(3, (4,)) == ("empty",)
    assert [reference.catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    # h0(O(1)) and h0(O(2)) of a cubic threefold in P^4
    assert reference.h0(4, (3,), 1) == 5 and reference.h0(4, (3,), 2) == 15
    # c_3(Sym^2 F) = 4 c1 c2
    assert reference.chern_identity_holds({(1, 1): 4}, 2)
    assert not reference.chern_identity_holds({(1, 1): 5}, 2)
    assert reference.chern_identity_holds({(1, 1): 9}, 2, Fraction(9, 4))


def test_checks_reject_a_wrong_result():
    wl = run.make_workload("lines-hyper", 0)
    wl.setup()
    item = wl.smallest()
    right = wl.call(item)
    wrong = wl.lib.lines.LineCount.finite(right.count + 1)
    assert wl.check(item, right) and not wl.check(item, wrong)
    cli = workloads.Cli(0, run.ROOT)
    assert not cli.check(workloads.README_EXAMPLES[0], (0, "result: finite count 2876\n", ""))


def test_every_seeded_pool_is_deterministic_and_in_range():
    for name, cls in workloads.WORKLOADS.items():
        assert cls(7, run.ROOT).pool == cls(7, run.ROOT).pool != cls(8, run.ROOT).pool
    for item in workloads.CiSurvey(3, run.ROOT).pool:
        _, n, degrees = item
        assert 60 <= n <= 140 and all(3 <= d <= 12 for d in degrees)
        assert abs(reference.expected_family_dim(n, degrees)) <= 1


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
