"""Tests of the benchmark's own checker and tracer.

Run with: python3 -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HEADER = "family,M,N,p,value,formula,oracle,agrees\n"


def _window_op(defect=None):
    check = {"type": "count", "family": "window-min",
             "grid": [["M", ["4", "5"]], ["N", ["2"]], ["p", ["1"]]]}
    if defect:
        check["defect"] = defect
    return {"cli": ["count"], "check": check}


def _rows(*rows):
    return HEADER + "".join(f"window-min,{m},2,1,{v},min-window-binomial,{o},{a}\n"
                            for m, v, o, a in rows)


# C(4, 2) = 6 and C(5, 2) = 10 sorted pairs; the word counts are 12 and 20.
GOOD = _rows((4, 6, 6, "true"), (5, 10, 10, "true"))


def _pass_ratios(*tallies):
    total = checks.Tally()
    for tally in tallies:
        total.add(tally)
    return total.fail_ratio, total.disagree_ratio


def test_correct_rows_give_no_fail_and_no_disagreement():
    tally = checks.check_op(_window_op(), {"rc": 0, "text": GOOD})
    assert (tally.defined, tally.failed, tally.delivered, tally.disagree) == (2, 0, 2, 0)
    assert not tally.unexpected


def test_wrong_value_counts_as_failure():
    wrong = _rows((4, 7, 7, "true"), (5, 10, 10, "true"))
    tally = checks.check_op(_window_op(), {"rc": 0, "text": wrong})
    assert tally.failed == 1 and tally.disagree == 0
    assert tally.unexpected


def test_route_disagreement_is_counted_apart_from_failures():
    split = _rows((4, 6, 12, "false"), (5, 10, 10, "true"))
    tally = checks.check_op(_window_op(), {"rc": 1, "text": split})
    assert tally.failed == 0 and tally.disagree == 1


def test_aborted_invocation_moves_both_ratios():
    split = _rows((4, 6, 12, "false"), (5, 10, 10, "true"))
    disagreeing = checks.check_op(_window_op(), {"rc": 1, "text": split})
    healthy = checks.check_op(_window_op(), {"rc": 0, "text": GOOD})
    aborted = checks.check_op(_window_op(), {"rc": 2, "text": None})
    assert aborted.failed == aborted.defined == 2 and aborted.delivered == 0
    before = _pass_ratios(disagreeing, healthy)
    after = _pass_ratios(disagreeing, aborted)
    assert before == (0.0, 0.25)
    assert after == (0.5, 0.5)


def test_known_defect_verdicts_are_allowed_only_as_declared():
    split = _rows((4, 6, 12, "false"), (5, 10, 10, "true"))
    allowed = checks.check_op(_window_op({"name": "d", "allow": {"disagree": 1}}),
                              {"rc": 1, "text": split})
    assert allowed.disagree == 1 and not allowed.unexpected
    aborted = checks.check_op(_window_op({"name": "d", "allow": {"disagree": 1}}),
                              {"rc": 2, "text": None})
    assert aborted.missing == 2 and aborted.unexpected


def test_known_defect_may_not_grow_beyond_its_seed_value():
    both = _rows((4, 6, 12, "false"), (5, 10, 20, "false"))
    grown = checks.check_op(_window_op({"name": "d", "allow": {"disagree": 1}}),
                            {"rc": 1, "text": both})
    assert grown.disagree == 2 and grown.unexpected
    fixed = checks.check_op(_window_op({"name": "d", "allow": {"disagree": 1}}),
                            {"rc": 0, "text": GOOD})
    assert fixed.disagree == 0 and not fixed.unexpected


def test_aborting_defect_does_not_cover_wrong_values():
    defect = {"name": "d", "allow": {"missing": 2}}
    assert not checks.check_op(_window_op(defect), {"rc": 2, "text": None}).unexpected
    wrong = _rows((4, 7, 7, "true"), (5, 10, 10, "true"))
    tally = checks.check_op(_window_op(defect), {"rc": 0, "text": wrong})
    assert tally.wrong == 1 and tally.unexpected


def test_registered_defects_match_their_seed_grids():
    pinned = {op["check"]["defect"]["name"]: op["check"]["defect"]["allow"]
              for op in workloads.KNOWN_DEFECTS}
    assert pinned == {
        "window-min-oracle": {"disagree": 39},
        "haldane-wu-undefined-point": {"missing": 24},
        "cs-finite-wall-abort": {"missing": 3},
        "cs-finite-floor-convention": {"disagree": 3},
    }
    # Every defined point of an aborted invocation is missing.
    by_name = {op["check"]["defect"]["name"]: op for op in workloads.KNOWN_DEFECTS}
    for name in ("haldane-wu-undefined-point", "cs-finite-wall-abort"):
        tally = checks.check_op(by_name[name], {"rc": 2, "text": None})
        assert tally.missing == pinned[name]["missing"] and not tally.unexpected


def test_percentiles_are_one_operations_latency():
    latencies = [float(v) for v in range(1, 15)]
    assert run._nearest_rank(latencies, 0.5) == 7.0
    assert run._nearest_rank(latencies, 0.9) == 13.0
    assert run._nearest_rank([5.0], 0.9) == 5.0


def test_undefined_haldane_points_are_not_counted():
    op = {"cli": ["count"], "check": {
        "type": "count", "family": "haldane-wu",
        "grid": [["M", ["6"]], ["N", ["1", "2", "3", "4"]], ["g", ["1/2"]]]}}
    tally = checks.check_op(op, {"rc": 2, "text": None})
    assert tally.defined == 2 and tally.failed == 2


def test_expected_ranks():
    def rank(multiset, alg, rule=None):
        return checks.expected_rank({"multiset": multiset, "alg": alg, "rule": rule})
    assert rank([1, 2, 3], "quon:1/2") == 6
    assert rank([1, 1, 2], "quon:0") == 3
    assert rank([1, 2, 3], "bose") == 1
    assert rank([1, 2, 3], "fermi") == 1
    assert rank([1, 1, 2], "fermi") == 0
    assert rank([1, 2, 3], "quon:-1/3", ["cs", 1, 1]) == 1
    assert rank([1, 2, 4], "quon:2/3", ["window", 2, "min"]) == 2
    assert rank([1, 5, 9], "bose", ["window", 2, "max"]) == 0


def test_sector_with_wrong_rank_fails():
    op = {"sector": {"multiset": [1, 2, 3], "alg": "bose", "rule": None},
          "check": {"type": "sector"}}
    assert checks.check_op(op, {"value": 1}).failed == 0
    assert checks.check_op(op, {"value": 6}).failed == 1
    assert checks.check_op(op, {"value": None}).failed == 1


def test_verify_row_count_and_status():
    op = {"cli": ["verify"], "check": {"type": "verify", "kind": "gram-rank"}}
    rows = "check,params,status,detail\n" + "gram-rank,x,pass,d\n" * 9
    rows_fail = rows + "gram-rank,x,fail,d\n"
    assert checks.check_op(op, {"rc": 0, "text": rows}, {"gram-rank": 10}).failed == 10
    tally = checks.check_op(op, {"rc": 1, "text": rows_fail}, {"gram-rank": 10})
    assert tally.failed == 0 and tally.disagree == 1


def test_count_sorted_matches_binomials():
    from math import comb
    assert checks.count_sorted(7, 3, lambda g: g >= 1) == comb(7, 3)
    assert checks.count_sorted(7, 3, lambda g: g >= 0) == comb(9, 3)
    assert checks.count_capped_multisets(5, 3, 1) == comb(5, 3)
    assert checks.count_capped_multisets(5, 3, 3) == comb(7, 3)


def test_workloads_are_seeded_and_fixed_in_shape():
    for workload in workloads.WORKLOADS:
        a, b = workloads.generate(workload, 3), workloads.generate(workload, 3)
        assert a == b
        assert len(a) == len(workloads.generate(workload, 4))


def test_pass_times_are_scaled_to_the_reference_speed():
    slow = run.Pass(traced=True)
    ref = run.CALIBRATION_REF_S
    slow.reports = [
        {"setup_s": 0.2, "op_s": 1.0, "cal_s": 2 * ref, "layers": {"gram": [3, 0.5]}},
        {"setup_s": 0.2, "op_s": 3.0, "cal_s": 2 * ref},
        {"error": "no calibration"},
    ]
    run._scale_to_reference(slow)
    assert slow.calibration_s == 2 * ref
    assert slow.wall_s == 2.0
    assert slow.reports[0]["setup_s"] == 0.1
    assert slow.reports[0]["layers"]["gram"] == [3, 0.25]


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")

    def leaf(x):
        return x + 1

    def outer(x):
        return inner.leaf(x) + inner.leaf(x)

    inner.leaf, inner.outer = leaf, outer
    pkg.outer = outer
    return {"fakepkg": pkg, "fakepkg.inner": inner}


def test_tracer_wraps_every_namespace_and_reports_absent_names(monkeypatch):
    for name, module in _fake_package().items():
        monkeypatch.setitem(sys.modules, name, module)
    tracer = spans.Tracer()
    tracer.install("fakepkg", [("outer", "fakepkg.inner", "outer", None),
                               ("leaf", "fakepkg.inner", "leaf", None),
                               ("gone", "fakepkg.inner", "missing", None)])
    assert sys.modules["fakepkg"].outer(1) == 4
    assert tracer.absent == ["fakepkg.inner.missing"]
    totals = tracer.layer_totals()
    assert totals["outer"][0] == 1 and totals["leaf"][0] == 2
    outer_span = tracer.spans[0]
    duration = (outer_span[2] - outer_span[1]) / 1e9
    children = sum(s[2] - s[1] for s in tracer.spans[1:]) / 1e9
    assert abs(totals["outer"][1] - (duration - children)) < 1e-9
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == dict(run.END_TO_END + run.PER_LAYER)[metric["name"]]
