"""The summary step of `tools/bench_pairs.py` on synthetic run records,
and its preparation of the two sides."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))  # the tools import their sibling `revision`
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"rate": "higher", "time": "lower", "f1": "higher"}


def _run(workload, pair, side, rate, time, f1=0.5, raw_rate=None):
    return {"workload": workload, "pair": pair, "side": side,
            "metrics": {"rate": rate, "time": time, "f1": f1},
            "unscaled_metrics": {"rate": raw_rate or rate, "time": time, "f1": f1}}


def test_gains_wins_and_quartiles_per_pair():
    runs = []
    # the tree runs first in odd pairs; pairs match by number, not order
    for pair, (rev, tree) in enumerate([(100, 110), (100, 120), (100, 90), (100, 130), (100, 115)]):
        sides = [("rev", rev), ("tree", tree)]
        for side, rate in sides if pair % 2 == 0 else sides[::-1]:
            runs.append(_run("long", pair, side, rate, time=200.0 / rate, raw_rate=2 * rate))
    summary = bench_pairs.summarize(runs, BETTER)["long"]
    rate = summary["rate"]["metrics"]
    assert rate["pairs"] == 5
    assert (rate["tree_wins"], rate["tree_losses"], rate["ties"]) == (4, 1, 0)
    assert rate["median_gain"] == pytest.approx(0.15)
    assert rate["rev"] == {"q1": 100, "median": 100, "q3": 100}
    assert rate["tree"] == {"q1": 110, "median": 115, "q3": 120}
    assert summary["rate"]["unscaled_metrics"]["tree"]["median"] == 230
    # a lower-is-better time gains as the rate does: rev / tree - 1
    assert summary["time"]["metrics"]["median_gain"] == pytest.approx(0.15)
    assert summary["time"]["metrics"]["tree_wins"] == 4
    f1 = summary["f1"]["metrics"]
    assert (f1["tree_wins"], f1["tree_losses"], f1["ties"], f1["median_gain"]) == (0, 0, 5, 0.0)


def test_workloads_apart_and_unmatched_runs_left_out():
    runs = [_run("desk", 0, "rev", 10, 1.0), _run("desk", 0, "tree", 20, 2.0),
            _run("mimic", 0, "tree", 5, 1.0), _run("mimic", 0, "rev", 4, 1.0),
            _run("mimic", 1, "rev", 4, 1.0)]  # a pair cut short
    summary = bench_pairs.summarize(runs, BETTER)
    assert list(summary) == ["desk", "mimic"]
    assert summary["desk"]["rate"]["metrics"]["median_gain"] == pytest.approx(1.0)
    assert summary["desk"]["time"]["metrics"]["median_gain"] == pytest.approx(-0.5)
    assert summary["mimic"]["rate"]["metrics"]["pairs"] == 1
    assert summary["mimic"]["rate"]["metrics"]["median_gain"] == pytest.approx(0.25)


def test_metric_missing_from_a_run_is_left_out():
    runs = [_run("desk", 0, "rev", 10, 1.0), _run("desk", 0, "tree", 20, 2.0)]
    del runs[1]["unscaled_metrics"]["f1"]
    assert set(bench_pairs.summarize(runs, BETTER)["desk"]) == {"rate", "time"}


def test_schedule_alternates_untraced_then_traced_pairs():
    runs = bench_pairs.schedule({"desk": 2, "mimic": 1}, traced=2)
    assert runs == [
        ("desk", 0, "rev", 0), ("desk", 0, "tree", 0), ("mimic", 0, "rev", 0),
        ("mimic", 0, "tree", 0), ("desk", 1, "tree", 0), ("desk", 1, "rev", 0),
        # every workload's traced pairs, whatever its untraced count
        ("desk", 0, "rev", 1), ("desk", 0, "tree", 1), ("mimic", 0, "rev", 1),
        ("mimic", 0, "tree", 1), ("desk", 1, "tree", 1), ("desk", 1, "rev", 1),
        ("mimic", 1, "tree", 1), ("mimic", 1, "rev", 1),
    ]
    assert bench_pairs.schedule({"long": 1}, traced=0) == [("long", 0, "rev", 0),
                                                           ("long", 0, "tree", 0)]


def test_traced_runs_summarized_per_layer_from_one_kind():
    # a traced run holds its per-layer metrics, unscaled, under `metrics` alone
    runs = []
    for pair, (rev, tree) in enumerate([(4.0, 3.0), (5.0, 4.0), (4.5, 5.0)]):
        for side, backward in (("rev", rev), ("tree", tree)):
            runs.append({"workload": "desk", "pair": pair, "side": side, "trace": 1,
                         "metrics": {"model.backward_s": backward, "train.adam_steps": 300}})
    layer = {"model.backward_s": "lower", "train.adam_steps": "lower", "train.epochs": "higher"}
    summary = bench_pairs.summarize(runs, layer, kinds=("metrics",))["desk"]
    assert set(summary) == {"model.backward_s", "train.adam_steps"}
    backward = summary["model.backward_s"]
    assert set(backward) == {"metrics"}
    assert backward["metrics"]["rev"] == {"q1": 4.25, "median": 4.5, "q3": 4.75}
    assert backward["metrics"]["tree"] == {"q1": 3.5, "median": 4.0, "q3": 4.5}
    assert (backward["metrics"]["tree_wins"], backward["metrics"]["tree_losses"]) == (2, 1)
    assert summary["train.adam_steps"]["metrics"]["ties"] == 3


def _rates(rev, tree):
    return [_run("long", pair, side, rate, time=1.0)
            for pair, both in enumerate(zip(rev, tree))
            for side, rate in zip(("rev", "tree"), both)]


def _rate_verdicts(rev, tree, bound=0.25):
    summary = bench_pairs.summarize(_rates(rev, tree), {"rate": "higher", "time": "lower"},
                                    bounds={"rate": bound})
    return summary["long"]["rate"]["metrics"], summary["long"]["time"]["metrics"]


def test_claim_needs_nine_of_ten_pairs_won_and_medians_past_the_iqr():
    rev = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]  # IQR 99..100.75
    rate, time = _rate_verdicts(rev, [110] * 9 + [90])
    assert (rate["tree_wins"], rate["claim_met"]) == (9, True)
    # a tie counts for neither side: 8 wins and 2 ties fall short
    rate, _ = _rate_verdicts(rev, [110] * 8 + rev[8:])
    assert (rate["tree_wins"], rate["ties"], rate["claim_met"]) == (8, 2, False)
    # 10 of 10 won by less than the revision's spread
    rate, _ = _rate_verdicts(rev, [r + 1 for r in rev])
    assert (rate["tree_wins"], rate["claim_met"]) == (10, False)
    # a metric without a bound has no bound verdict, and equal runs claim nothing
    assert "within_bound" not in time and time["claim_met"] is False


def test_bound_verdict_from_the_median_or_unresolved_by_the_revisions_spread():
    rev = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]
    assert _rate_verdicts(rev, [80] * 10)[0]["within_bound"] is True
    assert _rate_verdicts(rev, [70] * 10)[0]["within_bound"] is False
    # the revision's spread (IQR 60..140) is wider than the bound
    wide = [60, 140, 60, 140, 60, 140, 60, 140, 100, 100]
    assert _rate_verdicts(wide, [75] * 10)[0]["within_bound"] == "unresolved"
    assert _rate_verdicts(wide, [30] * 10)[0]["within_bound"] == "unresolved"
    # unless every tree run beats every revision run
    assert _rate_verdicts(wide, [150] * 10)[0]["within_bound"] is True
    # lower is better: a time 20% longer is within a 0.25 bound, 30% is not
    runs = _rates([1] * 4, [1] * 4)
    for r, t in zip(runs[::2], runs[1::2]):
        r["metrics"]["time"], t["metrics"]["time"] = 1.0, 1.2
    summary = bench_pairs.summarize(runs, {"time": "lower"}, kinds=("metrics",),
                                    bounds={"time": 0.25})
    assert summary["long"]["time"]["metrics"]["within_bound"] is True
    for t in runs[1::2]:
        t["metrics"]["time"] = 1.3
    summary = bench_pairs.summarize(runs, {"time": "lower"}, kinds=("metrics",),
                                    bounds={"time": 0.25})
    assert summary["long"]["time"]["metrics"]["within_bound"] is False


def test_probe_scale_is_each_sides_median_of_scaled_over_raw():
    runs = []
    for pair, (rev_raw, tree_raw) in enumerate([(50, 80), (40, 100), (25, 1)]):
        runs.append(_run("long", pair, "rev", 100, time=1.0, raw_rate=rev_raw))
        runs.append(_run("long", pair, "tree", 100, time=1.0, raw_rate=tree_raw))
    runs[-1]["unscaled_metrics"]["rate"] = 0.0  # gives no ratio
    runs.append(_run("desk", 0, "tree", 10, time=2.0))
    runs[-1]["unscaled_metrics"]["time"] = 4.0
    del runs[-1]["unscaled_metrics"]["f1"]  # nor does a missing metric
    scales = bench_pairs.probe_scales(runs, BETTER)
    assert scales["long"]["rev"] == {"rate": 2.5, "time": 1.0, "f1": 1.0}  # 2.5 of 2, 2.5, 4
    assert scales["long"]["tree"] == {"rate": 1.125, "time": 1.0, "f1": 1.0}  # of 1.25, 1
    assert scales["desk"] == {"tree": {"rate": 1.0, "time": 0.5}}


def test_both_sides_are_prepared_alike_outside_the_repo(tmp_path, monkeypatch):
    # the revision's `git archive`, here of the working tree's own source
    monkeypatch.setattr(bench_pairs, "extract_src",
                        lambda rev, dest: shutil.copytree(ROOT / "src", dest / "src"))
    roots = bench_pairs.prepare_sides(tmp_path, "HEAD")

    def layout(root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                      if "__pycache__" not in p.parts)

    assert roots == {"rev": tmp_path / "rev", "tree": tmp_path / "tree"}
    assert all(ROOT not in (root, *root.parents) for root in roots.values())
    assert layout(roots["rev"]) == layout(roots["tree"])
    assert {"src/mvclda/cli.py", "bench/run.py"} <= set(layout(roots["tree"]))
