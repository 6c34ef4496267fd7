"""scripts/bench_pairs.py: the summary of alternating benchmark pairs."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def _runs(**metrics):
    """Runs with the given per-run values of each metric (unit 's')."""
    n = len(next(iter(metrics.values())))
    return [{"seed": i + 1, "metrics": {name: {"value": v[i], "unit": "s"}
                                        for name, v in metrics.items()}}
            for i in range(n)]


def test_summary_on_fixed_numbers():
    parent = _runs(wall_s=[1.0, 2.0, 3.0, 4.0, 5.0], steps=[4, 4, 4, 4, 4])
    change = _runs(wall_s=[0.5, 2.5, 1.0, 4.0, 2.0], steps=[4, 4, 4, 4, 4])
    s = bench_pairs.summary(parent, change)
    assert s["wall_s"] == {
        "unit": "s", "parent_median": 3.0, "change_median": 2.0,
        # exclusive quartiles of 1..5: 1.5 and 4.5
        "parent_iqr": 3.0, "change_lower_in": 3, "change_higher_in": 1,
        "pairs": 5, "rel": pytest.approx(-1.0 / 3.0)}
    assert s["steps"]["change_lower_in"] == s["steps"]["change_higher_in"] \
        == 0
    assert s["steps"]["rel"] == 0.0 and s["steps"]["parent_iqr"] == 0.0


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_committed_summaries_match_their_runs(path):
    """Every committed BENCH_*.json summarizes the runs it holds."""
    data = json.loads(path.read_text())
    assert data["workload"] == path.stem.removeprefix("BENCH_")
    assert data["summary"] == bench_pairs.summary(data["parent"]["runs"],
                                                  data["change"]["runs"])
