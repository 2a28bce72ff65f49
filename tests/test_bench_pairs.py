"""tools/bench_pairs.py reads paired perfbench records by the acceptance rule;
here perfbench() is replaced by synthetic records, so nothing is run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(side, wall, p90=0.010, correct=True, failed=0):
    metrics = {"setup_s": 0.1, "wall_s": wall, "op_p50_s": 0.005, "op_p90_s": p90, "peak_rss_mb": 40.0}
    return {
        "environment": {
            "git_commit": side, "python": "3.11", "numpy": "2.4", "nproc": 2, "cpu_model": "cpu",
        },
        "result": {"correct": correct, "failed": failed},
        "metrics": metrics,
    }


def fake_perfbench(monkeypatch, module, walls, **change_fields):
    """perfbench() returning, per side, the next wall time of walls[side]
    (traced runs repeat the first); change_fields go into every change record."""
    left = {side: list(values) for side, values in walls.items()}

    def perfbench(root, workload, seed, seconds, trace):
        side = root.name
        wall = walls[side][0] if trace else left[side].pop(0)
        return record(side, wall, **(change_fields if side == "change" else {}))

    monkeypatch.setattr(module, "perfbench", perfbench)


def run(module, tmp_path, pairs, *extra):
    out = tmp_path / "BENCH.json"
    argv = [
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--out", str(out),
        "--workload", "poly-oracle", "--seed", "5", "--seconds", "1", "--pairs", str(pairs), *extra,
    ]
    return module.main(argv), out


def test_a_clear_gain_and_steady_metrics(monkeypatch, tmp_path, bench_pairs):
    parent = [0.120, 0.118, 0.125, 0.121, 0.119, 0.122, 0.120, 0.123, 0.118, 0.121]
    change = [0.090, 0.092, 0.089, 0.091, 0.125, 0.090, 0.093, 0.088, 0.090, 0.091]
    fake_perfbench(monkeypatch, bench_pairs, {"parent": parent, "change": change})
    code, out = run(bench_pairs, tmp_path, 10, "--trace")
    assert code == 0
    entry = json.loads(out.read_text())["workloads"]["poly-oracle"]
    wall = entry["acceptance"]["wall_s"]
    assert (wall["change_wins"], wall["reading"]) == (9, "gain")
    assert wall["median_diff"] == pytest.approx(0.0905 - 0.1205)
    assert wall["parent_iqr"] > 0
    # equal runs on both sides: no wins, no difference
    p90 = entry["acceptance"]["op_p90_s"]
    assert p90 == {"parent_iqr": 0.0, "median_diff": 0.0, "change_wins": 0, "reading": "within bound"}
    assert set(entry["per_layer"]) == {"parent", "change"}


def test_worse_and_unresolved_readings(bench_pairs):
    bound = 0.25
    assert bench_pairs.reading([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], bound)["reading"] == "worse"
    assert bench_pairs.reading([1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], bound)["reading"] == "within bound"
    spread = bench_pairs.reading([0.5, 1.0, 1.5, 2.0], [1.1, 1.0, 1.2, 0.9], bound)
    assert spread["reading"] == "unresolved"
    below = bench_pairs.reading([0.5, 1.0, 1.5, 2.0], [0.4, 0.45, 0.3, 0.4], bound)
    assert below["reading"] == "within bound"
    # eight wins in ten fall short of nine in ten
    parent, change = [1.0] * 10, [0.5] * 8 + [1.5] * 2
    assert bench_pairs.reading(parent, change, bound)["reading"] == "within bound"


def test_the_bounds_come_from_the_benchmark_file(bench_pairs):
    declared = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_pairs.bounds() == {m["name"]: m["bound"] for m in declared}
    assert set(bench_pairs.bounds()) == set(bench_pairs.END_TO_END)


@pytest.mark.parametrize("fault", [{"correct": False}, {"failed": 2}])
def test_a_run_that_does_not_count_writes_nothing(monkeypatch, tmp_path, bench_pairs, fault):
    fake_perfbench(monkeypatch, bench_pairs, {"parent": [0.12] * 4, "change": [0.09] * 4}, **fault)
    code, out = run(bench_pairs, tmp_path, 4)
    assert code == 1
    assert not out.exists()
