"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import io
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(12)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _golden() -> dict:
    return json.loads((BENCH / "golden.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for seed in SEEDS:
        assert workloads.make_plan(workload, seed) == workloads.make_plan(workload, seed)


@pytest.mark.parametrize("workload", ["poly-oracle", "conjecture1", "basis-queries"])
def test_seeds_change_inputs_but_not_the_work(workload):
    plans = [workloads.make_plan(workload, seed) for seed in SEEDS]
    assert len({(p.ops, p.instances) for p in plans}) == len(plans)

    def work(plan):
        # per op kind, the sizes of the rings it touches: equal for isomorphic variants
        ops = Counter(
            (op.argv[0], tuple(sorted(workloads.ring_size(s) for s in op.warm))) for op in plan.ops
        )
        pairs = Counter(
            tuple(sorted(workloads.ring_size(s.strip()) for s in line.split("|")))
            for line in plan.instances
        )
        return ops, pairs

    assert all(work(p) == work(plans[0]) for p in plans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_operation_has_a_recorded_output(workload):
    golden = _golden()
    for seed in SEEDS:
        plan = workloads.make_plan(workload, seed)
        for op in plan.ops:
            assert run.expected_output(workload, plan, op, golden) is not None, op.key


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span("cli", 0, 100, -1),
        tracing.Span("arithmetic.factor", 10, 30, 0),
        tracing.Span("compressed_graph.build", 40, 70, 0),
        tracing.Span("compressed_graph.serialize", 50, 60, 2),
        # overlapping children count once: 80..95 covered, not 80..90 + 85..95
        tracing.Span("isomorphism.search", 80, 90, 0),
        tracing.Span("isomorphism.search", 85, 95, 0),
    ]
    assert tracing.self_times(spans) == [100 - 20 - 30 - 15, 20, 20, 10, 10, 10]


def test_tracer_records_nesting_and_layer_totals():
    ticks = iter([0, 10, 30, 40, 70, 100])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def factor():
        return None

    def build():
        return None

    outer = tracer.open("cli")
    tracer.wrap("arithmetic.factor", factor)()
    tracer.wrap("compressed_graph.build", build)()
    tracer.close(outer)
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("cli", 0, 100, -1),
        ("arithmetic.factor", 10, 30, 0),
        ("compressed_graph.build", 40, 70, 0),
    ]
    metrics = tracing.layer_metrics(tracer.spans, wall_ns=100)
    assert metrics["cli.self_s"] == pytest.approx(50e-9)
    assert metrics["arithmetic.factor.self_s"] == pytest.approx(20e-9)
    assert metrics["arithmetic.factor.calls"] == 1


def test_metric_names_and_units_are_well_formed():
    bench = _benchmark_json()
    traced = set(tracing.layer_metrics([], wall_ns=1)) | {"cli.stdout_bytes", "trace.overhead_ratio"}
    assert {m["name"] for m in bench["per_layer"]} == traced
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    for metric in bench["per_layer"] + bench["end_to_end"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert metric["unit"] == run.unit_of(metric["name"])
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


# Small operations from every workload's command surface.
SMALL_OPS = [
    ["verify", "--max-n", "40"],
    ["graph", "F2[x]/(x^6)", "--format", "json"],
    ["graph", "F3[x]/(x^4+x^3)", "--format", "json"],
    ["compress", "F2[x,y]/(x^3,x^2*y,y^3)", "--loops", "--format", "json"],
    ["graph", "F2[x,y]/(x^4,y^2)", "--format", "json"],
    ["iso", "F2[x,y]/(x^4,x*y,y^3)", "F2[x,y]/(x^3,x*y,y^4)", "--loops"],
    ["compress", "Z/720720", "--loops", "--format", "dot"],
    ["compress", "Z/27720", "--format", "table"],
    ["compress", "F3[x]/(x^15+2*x^14+x^5+2*x^4+2*x^3+x^2)", "--format", "table"],
    ["iso", "Z/27720", "Z/41580"],
    ["iso", "F2[x]/(x^25+x^23+x^8+x^6+x^5+x^3)", "Z/360", "--loops"],
]
CONJ_LINES = ["Z/16 | F2[x]/(x^4+1)", "Z/27 | F3[x]/(x^3)", "Z/12 | Z/18", "Z/44 | Z/50"]


def _outputs(tmp_path: Path) -> list[str]:
    import zdgraph.cli as cli

    instances = tmp_path / "instances.txt"
    report = tmp_path / "report.jsonl"
    instances.write_text("\n".join(CONJ_LINES) + "\n")
    texts = []
    conj = ["conjecture", "1", "--instances", str(instances), "--report", str(report)]
    for argv in [*SMALL_OPS, conj]:
        out = io.StringIO()
        rc = cli.run(argv, out=out)
        texts.append(f"{rc}\n{out.getvalue()}")
    texts.append(report.read_text())
    return texts


def test_stdout_is_byte_identical_under_the_traced_wrappers(tmp_path):
    plain = _outputs(tmp_path)
    tracer = tracing.Tracer()
    tracer.install(worker.resolve)
    try:
        traced = _outputs(tmp_path)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {span.name for span in tracer.spans} == set(tracing.WRAPPED)
    assert _outputs(tmp_path) == plain
