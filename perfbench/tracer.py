"""Spans recorded around calls into zdgraph's public functions.

The tracer wraps each public function at the name its consuming module
binds (``zdgraph.cli.factor_integer``, ``zdgraph.conjectures.graph_json``,
...), so a call made through that name opens a span.  Spans stay in memory
and are reduced to per-layer metrics when the traced round ends.  Private
names (``_model``, ``_scan``) are never wrapped: the work done through them
stays in the caller's self time, and ``trace.private_caller_share`` states
how large that caller time is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# Span name -> [(module, attribute)] that bind the function.  ``Graph`` is a
# class attribute of zdgraph.compressed_graph, patched on the class itself.
WRAPPED = {
    "arithmetic.factor": [
        ("zdgraph.cli", "factor_integer"),
        ("zdgraph.cli", "factor_polynomial"),
        ("zdgraph.sweeps", "factor_integer"),
        ("zdgraph.sweeps", "factor_polynomial"),
        ("zdgraph.conjectures", "factor_integer"),
        ("zdgraph.conjectures", "factor_polynomial"),
    ],
    "compressed_graph.build": [
        ("zdgraph.cli", "graph_from_factorization"),
        ("zdgraph.sweeps", "graph_from_factorization"),
        ("zdgraph.conjectures", "graph_from_exponents"),
    ],
    "compressed_graph.serialize": [
        ("zdgraph.cli", "to_json"),
        ("zdgraph.cli", "to_dot"),
        ("zdgraph.conjectures", "graph_json"),
        ("zdgraph.compressed_graph.Graph", "to_json"),
        ("zdgraph.compressed_graph.Graph", "to_dot"),
    ],
    "compressed_graph.expand": [("zdgraph.sweeps", "expand_to_full_graph")],
    "finite_ring.oracle_graph": [
        ("zdgraph.cli", "oracle_compressed_graph"),
        ("zdgraph.sweeps", "oracle_compressed_graph"),
        ("zdgraph.conjectures", "oracle_compressed_graph"),
    ],
    "finite_ring.full_graph": [
        ("zdgraph.cli", "full_zero_divisor_graph"),
        ("zdgraph.sweeps", "full_zero_divisor_graph"),
        ("zdgraph.conjectures", "full_zero_divisor_graph"),
    ],
    "isomorphism.search": [
        ("zdgraph.cli", "graphs_isomorphic"),
        ("zdgraph.sweeps", "graphs_isomorphic"),
        ("zdgraph.conjectures", "graphs_isomorphic"),
    ],
    "sweeps.oracle_equivalence": [("zdgraph.cli", "oracle_equivalence_sweep")],
    "sweeps.gcd_theorem": [("zdgraph.cli", "gcd_theorem_sweep")],
    "sweeps.blowup": [("zdgraph.cli", "blowup_sweep")],
    "conjectures.check1": [("zdgraph.cli", "check_conjecture1")],
    "cli": [("zdgraph.cli", "run"), ("zdgraph.cli", "compressed_for")],
}

# Callers whose bodies reach the private _model/_scan (sweeps.py imports
# them for the gcd-theorem scan and the blow-up matrix check), so part of
# their self time belongs to finite_ring without a span to show it.
PRIVATE_CALLERS = ("sweeps.gcd_theorem", "sweeps.blowup")

SCAN = "finite_ring.scan"


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into Tracer.spans, -1 for a root
    counters: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, **counters) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.counters.update(counters)
        self._stack.pop()

    def wrap(self, name: str, fn):
        counters_of = _COUNTERS.get(name, _no_counters)

        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, **counters_of(result))

        traced.__wrapped__ = fn
        return traced

    def install(self, resolve) -> None:
        """Patch every binding in WRAPPED; resolve maps a dotted path to its object."""
        for name, sites in WRAPPED.items():
            for owner_path, attr in sites:
                owner = resolve(owner_path)
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _no_counters(result) -> dict:
    return {}


def _graph_counters(result) -> dict:
    if result is None:
        return {}
    vertices = result.labels if hasattr(result, "labels") else result.vertices
    return {"vertices": len(vertices), "edges": len(result.edges)}


def _iso_counters(result) -> dict:
    return {} if result is None else {"nodes": result.nodes}


def _text_counters(result) -> dict:
    return {} if result is None else {"bytes": len(result.encode())}


def _verdict_counters(result) -> dict:
    return {} if result is None else {"verdict." + result.verdict: 1}


_COUNTERS = {
    "compressed_graph.build": _graph_counters,
    "compressed_graph.serialize": _text_counters,
    "compressed_graph.expand": _graph_counters,
    "finite_ring.oracle_graph": _graph_counters,
    "finite_ring.full_graph": _graph_counters,
    "isomorphism.search": _iso_counters,
    "conjectures.check1": _verdict_counters,
}


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0
        reach = span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span], wall_ns: int) -> dict[str, float]:
    """Per-layer metrics of one traced round whose ops took wall_ns in all."""
    selfs = self_times(spans)
    self_s: dict[str, float] = {name: 0.0 for name in WRAPPED}
    calls: dict[str, int] = {name: 0 for name in WRAPPED}
    totals: dict[str, int] = {}
    scan = {"int": 0, "vector": 0, "elements": 0}
    for span, own in zip(spans, selfs):
        if span.name == SCAN:
            scan[span.counters["model"]] += span.end - span.start
            scan["elements"] += span.counters["elements"]
            continue
        self_s[span.name] += own / 1e9
        calls[span.name] += 1
        for key, value in span.counters.items():
            totals[f"{span.name}.{key}"] = totals.get(f"{span.name}.{key}", 0) + value
    iso_calls = calls["isomorphism.search"]
    iso_by_invariant = sum(
        1 for s in spans if s.name == "isomorphism.search" and s.counters.get("nodes") == 0
    )
    searched_checks = _checks_reaching_search(spans)
    wall_s = wall_ns / 1e9
    metrics = {
        "arithmetic.factor.self_s": self_s["arithmetic.factor"],
        "arithmetic.factor.calls": calls["arithmetic.factor"],
        "compressed_graph.build.self_s": self_s["compressed_graph.build"],
        "compressed_graph.build.vertices": totals.get("compressed_graph.build.vertices", 0),
        "compressed_graph.build.edges": totals.get("compressed_graph.build.edges", 0),
        "compressed_graph.serialize.self_s": self_s["compressed_graph.serialize"],
        "compressed_graph.serialize.bytes": totals.get("compressed_graph.serialize.bytes", 0),
        "compressed_graph.expand.self_s": self_s["compressed_graph.expand"],
        "finite_ring.scan.int_s": scan["int"] / 1e9,
        "finite_ring.scan.vector_s": scan["vector"] / 1e9,
        "finite_ring.scan.elements": scan["elements"],
        "finite_ring.oracle_graph.self_s": self_s["finite_ring.oracle_graph"],
        "finite_ring.full_graph.self_s": self_s["finite_ring.full_graph"],
        "finite_ring.full_graph.vertices": totals.get("finite_ring.full_graph.vertices", 0),
        "finite_ring.full_graph.edges": totals.get("finite_ring.full_graph.edges", 0),
        "isomorphism.search.self_s": self_s["isomorphism.search"],
        "isomorphism.queries": iso_calls,
        "isomorphism.nodes": totals.get("isomorphism.search.nodes", 0),
        "isomorphism.invariant_ratio": iso_by_invariant / iso_calls if iso_calls else 0.0,
        "sweeps.oracle_equivalence.self_s": self_s["sweeps.oracle_equivalence"],
        "sweeps.gcd_theorem.self_s": self_s["sweeps.gcd_theorem"],
        "sweeps.blowup.self_s": self_s["sweeps.blowup"],
        "conjectures.check1.self_s": self_s["conjectures.check1"],
        "conjectures.check1.search_share": (
            searched_checks / calls["conjectures.check1"] if calls["conjectures.check1"] else 0.0
        ),
        "conjectures.verdict.supported": totals.get("conjectures.check1.verdict.supported", 0),
        "conjectures.verdict.counterexample": totals.get(
            "conjectures.check1.verdict.counterexample", 0
        ),
        "conjectures.verdict.skipped": totals.get("conjectures.check1.verdict.skipped", 0),
        "cli.self_s": self_s["cli"],
        "trace.private_caller_share": (
            sum(self_s[name] for name in PRIVATE_CALLERS) / wall_s if wall_s else 0.0
        ),
        "trace.spans": len(spans),
    }
    return metrics


def _checks_reaching_search(spans: list[Span]) -> int:
    """conjectures.check1 spans with an isomorphism search that expanded a node."""
    reached = set()
    for span in spans:
        if span.name == "isomorphism.search" and span.counters.get("nodes", 0) > 0:
            parent = span.parent
            while parent >= 0 and spans[parent].name != "conjectures.check1":
                parent = spans[parent].parent
            if parent >= 0:
                reached.add(parent)
    return len(reached)
