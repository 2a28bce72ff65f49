"""Exhaustive cross-validation sweeps between the two construction routes.

Every sweep compares independent computations: the divisor-basis route knows
only factorizations, the oracle route knows only multiplication tables. A
failure string means a contract was broken. Findings are observations a sweep
is asked to report (necessity counterexamples) without treating them as
errors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, product
from math import comb
from typing import NamedTuple

import numpy as np

from .arithmetic import Factorization, factor_integer, factor_polynomial, monic_polys
from .compressed_graph import (
    CompressedGraph,
    expand_to_full_graph,
    gcd_class_residues,
    graph_from_factorization,
    signature,
    vertex_count,
)
from .finite_ring import (
    IntegersMod,
    PolyQuotient,
    element_label,
    full_zero_divisor_graph,
    oracle_compressed_graph,
    ring_table,
    zero_divisor_classes,
)
# no sweep calls graphs_isomorphic; perfbench/tracer.py wraps it under this name
from .isomorphism import canonical_form, graphs_isomorphic  # noqa: F401


@dataclass(frozen=True)
class SweepOutcome:
    name: str
    checked: int
    failures: tuple[str, ...]
    findings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _each_ring(name: str, rings, check) -> SweepOutcome:
    """check(*ring, failures, tag) for each (tag, *ring) of rings, in order;
    checked counts rings, and the sweep stops once more than 20 failures are in."""
    failures: list[str] = []
    checked = 0
    for tag, *ring in rings:
        check(*ring, failures, tag)
        checked += 1
        if len(failures) > 20:
            break
    return SweepOutcome(name, checked, tuple(failures))


def _compare_routes(fact: Factorization, spec, failures, tag):
    """Check the basis graph of fact against the oracle graph of spec as both
    routes print them: each proper divisor is its own residue, so the residue
    map the failure texts name is the identity."""
    for loops in (False, True):
        basis = graph_from_factorization(fact, loops=loops)
        oracle = oracle_compressed_graph(spec, loops=loops)
        if [v.label for v in basis.vertices] != [v.label for v in oracle.vertices]:
            failures.append(f"{tag}: vertex sets differ under residue map (loops={loops})")
            return
        if basis.edges != oracle.edges:
            failures.append(f"{tag}: edge sets differ under residue map (loops={loops})")
            return
        if loops and [v.loop for v in basis.vertices] != [v.loop for v in oracle.vertices]:
            failures.append(f"{tag}: loop sets differ under residue map (loops={loops})")
            return
        if vertex_count(fact) != len(oracle.vertices):
            failures.append(f"{tag}: vertex_count formula disagrees with oracle")
            return


def oracle_equivalence_sweep(max_n: int = 2000, min_n: int = 2) -> SweepOutcome:
    """Basis route vs oracle route on Z/n for every n in min_n..max_n;
    checked counts rings."""
    rings = ((f"Z/{n}", factor_integer(n), IntegersMod(n)) for n in range(min_n, max_n + 1))
    return _each_ring("oracle_equivalence", rings, _compare_routes)


def polynomial_oracle_sweep(ps=(2, 3, 5), max_deg: int = 4) -> SweepOutcome:
    """Basis route vs oracle route on F_p[x]/(f) for every monic f."""
    polys = ((p, f) for p in ps for deg in range(2, max_deg + 1) for f in monic_polys(p, deg))
    rings = ((f"F{p}[x]/({f})", factor_polynomial(f, p), PolyQuotient(p, f)) for p, f in polys)
    return _each_ring("polynomial_oracle", rings, _compare_routes)


def gcd_theorem_sweep(max_n: int = 500, min_n: int = 2) -> SweepOutcome:
    """Every a shares its annihilator with the element built from its
    clipped exponent vector, in Z/n for every n in min_n..max_n; checked
    counts elements."""
    failures: list[str] = []
    checked = 0
    for n in range(min_n, max_n + 1):
        rep = gcd_class_residues(factor_integer(n))
        ids = ring_table(IntegersMod(n)).scan.class_ids
        wrong = np.flatnonzero(ids != ids[rep])[: 21 - len(failures)].tolist()
        failures += [f"Z/{n}: a={a} lands in a different class than {rep[a]}" for a in wrong]
        if len(failures) > 20:
            # the per-element count stops at the element that failed last
            return SweepOutcome("gcd_theorem", checked + wrong[-1] + 1, tuple(failures))
        checked += n
    return SweepOutcome("gcd_theorem", checked, tuple(failures))


def _blowup_object_check(spec, failures, tag):
    compressed = oracle_compressed_graph(spec, loops=True)
    if not compressed.vertices:
        return
    expanded = expand_to_full_graph(compressed)
    full = full_zero_divisor_graph(spec)
    rename = {}
    for cls in zero_divisor_classes(spec):
        label = element_label(spec, cls.representative)
        for t, m in enumerate(cls.members, 1):
            rename[f"{label}#{t}"] = element_label(spec, m)
    # a class the two listings name differently leaves a None
    labels = [rename.get(s) for s in expanded.labels]
    renamed = None not in labels and len(set(labels)) == len(labels)
    got = expanded.relabel(labels) if renamed else None
    if got is None or got.labels != full.labels:
        failures.append(f"{tag}: expansion vertex set differs from full graph")
    elif got.edges != full.edges:
        failures.append(f"{tag}: expansion edge set differs from full graph")


def _blowup_matrix_check(spec, failures, tag):
    table = ring_table(spec)
    scan, model = table.scan, table.model
    if not scan.zd_gids:
        return
    reps = np.array([scan.groups[gid].first for gid in scan.zd_gids], dtype=np.int64)
    adj = model.mul_rows(reps, reps) == 0
    zds = np.flatnonzero(np.isin(scan.class_ids, list(scan.zd_gids)))
    rows_of = np.full(model.size, -1, dtype=np.int64)
    for row, gid in enumerate(scan.zd_gids):
        rows_of[scan.groups[gid].members] = row
    cid = rows_of[zds]
    block = model.block_rows(len(zds))
    for start in range(0, len(zds), block):
        chunk = zds[start : start + block]
        actual = model.mul_rows(chunk, zds) == 0
        predicted = adj[rows_of[chunk][:, None], cid[None, :]]
        if not np.array_equal(actual, predicted):
            failures.append(f"{tag}: class adjacency fails to predict element products")
            return


def _blowup_check(spec, object_level: bool, failures, tag):
    if object_level:
        _blowup_object_check(spec, failures, tag)
    _blowup_matrix_check(spec, failures, tag)


def blowup_sweep(
    max_n: int = 2000, object_level_max: int = 300, extra_specs=(), min_n: int = 2
) -> SweepOutcome:
    """Compressed-graph blow-up reproduces the full zero-divisor graph, on
    Z/n for every n in min_n..max_n and on every extra spec; checked
    counts rings.

    Every ring is checked as adjacency matrices, the identity without graph
    packaging. Rings up to object_level_max, and every extra spec, get both
    checks: they also go through the public expand_to_full_graph path.
    """
    rings = chain(
        ((f"Z/{n}", IntegersMod(n), n <= object_level_max) for n in range(min_n, max_n + 1)),
        ((repr(spec), spec, True) for spec in extra_specs),
    )
    return _each_ring("blowup", rings, _blowup_check)


def nz_lemma_sweep(specs) -> SweepOutcome:
    """Multiplying by a regular element never moves anything across classes."""
    failures: list[str] = []
    checked = 0
    for spec in specs:
        table = ring_table(spec)
        scan, model = table.scan, table.model
        ids = scan.class_ids
        units = np.flatnonzero(np.array([g.ann_count == 1 for g in scan.groups])[ids])
        block = model.block_rows(model.size)
        for start in range(0, len(units), block):
            rows = model.mul_rows(units[start : start + block])
            if not np.array_equal(ids[rows], np.broadcast_to(ids, rows.shape)):
                failures.append(f"{spec!r}: a regular multiple changed class")
                break
        else:
            checked += len(units) * model.size
    return SweepOutcome("nz_lemma", checked, tuple(failures))


class _Modulus(NamedTuple):
    n: int
    signature: tuple[int, ...]
    graph: CompressedGraph  # looped; keyed with loops ignored, it reads as unlooped
    looped: tuple  # its canonical key


def _keyed_moduli(max_n: int) -> list[_Modulus]:
    """Every n in 2..max_n, factored once, its looped basis graph built and keyed
    once: equal keys mean isomorphic graphs, so moduli are compared by key."""
    moduli = []
    for n in range(2, max_n + 1):
        fact = factor_integer(n)
        g = graph_from_factorization(fact, loops=True)
        moduli.append(_Modulus(n, signature(fact), g, canonical_form(g).key))
    return moduli


def signature_sufficiency_sweep(max_n: int = 300) -> SweepOutcome:
    """Equal signatures force isomorphic compressed graphs, looped or not: each modulus's
    keys against its signature's first modulus's; checked counts the moduli compared."""
    failures: list[str] = []
    checked = 0
    first: dict[tuple, tuple[_Modulus, dict]] = {}
    for m in sorted(_keyed_moduli(max_n), key=lambda m: m.signature):
        keys = {"looped": m.looped, "unlooped": canonical_form(m.graph, respect_loops=False).key}
        base, base_keys = first.setdefault(m.signature, (m, keys))
        checked += base is not m
        failures += [
            f"signature {m.signature}: Z/{base.n} vs Z/{m.n} {kind} graphs differ"
            for kind in keys
            if keys[kind] != base_keys[kind]
        ]
        if len(failures) > 20:
            break
    return SweepOutcome("signature_sufficiency", checked, tuple(failures))


def looped_necessity_sweep(max_n: int = 300) -> SweepOutcome:
    """Moduli of different signatures with isomorphic looped graphs.

    Any hit is reported as a finding, not a failure: this direction is a
    belief to probe, not a theorem to enforce. checked counts the cross-signature
    pairs that no invariant (vertex count, loop count, degree multiset) separates.
    """
    moduli = _keyed_moduli(max_n)
    by_inv: dict[tuple, Counter] = {}  # signature counts per bucket of equal invariants
    parts: dict[tuple, dict[tuple, list[_Modulus]]] = {}  # each key's moduli by signature
    for m in moduli:
        invariants = (len(m.graph.vertices), m.graph.loop_count, m.graph.degree_multiset())
        by_inv.setdefault(invariants, Counter())[m.signature] += 1
        parts.setdefault(m.looped, {}).setdefault(m.signature, []).append(m)
    checked = sum(comb(b.total(), 2) - sum(comb(c, 2) for c in b.values()) for b in by_inv.values())
    # a finding pairs two moduli from different signature parts of one key
    pairs = (product(*two) for by_sig in parts.values() for two in combinations(by_sig.values(), 2))
    findings = tuple(
        f"Z/{a.n} (signature {a.signature}) and Z/{b.n} (signature {b.signature}) "
        "have isomorphic looped graphs"
        for a, b in sorted(sorted(pair) for pair in chain.from_iterable(pairs))
    )
    return SweepOutcome("looped_necessity", checked, (), findings)
