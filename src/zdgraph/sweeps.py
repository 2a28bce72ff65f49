"""Exhaustive cross-validation sweeps between the two construction routes.

Every sweep compares independent computations: the divisor-basis route knows
only factorizations, the oracle route knows only multiplication tables. A
failure string means a contract was broken. Findings are observations a sweep
is asked to report (necessity counterexamples) without treating them as
errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arithmetic import Factorization, factor_integer, factor_polynomial, monic_polys
from .compressed_graph import (
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
from .isomorphism import graphs_isomorphic


@dataclass(frozen=True)
class SweepOutcome:
    name: str
    checked: int
    failures: tuple[str, ...]
    findings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _compare_routes(fact: Factorization, spec, residue, failures, tag):
    """Check d -> residue(d) maps the basis graph onto the oracle graph."""
    for loops in (False, True):
        basis = graph_from_factorization(fact, loops=loops)
        oracle = oracle_compressed_graph(spec, loops=loops)
        labels = [
            element_label(spec, residue(fact.divisor(v.exponents))) for v in basis.vertices
        ]
        if len(set(labels)) != len(labels):
            failures.append(f"{tag}: residue map merges basis vertices (loops={loops})")
            return
        mapped = basis.relabel(labels)
        if [v.label for v in mapped.vertices] != [v.label for v in oracle.vertices]:
            failures.append(f"{tag}: vertex sets differ under residue map (loops={loops})")
            return
        if mapped.edges != oracle.edges:
            failures.append(f"{tag}: edge sets differ under residue map (loops={loops})")
            return
        if loops and [v.loop for v in mapped.vertices] != [v.loop for v in oracle.vertices]:
            failures.append(f"{tag}: loop sets differ under residue map (loops={loops})")
            return
        if vertex_count(fact) != len(oracle.vertices):
            failures.append(f"{tag}: vertex_count formula disagrees with oracle")
            return


def oracle_equivalence_sweep(max_n: int = 2000, min_n: int = 2) -> SweepOutcome:
    """Basis route vs oracle route on Z/n for every n in min_n..max_n;
    checked counts rings."""
    failures: list[str] = []
    checked = 0
    for n in range(min_n, max_n + 1):
        _compare_routes(
            factor_integer(n), IntegersMod(n), lambda d, n=n: d % n, failures, f"Z/{n}"
        )
        checked += 1
        if len(failures) > 20:
            break
    return SweepOutcome("oracle_equivalence", checked, tuple(failures))


def polynomial_oracle_sweep(ps=(2, 3, 5), max_deg: int = 4) -> SweepOutcome:
    """Basis route vs oracle route on F_p[x]/(f) for every monic f."""
    failures: list[str] = []
    checked = 0
    for p in ps:
        for deg in range(2, max_deg + 1):
            for f in monic_polys(p, deg):
                spec = PolyQuotient(p, f)
                _compare_routes(
                    factor_polynomial(f, p),
                    spec,
                    lambda d, f=f: d % f,
                    failures,
                    f"F{p}[x]/({f})",
                )
                checked += 1
                if len(failures) > 20:
                    return SweepOutcome("polynomial_oracle", checked, tuple(failures))
    return SweepOutcome("polynomial_oracle", checked, tuple(failures))


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
    gid_to_row = {gid: i for i, gid in enumerate(scan.zd_gids)}
    reps = np.array([scan.groups[gid].first for gid in scan.zd_gids], dtype=np.int64)
    adj = model.mul_rows(reps, reps) == 0
    zds = np.flatnonzero(np.isin(scan.class_ids, list(scan.zd_gids)))
    rows_of = np.full(model.size, -1, dtype=np.int64)
    for gid, row in gid_to_row.items():
        rows_of[scan.groups[gid].members] = row
    cid = rows_of[zds]
    block = max(1, model.row_block)
    for start in range(0, len(zds), block):
        chunk = zds[start : start + block]
        actual = model.mul_rows(chunk, zds) == 0
        predicted = adj[rows_of[chunk][:, None], cid[None, :]]
        if not np.array_equal(actual, predicted):
            failures.append(f"{tag}: class adjacency fails to predict element products")
            return


def blowup_sweep(
    max_n: int = 2000, object_level_max: int = 300, extra_specs=(), min_n: int = 2
) -> SweepOutcome:
    """Compressed-graph blow-up reproduces the full zero-divisor graph, on
    Z/n for every n in min_n..max_n and on every extra spec; checked
    counts rings.

    Rings up to object_level_max (and every extra spec) are checked through
    the public expand_to_full_graph path; the rest are checked as adjacency
    matrices, which is the same identity without graph packaging.
    """
    failures: list[str] = []
    checked = 0
    for n in range(min_n, max_n + 1):
        spec = IntegersMod(n)
        if n <= object_level_max:
            _blowup_object_check(spec, failures, f"Z/{n}")
        _blowup_matrix_check(spec, failures, f"Z/{n}")
        checked += 1
        if len(failures) > 20:
            return SweepOutcome("blowup", checked, tuple(failures))
    for spec in extra_specs:
        tag = repr(spec)
        _blowup_object_check(spec, failures, tag)
        _blowup_matrix_check(spec, failures, tag)
        checked += 1
    return SweepOutcome("blowup", checked, tuple(failures))


def nz_lemma_sweep(specs) -> SweepOutcome:
    """Multiplying by a regular element never moves anything across classes."""
    failures: list[str] = []
    checked = 0
    for spec in specs:
        table = ring_table(spec)
        scan, model = table.scan, table.model
        ids = scan.class_ids
        units = np.concatenate(
            [g.members for g in scan.groups if g.ann_count == 1]
            or [np.array([], dtype=np.int32)]
        )
        block = max(1, model.row_block)
        ok = True
        for start in range(0, len(units), block):
            chunk = units[start : start + block]
            rows = model.mul_rows(chunk)
            if not np.array_equal(ids[rows], np.broadcast_to(ids, rows.shape)):
                failures.append(f"{spec!r}: a regular multiple changed class")
                ok = False
                break
        if ok:
            checked += len(units) * model.size
    return SweepOutcome("nz_lemma", checked, tuple(failures))


def signature_sufficiency_sweep(max_n: int = 300) -> SweepOutcome:
    """Equal signatures force isomorphic compressed graphs, looped or not."""
    failures: list[str] = []
    checked = 0
    by_sig: dict[tuple, list[int]] = {}
    for n in range(2, max_n + 1):
        by_sig.setdefault(signature(factor_integer(n)), []).append(n)
    for sig, ns in sorted(by_sig.items()):
        base_l = graph_from_factorization(factor_integer(ns[0]), loops=True)
        base_u = graph_from_factorization(factor_integer(ns[0]), loops=False)
        for n in ns[1:]:
            g_l = graph_from_factorization(factor_integer(n), loops=True)
            g_u = graph_from_factorization(factor_integer(n), loops=False)
            checked += 1
            if not graphs_isomorphic(base_l, g_l).isomorphic:
                failures.append(f"signature {sig}: Z/{ns[0]} vs Z/{n} looped graphs differ")
            if not graphs_isomorphic(base_u, g_u, respect_loops=False).isomorphic:
                failures.append(f"signature {sig}: Z/{ns[0]} vs Z/{n} unlooped graphs differ")
            if len(failures) > 20:
                return SweepOutcome("signature_sufficiency", checked, tuple(failures))
    return SweepOutcome("signature_sufficiency", checked, tuple(failures))


def looped_necessity_sweep(max_n: int = 300) -> SweepOutcome:
    """Scan for looped-isomorphic pairs with different signatures.

    Any hit is reported as a finding, not a failure: this direction is a
    belief to probe, not a theorem to enforce.
    """
    findings: list[str] = []
    checked = 0
    graphs = {}
    sigs = {}
    for n in range(2, max_n + 1):
        fact = factor_integer(n)
        sigs[n] = signature(fact)
        graphs[n] = graph_from_factorization(fact, loops=True)
    ns = sorted(graphs)
    for i, n1 in enumerate(ns):
        g1 = graphs[n1]
        key1 = (len(g1.vertices), g1.loop_count, g1.degree_multiset())
        for n2 in ns[i + 1 :]:
            if sigs[n1] == sigs[n2]:
                continue
            g2 = graphs[n2]
            if key1 != (len(g2.vertices), g2.loop_count, g2.degree_multiset()):
                continue
            checked += 1
            if graphs_isomorphic(g1, g2).isomorphic:
                findings.append(
                    f"Z/{n1} (signature {sigs[n1]}) and Z/{n2} (signature {sigs[n2]}) "
                    "have isomorphic looped graphs"
                )
    return SweepOutcome("looped_necessity", checked, (), tuple(findings))
