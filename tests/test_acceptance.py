"""Acceptance gate: ten checks at full scale, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail table.
Each check prints its line before asserting, so a red run still shows which
criterion broke and why.
"""

import time

from zdgraph.arithmetic import FpPoly, factor_integer, factor_polynomial
from zdgraph.compressed_graph import signature, vertex_count, zero_divisor_basis
from zdgraph.conjectures import (
    check_conjecture1,
    check_conjecture2,
    check_conjecture3,
    default_instances,
    report_to_json,
)
from zdgraph.finite_ring import (
    BivariateMonomialQuotient,
    IntegersMod,
    PolyQuotient,
    full_zero_divisor_graph,
    oracle_compressed_graph,
    quotient_by_ideal,
    ring_size,
    zero_divisor_classes,
)
from zdgraph.isomorphism import graphs_isomorphic
from zdgraph.sweeps import (
    blowup_sweep,
    gcd_theorem_sweep,
    looped_necessity_sweep,
    nz_lemma_sweep,
    oracle_equivalence_sweep,
    polynomial_oracle_sweep,
    signature_sufficiency_sweep,
)


def xk(p, k):
    return FpPoly(p, (0,) * k + (1,))


# every model stays at or under 10^4 elements
LEMMA_RING_SET = (
    IntegersMod(10000),
    IntegersMod(9973),
    IntegersMod(8192),
    IntegersMod(5040),
    PolyQuotient(5, xk(5, 5)),
    PolyQuotient(3, xk(3, 8)),
    PolyQuotient(2, FpPoly(2, (0, 0, 0, 1, 0, 1))),
    BivariateMonomialQuotient(2, ((3, 0), (0, 3), (2, 1))),
    BivariateMonomialQuotient(3, ((2, 0), (0, 2))),
    quotient_by_ideal(IntegersMod(5040), [84]),
    quotient_by_ideal(PolyQuotient(2, xk(2, 4)), [xk(2, 2)]),
)

BLOWUP_EXTRA_SPECS = (
    PolyQuotient(2, xk(2, 4)),
    PolyQuotient(3, FpPoly(3, (0, 0, 1, 1))),
    BivariateMonomialQuotient(2, ((2, 0), (0, 2))),
    BivariateMonomialQuotient(2, ((3, 0), (0, 3), (2, 1))),
)


def gate(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'pass' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_oracle_equivalence_to_2000():
    start = time.monotonic()
    out = oracle_equivalence_sweep(max_n=2000)
    elapsed = time.monotonic() - start
    ok = out.failures == () and out.checked == 1999 and elapsed < 300
    gate(
        1,
        ok,
        f"basis route matches oracle on {out.checked} integer rings, "
        f"both loop conventions, {elapsed:.0f}s",
    )


def test_gcd_classes_to_500():
    out = gcd_theorem_sweep(max_n=500)
    expected = sum(n for n in range(2, 501))
    ok = out.failures == () and out.checked == expected
    gate(2, ok, f"gcd class collapse holds for {out.checked} (n, a) pairs")


def test_polynomial_backend_agreement():
    out = polynomial_oracle_sweep(ps=(2, 3, 5), max_deg=4)
    problems = list(out.failures)
    pairs = 0
    for p in (2, 3, 5):
        for k in range(1, 6):
            g_poly = oracle_compressed_graph(PolyQuotient(p, xk(p, k)), loops=True)
            g_int = oracle_compressed_graph(IntegersMod(p**k), loops=True)
            pairs += 1
            if not graphs_isomorphic(g_poly, g_int).isomorphic:
                problems.append(f"compressed graphs differ for p={p}, k={k}")
            if signature(factor_polynomial(xk(p, k), p)) != (k,) and k > 0:
                problems.append(f"polynomial signature is not ({k},) for p={p}")
            if signature(factor_integer(p**k)) != (k,):
                problems.append(f"integer signature is not ({k},) for p={p}")
    for p, k in ((2, 2), (2, 3), (3, 2)):
        full_poly = full_zero_divisor_graph(PolyQuotient(p, xk(p, k))).as_compressed()
        full_int = full_zero_divisor_graph(IntegersMod(p**k)).as_compressed()
        if not graphs_isomorphic(full_poly, full_int, respect_loops=False).isomorphic:
            problems.append(f"full graphs differ for p={p}, k={k}")
    gate(
        3,
        not problems,
        f"{out.checked} monic moduli agree with the oracle; "
        f"{pairs} prime-power pairs match Z/p^k" + ("" if not problems else f"; {problems[:3]}"),
    )


def test_loop_convention_separates_counterexample_pairs():
    problems = []
    for n1, n2 in ((8, 6), (27, 10)):
        u1 = oracle_compressed_graph(IntegersMod(n1), loops=False)
        u2 = oracle_compressed_graph(IntegersMod(n2), loops=False)
        if not graphs_isomorphic(u1, u2, respect_loops=False).isomorphic:
            problems.append(f"unlooped Z/{n1} vs Z/{n2} should be isomorphic")
        l1 = oracle_compressed_graph(IntegersMod(n1), loops=True)
        l2 = oracle_compressed_graph(IntegersMod(n2), loops=True)
        report = graphs_isomorphic(l1, l2)
        if report.isomorphic or report.separating != "loop count":
            problems.append(f"looped Z/{n1} vs Z/{n2} should separate on loop count")
    gate(
        4,
        not problems,
        "Z/8-Z/6 and Z/27-Z/10 isomorphic unlooped, separated by loop count"
        + ("" if not problems else f"; {problems}"),
    )


def test_equal_signatures_force_isomorphism():
    out = signature_sufficiency_sweep(max_n=300)
    ok = out.failures == ()
    gate(5, ok, f"{out.checked} equal-signature pairs isomorphic, looped and unlooped")


def test_looped_isomorphism_against_signatures():
    out = looped_necessity_sweep(max_n=300)
    ok = out.failures == ()
    gate(
        6,
        ok,
        f"{out.checked} cross-signature candidate pairs, "
        f"{len(out.findings)} finding(s) emitted",
    )
    for finding in out.findings:
        print(f"    finding: {finding}")


def test_vertex_count_identity_to_2000():
    problems = []
    for n in range(2, 2001):
        fact = factor_integer(n)
        expected = vertex_count(fact)
        basis_size = len(zero_divisor_basis(fact).vectors)
        oracle_count = len(zero_divisor_classes(IntegersMod(n)))
        if not (expected == basis_size == oracle_count):
            problems.append(f"n={n}: {expected} vs {basis_size} vs {oracle_count}")
    gate(
        7,
        not problems,
        "product formula equals basis and oracle class counts for n in [2, 2000]"
        + ("" if not problems else f"; first: {problems[0]}"),
    )


def test_regular_multiples_preserve_classes():
    assert all(ring_size(spec) <= 10**4 for spec in LEMMA_RING_SET)
    out = nz_lemma_sweep(LEMMA_RING_SET)
    ok = out.failures == ()
    gate(
        8,
        ok,
        f"{out.checked} regular-multiple products across "
        f"{len(LEMMA_RING_SET)} rings stay in class",
    )


def test_blowup_reconstructs_full_graphs():
    out = blowup_sweep(max_n=2000, extra_specs=BLOWUP_EXTRA_SPECS)
    ok = out.failures == () and out.checked == 1999 + len(BLOWUP_EXTRA_SPECS)
    gate(9, ok, f"expansion of the sized looped graph equals the full graph, {out.checked} rings")


def test_conjecture_harness_sanity():
    problems = []
    for conjecture, check in ((2, check_conjecture2), (3, check_conjecture3)):
        for report in (check(*i) for i in default_instances(conjecture)):
            if report.verdict == "counterexample":
                problems.append(f"conjecture {conjecture}: {report.instance}")
            principal = "," not in report.instance.split("|")[1]
            if (
                principal
                and report.details.get("window_exact")
                and report.verdict != "supported"
            ):
                problems.append(
                    f"conjecture {conjecture} principal instance not supported: "
                    f"{report.instance}"
                )
    first = [check_conjecture1(*i) for i in default_instances(1, 100)]
    second = [check_conjecture1(*i) for i in default_instances(1, 100)]
    lines_first = [report_to_json(r) for r in first]
    lines_second = [report_to_json(r) for r in second]
    if lines_first != lines_second:
        problems.append("conjecture 1 scan is not reproducible")
    counterexamples = {r.instance for r in first if r.verdict == "counterexample"}
    if "Z/6 | Z/8" not in counterexamples:
        problems.append("the Z/6 vs Z/8 analysis did not reproduce")
    gate(
        10,
        not problems,
        f"principal instances supported; conjecture 1 scanned {len(first)} pairs "
        f"bit-identically with {len(counterexamples)} counterexample candidates"
        + ("" if not problems else f"; {problems[:3]}"),
    )
