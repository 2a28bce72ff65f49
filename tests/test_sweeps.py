"""Cross-validation sweeps at unit-test scale.

The acceptance tests rerun these with the full bounds; here the point is
that every sweep works and stays green on a meaningful slice.
"""

from collections import Counter

import pytest

from zdgraph import sweeps
from zdgraph.arithmetic import FpPoly, factor_integer
from zdgraph.compressed_graph import graph_from_factorization, signature
from zdgraph.finite_ring import (
    BivariateMonomialQuotient,
    IntegersMod,
    PolyQuotient,
    parse_ring_spec,
)
from zdgraph.isomorphism import graphs_isomorphic
from zdgraph.sweeps import (
    SweepOutcome,
    blowup_sweep,
    gcd_theorem_sweep,
    looped_necessity_sweep,
    nz_lemma_sweep,
    oracle_equivalence_sweep,
    polynomial_oracle_sweep,
    signature_sufficiency_sweep,
)

FIXTURE_SPECS = (
    PolyQuotient(2, FpPoly(2, (0, 0, 0, 0, 1))),
    parse_ring_spec("F3[x]/(x^3+x^2)"),
    BivariateMonomialQuotient(2, ((2, 0), (0, 2))),
    BivariateMonomialQuotient(2, ((3, 0), (0, 3), (2, 1))),
)


class TestOracleEquivalence:
    def test_integers_up_to_300(self):
        out = oracle_equivalence_sweep(max_n=300)
        assert out.failures == ()
        assert out.checked == 299

    def test_polynomials_small(self):
        out = polynomial_oracle_sweep(ps=(2, 3), max_deg=3)
        assert out.failures == ()
        assert out.checked == (4 + 8) + (9 + 27)


class TestGcdTheorem:
    def test_up_to_200(self):
        out = gcd_theorem_sweep(max_n=200)
        assert out.failures == ()
        assert out.checked == sum(n for n in range(2, 201))


class TestBlowup:
    def test_small_with_fixtures(self):
        out = blowup_sweep(max_n=200, object_level_max=60, extra_specs=FIXTURE_SPECS)
        assert out.failures == ()
        assert out.checked == 199 + len(FIXTURE_SPECS)


    def test_class_named_differently_is_reported(self, monkeypatch):
        # the class of 4 in Z/12 listed under 5: its expanded vertices have
        # no rename, which is a failure to report, not a KeyError
        real = sweeps.element_label
        monkeypatch.setattr(
            sweeps,
            "element_label",
            lambda spec, x: "5" if spec == IntegersMod(12) and x == 4 else real(spec, x),
        )
        out = blowup_sweep(max_n=13, object_level_max=13)
        assert out.failures == ("Z/12: expansion vertex set differs from full graph",)


class TestNzLemma:
    def test_fixture_rings(self):
        specs = (
            IntegersMod(12),
            IntegersMod(360),
            IntegersMod(97),
            PolyQuotient(2, FpPoly(2, (0, 0, 0, 0, 1))),
            BivariateMonomialQuotient(2, ((2, 0), (0, 2))),
        )
        out = nz_lemma_sweep(specs)
        assert out.failures == ()
        assert out.checked > 0


def reference_signature_sufficiency(max_n):
    """The sweep as a pair loop: each modulus's graphs against those of the
    first modulus of its signature, by isomorphism search."""
    failures = []
    checked = 0
    by_sig = {}
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


def reference_looped_necessity(max_n):
    """The sweep as a pair loop: every cross-signature pair that vertex
    count, loop count and degree multiset leave together is searched."""
    findings = []
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


SIGNATURE_SWEEP_BOUNDS = (*range(2, 151), 300)


@pytest.mark.parametrize(
    "sweep, expected_keys",
    [(signature_sufficiency_sweep, {True: 59, False: 59}), (looped_necessity_sweep, {True: 59})],
)
def test_one_looped_build_per_modulus(monkeypatch, sweep, expected_keys):
    # the unlooped key is the looped graph's with loops ignored, so no sweep
    # builds a loop-free graph, and necessity never keys one
    builds, keys = Counter(), Counter()

    def counted(name, tally, flag, default):
        real = getattr(sweeps, name)

        def call(*args, **kw):
            tally[kw.get(flag, default)] += 1
            return real(*args, **kw)

        monkeypatch.setattr(sweeps, name, call)

    counted("graph_from_factorization", builds, "loops", None)
    counted("canonical_form", keys, "respect_loops", True)
    sweep(max_n=60)  # the 59 moduli 2..60
    assert builds == {True: 59}
    assert keys == expected_keys


class TestSignatureSufficiency:
    def test_up_to_150(self):
        out = signature_sufficiency_sweep(max_n=150)
        assert out.failures == ()
        assert out.checked > 40

    def test_matches_the_pair_loop(self):
        for max_n in SIGNATURE_SWEEP_BOUNDS:
            assert signature_sufficiency_sweep(max_n) == reference_signature_sufficiency(max_n)


class TestLoopedNecessity:
    def test_up_to_150_reports_findings_not_failures(self):
        out = looped_necessity_sweep(max_n=150)
        assert out.failures == ()
        assert isinstance(out.findings, tuple)

    def test_matches_the_pair_loop(self):
        for max_n in SIGNATURE_SWEEP_BOUNDS:
            assert looped_necessity_sweep(max_n) == reference_looped_necessity(max_n)

    def test_cross_signature_pair_really_differs(self):
        # guards against the sweep passing vacuously: Z/30 and Z/24 share a
        # vertex count (6) but their looped graphs must still separate
        f30, f24 = factor_integer(30), factor_integer(24)
        assert signature(f30) != signature(f24)
        g30 = graph_from_factorization(f30, loops=True)
        g24 = graph_from_factorization(f24, loops=True)
        assert len(g30.vertices) == len(g24.vertices) == 6
        assert not graphs_isomorphic(g30, g24).isomorphic
