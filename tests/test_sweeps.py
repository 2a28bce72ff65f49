"""Cross-validation sweeps at unit-test scale.

The acceptance tests rerun these with the full bounds; here the point is
that every sweep works and stays green on a meaningful slice.
"""

from zdgraph.arithmetic import FpPoly
from zdgraph.finite_ring import (
    BivariateMonomialQuotient,
    IntegersMod,
    PolyQuotient,
    parse_ring_spec,
)
from zdgraph.sweeps import (
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
        from zdgraph import sweeps

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


class TestSignatureSufficiency:
    def test_up_to_150(self):
        out = signature_sufficiency_sweep(max_n=150)
        assert out.failures == ()
        assert out.checked > 40


class TestLoopedNecessity:
    def test_up_to_150_reports_findings_not_failures(self):
        out = looped_necessity_sweep(max_n=150)
        assert out.failures == ()
        assert isinstance(out.findings, tuple)

    def test_cross_signature_pair_really_differs(self):
        # guards against the sweep passing vacuously: Z/30 and Z/24 share a
        # vertex count (6) but their looped graphs must still separate
        from zdgraph.arithmetic import factor_integer
        from zdgraph.compressed_graph import graph_from_factorization, signature
        from zdgraph.isomorphism import graphs_isomorphic

        f30, f24 = factor_integer(30), factor_integer(24)
        assert signature(f30) != signature(f24)
        g30 = graph_from_factorization(f30, loops=True)
        g24 = graph_from_factorization(f24, loops=True)
        assert len(g30.vertices) == len(g24.vertices) == 6
        assert not graphs_isomorphic(g30, g24).isomorphic
