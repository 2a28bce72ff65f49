"""Conjecture harness: verdicts, gates, witnesses, and scan determinism.

Expected verdicts here were computed from the finite-ring oracle and the
isomorphism search and then frozen; the Z/8-versus-Z/6 analysis is the known
counterexample family for conjecture 1.
"""

import hashlib
import io
import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdgraph.arithmetic import FpPoly, factor_polynomial, format_poly_pretty
from zdgraph import conjectures
from zdgraph.cli import run
from zdgraph.compressed_graph import to_json as graph_json
from zdgraph.compressed_graph import zero_divisor_basis
from zdgraph.conjectures import (
    ConjectureReport,
    check_conjecture1,
    check_conjecture2,
    check_conjecture3,
    check_conjecture4,
    default_instances,
    generalized_basis,
    parse_instance_line,
    report_to_json,
    ring_keys,
)
from zdgraph.finite_ring import (
    BivariateMonomialQuotient,
    IntegersMod,
    PolyQuotient,
    count_regular_elements,
    element_label,
    format_ring_spec,
    full_zero_divisor_graph,
    oracle_compressed_graph,
    parse_element,
    parse_ring_spec,
)
from zdgraph.isomorphism import graphs_isomorphic


def f2(*coeffs):
    return FpPoly(2, coeffs)


def f3(*coeffs):
    return FpPoly(3, coeffs)


XY33 = BivariateMonomialQuotient(2, ((3, 0), (0, 3)))
XY22 = BivariateMonomialQuotient(2, ((2, 0), (0, 2)))


def bivar(text):
    return parse_element(XY33, text)


class TestGeneralizedBasis:
    def test_x2y_divisors(self):
        basis = generalized_basis(XY33, [bivar("x^2*y")])
        labels = sorted(element_label(XY33, e) for e in basis)
        assert labels == ["x", "x*y", "x^2", "y"]

    def test_prime_monomial_is_empty(self):
        basis = generalized_basis(XY22, [parse_element(XY22, "x")])
        assert basis == []

    def test_univariate_matches_factorization_basis(self):
        # exact window: x^2 (x+1) divides the modulus x^3 (x+1)^2
        ambient = PolyQuotient(2, f2(0, 0, 0, 1, 0, 1))
        gen = f2(0, 0, 1, 1)
        from_union = sorted(generalized_basis(ambient, [gen]), key=lambda f: f.sort_key())
        zb = zero_divisor_basis(factor_polynomial(gen, 2))
        from_vectors = sorted(
            (zb.factorization.divisor(v) for v in zb.vectors),
            key=lambda f: f.sort_key(),
        )
        assert from_union == from_vectors

    def test_integer_case(self):
        basis = generalized_basis(IntegersMod(48), [12])
        assert sorted(basis) == [2, 3, 4, 6]

    def test_union_failure_raises(self):
        gens = [parse_element(XY22, "x"), parse_element(XY22, "y")]
        with pytest.raises(ValueError):
            generalized_basis(XY22, gens)


class TestConjecture1:
    def test_z8_vs_z6_is_a_counterexample(self):
        report = check_conjecture1(IntegersMod(8), IntegersMod(6))
        assert report.verdict == "counterexample"
        d = report.details
        assert d["full_graphs_isomorphic"] is True
        assert d["compressed_looped_isomorphic"] is False
        assert d["regular_element_counts"] == [5, 3]
        assert d["failed_side"] == (
            "full graphs isomorphic but compressed-and-count test disagrees"
        )
        # the unlooped reading also fails, on the counts alone
        assert d["compressed_unlooped_isomorphic"] is True
        assert d["rhs_unlooped_reading"] is False
        assert "witness_graphs" in d

    def test_identical_ring_supported(self):
        report = check_conjecture1(IntegersMod(8), IntegersMod(8))
        assert report.verdict == "supported"
        assert report.details["full_graphs_isomorphic"] is True
        assert report.details["rhs_looped_reading"] is True

    def test_field_pair_counts_differ(self):
        # both graphs empty, so the left side holds and the counts decide
        report = check_conjecture1(IntegersMod(5), IntegersMod(7))
        assert report.verdict == "counterexample"
        assert report.details["regular_element_counts"] == [5, 7]

    def test_cross_backend_supported(self):
        report = check_conjecture1(IntegersMod(16), PolyQuotient(2, f2(0, 0, 0, 0, 1)))
        assert report.verdict == "supported"
        assert report.details["regular_element_counts"] == [9, 9]

    def test_z9_vs_f3_quotient(self):
        report = check_conjecture1(IntegersMod(9), PolyQuotient(3, f3(0, 0, 1)))
        assert report.verdict == "supported"
        assert report.details["regular_element_counts"] == [7, 7]

    @pytest.mark.parametrize(
        "pair, nodes, reason",
        [
            # the compressed graph of Z/210 is the proper subsets of four
            # primes; its symmetries leave refinement with cells to split
            (("Z/210", "Z/330"), 10, "compressed-graph search exceeded the node budget"),
            # the twin quotient of F2[x,y]/(x^2,y^2) is a star of three
            # like cliques, so its key needs more than the root node
            (
                ("Z/16", "F2[x,y]/(x^2,y^2)"),
                6,
                "full-graph isomorphism search exceeded the node budget",
            ),
        ],
    )
    def test_budget_exhaustion_skips(self, pair, nodes, reason):
        specs = [parse_ring_spec(s) for s in pair]
        report = check_conjecture1(*specs, budget=nodes - 1)
        assert report.verdict == "skipped"
        assert report.details["reason"] == reason
        assert check_conjecture1(*specs, budget=nodes).verdict == "supported"

    def test_key_over_its_budget_skips_the_pair(self, fresh_tables, monkeypatch):
        # the keys are made under DEFAULT_BUDGET, whatever budget a check
        # gets; below the 10 nodes Z/210's and Z/330's compressed graphs
        # take, their compressed keys are None, while the twin quotients'
        # keys fit
        fresh_tables()
        monkeypatch.setattr(conjectures, "DEFAULT_BUDGET", 9)
        specs = (IntegersMod(210), IntegersMod(330))
        for keys in map(ring_keys, specs):
            assert keys.twin_key is not None and keys.twin_nodes <= 9
            assert (keys.looped_key, keys.looped_nodes) == (None, math.inf)
        report = check_conjecture1(*specs)
        assert report.verdict == "skipped"
        fulls = [full_zero_divisor_graph(s) for s in specs]
        payload = {
            "conjecture": 1,
            "instance": "Z/210 | Z/330",
            "verdict": "skipped",
            "details": {
                "full_graph_sizes": [len(g.labels) for g in fulls],
                "full_graph_digests": [digest16(graph_json(g.as_compressed())) for g in fulls],
                "reason": "compressed-graph search exceeded the node budget",
            },
        }
        assert report.details == payload["details"]
        assert report.line == json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def test_size_mismatch_counterexample_direction(self):
        # compressed graphs and counts agree but the class sizes distribute
        # the full vertices differently: K_{2,6} against K_{1,12}
        report = check_conjecture1(IntegersMod(21), IntegersMod(26))
        assert report.verdict == "counterexample"
        assert report.details["failed_side"] == (
            "compressed-and-count test passes but full graphs are not isomorphic"
        )
        assert report.details["full_graph_sizes"] == [8, 13]


def _partitions(k, top=None):
    top = k if top is None else top
    if k == 0:
        yield ()
    for h in range(min(k, top), 0, -1):
        for rest in _partitions(k - h, h):
            yield (h,) + rest


def rings_of_order(p, k):
    """Z/p^k, every F_p[x]/(f) with f monic of degree k, and F_p[x,y] modulo
    every minimal monomial ideal whose staircase has k cells."""
    rings = [IntegersMod(p**k)]
    rings += [
        PolyQuotient(p, FpPoly(p, tail + (1,)))
        for tail in itertools.product(range(p), repeat=k)
    ]
    for heights in _partitions(k):
        gens = {(len(heights), 0), (0, heights[0])}
        gens |= {(a, heights[a]) for a in range(1, len(heights)) if heights[a] < heights[a - 1]}
        rings.append(BivariateMonomialQuotient(p, tuple(gens)))
    return rings


class TestSameOrderPairs:
    """Rings of one order from three families, where the full graphs,
    compressed graphs and regular counts can all agree or not."""

    def test_keys_agree_with_search(self, tmp_path):
        pairs = [
            pair
            for p, top in ((2, 5), (3, 3), (5, 2), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
                           (23, 1), (29, 1), (31, 1))
            for k in range(1, top + 1)
            for pair in itertools.combinations(rings_of_order(p, k), 2)
        ]
        assert len(pairs) == 3937
        lines = "".join(f"{format_ring_spec(a)} | {format_ring_spec(b)}\n" for a, b in pairs)
        (tmp_path / "pairs").write_text(lines)
        argv = ["conjecture", "1", "--instances", str(tmp_path / "pairs"),
                "--report", str(tmp_path / "report.jsonl")]
        assert run(argv, out=io.StringIO()) == 0
        graphs, seen = {}, set()
        for (a, b), line in zip(pairs, (tmp_path / "report.jsonl").read_text().splitlines()):
            for spec in (a, b):
                if spec not in graphs:
                    graphs[spec] = (
                        full_zero_divisor_graph(spec).as_compressed(),
                        oracle_compressed_graph(spec, loops=True),
                    )
            (full1, looped1), (full2, looped2) = graphs[a], graphs[b]
            details = json.loads(line)["details"]
            verdicts = [
                details["full_graphs_isomorphic"],
                details["compressed_looped_isomorphic"],
                details["compressed_unlooped_isomorphic"],
            ]
            seen.update(enumerate(verdicts))
            assert verdicts == [
                graphs_isomorphic(full1, full2, respect_loops=False).isomorphic,
                graphs_isomorphic(looped1, looped2).isomorphic,
                graphs_isomorphic(looped1, looped2, respect_loops=False).isomorphic,
            ], line
        assert seen == {(i, v) for i in range(3) for v in (True, False)}


class TestConjecture2:
    def test_principal_integer_supported(self):
        report = check_conjecture2(IntegersMod(48), [12])
        assert report.verdict == "supported"
        assert report.details["checked"] == 48
        assert report.details["window_exact"] is True
        assert report.details["sample"] == "all window elements"

    def test_principal_polynomial_supported(self):
        report = check_conjecture2(PolyQuotient(2, f2(0, 0, 1, 0, 1)), [f2(0, 1, 1)])
        assert report.verdict == "supported"
        assert report.instance == "F2[x]/(x^4+x^2) | x^2+x"

    def test_bivariate_truncation_skips_with_witness(self):
        report = check_conjecture2(XY33, [bivar("x^2*y")])
        assert report.verdict == "skipped"
        assert report.details["window_exact"] is False
        assert report.details["reason"] == (
            "window truncation artifact; ambient hypothesis unmet"
        )
        # x + y is coprime to x^2 y, but truncation gives it extra annihilators
        assert report.details["witness"]["a"] == "x+y"
        assert report.details["witness"]["gcd"] == "1"

    def test_union_gate_rejects_x_y(self):
        gens = [parse_element(XY22, "x"), parse_element(XY22, "y")]
        report = check_conjecture2(XY22, gens)
        assert report.verdict == "skipped"
        assert report.details["union_in_window"] is False
        assert "union_witness" in report.details

    def test_ideal_element_sample(self):
        # the default sample is every window element, so it includes the
        # ideal's members 0, 12, 24 and 36, whose classes collapse to zero
        report = check_conjecture2(IntegersMod(48), [12])
        assert report.verdict == "supported"
        assert report.details["checked"] == 48
        assert report.details["sample"] == "all window elements"

    @pytest.mark.parametrize(
        "n, gen, sample, checked",
        [
            (5000, 1250, "all window elements", 5000),
            (5004, 1251, "every window element whose index is a multiple of 2", 2502),
            (15000, 3750, "every window element whose index is a multiple of 3", 5000),
        ],
    )
    def test_sample_above_the_limit(self, n, gen, sample, checked):
        # at most SAMPLE_LIMIT elements are checked: past it, every step-th
        # element, the step rounded up so the count stays within the limit
        report = check_conjecture2(IntegersMod(n), [gen])
        assert report.verdict == "supported"
        assert report.details["sample"] == sample
        assert report.details["checked"] == checked

    def test_unit_generator_skips(self):
        report = check_conjecture2(IntegersMod(48), [1])
        assert report.verdict == "skipped"
        assert report.details["reason"] == TestUnitGenerator.WHOLE_RING


class TestConjecture3:
    def test_principal_integer_supported(self):
        report = check_conjecture3(IntegersMod(48), [12])
        assert report.verdict == "supported"
        assert report.details["basis_size"] == 4
        assert report.details["predicted_vertices"] == ["2", "3", "4", "6"]
        assert report.details["checked_edges"] == 3
        assert report.details["loops_agree"] is True

    def test_principal_polynomial_supported(self):
        report = check_conjecture3(PolyQuotient(2, f2(0, 0, 0, 0, 1)), [f2(0, 0, 1)])
        assert report.verdict == "supported"
        assert report.details["predicted_vertices"] == ["0,1@2"]

    def test_maximal_ideal_both_empty(self):
        report = check_conjecture3(IntegersMod(4), [2])
        assert report.verdict == "supported"
        assert report.details["basis_size"] == 0
        assert report.details["predicted_vertices"] == []

    def test_bivariate_truncation_skips(self):
        report = check_conjecture3(XY33, [bivar("x^2*y")])
        assert report.verdict == "skipped"
        assert report.details["mismatch"] == "vertex sets differ"
        missing = report.details["witness"]["missing_from_prediction"]
        assert "x+y" in missing

    def test_union_gate_rejects_x_y(self):
        gens = [parse_element(XY22, "x"), parse_element(XY22, "y")]
        report = check_conjecture3(XY22, gens)
        assert report.verdict == "skipped"
        assert report.details["union_in_window"] is False

    def test_non_monomial_bivariate_generator_skips(self):
        report = check_conjecture3(XY22, [parse_element(XY22, "x+y")])
        assert report.verdict == "skipped"
        assert report.details["reason"] == "bivariate union generators must be single monomials"


class TestConjecture4:
    def test_bivariate_vs_univariate_predicted_layer(self):
        # x^2 y over F_2[x,y] against x^2 (x+1) over F_2[x]: pattern (2, 1)
        report = check_conjecture4(
            XY33, [bivar("x^2*y")], PolyQuotient(2, f2(0, 0, 1, 0, 1)), [f2(0, 0, 1, 1)]
        )
        assert report.verdict == "supported"
        assert report.details["layer"] == "predicted graphs (windows not exact)"
        assert report.details["patterns"] == [[(2, 1)], [(2, 1)]]

    def test_exact_pair_oracle_layer(self):
        report = check_conjecture4(
            IntegersMod(72), [12], PolyQuotient(2, f2(0, 0, 0, 1, 0, 1)), [f2(0, 0, 1, 1)]
        )
        assert report.verdict == "supported"
        assert report.details["layer"] == "oracle graphs"
        assert report.details["windows_exact"] == [True, True]

    def test_single_prime_cross_characteristic(self):
        report = check_conjecture4(
            IntegersMod(64), [8], PolyQuotient(3, f3(0, 0, 0, 0, 1)), [f3(0, 0, 0, 1)]
        )
        assert report.verdict == "supported"
        assert report.details["layer"] == "oracle graphs"

    def test_pattern_mismatch_skips(self):
        report = check_conjecture4(IntegersMod(64), [8], IntegersMod(36), [6])
        assert report.verdict == "skipped"
        assert report.details["patterns"] == [[(3,)], [(1, 1)]]
        assert report.details["reason"].startswith("exponent patterns do not match")

    def test_maximal_side_skips(self):
        report = check_conjecture4(IntegersMod(16), [2], IntegersMod(81), [3])
        assert report.verdict == "skipped"
        assert report.details["reason"] == "side 1: ideal is maximal in the window model"

    def test_inexact_prime_monomials(self):
        report = check_conjecture4(
            XY22, [parse_element(XY22, "y")], XY22, [parse_element(XY22, "x")]
        )
        assert report.verdict == "supported"
        assert report.details["layer"] == "predicted graphs (windows not exact)"

    @pytest.mark.parametrize(
        "line, layer",
        [
            ("Z/72 | 12 | F2[x]/(x^5+x^3) | x^3+x^2", "oracle graphs"),
            (
                "F2[x,y]/(x^3,y^3) | x^2*y | F2[x,y]/(x^3,y^3) | x*y^2",
                "predicted graphs (windows not exact)",
            ),
        ],
    )
    def test_budget_exhaustion_skips_in_either_layer(self, line, layer):
        report = check_conjecture4(*parse_instance_line(4, line), budget=1)
        assert report.verdict == "skipped"
        assert report.details["layer"] == layer
        assert report.details["reason"] == "isomorphism search exceeded the node budget"
        assert len(report.details["graph_digests"]) == 2
        assert "witness_graphs" not in report.details

    def test_inexact_multi_generator_skips(self):
        gens = [bivar("x^2*y"), bivar("x^2*y^2")]
        report = check_conjecture4(XY33, gens, XY33, gens)
        assert report.verdict == "skipped"
        assert report.details["windows_exact"] == [False, False]
        assert report.details["reason"] == (
            "window truncation prevents the oracle layer and no predicted "
            "construction exists for multi-generator ideals"
        )
        assert "layer" not in report.details

    @pytest.mark.parametrize(
        "line, side",
        [
            ("F2[x,y]/(x^2,y^2) | x+y | F2[x,y]/(x^2,y^2) | x+y", 1),
            ("Z/72 | 12 | F2[x,y]/(x^3,y^3) | x^2*y+y^2", 2),
        ],
    )
    def test_non_monomial_bivariate_generator_skips(self, line, side):
        report = check_conjecture4(*parse_instance_line(4, line))
        assert report.verdict == "skipped"
        assert report.details["reason"] == (
            f"side {side}: bivariate union generators must be single monomials"
        )

    @pytest.mark.parametrize(
        "line",
        [
            # unequal generator counts
            "F2[x,y]/(x^3,y^3) | x^2*y, x^2*y^2 | Z/72 | 12",
            "F2[x,y]/(x^3,y^3) | x^2*y | F2[x,y]/(x^3,y^3) | x^2*y, x^2*y^2",
            # equal shape, no column permutation matches
            "Z/64 | 8 | Z/16 | 4",
            "Z/72 | 12 | Z/36 | 6",
            "F2[x,y]/(x^3,y^3) | x^2*y, x^2*y^2 | F2[x,y]/(x^3,y^3) | x*y, x*y^2",
        ],
    )
    def test_patterns_that_do_not_match_skip(self, line):
        report = check_conjecture4(*parse_instance_line(4, line))
        assert report.verdict == "skipped"
        assert report.details["reason"] == (
            "exponent patterns do not match; the conjecture asserts sufficiency only"
        )
        assert "windows_exact" not in report.details

    def test_pattern_matches_after_a_column_permutation(self):
        line = "F2[x,y]/(x^3,y^3) | x^2*y, x^2*y^2 | F2[x,y]/(x^3,y^3) | x*y^2, x^2*y^2"
        report = check_conjecture4(*parse_instance_line(4, line))
        assert report.details["patterns"] == [[(2, 1), (2, 2)], [(1, 2), (2, 2)]]
        assert report.details["reason"].startswith("window truncation prevents the oracle layer")

    def test_conjecture2_accepts_non_monomial_generator(self):
        # conjecture 2 never factors the generators, so it still decides
        report = check_conjecture2(XY22, [parse_element(XY22, "x+y")])
        assert report.verdict == "skipped"
        assert report.details["reason"] == "window truncation artifact; ambient hypothesis unmet"


class TestUnitGenerator:
    """A unit generator makes the ideal the whole ring, whether it is 1 or not."""

    WHOLE_RING = "ideal is the whole ring; the quotient would be the zero ring"

    @pytest.mark.parametrize("check", [check_conjecture2, check_conjecture3])
    @pytest.mark.parametrize(
        "line", ["Z/20 | 7", "F2[x]/(x^3+x+1) | x+1", "Z/12 | 1", "F2[x]/(x^3) | 1"]
    )
    def test_conjectures_2_and_3_skip(self, check, line):
        report = check(*parse_instance_line(2, line))
        assert report.verdict == "skipped"
        assert report.details["reason"] == self.WHOLE_RING

    @pytest.mark.parametrize(
        "line, side",
        [
            ("Z/20 | 7 | Z/8 | 4", 1),
            ("Z/8 | 4 | F2[x]/(x^3+x+1) | x+1", 2),
            ("Z/12 | 1 | Z/8 | 4", 1),
            ("Z/8 | 4 | F2[x]/(x^3) | 1", 2),
        ],
    )
    def test_conjecture4_names_the_side(self, line, side):
        report = check_conjecture4(*parse_instance_line(4, line))
        assert report.verdict == "skipped"
        assert report.details["reason"] == f"side {side}: {self.WHOLE_RING}"


class TestApiOnlySkips:
    """Skip reasons no instance line can reach: the CLI parses at least one
    generator, and reduces a generator to its residue, so the window's
    modulus arrives as 0."""

    @pytest.mark.parametrize("check", [check_conjecture2, check_conjecture3])
    def test_no_generators(self, check):
        report = check(IntegersMod(8), [])
        assert report.verdict == "skipped"
        assert report.details == {"reason": "no generators given"}

    @pytest.mark.parametrize(
        "args, reason",
        [
            ((IntegersMod(8), [], IntegersMod(8), [4]), "side 1: no generators given"),
            ((IntegersMod(8), [4], IntegersMod(8), []), "side 2: no generators given"),
            ((IntegersMod(8), [8], IntegersMod(8), [4]), "side 1: ideal is trivial"),
            ((IntegersMod(8), [4], IntegersMod(9), [9]), "side 2: ideal is trivial"),
            (
                (IntegersMod(8), [4], PolyQuotient(2, f2(0, 0, 1)), [f2(0, 0, 1)]),
                "side 2: ideal is trivial",
            ),
            # side 1's gate is decided before side 2's
            ((IntegersMod(8), [8], IntegersMod(8), []), "side 1: ideal is trivial"),
        ],
    )
    def test_conjecture4(self, args, reason):
        report = check_conjecture4(*args)
        assert report.verdict == "skipped"
        assert report.details["reason"] == reason
        assert "patterns" not in report.details


# Pairs of these rings reach every conjecture-1 verdict kind: Z/16 against
# F2[x,y]/(x^2,y^2) skips on the full graphs below 6 nodes, Z/210 against
# Z/330 on the compressed graphs below 10, Z/6 against Z/8 fails on the
# count and Z/21 against Z/26 on the class sizes. Z/8 against Z/10 passes
# the unlooped reading only.
KIND_RINGS = ("Z/2", "Z/3", "Z/6", "Z/8", "Z/9", "Z/10", "Z/16", "Z/21", "Z/26", "Z/210",
              "Z/330", "F2[x]/(x^4)", "F3[x]/(x^2)", "F2[x,y]/(x^2,y^2)")
KIND_BUDGETS = (1, 5, 9, 10**7)


def verdict_kind(report) -> str:
    return report.details.get("reason") or report.details.get("failed_side") or report.verdict


def digest16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_report(spec1, spec2, budget: int) -> ConjectureReport:
    """A conjecture-1 report with its details built as a dict, from the two
    rings' graphs and counts and from comparing their kept keys: what the
    joined report line is checked against."""
    specs = (spec1, spec2)
    r1, r2 = map(ring_keys, specs)
    fulls = [full_zero_divisor_graph(s) for s in specs]
    looped = [oracle_compressed_graph(s, loops=True) for s in specs]
    instance = " | ".join(map(format_ring_spec, specs))
    details = {
        "full_graph_sizes": [len(g.labels) for g in fulls],
        "full_graph_digests": [digest16(graph_json(g.as_compressed())) for g in fulls],
    }
    if max(r1.twin_nodes, r2.twin_nodes) > budget:
        details["reason"] = "full-graph isomorphism search exceeded the node budget"
        return ConjectureReport(1, instance, "skipped", details)
    if max(r1.looped_nodes, r2.looped_nodes, r1.unlooped_nodes, r2.unlooped_nodes) > budget:
        details["reason"] = "compressed-graph search exceeded the node budget"
        return ConjectureReport(1, instance, "skipped", details)
    lhs = r1.twin_key == r2.twin_key
    looped_iso = r1.looped_key == r2.looped_key
    unlooped_iso = r1.unlooped_key == r2.unlooped_key
    counts = [count_regular_elements(s) for s in specs]
    rhs = looped_iso and counts[0] == counts[1]
    details.update(
        {
            "full_graphs_isomorphic": lhs,
            "compressed_looped_isomorphic": looped_iso,
            "compressed_unlooped_isomorphic": unlooped_iso,
            "regular_element_counts": counts,
            "rhs_looped_reading": rhs,
            "rhs_unlooped_reading": unlooped_iso and counts[0] == counts[1],
            "compressed_graph_digests": [digest16(graph_json(g)) for g in looped],
        }
    )
    if lhs == rhs:
        return ConjectureReport(1, instance, "supported", details)
    details["failed_side"] = (
        "full graphs isomorphic but compressed-and-count test disagrees"
        if lhs
        else "compressed-and-count test passes but full graphs are not isomorphic"
    )
    details["witness_graphs"] = {"compressed_looped": [json.loads(graph_json(g)) for g in looped]}
    return ConjectureReport(1, instance, "counterexample", details)


class TestReportLine:
    """A conjecture-1 report is its line, joined from the two rings'
    fragments; it must be the bytes report_to_json writes from details
    built as a dict, and read back as those details."""

    @given(
        st.sampled_from(KIND_RINGS), st.sampled_from(KIND_RINGS), st.sampled_from(KIND_BUDGETS)
    )
    @example("Z/6", "Z/8", 10**7)
    @example("Z/21", "Z/26", 10**7)
    @example("Z/16", "F2[x,y]/(x^2,y^2)", 5)
    @example("Z/210", "Z/330", 9)
    @example("Z/2", "Z/2", 10**7)
    @example("Z/8", "Z/10", 10**7)
    @settings(max_examples=60, deadline=None)
    def test_line_is_report_to_json_of_the_reference(self, a, b, budget):
        specs = (parse_ring_spec(a), parse_ring_spec(b))
        report = check_conjecture1(*specs, budget=budget)
        reference = reference_report(*specs, budget)
        assert report.line == report_to_json(reference)
        assert (report, report.details) == (reference, reference.details)

    def test_the_rings_reach_every_verdict_kind(self):
        kinds, readings = set(), set()
        for a, b in itertools.combinations(KIND_RINGS, 2):
            for budget in KIND_BUDGETS:
                reference = reference_report(parse_ring_spec(a), parse_ring_spec(b), budget)
                report = check_conjecture1(parse_ring_spec(a), parse_ring_spec(b), budget=budget)
                assert report.line == report_to_json(reference)
                kinds.add(verdict_kind(reference))
                readings.add((reference.details.get("rhs_looped_reading"),
                              reference.details.get("rhs_unlooped_reading")))
        assert (False, True) in readings
        assert kinds == {
            "supported",
            "full graphs isomorphic but compressed-and-count test disagrees",
            "compressed-and-count test passes but full graphs are not isomorphic",
            "full-graph isomorphism search exceeded the node budget",
            "compressed-graph search exceeded the node budget",
        }

    def test_keys_or_specs_give_one_report(self):
        specs = (IntegersMod(6), IntegersMod(8))
        by_spec = check_conjecture1(*specs)
        by_keys = check_conjecture1(*map(ring_keys, specs))
        assert (by_keys, by_keys.line) == (by_spec, by_spec.line)

    def test_details_are_read_back_anew(self):
        report = check_conjecture1(IntegersMod(6), IntegersMod(8))
        report.details["full_graph_sizes"].append("edited")
        assert report.details["full_graph_sizes"] == [3, 3]


class TestRingTable:
    """Conjecture 1 keeps each ring's graphs and digests in its ring table."""

    RINGS = ("Z/6", "Z/8", "Z/9", "Z/12", "Z/16", "Z/27", "F2[x]/(x^4)", "F3[x]/(x^2)",
             "F2[x]/(x^3+x^2)", "F2[x,y]/(x^2,y^2)")

    @pytest.mark.parametrize("budget", [10**7, 1])
    def test_reports_identical_cold_and_warm(self, fresh_tables, budget):
        specs = [parse_ring_spec(r) for r in self.RINGS]
        pairs = [(a, b) for i, a in enumerate(specs) for b in specs[i + 1 :]]
        random.Random(6).shuffle(pairs)
        fresh_tables()
        cold_reports = [check_conjecture1(a, b, budget=budget) for a, b in pairs]
        cold = [report_to_json(r) for r in cold_reports]
        assert len(set(r.verdict for r in cold_reports)) >= 2
        for report in cold_reports:  # a caller may edit what it gets back
            for value in report.details.values():
                if isinstance(value, list):
                    value.append("edited")
        warm = [report_to_json(check_conjecture1(a, b, budget=budget)) for a, b in pairs]
        assert warm == cold
        fresh_tables()
        alone = [report_to_json(check_conjecture1(a, b, budget=budget)) for a, b in pairs[::-1]]
        assert alone[::-1] == cold

    def test_small_budget_keeps_scan_output(self, fresh_tables, tmp_path):
        def scan():
            out, report = io.StringIO(), tmp_path / "report.jsonl"
            argv = ["conjecture", "1", "--max-n", "12", "--report", str(report)]
            assert run(argv, out=out) == 0
            return out.getvalue() + report.read_text()

        fresh_tables()
        roomy = scan()
        cache = fresh_tables(budget=4000)
        assert scan() == roomy
        assert 0 < max(cache.charged_after) <= 4000


class TestScans:
    def test_conjecture2_defaults(self):
        reports = [check_conjecture2(*i) for i in default_instances(2)]
        verdicts = [r.verdict for r in reports]
        assert verdicts.count("counterexample") == 0
        # every exact-window instance is an instance of the proven theorem
        for r in reports:
            if r.details.get("window_exact"):
                assert r.verdict == "supported", r.instance

    def test_conjecture3_defaults(self):
        reports = [check_conjecture3(*i) for i in default_instances(3)]
        assert [r.verdict for r in reports].count("counterexample") == 0
        for r in reports:
            if r.details.get("window_exact"):
                assert r.verdict == "supported", r.instance

    def test_conjecture4_defaults(self):
        reports = [check_conjecture4(*i) for i in default_instances(4)]
        assert [r.verdict for r in reports] == [
            "supported",
            "supported",
            "supported",
            "skipped",
            "skipped",
            "supported",
        ]

    def test_conjecture1_small_scan(self):
        reports = [check_conjecture1(*i) for i in default_instances(1, 20)]
        by_instance = {r.instance: r for r in reports}
        assert len(reports) == 19 * 18 // 2
        assert by_instance["Z/6 | Z/8"].verdict == "counterexample"
        assert all(r.verdict in ("supported", "counterexample") for r in reports)

    def test_default_instance_counts(self):
        assert len(list(default_instances(1, 10))) == 9 * 8 // 2
        assert len(list(default_instances(2, None))) == 31
        assert len(list(default_instances(4, None))) == 6

    def test_conjecture1_pairs_keep_the_nested_loop_order(self):
        nested = [
            (IntegersMod(n1), IntegersMod(n2))
            for n1 in range(2, 13)
            for n2 in range(n1 + 1, 13)
        ]
        assert list(default_instances(1, 12)) == nested

    def test_conjecture1_pairs_are_lazy_and_share_rings(self):
        pairs = default_instances(1, 12)
        assert not isinstance(pairs, (list, tuple))
        (a, b), (c, d) = next(pairs), next(pairs)
        assert (a.n, b.n, d.n) == (2, 3, 4)
        assert c is a


class TestReports:
    def test_json_is_deterministic(self):
        lines1 = [report_to_json(check_conjecture4(*i)) for i in default_instances(4)]
        lines2 = [report_to_json(check_conjecture4(*i)) for i in default_instances(4)]
        assert lines1 == lines2

    def test_json_is_parseable(self):
        for r in (check_conjecture2(*i) for i in default_instances(2)):
            payload = json.loads(report_to_json(r))
            assert payload["conjecture"] == 2
            assert payload["verdict"] in ("supported", "counterexample", "skipped")
            assert payload["instance"] == r.instance

    def test_counterexample_embeds_witness(self):
        report = check_conjecture1(IntegersMod(8), IntegersMod(6))
        payload = json.loads(report_to_json(report))
        graphs = payload["details"]["witness_graphs"]["compressed_looped"]
        assert len(graphs) == 2
        assert all("vertices" in g and "edges" in g for g in graphs)

    def test_report_equality_ignores_details(self):
        a = ConjectureReport(1, "x", "supported", {"k": 1})
        b = ConjectureReport(1, "x", "supported", {"k": 2})
        assert a == b


class TestInstanceLines:
    def test_conjecture1_line(self):
        spec1, spec2 = parse_instance_line(1, "Z/8 | Z/6")
        assert check_conjecture1(spec1, spec2).verdict == "counterexample"

    def test_conjecture2_line_with_poly(self):
        ambient, gens = parse_instance_line(2, "F2[x]/(x^4+x^2) | x^2+x")
        report = check_conjecture2(ambient, gens)
        assert report.verdict == "supported"
        assert report.instance == "F2[x]/(x^4+x^2) | x^2+x"

    def test_conjecture3_line_with_two_gens(self):
        ambient, gens = parse_instance_line(
            3, "F2[x,y]/(x^3,y^3) | x^2*y, x^2*y^2"
        )
        assert len(gens) == 2
        report = check_conjecture3(ambient, gens)
        assert report.instance == "F2[x,y]/(x^3,y^3) | x^2*y, x^2*y^2"

    def test_conjecture4_line(self):
        args = parse_instance_line(4, "Z/72 | 12 | F2[x]/(x^5+x^3) | x^3+x^2")
        report = check_conjecture4(*args)
        assert report.verdict == "supported"

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            parse_instance_line(1, "Z/8")
        with pytest.raises(ValueError):
            parse_instance_line(4, "Z/8 | 2 | Z/6")

    def test_instance_strings_round_trip(self):
        for conjecture in (2, 3):
            for ambient, gens in default_instances(conjecture, 6):
                report = (
                    check_conjecture2(ambient, gens)
                    if conjecture == 2
                    else check_conjecture3(ambient, gens)
                )
                reparsed = parse_instance_line(conjecture, report.instance)
                rereport = (
                    check_conjecture2(*reparsed)
                    if conjecture == 2
                    else check_conjecture3(*reparsed)
                )
                assert rereport.instance == report.instance
                assert rereport.verdict == report.verdict
