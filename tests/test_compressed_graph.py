"""Basis-path graphs checked against direct modular arithmetic on divisors."""

import importlib.util
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgraph import compressed_graph
from zdgraph.arithmetic import FpPoly, factor_integer, factor_polynomial, is_prime
from zdgraph.cli import run
from zdgraph.compressed_graph import (
    ZERO_CLASS,
    CompressedGraph,
    basis_graph,
    Graph,
    Vertex,
    expand_to_full_graph,
    from_json,
    gcd_class_representative,
    gcd_class_residues,
    graph_from_exponents,
    graph_from_factorization,
    signature,
    to_dot,
    to_json,
    twin_quotient,
    vertex_count,
    zero_divisor_basis,
)
from zdgraph.finite_ring import (
    IntegersMod,
    format_ring_spec,
    full_zero_divisor_graph,
    oracle_compressed_graph,
    parse_ring_spec,
    quotient_by_ideal,
)


SMALL_PRIMES = [p for p in range(2, 100) if is_prime(p)]


def proper_divisors(n):
    return [d for d in range(2, n) if n % d == 0]


class TestZeroDivisorBasis:
    def test_twelve(self):
        basis = zero_divisor_basis(factor_integer(12))
        assert set(basis.vectors) == {(1, 0), (2, 0), (0, 1), (1, 1)}
        assert set(basis.divisors()) == {2, 4, 3, 6}

    def test_prime_is_empty(self):
        assert len(zero_divisor_basis(factor_integer(7))) == 0

    def test_prime_cube(self):
        basis = zero_divisor_basis(factor_integer(8))
        assert set(basis.divisors()) == {2, 4}

    def test_divisors_match_direct_enumeration(self):
        # basis divisors = all proper divisors of n, for squarefree-or-not n
        for n in range(2, 200):
            basis = zero_divisor_basis(factor_integer(n))
            assert sorted(basis.divisors()) == proper_divisors(n), n

    def test_cardinality_formula(self):
        for n in range(2, 500):
            fact = factor_integer(n)
            expected = 1
            for e in fact.exponents():
                expected *= e + 1
            assert len(zero_divisor_basis(fact)) == expected - 2 == vertex_count(fact)

    def test_polynomial_basis(self):
        # x^2 (x+1) over F_2: proper divisors x, x^2, x+1, x(x+1)
        f = FpPoly(2, (0, 1)) * FpPoly(2, (0, 1)) * FpPoly(2, (1, 1))
        basis = zero_divisor_basis(factor_polynomial(f))
        assert set(basis.divisors()) == {
            FpPoly(2, (0, 1)),
            FpPoly(2, (0, 0, 1)),
            FpPoly(2, (1, 1)),
            FpPoly(2, (0, 1, 1)),
        }

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(1, 4)),
            min_size=1,
            max_size=4,
            unique_by=lambda pe: pe[0],
        )
    )
    def test_divisors_are_the_factorizations_divisors_on_integers(self, prime_powers):
        fact = factor_integer(math.prod(p**e for p, e in prime_powers))
        basis = zero_divisor_basis(fact)
        assert basis.divisors() == tuple(fact.divisor(v) for v in basis.vectors)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.lists(st.integers(0, 4), min_size=3, max_size=9))
    def test_divisors_are_the_factorizations_divisors_on_polynomials(self, p, coeffs):
        f = FpPoly(p, tuple(c % p for c in coeffs[:-1]) + (1,))  # monic, degree >= 2
        fact = factor_polynomial(f)
        basis = zero_divisor_basis(fact)
        assert basis.divisors() == tuple(fact.divisor(v) for v in basis.vectors)

    def test_rejects_unit(self):
        from zdgraph.arithmetic import Factorization

        with pytest.raises(ValueError):
            zero_divisor_basis(Factorization("int", 1, ()))


class TestGraphFromFactorization:
    def test_twelve_explicit(self):
        g = graph_from_factorization(factor_integer(12), loops=True)
        assert [v.label for v in g.vertices] == ["2", "3", "4", "6"]
        assert g.edges == ((0, 3), (1, 2), (2, 3))
        assert [v.label for v in g.vertices if v.loop] == ["6"]

    def test_eight_explicit(self):
        g = graph_from_factorization(factor_integer(8), loops=True)
        assert [v.label for v in g.vertices] == ["2", "4"]
        assert g.edges == ((0, 1),)
        assert [v.label for v in g.vertices if v.loop] == ["4"]

    def test_six_explicit(self):
        g = graph_from_factorization(factor_integer(6), loops=True)
        assert [v.label for v in g.vertices] == ["2", "3"]
        assert g.edges == ((0, 1),)
        assert g.loop_count == 0

    def test_loops_flag_off(self):
        g = graph_from_factorization(factor_integer(8), loops=False)
        assert g.loop_count == 0
        assert not g.loops_admitted

    def test_against_modular_arithmetic(self):
        # independent route: adjacency of divisor classes is d1*d2 % n == 0
        for n in range(2, 150):
            g = graph_from_factorization(factor_integer(n), loops=True)
            divisors = proper_divisors(n)
            assert sorted(int(v.label) for v in g.vertices) == divisors, n
            expected_edges = set()
            for a in divisors:
                for b in divisors:
                    if a < b and (a * b) % n == 0:
                        expected_edges.add((a, b))
            got_edges = {
                tuple(sorted((int(g.vertices[i].label), int(g.vertices[j].label))))
                for i, j in g.edges
            }
            assert got_edges == expected_edges, n
            expected_loops = {d for d in divisors if (d * d) % n == 0}
            assert {int(v.label) for v in g.vertices if v.loop} == expected_loops, n

    def test_exponent_metadata(self):
        g = graph_from_factorization(factor_integer(12), loops=False)
        by_label = {v.label: v.exponents for v in g.vertices}
        assert by_label == {"2": (1, 0), "4": (2, 0), "3": (0, 1), "6": (1, 1)}

    def test_polynomial_labels(self):
        g = graph_from_factorization(factor_polynomial(FpPoly(2, (0, 0, 0, 1))), loops=True)
        assert [v.label for v in g.vertices] == ["0,0,1@2", "0,1@2"]

    def test_exponents_only_variant_is_isomorphic_in_shape(self):
        # same edges and loops as the labeled build, by construction
        fact = factor_integer(360)
        a = graph_from_factorization(fact, loops=True)
        b = graph_from_exponents(fact.exponents(), loops=True)
        assert len(a.vertices) == len(b.vertices)
        assert len(a.edges) == len(b.edges)
        assert a.loop_count == b.loop_count
        assert a.degree_multiset() == b.degree_multiset()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(1, 3)),
            min_size=1,
            max_size=4,
            unique_by=lambda pe: pe[0],
        ),
        st.booleans(),
    )
    def test_labeled_and_exponent_builds_agree_by_exponents(self, prime_powers, loops):
        fact = factor_integer(math.prod(p**e for p, e in prime_powers))
        labeled = graph_from_factorization(fact, loops)
        bare = graph_from_exponents(fact.exponents(), loops)

        def keyed(g):
            verts = {v.exponents: v.loop for v in g.vertices}
            edges = {
                frozenset((g.vertices[i].exponents, g.vertices[j].exponents))
                for i, j in g.edges
            }
            return verts, edges

        assert len(labeled.vertices) == len(bare.vertices)
        assert keyed(labeled) == keyed(bare)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.booleans())
    def test_graph_from_exponents_matches_the_definition(self, data, loops):
        # signatures of length 1-8 with exponents 1-4 and at most 300 divisors
        s, divisors = [], 1
        for _ in range(data.draw(st.integers(1, 8))):
            if divisors * 2 > 300:
                break
            e = data.draw(st.integers(1, min(4, 300 // divisors - 1)))
            s.append(e)
            divisors *= e + 1
        g = graph_from_exponents(tuple(s), loops)
        vecs = [v.exponents for v in g.vertices]
        assert sorted(vecs) == sorted(
            v for v in itertools.product(*(range(e + 1) for e in s)) if any(v) and list(v) != s
        )
        expected = set()
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                if all(a + b >= e for a, b, e in zip(vecs[i], vecs[j], s)):
                    expected.add((i, j))
        assert set(g.edges) == expected
        assert [v.loop for v in g.vertices] == [
            loops and all(2 * a >= e for a, e in zip(v, s)) for v in vecs
        ]

    def test_1438_vertex_signature(self):
        # Z/3170267100 = 2^2 * 3^4 * 5^2 * 7 * 11 * 13 * 17 * 23
        for g in (
            graph_from_exponents((4, 2, 2, 1, 1, 1, 1, 1), loops=True),
            graph_from_factorization(factor_integer(3170267100), loops=True),
        ):
            assert (len(g.vertices), len(g.edges), g.loop_count) == (1438, 64165, 11)


def signatures_up_to(max_vertices):
    """Every non-increasing exponent tuple s whose basis graph has at most
    max_vertices vertices, prod(s_i + 1) - 2 of them."""

    def grow(s, divisors):
        if s:
            yield s
        for e in range(1, s[-1] + 1 if s else max_vertices + 2):
            if divisors * (e + 1) - 2 <= max_vertices:
                yield from grow(s + (e,), divisors * (e + 1))

    return grow((), 1)


def closed_form_mismatches(max_vertices):
    """Where graph_from_exponents(s, loops=True) departs from its closed form,
    for every s of signatures_up_to(max_vertices): vertex v is looped iff
    2v >= s, has degree prod(v_i + 1) - 1 - [2v >= s] (the w >= s - v, less s
    and v itself), and prod(s_i // 2 + 1) - 1 vertices are looped."""
    out = []
    for s in signatures_up_to(max_vertices):
        g = graph_from_exponents(s, loops=True)
        degree = [0] * len(g.vertices)
        for i, j in g.edges:
            degree[i] += 1
            degree[j] += 1
        for v, d in zip(g.vertices, degree):
            half = all(2 * x >= e for x, e in zip(v.exponents, s))
            if v.loop != half or d != math.prod(x + 1 for x in v.exponents) - 1 - half:
                out.append(f"signature {s}: vertex {v.label} (loop {v.loop}, degree {d})")
        if g.loop_count != math.prod(e // 2 + 1 for e in s) - 1:
            out.append(f"signature {s}: {g.loop_count} looped vertices")
    return out


class TestClosedForm:
    """The basis graph read off exponent vectors alone, with no ring and no
    oracle. CI runs closed_form_mismatches(400) as well."""

    def test_signatures_up_to_150_vertices(self):
        assert len(list(signatures_up_to(150))) == 618
        assert closed_form_mismatches(150) == []

    def test_a_wrong_edge_is_caught(self, monkeypatch):
        real = compressed_graph.graph_from_exponents

        def dropped_edge(s, loops):
            g = real(s, loops)
            return CompressedGraph(g.vertices, g.edges[1:], g.loops_admitted) if s == (2, 1) else g

        monkeypatch.setitem(globals(), "graph_from_exponents", dropped_edge)
        assert len(closed_form_mismatches(4)) == 2


class TestBasisGraph:
    """Several generator vectors: the union rule against a plain loop."""

    @pytest.mark.parametrize(
        "gens, box",
        [
            ([(2, 1)], (3, 3)),
            ([(2, 1), (1, 2)], (3, 3)),
            ([(3, 0), (1, 1), (0, 3)], (4, 4)),
            ([(1, 0, 2), (0, 2, 1), (2, 2, 0)], (8, 8, 8)),  # 511 vertices: four row blocks
        ],
    )
    def test_matches_the_covering_rule(self, gens, box):
        def covered(v):
            return any(all(x >= e for x, e in zip(v, s)) for s in gens)

        vecs = [v for v in itertools.product(*(range(b) for b in box)) if any(v)]
        labels = [",".join(map(str, v)) for v in vecs]
        g = basis_graph(gens, vecs, labels, loops=True)
        index = {v.label: i for i, v in enumerate(g.vertices)}
        expected = sorted(
            tuple(sorted((index[labels[a]], index[labels[b]])))
            for a, b in itertools.combinations(range(len(vecs)), 2)
            if covered([x + y for x, y in zip(vecs[a], vecs[b])])
        )
        assert list(g.edges) == expected
        loops = [covered([2 * x for x in v.exponents]) for v in g.vertices]
        assert [v.loop for v in g.vertices] == loops


def reference_basis_edges(gen_vectors, vectors):
    """_basis_edges as it was before it handed over one array: int64
    comparisons, and the pairs (a, b), a < b, as a list of tuples."""
    n = len(vectors)
    comps = np.array(vectors, dtype=np.int64).reshape(n, len(gen_vectors[0])).T
    needs = [np.array(s, dtype=np.int64)[:, None] - comps for s in gen_vectors]
    edges = []
    step = max(1, compressed_graph._EDGE_BLOCK // max(n, 1))
    for lo in range(0, n, step):
        hit = None
        for need in needs:
            h = comps[0, lo:] >= need[0, lo : lo + step, None]
            for c, t in zip(comps[1:], need[1:]):
                h &= c[lo:] >= t[lo : lo + step, None]
            hit = h if hit is None else hit | h
        rows, cols = np.nonzero(hit)
        upper = cols > rows
        edges.extend(zip((rows[upper] + lo).tolist(), (cols[upper] + lo).tolist()))
    return edges


def reference_loops(gen_vectors, vectors):
    """basis_graph's loop flags as they were computed per vertex: 2v >= s
    componentwise for some s."""
    return [any(all(2 * x >= e for x, e in zip(v, s)) for s in gen_vectors) for v in vectors]


def basis_mismatches(gen_vectors, g):
    """Where g's edges and loop flags depart from the references on g's own
    vertices, each as a line."""
    vecs = [v.exponents for v in g.vertices]
    out = []
    if list(g.edges) != reference_basis_edges(gen_vectors, vecs):
        out.append(f"generators {gen_vectors}: edges differ from the pair reference")
    if [v.loop for v in g.vertices] != reference_loops(gen_vectors, vecs):
        out.append(f"generators {gen_vectors}: loops differ from the pair reference")
    return out


def basis_edge_mismatches(max_vertices):
    """Where graph_from_exponents(s, loops=True) departs from the pair
    reference, for every s of signatures_up_to(max_vertices)."""
    out = []
    for s in signatures_up_to(max_vertices):
        out.extend(basis_mismatches([s], graph_from_exponents(s, loops=True)))
    return out


# exponents from 0 to 300 cross the int8 (127) boundary of the comparisons
exponent_vectors = st.integers(1, 3).flatmap(
    lambda k: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 300)] * k), min_size=1, max_size=3),
        st.lists(st.tuples(*[st.integers(0, 300)] * k), min_size=1, max_size=40),
    )
)


class TestBasisEdgesAgainstReference:
    """basis_graph's narrow comparisons and array hand-over against the
    int64 pair loop it replaced. CI runs basis_edge_mismatches(400) as
    well."""

    def test_signatures_up_to_150_vertices(self):
        assert basis_edge_mismatches(150) == []

    def test_a_wrong_edge_is_caught(self, monkeypatch):
        real = compressed_graph.graph_from_exponents

        def dropped_edge(s, loops):
            g = real(s, loops)
            return CompressedGraph(g.vertices, g.edges[1:], g.loops_admitted) if s == (2, 1) else g

        monkeypatch.setitem(globals(), "graph_from_exponents", dropped_edge)
        assert len(basis_edge_mismatches(4)) == 1

    @settings(max_examples=150, deadline=None)
    @given(exponent_vectors)
    def test_generator_sets_duplicates_and_wide_exponents(self, given_vectors):
        gens, vecs = given_vectors
        # duplicate vectors are allowed: only labels must be distinct
        vecs = vecs + vecs[: (len(vecs) + 1) // 2]
        labels = [f"v{i}" for i in range(len(vecs))]
        g = basis_graph(gens, vecs, labels, loops=True)
        assert basis_mismatches(gens, g) == []
        assert sorted(v.exponents for v in g.vertices) == sorted(vecs)

    def test_exponents_at_the_int8_boundary(self):
        for top in (126, 127, 128, 129, 255, 256, 32767, 32768):
            gens = [(top, 1), (1, top)]
            vecs = [(top, 0), (0, top), (top - 1, 1), (1, top - 1), (top, top), (1, 1), (0, 1)]
            g = basis_graph(gens, vecs, [str(v) for v in vecs], loops=True)
            assert basis_mismatches(gens, g) == [], top


class TestGcdClassRepresentative:
    def test_spec_cases(self):
        fact = factor_integer(12)
        assert gcd_class_representative(8, fact) == (2, 0)
        assert gcd_class_representative(5, fact) == (0, 0)
        assert gcd_class_representative(24, fact) is ZERO_CLASS
        assert gcd_class_representative(0, fact) is ZERO_CLASS

    def test_matches_euclid_dense(self):
        for n in range(2, 200):
            fact = factor_integer(n)
            for a in range(0, 2 * n):
                rep = gcd_class_representative(a, fact)
                g = math.gcd(a, n)
                if g == n:
                    assert rep is ZERO_CLASS, (a, n)
                else:
                    assert fact.divisor(rep) == g, (a, n)

    def test_polynomial_zero(self):
        fact = factor_polynomial(FpPoly(2, (0, 0, 1)))
        assert gcd_class_representative(FpPoly(2, ()), fact) is ZERO_CLASS
        assert gcd_class_representative(FpPoly(2, (0, 1)), fact) == (1,)


class TestGcdClassResidues:
    """The residues the gcd-theorem sweep checks, against the per-element
    representative they replace there."""

    @pytest.mark.parametrize("ns", [range(2, 301), (2**11, 3**7)], ids=["dense", "prime-powers"])
    def test_matches_per_element_representative(self, ns):
        for n in ns:
            fact = factor_integer(n)
            expected = []
            for a in range(n):
                rep = gcd_class_representative(a, fact)
                expected.append(0 if rep is ZERO_CLASS else fact.divisor(rep) % n)
            got = gcd_class_residues(fact)
            assert got.dtype == np.int64
            assert got.tolist() == expected, n

    def test_rejects_polynomials(self):
        with pytest.raises(ValueError, match="integer"):
            gcd_class_residues(factor_polynomial(FpPoly(2, (0, 0, 1))))


class TestSignature:
    def test_examples(self):
        assert signature(factor_integer(12)) == (2, 1)
        assert signature(factor_polynomial(FpPoly(2, (0, 0, 0, 1)))) == (3,)
        assert signature(factor_integer(8)) == signature(factor_integer(27)) == (3,)

    def test_sorted_non_increasing(self):
        assert signature(factor_integer(2 * 2 * 3 * 125)) == (3, 2, 1)


class TestExpandToFullGraph:
    def test_prime_cube_blowup(self):
        g = CompressedGraph(
            (Vertex("2", size=2), Vertex("4", size=1, loop=True)),
            ((0, 1),),
            loops_admitted=True,
        )
        expanded = expand_to_full_graph(g)
        assert expanded == Graph(("2#1", "2#2", "4#1"), ((0, 2), (1, 2)))

    def test_single_unlooped_class(self):
        g = CompressedGraph((Vertex("a", size=4),), (), loops_admitted=True)
        assert expand_to_full_graph(g) == Graph(("a#1", "a#2", "a#3", "a#4"), ())

    def test_single_looped_class_gives_clique(self):
        g = CompressedGraph((Vertex("a", size=4, loop=True),), (), loops_admitted=True)
        expanded = expand_to_full_graph(g)
        assert len(expanded.edges) == 6

    def test_requires_sizes(self):
        g = CompressedGraph((Vertex("a"),), (), loops_admitted=True)
        with pytest.raises(ValueError):
            expand_to_full_graph(g)

    def test_requires_loop_admission(self):
        g = CompressedGraph((Vertex("a", size=2),), (), loops_admitted=False)
        with pytest.raises(ValueError):
            expand_to_full_graph(g)

    def test_json_does_not_carry_loop_admission(self):
        # Z/6 admits loops but has no looped vertex, so its JSON reads back
        # as a graph built without loops, which expansion refuses: without
        # loop flags it cannot tell a clique from an independent set (in
        # Z/9 the class {3, 6} is self-annihilating, but its unlooped
        # graph shows no loop)
        refusal = "^expansion needs a loop-admitting graph$"
        out = io.StringIO()
        assert run(["compress", "Z/6", "--loops", "--format", "json"], out=out) == 0
        cli = from_json(out.getvalue())
        assert not cli.loops_admitted and to_json(cli) == out.getvalue()
        with pytest.raises(ValueError, match=refusal):
            expand_to_full_graph(cli)
        g = oracle_compressed_graph(IntegersMod(6), loops=True)
        assert expand_to_full_graph(g) == Graph(("2#1", "2#2", "3#1"), ((0, 2), (1, 2)))
        with pytest.raises(ValueError, match=refusal):
            expand_to_full_graph(from_json(to_json(g)))


def _perfbench_conjecture1_rings():
    """Every ring the benchmark's conjecture-1 workload can draw."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return sorted({s for line in workloads.conj_pool() for s in line.split(" | ")})


def expands_back(g: Graph) -> bool:
    """Whether expanding g's twin quotient, with each expanded vertex
    renamed to the member it stands for, gives g again."""
    quotient, members = twin_quotient(g)
    name = {
        f"{v.label}#{t}": label
        for v, labels in zip(quotient.vertices, members)
        for t, label in enumerate(labels, 1)
    }
    expanded = expand_to_full_graph(quotient)
    return expanded.relabel([name[s] for s in expanded.labels]) == g


class TestTwinQuotient:
    def test_z16(self):
        # {2,6,10,14} share N = {8}; 4 and 12 are adjacent with N[4] = N[12]
        quotient, members = twin_quotient(full_zero_divisor_graph(parse_ring_spec("Z/16")))
        assert quotient == CompressedGraph(
            (Vertex("10", size=4), Vertex("12", size=2, loop=True), Vertex("8", size=1)),
            ((0, 2), (1, 2)),
            loops_admitted=True,
        )
        assert members == (("10", "14", "2", "6"), ("12", "4"), ("8",))

    @pytest.mark.parametrize("n", range(2, 201))
    def test_expands_back_on_integers(self, n):
        assert expands_back(full_zero_divisor_graph(parse_ring_spec(f"Z/{n}")))

    def test_expands_back_on_benchmark_rings(self):
        rings = _perfbench_conjecture1_rings()
        assert len(rings) == 38
        for ring in rings:
            assert expands_back(full_zero_divisor_graph(parse_ring_spec(ring))), ring

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_expands_back_on_any_graph(self, data):
        n = data.draw(st.integers(0, 10))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        assert expands_back(Graph(tuple(f"v{i}" for i in range(n)), tuple(edges)))

    def test_quotient_has_no_twins(self):
        g = full_zero_divisor_graph(parse_ring_spec("F2[x,y]/(x^3,y^3)"))
        quotient, _ = twin_quotient(g)
        again, _ = twin_quotient(Graph(tuple(v.label for v in quotient.vertices), quotient.edges))
        assert len(again.vertices) == len(quotient.vertices)


class TestCanonicalForm:
    def test_vertices_sorted_and_edges_renumbered(self):
        g = CompressedGraph((Vertex("b"), Vertex("a")), ((0, 1),))
        assert [v.label for v in g.vertices] == ["a", "b"]
        assert g.edges == ((0, 1),)

    def test_edge_orientation_and_duplicates_collapse(self):
        g = CompressedGraph((Vertex("a"), Vertex("b"), Vertex("c")), ((2, 0), (0, 2), (1, 0)))
        assert g.edges == ((0, 1), (0, 2))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            CompressedGraph((Vertex("a"), Vertex("a")))

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError):
            CompressedGraph((Vertex("a"),), ((0, 0),))

    def test_rejects_loop_without_admission(self):
        with pytest.raises(ValueError):
            CompressedGraph((Vertex("a", loop=True),), (), loops_admitted=False)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            CompressedGraph((Vertex("a"),), ((0, 3),))

    def test_graph_same_canonicalization(self):
        g = Graph(("b", "a"), ((1, 0),))
        assert g.labels == ("a", "b")
        assert g.edges == ((0, 1),)

    def test_relabel_moves_metadata_with_the_vertex(self):
        g = graph_from_factorization(factor_integer(12), loops=True)  # 2, 3, 4, 6
        r = g.relabel(["d", "c", "b", "a"])
        assert [v.label for v in r.vertices] == ["a", "b", "c", "d"]
        assert [v.exponents for v in r.vertices] == [(1, 1), (2, 0), (0, 1), (1, 0)]
        assert [v.loop for v in r.vertices] == [True, False, False, False]
        assert r.edges == ((0, 1), (0, 3), (1, 2))  # 6--4, 6--2, 4--3
        assert r.loops_admitted and r.relabel(["6", "4", "3", "2"]) == g

    def test_graph_relabel(self):
        g = Graph(("a", "b", "c"), ((0, 1),))
        assert g.relabel(["z", "y", "x"]) == Graph(("x", "y", "z"), ((1, 2),))

    @pytest.mark.parametrize("labels", [["a", "a", "b", "c"], ["a", "b", "c"]])
    def test_relabel_rejects_merges_and_wrong_length(self, labels):
        with pytest.raises(ValueError):
            graph_from_factorization(factor_integer(12), loops=True).relabel(labels)
        with pytest.raises(ValueError):
            Graph(("p", "q", "r", "s")).relabel(labels)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_graph_and_compressed_graph_share_canonical_form(self, data):
        label = st.text(alphabet="x^,#0123", min_size=1, max_size=4)
        labels = data.draw(st.lists(label, min_size=2, max_size=12, unique=True))
        n = len(labels)
        # (i, i + d mod n) with 0 < d < n is never a self-edge
        offsets = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        edges = [(i, (i + d) % n) for i, d in data.draw(st.lists(offsets, max_size=30))]
        perm = data.draw(st.permutations(range(n)))
        shuffled = [labels[i] for i in perm]
        where = {old: new for new, old in enumerate(perm)}
        moved = [(where[i], where[j]) for i, j in edges]

        g = Graph(tuple(shuffled), tuple(moved))
        cg = CompressedGraph(tuple(Vertex(s) for s in shuffled), tuple(moved))
        assert g.labels == tuple(v.label for v in cg.vertices) == tuple(sorted(labels))
        assert g.edges == cg.edges == Graph(tuple(labels), tuple(edges)).edges


def reference_canonical(labels, edges, self_edge_error: str):
    """_canonical as it was before builders handed edges over in canonical
    order: every edge renumbered, put through a set and sorted."""
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError("vertex labels must be pairwise distinct")
    order = sorted(range(n), key=labels.__getitem__)
    rank = [0] * n
    for new, old in enumerate(order):
        rank[old] = new
    remapped = set()
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range")
        if i == j:
            raise ValueError(self_edge_error)
        a, b = rank[i], rank[j]
        remapped.add((a, b) if a < b else (b, a))
    return order, tuple(sorted(remapped))


def typed(edges):
    """Edges with the type of every edge and endpoint, which == ignores."""
    return [(type(e), *((type(x), x) for x in e)) for e in edges]


# ways a caller may hand an edge over: the canonical (i, j) tuple and others
EDGE_FORMS = {
    "tuple": tuple,
    "list": list,
    "reversed": lambda e: (e[1], e[0]),
    "numpy": lambda e: tuple(np.int64(x) for x in e),
    "bool": lambda e: tuple(bool(x) if x in (0, 1) else x for x in e),
}


@st.composite
def canonical_inputs(draw):
    """Labels and edges as callers and builders pass them to _canonical."""
    labels = draw(st.lists(st.text(alphabet="ab01", min_size=1, max_size=3), max_size=8, unique=True))
    if draw(st.booleans()):
        labels.sort()
    n = len(labels)
    end = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(end, end), max_size=12))
    if draw(st.booleans()):
        # deduplicated, oriented and sorted, as the builders hand edges over
        pairs = sorted({(min(e), max(e)) for e in pairs if e[0] != e[1]})
    forms = st.one_of(st.just("tuple"), st.sampled_from(sorted(EDGE_FORMS)))
    edges = [EDGE_FORMS[draw(forms)](e) for e in pairs]
    bad = draw(st.sampled_from([None, "self", "below", "above", "duplicate"]))
    if bad == "duplicate" and edges:
        edges.append(edges[draw(st.integers(0, len(edges) - 1))])
    elif bad in ("self", "below", "above"):
        k = draw(end)
        edge = {"self": (k, k), "below": (-1, k), "above": (k, n)}[bad]
        edges.insert(draw(st.integers(0, len(edges))), edge)
    return labels, draw(st.sampled_from([tuple, list]))(edges)


def outcome(fn):
    """fn()'s value, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the message is what is compared
        return type(exc), str(exc)


class TestCanonicalizerAgainstReference:
    """Pairs are always renumbered; an (E, 2) integer array already in
    canonical order is only checked, and any other is renumbered as its
    pairs. Either way the result, down to the type of every endpoint, or
    the error, is the reference's."""

    @settings(max_examples=400, deadline=None)
    @given(canonical_inputs())
    def test_graph_and_compressed_graph_match_the_reference(self, given_input):
        labels, edges = given_input

        def reference(message):
            order, canonical = reference_canonical(labels, edges, message)
            return tuple(labels[i] for i in order), typed(canonical)

        def compressed():
            g = CompressedGraph(tuple(Vertex(s) for s in labels), edges)
            return tuple(v.label for v in g.vertices), typed(g.edges)

        def plain():
            g = Graph(tuple(labels), edges)
            return g.labels, typed(g.edges)

        message = "self-edges are not stored as edges; use the vertex loop flag"
        assert outcome(compressed) == outcome(lambda: reference(message))
        assert outcome(plain) == outcome(lambda: reference("simple graph admits no loops"))

    @settings(max_examples=400, deadline=None)
    @given(canonical_inputs(), st.sampled_from(["int8", "int16", "int64", "uint8", "uint64"]))
    def test_an_edge_array_builds_what_its_pairs_build(self, given_input, dtype):
        labels, edges = given_input
        pairs = tuple(tuple(int(x) for x in e) for e in edges)
        if dtype.startswith("u") and any(x < 0 for e in pairs for x in e):
            dtype = "int8"
        array = np.array(pairs, dtype=dtype).reshape(-1, 2)

        def build(given):
            g = CompressedGraph(tuple(Vertex(s) for s in labels), given)
            h = Graph(tuple(labels), given)
            return g, typed(g.edges), h, typed(h.edges)

        from_array = outcome(lambda: build(array))
        assert from_array == outcome(lambda: build(pairs))
        if not isinstance(from_array[0], type):
            typed_edges = from_array[1] + from_array[3]
            assert all(t is int for e in typed_edges for t, _ in e[1:])

    @pytest.mark.parametrize(
        "array",
        [
            np.zeros((2, 3), dtype=np.int64),  # three ends
            np.zeros((1, 1), dtype=np.int64),  # one end
            np.array([0, 1]),  # one edge, flat
            np.array([[0.0, 5.0]]),  # out of range, as floats
            np.array([[-1.0, 1.0]]),
            np.array([[1.0, 1.0]]),  # a self-edge, as floats
            np.array([[0.0, 1.0]]),  # floats in range
            np.array([[0, 1], [2, 2], [0, 9]], dtype=np.int32),  # the self-edge comes first
            np.array([[0, 9], [2, 2]], dtype=np.uint16),  # the range error comes first
            np.array([[0, 1], [0, 2**64 - 1]], dtype=np.uint64),  # wraps below 0 in int64
        ],
    )
    def test_arrays_of_other_shapes_and_types_fail_as_their_pairs_do(self, array):
        labels = ("a", "b", "c")
        pairs = tuple(map(tuple, array.tolist())) if array.ndim == 2 else tuple(array.tolist())

        def compressed(edges):
            return lambda: CompressedGraph(tuple(Vertex(s) for s in labels), edges)

        def plain(edges):
            return lambda: Graph(labels, edges)

        failed = outcome(compressed(array))
        assert isinstance(failed, tuple) and failed[0] in (ValueError, TypeError)
        assert failed == outcome(compressed(pairs))
        assert outcome(plain(array)) == outcome(plain(pairs))


def _z(n):
    return graph_from_factorization(factor_integer(n), loops=True)


def _poly(text):
    spec = parse_ring_spec(text)
    return graph_from_factorization(factor_polynomial(spec.modulus, spec.p), loops=True)


# rings whose vertices come out of enumeration or divisor order unsorted by
# label ("10" before "2", "x+1" before "x^2"), one of each kind of spec
ORACLE_SPECS = [
    IntegersMod(72),
    parse_ring_spec("F2[x]/(x^4+x^2)"),
    parse_ring_spec("F2[x,y]/(x^3,x^2*y,y^3)"),
    quotient_by_ideal(IntegersMod(720), [24]),
]

BUILDERS = {
    "basis Z/n": lambda: _z(720),
    "basis F_p[x]": lambda: _poly("F2[x]/(x^6+x^5+x^4+x^3)"),
    "basis F_p[x] two factors": lambda: _poly("F3[x]/(x^5+x^3)"),
    "exponents": lambda: graph_from_exponents((3, 2, 1), loops=True),
    "two generators": lambda: basis_graph(
        [(2, 1), (1, 2)],
        [(0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 1)],
        ["f", "e", "d", "c", "b", "a"],
        loops=True,
    ),
    **{
        f"oracle {format_ring_spec(s)}": (lambda s=s: oracle_compressed_graph(s, loops=True))
        for s in ORACLE_SPECS
    },
    **{f"full {format_ring_spec(s)}": (lambda s=s: full_zero_divisor_graph(s)) for s in ORACLE_SPECS},
    "twin quotient": lambda: twin_quotient(full_zero_divisor_graph(IntegersMod(72)))[0],
}


class TestBuildersHandOverCanonicalOrder:
    """Every builder sorts its vertices by label before it computes edges.
    The basis and full-graph builders hand _canonical one (E, 2) integer
    array that is already canonical, so it is only checked; the oracle's
    class graphs and the twin quotients are small and hand over pairs,
    which are always renumbered."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_labels_sorted_and_edges_in_order(self, monkeypatch, name):
        handed = []
        canonical = compressed_graph._canonical

        def recording(labels, edges, self_edge_error):
            handed.append((list(labels), edges))
            return canonical(labels, edges, self_edge_error)

        monkeypatch.setattr(compressed_graph, "_canonical", recording)
        BUILDERS[name]()
        assert handed
        assert any(len(edges) for _, edges in handed)
        hands_pairs = name.startswith("oracle ") or name == "twin quotient"
        for k, (labels, edges) in enumerate(handed):
            assert labels == sorted(labels)
            if hands_pairs and k == len(handed) - 1:  # the builder's own graph
                assert type(edges) is tuple
                continue
            assert isinstance(edges, np.ndarray)
            assert edges.dtype.kind == "i" and edges.ndim == 2 and edges.shape[1] == 2
            pairs = [tuple(e) for e in edges.tolist()]
            _, canonical_edges = reference_canonical(labels, pairs, "")
            assert pairs == list(canonical_edges)


class TestSerialization:
    def example(self):
        return graph_from_factorization(factor_integer(12), loops=True)

    def test_json_schema(self):
        payload = json.loads(to_json(self.example()))
        assert set(payload) == {"vertices", "edges"}
        assert [v["label"] for v in payload["vertices"]] == ["2", "3", "4", "6"]
        assert payload["edges"] == [[0, 3], [1, 2], [2, 3]]
        for v in payload["vertices"]:
            assert set(v) == {"label", "exponents", "size", "loop"}

    def test_json_round_trip(self):
        g = self.example()
        assert from_json(to_json(g)) == g

    def test_json_round_trip_of_a_graph_admitting_loops_without_one(self):
        # Z/6 admits loops but has no looped vertex, which its JSON cannot show
        g = _z(6)
        assert g.loops_admitted and g.loop_count == 0
        assert from_json(to_json(g)) == g

    @pytest.mark.parametrize("name", sorted(n for n in BUILDERS if not n.startswith("full")))
    def test_json_round_trip_of_builder_graphs(self, name):
        g = BUILDERS[name]()
        assert from_json(to_json(g)) == g

    @given(st.integers(2, 400), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_of_ring_graphs(self, n, loops):
        for g in (
            graph_from_factorization(factor_integer(n), loops),
            oracle_compressed_graph(IntegersMod(n), loops),
        ):
            assert from_json(to_json(g)) == g

    def test_dot_round_trips_through_json(self):
        for n in (6, 8, 12, 360):
            g = graph_from_factorization(factor_integer(n), loops=True)
            assert to_dot(from_json(to_json(g))) == to_dot(g)

    def test_dot_contains_loop_self_edge(self):
        text = to_dot(self.example())
        assert "n3 -- n3;" in text
        assert 'label="6"' in text

    def test_dot_deterministic(self):
        assert to_dot(self.example()) == to_dot(self.example())

    def test_from_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            from_json('{"vertices": []}')
        with pytest.raises(ValueError):
            from_json('{"vertices": [{"label": "a"}], "edges": []}')

    def test_full_graph_json_and_dot(self):
        g = Graph(("2", "3", "4"), ((0, 1), (1, 2)))
        payload = json.loads(g.to_json())
        assert payload == {"vertices": ["2", "3", "4"], "edges": [[0, 1], [1, 2]]}
        assert "n0 -- n1;" in g.to_dot()


# labels mix quotes, backslashes, control and non-ASCII characters
LABELS = st.text(
    alphabet=st.sampled_from(list('ab"\\\n\t\x7f') + ["\u00e9", "\u2202", "\U0001d53d"]),
    min_size=1,
    max_size=6,
)


@st.composite
def graphs_with_metadata(draw):
    labels = draw(st.lists(LABELS, max_size=8, unique=True))
    loops = draw(st.booleans())
    verts = tuple(
        Vertex(
            label,
            exponents=draw(st.none() | st.lists(st.integers(0, 40), max_size=3)),
            size=draw(st.none() | st.integers(1, 10**12)),
            loop=loops and draw(st.booleans()),
        )
        for label in labels
    )
    pairs = list(itertools.combinations(range(len(verts)), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return CompressedGraph(verts, tuple(edges), loops)


class TestJsonWriter:
    """The graph JSON is written without json.dumps; its text must be the
    bytes json.dumps(payload, indent=2) gives, plus a newline."""

    @given(graphs_with_metadata())
    @settings(max_examples=200, deadline=None)
    def test_compressed_graph_matches_json_dumps(self, g):
        payload = {
            "vertices": [
                {
                    "label": v.label,
                    "exponents": list(v.exponents) if v.exponents is not None else None,
                    "size": v.size,
                    "loop": v.loop,
                }
                for v in g.vertices
            ],
            "edges": [list(e) for e in g.edges],
        }
        assert to_json(g) == json.dumps(payload, indent=2) + "\n"

    @given(graphs_with_metadata())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, g):
        assert from_json(to_json(g)) == g

    @given(graphs_with_metadata())
    @settings(max_examples=200, deadline=None)
    def test_graph_matches_json_dumps(self, cg):
        g = Graph(tuple(v.label for v in cg.vertices), cg.edges)
        payload = {"vertices": list(g.labels), "edges": [list(e) for e in g.edges]}
        assert g.to_json() == json.dumps(payload, indent=2) + "\n"

    @given(graphs_with_metadata())
    @settings(max_examples=100, deadline=None)
    def test_graph_compressed_json_is_its_compressed_graphs(self, cg):
        g = Graph(tuple(v.label for v in cg.vertices), cg.edges)
        assert g.compressed_json() == to_json(g.as_compressed())

