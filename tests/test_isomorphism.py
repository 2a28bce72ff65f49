"""Isomorphism decisions pinned against hand-built fixtures.

Witness soundness is re-checked here with an independent edge-by-edge
verifier rather than trusting the one inside the module.
"""

import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgraph.arithmetic import factor_integer, factor_polynomial
from zdgraph.compressed_graph import (
    CompressedGraph,
    Vertex,
    graph_from_factorization,
    signature,
)
from zdgraph.finite_ring import IntegersMod, oracle_compressed_graph
from zdgraph.isomorphism import (
    DEFAULT_BUDGET,
    IsoReport,
    SearchBudgetExceeded,
    _adjacency,
    _equitable,
    _verify_witness,
    canonical_form,
    graphs_isomorphic,
    signature_sufficient,
)


def plain(labels, edges, loops=(), sizes=None, admit_loops=False):
    vs = tuple(
        Vertex(
            label=l,
            loop=l in loops,
            size=None if sizes is None else sizes[i],
        )
        for i, l in enumerate(labels)
    )
    return CompressedGraph(vertices=vs, edges=tuple(edges), loops_admitted=admit_loops or bool(loops))


def check_witness(g1, g2, pairs, respect_loops=True, respect_sizes=False):
    # independent re-verification of a returned pairing
    assert pairs is not None
    lab1 = {v.label: i for i, v in enumerate(g1.vertices)}
    lab2 = {v.label: i for i, v in enumerate(g2.vertices)}
    assert sorted(a for a, _ in pairs) == sorted(lab1)
    assert sorted(b for _, b in pairs) == sorted(lab2)
    m = {lab1[a]: lab2[b] for a, b in pairs}
    e1 = {frozenset(e) for e in g1.edges}
    e2 = {frozenset(e) for e in g2.edges}
    assert {frozenset((m[i], m[j])) for i, j in e1} == e2
    for a, b in pairs:
        v, w = g1.vertices[lab1[a]], g2.vertices[lab2[b]]
        if respect_loops:
            assert v.loop == w.loop
        if respect_sizes:
            assert v.size == w.size


def reference_verify_witness(g1, g2, pairs, respect_loops, respect_sizes):
    """_verify_witness as it was: every pair of g1's vertices checked, O(n^2)."""
    index1 = {v.label: i for i, v in enumerate(g1.vertices)}
    index2 = {v.label: i for i, v in enumerate(g2.vertices)}
    if len(pairs) != len(g1.vertices) or len({b for _, b in pairs}) != len(pairs):
        return False
    mapping = {}
    for a, b in pairs:
        if a not in index1 or b not in index2:
            return False
        mapping[index1[a]] = index2[b]
    e1 = set(g1.edges)
    e2 = set(g2.edges)
    n = len(g1.vertices)
    for i in range(n):
        vi, wi = g1.vertices[i], g2.vertices[mapping[i]]
        if respect_loops and vi.loop != wi.loop:
            return False
        if respect_sizes and vi.size != wi.size:
            return False
        for j in range(i + 1, n):
            a, b = mapping[i], mapping[j]
            if ((i, j) in e1) != ((min(a, b), max(a, b)) in e2):
                return False
    return True


def reference_refine(adj1, adj2, init1, init2):
    """The search's color refinement as it was, kept apart from the
    module's: shared-palette neighborhood refinement over both graphs, one
    color per (color, sorted neighbor colors) in order of first appearance."""
    n1 = len(init1)
    adj = adj1 + [{u + n1 for u in nbrs} for nbrs in adj2]
    palette = {}
    colors = [palette.setdefault(("init", key), len(palette)) for key in list(init1) + list(init2)]
    for _ in range(len(adj)):
        before = len(set(colors))
        fresh = {}
        colors = [
            fresh.setdefault((colors[v], tuple(sorted(colors[u] for u in adj[v]))), len(fresh))
            for v in range(len(adj))
        ]
        if len(set(colors)) == before:
            break
    return colors[:n1], colors[n1:]


def reference_isomorphic(g1, g2, respect_loops=True, respect_sizes=False, budget=DEFAULT_BUDGET):
    """graphs_isomorphic as it was, with its own color refinement, the O(n)
    consistency test per candidate and the O(n^2) witness check."""
    n = len(g1.vertices)
    if n != len(g2.vertices):
        return IsoReport(False, None, "vertex count", 0)
    if respect_loops and g1.loop_count != g2.loop_count:
        return IsoReport(False, None, "loop count", 0)
    if g1.degree_multiset() != g2.degree_multiset():
        return IsoReport(False, None, "degree multiset", 0)
    if respect_sizes and sorted(v.size for v in g1.vertices) != sorted(v.size for v in g2.vertices):
        return IsoReport(False, None, "size multiset", 0)
    if n == 0:
        return IsoReport(True, (), None, 0)
    if g1 == g2:
        pairs = tuple(sorted((v.label, v.label) for v in g1.vertices))
        assert reference_verify_witness(g1, g2, pairs, respect_loops, respect_sizes)
        return IsoReport(True, pairs, None, 0)
    adj1, adj2 = _adjacency(g1), _adjacency(g2)

    def seed(g, adj):
        return [
            (len(adj[i]), v.loop if respect_loops else False, v.size if respect_sizes else 0)
            for i, v in enumerate(g.vertices)
        ]

    col1, col2 = reference_refine(adj1, adj2, seed(g1, adj1), seed(g2, adj2))
    by_color2 = {}
    for j, c in enumerate(col2):
        by_color2.setdefault(c, []).append(j)
    order = sorted(range(n), key=lambda i: (len(by_color2.get(col1[i], ())), -len(adj1[i]), i))
    candidates = [by_color2.get(col1[i], []) for i in range(n)]
    mapping = [-1] * n
    used = [False] * n
    nodes = 0

    def consistent(v, w):
        if used[w] or len(adj1[v]) != len(adj2[w]):
            return False
        for u in range(n):
            m = mapping[u]
            if m >= 0 and u != v and ((u in adj1[v]) != (m in adj2[w])):
                return False
        return True

    cursor = [0] * (n + 1)
    depth = 0
    while 0 <= depth < n:
        v = order[depth]
        if mapping[v] >= 0:
            used[mapping[v]] = False
            mapping[v] = -1
        options = candidates[v]
        i = cursor[depth]
        while i < len(options) and not consistent(v, options[i]):
            i += 1
        if i == len(options):
            depth -= 1
            continue
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"isomorphism search exceeded budget of {budget} nodes")
        mapping[v] = options[i]
        used[options[i]] = True
        cursor[depth] = i + 1
        depth += 1
        cursor[depth] = 0
    if depth < 0:
        return IsoReport(False, None, "search exhaustion", nodes)
    pairs = tuple(sorted((g1.vertices[i].label, g2.vertices[mapping[i]].label) for i in range(n)))
    assert reference_verify_witness(g1, g2, pairs, respect_loops, respect_sizes)
    return IsoReport(True, pairs, None, nodes)


CYCLE6 = plain("abcdef", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
TRIANGLES = plain("abcdef", [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


class TestPrefilters:
    def test_vertex_count(self):
        r = graphs_isomorphic(plain("a", []), plain("ab", [(0, 1)]))
        assert r == IsoReport(False, None, "vertex count", 0)

    def test_degree_multiset(self):
        path3 = plain("abc", [(0, 1), (1, 2)])
        tri = plain("abc", [(0, 1), (0, 2), (1, 2)])
        r = graphs_isomorphic(path3, tri)
        assert not r.isomorphic and r.separating == "degree multiset"

    def test_loop_count(self):
        looped = plain("a", [], loops="a")
        bare = plain("a", [], admit_loops=True)
        r = graphs_isomorphic(looped, bare, respect_loops=True)
        assert not r.isomorphic and r.separating == "loop count"
        assert graphs_isomorphic(looped, bare, respect_loops=False).isomorphic

    def test_size_multiset(self):
        g1 = plain("ab", [(0, 1)], sizes=(2, 2))
        g2 = plain("ab", [(0, 1)], sizes=(2, 1))
        r = graphs_isomorphic(g1, g2, respect_sizes=True)
        assert not r.isomorphic and r.separating == "size multiset"
        assert graphs_isomorphic(g1, g2, respect_sizes=False).isomorphic

    def test_sizes_required_when_respected(self):
        with pytest.raises(ValueError):
            graphs_isomorphic(plain("a", []), plain("b", []), respect_sizes=True)


class TestSearch:
    def test_cycle_vs_triangles_needs_search(self):
        # same degrees everywhere, so only exhaustive search separates them
        r = graphs_isomorphic(CYCLE6, TRIANGLES)
        assert not r.isomorphic
        assert r.separating == "search exhaustion"
        assert r.nodes > 0

    def test_budget_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            graphs_isomorphic(CYCLE6, TRIANGLES, budget=1)

    def test_relabeled_graph_found(self):
        g = graph_from_factorization(factor_integer(720), loops=True)
        renames = {v.label: f"v{i:02d}" for i, v in enumerate(reversed(g.vertices))}
        g2 = CompressedGraph(
            vertices=tuple(
                Vertex(label=renames[v.label], loop=v.loop) for v in g.vertices
            ),
            edges=g.edges,
            loops_admitted=True,
        )
        r = graphs_isomorphic(g, g2)
        assert r.isomorphic
        check_witness(g, g2, r.witness)

    def test_search_deeper_than_recursion_limit(self):
        # one search level per vertex: 1022 levels, past Python's default
        # recursion limit of 1000
        g1 = graph_from_factorization(
            factor_integer(2**3 * 3**3 * 5 * 7 * 11 * 13 * 17 * 19), loops=True
        )
        g2 = graph_from_factorization(
            factor_integer(2 * 3 * 5**3 * 7**3 * 11 * 13 * 17 * 23), loops=True
        )
        assert len(g1.vertices) == len(g2.vertices) == 1022
        r = graphs_isomorphic(g1, g2)
        assert r.isomorphic
        check_witness(g1, g2, r.witness)

    def test_self_isomorphism_identity_witness(self):
        for g in (CYCLE6, TRIANGLES, graph_from_factorization(factor_integer(360), loops=True)):
            r = graphs_isomorphic(g, g)
            assert r.isomorphic
            assert r.witness == tuple(sorted((v.label, v.label) for v in g.vertices))

    def test_empty_graphs(self):
        r = graphs_isomorphic(plain("", []), plain("", []))
        assert r.isomorphic and r.witness == ()

    def test_loop_placement_not_just_count(self):
        # equal loop counts, but loops sit on different-degree vertices
        g1 = plain("abc", [(0, 1), (1, 2)], loops="b")
        g2 = plain("abc", [(0, 1), (1, 2)], loops="a")
        r = graphs_isomorphic(g1, g2, respect_loops=True)
        assert not r.isomorphic and r.separating == "search exhaustion"
        assert graphs_isomorphic(g1, g2, respect_loops=False).isomorphic

    def test_sizes_constrain_mapping(self):
        g1 = plain("abc", [(0, 1), (1, 2)], sizes=(5, 1, 5))
        g2 = plain("xyz", [(0, 1), (1, 2)], sizes=(5, 1, 5))
        r = graphs_isomorphic(g1, g2, respect_sizes=True)
        assert r.isomorphic
        check_witness(g1, g2, r.witness, respect_sizes=True)
        assert ("b", "y") in r.witness
        g3 = plain("xyz", [(0, 1), (1, 2)], sizes=(1, 5, 5))
        r3 = graphs_isomorphic(g1, g3, respect_sizes=True)
        assert not r3.isomorphic

    def test_symmetric(self):
        a = graphs_isomorphic(CYCLE6, TRIANGLES).isomorphic
        b = graphs_isomorphic(TRIANGLES, CYCLE6).isomorphic
        assert a == b == False  # noqa: E712


class TestWitnessCheck:
    """The certificate check turns down each kind of bad pairing.  Every
    rejection is paired with an acceptance that differs in one setting, so
    the test knows which comparison said no."""

    PATH = plain("abc", [(0, 1), (1, 2)], loops="b", sizes=(1, 2, 1))
    GOOD = (("a", "x"), ("b", "y"), ("c", "z"))

    def target(self, loops="y", sizes=(1, 2, 1)):
        return plain("xyz", [(0, 1), (1, 2)], loops=loops, sizes=sizes)

    def test_accepts_the_true_pairing(self):
        assert _verify_witness(self.PATH, self.target(), self.GOOD, True, True)

    def test_rejects_a_swapped_pair(self):
        swapped = (("a", "y"), ("b", "x"), ("c", "z"))
        assert not _verify_witness(self.PATH, self.target(), swapped, False, False)

    @pytest.mark.parametrize(
        "pairs",
        [
            (("a", "x"), ("b", "y"), ("c", "y")),  # y taken twice
            (("a", "x"), ("b", "y")),  # c left out
            (("a", "x"), ("a", "y"), ("c", "z")),  # a taken twice, b left out
        ],
    )
    def test_rejects_a_pairing_that_is_not_one_to_one(self, pairs):
        assert not _verify_witness(self.PATH, self.target(), pairs, False, False)

    def test_rejects_an_unknown_label(self):
        pairs = (("a", "x"), ("b", "y"), ("q", "z"))
        assert not _verify_witness(self.PATH, self.target(), pairs, False, False)

    def test_rejects_a_loop_mismatch_when_loops_count(self):
        g2 = self.target(loops="yz")
        assert not _verify_witness(self.PATH, g2, self.GOOD, True, False)
        assert _verify_witness(self.PATH, g2, self.GOOD, False, False)

    def test_rejects_a_size_mismatch_when_sizes_count(self):
        g2 = self.target(sizes=(1, 2, 3))
        assert not _verify_witness(self.PATH, g2, self.GOOD, False, True)
        assert _verify_witness(self.PATH, g2, self.GOOD, False, False)

    def test_rejects_unequal_edge_counts(self):
        # every edge of the path maps onto an edge of the triangle
        triangle = plain("xyz", [(0, 1), (1, 2), (0, 2)])
        for verify in (_verify_witness, reference_verify_witness):
            assert not verify(self.PATH, triangle, self.GOOD, False, False)
            assert verify(self.PATH, self.target(), self.GOOD, False, False)

    def test_rejects_an_edge_mapped_onto_a_non_edge(self):
        # a star at x: the pairing sends b -- c onto y, z, a non-edge
        star = plain("xyz", [(0, 1), (0, 2)])
        centred = (("a", "y"), ("b", "x"), ("c", "z"))
        for verify in (_verify_witness, reference_verify_witness):
            assert not verify(self.PATH, star, self.GOOD, False, False)
            assert verify(self.PATH, star, centred, False, False)

    def test_rejects_a_pairing_into_a_larger_graph(self):
        # the quadratic check looked at g1's pairs only, so it let this pass
        larger = plain("xyzw", [(0, 1), (1, 2)])
        assert not _verify_witness(self.PATH, larger, self.GOOD, False, False)
        assert reference_verify_witness(self.PATH, larger, self.GOOD, False, False)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_relabelled_graph_is_isomorphic_through_its_witness(self, data):
        n = data.draw(st.integers(0, 9))
        pairs = list(combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        loops = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        g1 = CompressedGraph(
            tuple(Vertex(f"v{i}", size=s, loop=l) for i, (l, s) in enumerate(zip(loops, sizes))),
            tuple(edges),
            loops_admitted=True,
        )
        g2 = g1.relabel(data.draw(st.permutations([f"w{i}" for i in range(n)])))
        r = graphs_isomorphic(g1, g2, respect_sizes=True)
        assert r.isomorphic
        image = dict(r.witness)
        assert g1.relabel([image[v.label] for v in g1.vertices]) == g2


@st.composite
def attributed_graphs(draw, max_n=9):
    """A graph with loop flags and sizes on every vertex."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    loops = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return CompressedGraph(
        tuple(Vertex(f"v{i}", size=s, loop=l) for i, (l, s) in enumerate(zip(loops, sizes))),
        tuple(edges),
        loops_admitted=True,
    )


@st.composite
def near_copy(draw, g):
    """A relabeled copy of g with a few degree-preserving edge switches and
    its loop flags and sizes shuffled among the vertices: every invariant
    graphs_isomorphic tests first still agrees with g."""
    n = len(g.vertices)
    edges = set(g.edges)
    for _ in range(draw(st.integers(0, 3))):
        if len(edges) < 2:
            break
        (a, b), (c, d) = draw(st.lists(st.sampled_from(sorted(edges)), min_size=2, max_size=2, unique=True))
        new = {tuple(sorted(e)) for e in ((a, d), (c, b))}
        if len(new) == 2 and all(x != y for x, y in new) and not new & edges:
            edges = (edges - {(a, b), (c, d)}) | new
    attrs = draw(st.permutations([(v.loop, v.size) for v in g.vertices]))
    return CompressedGraph(
        tuple(Vertex(f"v{i}", size=s, loop=l) for i, (l, s) in enumerate(attrs)),
        tuple(edges),
        loops_admitted=True,
    ).relabel(draw(st.permutations([f"w{i}" for i in range(n)])))


FLAGS = [(True, False), (False, False), (True, True), (False, True)]


class TestLinearChecksMatchReferences:
    """The search's consistency test and the witness check look at edges
    only; every report is the one the O(n) and O(n^2) versions gave."""

    @settings(max_examples=200, deadline=None)
    @given(attributed_graphs(max_n=10), st.data())
    def test_same_report_as_the_reference(self, g, data):
        n = len(g.vertices)
        h = g.relabel(data.draw(st.permutations([f"w{i}" for i in range(n)])))
        pairs = set(combinations(range(n), 2))
        others = sorted(pairs - set(h.edges))
        moved = None
        if h.edges and others:
            # one edge moved onto a non-edge
            gone = data.draw(st.sampled_from(h.edges))
            added = data.draw(st.sampled_from(others))
            edges = tuple(e for e in h.edges if e != gone) + (added,)
            moved = CompressedGraph(h.vertices, edges, h.loops_admitted)
        for loops, sizes in FLAGS:
            for target in (h, moved) if moved else (h,):
                report = graphs_isomorphic(g, target, loops, sizes)
                assert report == reference_isomorphic(g, target, loops, sizes)

    # cycle lengths of equal sum: every union is 2-regular, so refinement
    # leaves one cell and the search alone tells the pairs apart
    CYCLE_UNIONS = [((6,), (3, 3)), ((8,), (4, 4), (3, 5)), ((10,), (5, 5), (3, 7), (3, 3, 4))]

    @pytest.mark.parametrize(
        "a, b",
        [pair for group in CYCLE_UNIONS for pair in combinations_with_replacement(group, 2)],
    )
    def test_same_report_on_unions_of_cycles(self, a, b):
        def union(lengths, seed):
            edges, start = [], 0
            for k in lengths:
                edges += [(start + t, start + (t + 1) % k) for t in range(k)]
                start += k
            names = [f"v{i}" for i in range(start)]
            random.Random(seed).shuffle(names)
            return plain(names, edges)

        g, h = union(a, 1), union(b, 2)
        report = graphs_isomorphic(g, h)
        assert report == reference_isomorphic(g, h)
        assert report.isomorphic == (a == b) and report.nodes > 0

    @pytest.mark.parametrize("loops", [False, True])
    def test_same_report_on_ring_graphs(self, loops):
        g1 = graph_from_factorization(factor_integer(2**3 * 3 * 5 * 7), loops)
        g2 = graph_from_factorization(factor_integer(11**3 * 2 * 13 * 17), loops)
        g3 = graph_from_factorization(factor_integer(2**2 * 3**2 * 5 * 7), loops)
        for a, b in [(g1, g2), (g2, g1), (g1, g3)]:
            report = graphs_isomorphic(a, b, loops)
            assert report == reference_isomorphic(a, b, loops)
        assert graphs_isomorphic(g1, g2, loops).nodes > 0


def reference_equitable(colors, adj):
    """_equitable as first written: every signature held, ranked through a
    dictionary of the sorted distinct ones."""
    count = len(set(colors))
    while True:
        sig = [(c, tuple(sorted(colors[u] for u in nbrs))) for c, nbrs in zip(colors, adj)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        colors = [rank[s] for s in sig]
        if len(rank) == count:
            return colors
        count = len(rank)


class TestEquitable:
    @settings(max_examples=200, deadline=None)
    @given(attributed_graphs(max_n=14), st.data())
    def test_same_colors_as_the_reference(self, g, data):
        # the canonical keys read the color values, not only the partition
        n = len(g.vertices)
        seed = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        rank = {c: i for i, c in enumerate(sorted(set(seed)))}
        colors = [rank[c] for c in seed]
        adj = _adjacency(g)
        assert _equitable(colors, adj) == reference_equitable(colors, adj)


class TestCanonicalForm:
    @settings(max_examples=80, deadline=None)
    @given(attributed_graphs(), st.data())
    def test_relabeling_keeps_the_key(self, g, data):
        h = g.relabel(data.draw(st.permutations([f"w{i}" for i in range(len(g.vertices))])))
        for loops, sizes in FLAGS:
            assert canonical_form(g, loops, sizes).key == canonical_form(h, loops, sizes).key

    @settings(max_examples=150, deadline=None)
    @given(attributed_graphs(), st.data())
    def test_key_equality_is_isomorphism(self, g, data):
        h = data.draw(near_copy(g))
        for loops, sizes in FLAGS:
            same = canonical_form(g, loops, sizes).key == canonical_form(h, loops, sizes).key
            assert same == graphs_isomorphic(g, h, loops, sizes).isomorphic

    def test_key_is_the_graph_renumbered_by_the_labeling(self):
        g = graph_from_factorization(factor_integer(72), loops=True)
        form = canonical_form(g)
        by_position = sorted(range(len(g.vertices)), key=form.labeling.__getitem__)
        assert form.key[0] == tuple((g.vertices[v].loop, 0) for v in by_position)
        assert form.key[1] == tuple(
            sorted(tuple(sorted((form.labeling[i], form.labeling[j]))) for i, j in g.edges)
        )

    @pytest.mark.parametrize("with_k4", [False, True])
    def test_regular_graph_keys(self, with_k4):
        # the Frucht graph is 3-regular, so refinement leaves one cell, and
        # its only automorphism is the identity, so every vertex of that
        # cell leads to a different leaf and all of them must be searched.
        # Beside a K4, also 3-regular, the search meets automorphisms below
        # the root and returns to the ancestor they fix, not further up.
        lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
        edges = {tuple(sorted((i, (i + 1) % 12))) for i in range(12)}
        edges |= {tuple(sorted((i, (i + d) % 12))) for i, d in enumerate(lcf)}
        n = 12
        if with_k4:
            edges |= set(combinations(range(12, 16), 2))
            n = 16
        g = plain([f"v{i:02d}" for i in range(n)], sorted(edges))
        key = canonical_form(g).key
        rng = random.Random(0)
        for _ in range(10):
            names = [f"w{i:02d}" for i in range(n)]
            rng.shuffle(names)
            assert canonical_form(g.relabel(names)).key == key
        assert canonical_form(g).nodes > 12

    def test_refinement_alone_is_one_node(self):
        # Z/16: 2 -- 8 -- 4 with loops at 4 and 8; loops tell 2 from 4
        g = graph_from_factorization(factor_integer(16), loops=True)
        assert canonical_form(g).nodes == 1
        assert canonical_form(g, respect_loops=False).nodes == 3

    def test_symmetric_graph_is_pruned(self):
        # the proper divisors of 2*3*5*7*11 under v + w >= s: the group
        # permuting the five primes has 120 elements
        g = graph_from_factorization(factor_integer(2310), loops=False)
        assert 1 < canonical_form(g).nodes < 120

    def test_cycle_and_triangles_differ(self):
        assert canonical_form(CYCLE6).key != canonical_form(TRIANGLES).key

    def test_empty_graph(self):
        assert canonical_form(plain("", [])) == canonical_form(plain("", []))
        assert canonical_form(plain("", [])).nodes == 1

    def test_budget_raises(self):
        with pytest.raises(SearchBudgetExceeded, match="canonical search exceeded budget of 2 nodes"):
            canonical_form(CYCLE6, budget=2)
        with pytest.raises(ValueError):
            canonical_form(CYCLE6, budget=0)

    def test_sizes_required_when_respected(self):
        with pytest.raises(ValueError):
            canonical_form(plain("a", []), respect_sizes=True)


def networkx_isomorphic(g1, g2, respect_loops, respect_sizes):
    """nx.is_isomorphic on the two graphs, nodes matched on the loop flag
    and the class size as the flags ask."""
    nx = pytest.importorskip("networkx")

    def as_nx(g):
        h = nx.Graph()
        h.add_nodes_from((i, {"loop": v.loop, "size": v.size}) for i, v in enumerate(g.vertices))
        h.add_edges_from(g.edges)
        return h

    def node_match(a, b):
        return (not respect_loops or a["loop"] == b["loop"]) and (
            not respect_sizes or a["size"] == b["size"]
        )

    return nx.is_isomorphic(as_nx(g1), as_nx(g2), node_match=node_match)


def z_graphs_by_vertex_count(max_n):
    """Pairs of looped oracle graphs of Z/n, n <= max_n, with equally many
    vertices; every vertex carries its class size."""
    by_count = {}
    for n in range(2, max_n + 1):
        g = oracle_compressed_graph(IntegersMod(n), loops=True)
        by_count.setdefault(len(g.vertices), []).append((n, g))
    return [pair for group in by_count.values() for pair in combinations(group, 2)]


class TestNetworkxOracle:
    """networkx decides the same pairs with code that shares nothing with
    this module; the search and the canonical keys must agree with it."""

    @settings(max_examples=150, deadline=None)
    @given(attributed_graphs(), st.data())
    def test_hypothesis_graphs(self, g, data):
        h = data.draw(near_copy(g))
        for loops, sizes in FLAGS:
            expected = networkx_isomorphic(g, h, loops, sizes)
            assert graphs_isomorphic(g, h, loops, sizes).isomorphic == expected
            assert (canonical_form(g, loops, sizes).key == canonical_form(h, loops, sizes).key) == expected

    def test_equal_size_ring_graphs(self):
        verdicts = set()
        for (n1, g1), (n2, g2) in z_graphs_by_vertex_count(120):
            for loops, sizes in FLAGS:
                expected = networkx_isomorphic(g1, g2, loops, sizes)
                verdicts.add(expected)
                assert graphs_isomorphic(g1, g2, loops, sizes).isomorphic == expected, (n1, n2)
                same = canonical_form(g1, loops, sizes).key == canonical_form(g2, loops, sizes).key
                assert same == expected, (n1, n2)
        assert verdicts == {False, True}


class TestRingFixtures:
    def test_z8_vs_z6_unlooped_isomorphic(self):
        g8 = oracle_compressed_graph(IntegersMod(8), loops=False)
        g6 = oracle_compressed_graph(IntegersMod(6), loops=False)
        r = graphs_isomorphic(g8, g6, respect_loops=False)
        assert r.isomorphic
        check_witness(g8, g6, r.witness, respect_loops=False)

    def test_z8_vs_z6_looped_separated(self):
        g8 = oracle_compressed_graph(IntegersMod(8), loops=True)
        g6 = oracle_compressed_graph(IntegersMod(6), loops=True)
        r = graphs_isomorphic(g8, g6, respect_loops=True)
        assert not r.isomorphic
        assert r.separating == "loop count"

    def test_transitive_on_cube_signature(self):
        gs = [
            graph_from_factorization(factor_integer(n), loops=True)
            for n in (8, 27, 125)
        ]
        r01 = graphs_isomorphic(gs[0], gs[1])
        r12 = graphs_isomorphic(gs[1], gs[2])
        r02 = graphs_isomorphic(gs[0], gs[2])
        assert r01.isomorphic and r12.isomorphic and r02.isomorphic


class TestSignatureSufficient:
    def test_mixed_backends(self):
        f72 = factor_integer(72)  # 2^3 * 3^2
        fpoly = factor_polynomial([0, 0, 0, 1, 0, 1], 2)  # x^3 (x+1)^2
        assert signature_sufficient(f72, fpoly)
        assert signature_sufficient(fpoly, f72)

    def test_twelve_vs_x2_x_plus_1(self):
        f12 = factor_integer(12)
        fpoly = factor_polynomial([0, 0, 1, 1], 2)  # x^2 (x+1) = x^3 + x^2
        assert signature_sufficient(f12, fpoly)
        g1 = graph_from_factorization(f12, loops=True)
        g2 = graph_from_factorization(fpoly, loops=True)
        assert graphs_isomorphic(g1, g2).isomorphic

    def test_eight_vs_six(self):
        assert not signature_sufficient(factor_integer(8), factor_integer(6))

    def test_sufficiency_implies_isomorphic_small(self):
        by_sig = {}
        for n in range(4, 61):
            f = factor_integer(n)
            by_sig.setdefault(signature(f), []).append(f)
        checked = 0
        for sig, facts in by_sig.items():
            if sig == (1,):
                continue
            base = graph_from_factorization(facts[0], loops=True)
            base_u = graph_from_factorization(facts[0], loops=False)
            for f in facts[1:]:
                assert graphs_isomorphic(
                    base, graph_from_factorization(f, loops=True)
                ).isomorphic, (facts[0], f)
                assert graphs_isomorphic(
                    base_u, graph_from_factorization(f, loops=False), respect_loops=False
                ).isomorphic
                checked += 1
        assert checked > 10
