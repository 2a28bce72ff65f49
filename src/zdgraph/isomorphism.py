"""Exact graph isomorphism for compressed zero-divisor graphs.

One color refinement serves both routines below: _equitable refines a
partition seeded by the vertex attributes (loop flag, class size, as
asked) until it is equitable.

graphs_isomorphic decides one pair by backtracking search over the
partition that refinement gives the disjoint union of the two graphs, each
vertex seeded by its degree and attributes. Cheap invariants
(vertex count, loop count, degree multiset) answer most negative instances
before any search happens; when they all agree the search itself is the
separating certificate. Every positive answer carries a vertex pairing that
is re-verified edge by edge, in time linear in the edges, before it is
returned.

canonical_form gives one graph a key that is equal for two graphs exactly
when they are isomorphic, so many graphs are compared by comparing keys. It
searches by individualization and refinement, pruning children that a
found automorphism maps onto a child already searched (McKay & Piperno,
Practical graph isomorphism, II, J. Symbolic Comput. 60, 2014), and
re-checks its key by relabeling the graph before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compressed_graph import CompressedGraph, signature

# Search nodes allowed per isomorphism query unless the caller gives a budget.
DEFAULT_BUDGET = 10**7


class SearchBudgetExceeded(RuntimeError):
    """Raised when the node budget runs out before the search completes."""


@dataclass(frozen=True)
class IsoReport:
    """Outcome of one isomorphism test.

    witness is a tuple of (label in g1, label in g2) pairs when isomorphic;
    separating names the invariant that ruled the pair out otherwise. nodes
    counts assignments tried during search (0 when an invariant decided).
    """

    isomorphic: bool
    witness: tuple[tuple[str, str], ...] | None
    separating: str | None
    nodes: int


def _adjacency(g: CompressedGraph) -> list[set[int]]:
    adj = [set() for _ in g.vertices]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _verify_witness(g1, g2, pairs, respect_loops, respect_sizes):
    index1 = {v.label: i for i, v in enumerate(g1.vertices)}
    index2 = {v.label: i for i, v in enumerate(g2.vertices)}
    n = len(g1.vertices)
    if n != len(g2.vertices) or len(pairs) != n or len({b for _, b in pairs}) != n:
        return False
    mapping = {}
    for a, b in pairs:
        if a not in index1 or b not in index2:
            return False
        mapping[index1[a]] = index2[b]
    for i in range(n):
        vi, wi = g1.vertices[i], g2.vertices[mapping[i]]
        if respect_loops and vi.loop != wi.loop:
            return False
        if respect_sizes and vi.size != wi.size:
            return False
    # the pairing is a bijection, so it maps g1's edges one to one onto
    # g2's exactly when the counts agree and every image is an edge of g2
    if len(g1.edges) != len(g2.edges):
        return False
    e2 = set(g2.edges)
    for i, j in g1.edges:
        a, b = mapping[i], mapping[j]
        if (min(a, b), max(a, b)) not in e2:
            return False
    return True


def graphs_isomorphic(
    g1: CompressedGraph,
    g2: CompressedGraph,
    respect_loops: bool = True,
    respect_sizes: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> IsoReport:
    """Decide whether g1 and g2 are isomorphic.

    respect_loops demands the pairing preserve loop flags; respect_sizes
    demands it preserve class sizes (every vertex must then carry one).
    Raises SearchBudgetExceeded instead of ever guessing: a False answer
    means the search space was covered.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    n = len(g1.vertices)
    if n != len(g2.vertices):
        return IsoReport(False, None, "vertex count", 0)
    if respect_loops and g1.loop_count != g2.loop_count:
        return IsoReport(False, None, "loop count", 0)
    if g1.degree_multiset() != g2.degree_multiset():
        return IsoReport(False, None, "degree multiset", 0)
    attrs1 = _attributes(g1, respect_loops, respect_sizes)
    attrs2 = _attributes(g2, respect_loops, respect_sizes)
    if respect_sizes and sorted(s for _, s in attrs1) != sorted(s for _, s in attrs2):
        return IsoReport(False, None, "size multiset", 0)
    if n == 0:
        return IsoReport(True, (), None, 0)
    if g1 == g2:
        pairs = tuple(sorted((v.label, v.label) for v in g1.vertices))
        if not _verify_witness(g1, g2, pairs, respect_loops, respect_sizes):
            raise AssertionError("internal error: witness failed verification")
        return IsoReport(True, pairs, None, 0)

    # one refinement of the disjoint union, g2's vertices numbered from n,
    # so that a color means the same in both graphs; seeding the degree
    # saves the round that would find it
    adj1, adj2 = _adjacency(g1), _adjacency(g2)
    adj = adj1 + [{u + n for u in nbrs} for nbrs in adj2]
    seeds = [(len(nbrs), a) for nbrs, a in zip(adj, attrs1 + attrs2)]
    rank = {s: i for i, s in enumerate(sorted(set(seeds)))}
    colors = _equitable([rank[s] for s in seeds], adj)
    col1, col2 = colors[:n], colors[n:]

    by_color2: dict[int, list[int]] = {}
    for j, c in enumerate(col2):
        by_color2.setdefault(c, []).append(j)
    # most constrained first: rare colors, then high degree
    order = sorted(
        range(n), key=lambda i: (len(by_color2.get(col1[i], ())), -len(adj1[i]), i)
    )
    candidates = [by_color2.get(col1[i], []) for i in range(n)]

    mapping = [-1] * n
    used = [False] * len(g2.vertices)
    nodes = 0

    def consistent(v, w):
        """Whether v -> w keeps adjacency to every vertex mapped so far: the
        images of v's mapped neighbours are exactly w's mapped neighbours."""
        if used[w] or len(adj1[v]) != len(adj2[w]):
            return False
        images = {mapping[u] for u in adj1[v]}
        images.discard(-1)
        return images == {x for x in adj2[w] if used[x]}

    def search():
        """Depth-first over order, with an explicit stack so that graphs of
        any size fit: cursor[d] is the next candidate to try at depth d."""
        nonlocal nodes
        cursor = [0] * (n + 1)
        depth = 0
        while depth >= 0:
            if depth == n:
                return True
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
                raise SearchBudgetExceeded(
                    f"isomorphism search exceeded budget of {budget} nodes"
                )
            mapping[v] = options[i]
            used[options[i]] = True
            cursor[depth] = i + 1
            depth += 1
            cursor[depth] = 0
        return False

    if search():
        pairs = tuple(
            sorted(
                (g1.vertices[i].label, g2.vertices[mapping[i]].label)
                for i in range(n)
            )
        )
        if not _verify_witness(g1, g2, pairs, respect_loops, respect_sizes):
            raise AssertionError("internal error: witness failed verification")
        return IsoReport(True, pairs, None, nodes)
    return IsoReport(False, None, "search exhaustion", nodes)


@dataclass(frozen=True)
class CanonicalForm:
    """A graph's canonical key, the labeling that gives it, and its cost.

    key is the graph renumbered by labeling: the (loop, size) pair of the
    vertex at each position, then the edges as position pairs i < j, sorted.
    Loops read False and sizes 0 when they are not respected. labeling[i]
    is the position of vertex i; nodes counts search-tree nodes visited.
    """

    key: tuple
    labeling: tuple[int, ...]
    nodes: int


def _attributes(g: CompressedGraph, respect_loops: bool, respect_sizes: bool) -> list:
    if respect_sizes and any(v.size is None for v in g.vertices):
        raise ValueError("respect_sizes requires every vertex to carry a size")
    return [
        (v.loop if respect_loops else False, v.size if respect_sizes else 0)
        for v in g.vertices
    ]


def _equitable(colors: list[int], adj: list[set[int]]) -> list[int]:
    """Refine colors 0..k-1 until a vertex's color fixes the multiset of
    its neighbours' colors. A new color is the rank of (old color, sorted
    neighbour colors), so cells split in place and no vertex index shows in
    the result: relabeling the graph relabels the refined colors alike."""
    count = len(set(colors))
    while True:
        # a vertex keeps only its signature's id and a repeated signature
        # is dropped at once: fewer live tuples, fewer garbage collections
        ids: dict[tuple, int] = {}
        first = [
            ids.setdefault((c, tuple(sorted(map(colors.__getitem__, nbrs)))), len(ids))
            for c, nbrs in zip(colors, adj)
        ]
        rank = [0] * len(ids)
        for r, s in enumerate(sorted(ids)):
            rank[ids[s]] = r
        colors = [rank[i] for i in first]
        if len(ids) == count:
            return colors
        count = len(ids)


def _canonical_search(attrs: list, adj: list[set[int]], budget: int):
    """(key, labeling, nodes) of the least leaf certificate.

    A node is an equitable ordered partition; its children individualize
    each vertex of its first smallest non-singleton cell. Two leaves with
    one certificate give an automorphism that fixes their common ancestor's
    individualized vertices and maps the later leaf's subtree at that
    ancestor onto the earlier one's, which is searched: the search returns
    to the ancestor. A child is also skipped when an automorphism found so
    far that fixes the node's individualized vertices maps it onto a child
    already searched: its subtree holds the same certificates.
    """
    n = len(attrs)
    rank = {a: i for i, a in enumerate(sorted(set(attrs)))}
    edges = [(u, w) for u in range(n) for w in adj[u] if u < w]
    first = best = None  # (certificate, labeling, individualized vertices)
    autos: list[tuple[int, ...]] = []
    nodes = 0

    def leaf(pos, fixed):
        """Record a leaf; return the depth of the ancestor to resume at."""
        nonlocal first, best
        pairs = sorted((pos[u], pos[w]) if pos[u] < pos[w] else (pos[w], pos[u]) for u, w in edges)
        by_pos = [None] * n
        for v, p in enumerate(pos):
            by_pos[p] = attrs[v]
        cert = (tuple(by_pos), tuple(pairs))
        if first is None:
            first = best = (cert, pos, fixed)
        elif cert in (first[0], best[0]):
            _, seen, path = first if cert == first[0] else best
            at = [0] * n
            for v, p in enumerate(seen):
                at[p] = v
            autos.append(tuple(at[p] for p in pos))
            common = 0
            while path[common] == fixed[common]:
                common += 1
            return common
        elif cert < best[0]:
            best = (cert, pos, fixed)
        return len(fixed)

    def node(colors, fixed):
        """Count one node. Return its frame, or for a leaf the depth to
        resume at. A frame is the node's colors, its individualized
        vertices, the target cell's members still to try (last first) and
        those already searched."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"canonical search exceeded budget of {budget} nodes")
        sizes = [0] * n
        for c in colors:
            sizes[c] += 1
        cells = [c for c in range(n) if sizes[c] > 1]
        if not cells:
            return leaf(tuple(colors), fixed)
        target = min(cells, key=lambda c: (sizes[c], c))
        return colors, fixed, [u for u in reversed(range(n)) if colors[u] == target], []

    # depth-first with an explicit stack, so that a deep tree fits; the
    # frame at stack[d] has d individualized vertices
    root = node(_equitable([rank[a] for a in attrs], adj), ())
    stack = [] if isinstance(root, int) else [root]
    while stack:
        colors, fixed, untried, searched = stack[-1]
        if not untried:
            stack.pop()
            continue
        v = untried.pop()
        stabilizer = [a for a in autos if all(a[f] == f for f in fixed)]
        if searched and _in_orbit(v, searched, stabilizer):
            continue
        searched.append(v)
        target = colors[v]
        child = [c + (c > target or (c == target and u != v)) for u, c in enumerate(colors)]
        frame = node(_equitable(child, adj), fixed + (v,))
        if isinstance(frame, int):
            del stack[frame + 1 :]
        else:
            stack.append(frame)
    return best[0], best[1], nodes


def _in_orbit(v: int, targets: list[int], generators) -> bool:
    """Whether the group the generators make maps v onto one of targets."""
    parent: dict[int, int] = {}

    def root(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for perm in generators:
        for x, y in enumerate(perm):
            a, b = root(x), root(y)
            if a != b:
                parent[a] = b
    return any(root(v) == root(t) for t in targets)


def canonical_form(
    g: CompressedGraph,
    respect_loops: bool = True,
    respect_sizes: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> CanonicalForm:
    """The canonical key of g: equal keys, under the same two flags, mean
    isomorphic graphs in the sense of graphs_isomorphic with those flags.

    Raises SearchBudgetExceeded when the search needs more than budget
    nodes. The key is checked before it is returned: g renamed by the
    labeling, in CompressedGraph's own canonical order, must read as the
    key.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    attrs = _attributes(g, respect_loops, respect_sizes)
    key, labeling, nodes = _canonical_search(attrs, _adjacency(g), budget)
    width = len(str(len(attrs)))
    renamed = g.relabel([f"{p:0{width}d}" for p in labeling])
    if (tuple(_attributes(renamed, respect_loops, respect_sizes)), renamed.edges) != key:
        raise AssertionError("internal error: canonical labeling failed verification")
    return CanonicalForm(key, labeling, nodes)


def signature_sufficient(fact1, fact2) -> bool:
    """Equal exponent signatures guarantee isomorphic compressed graphs."""
    return signature(fact1) == signature(fact2)
