"""Exact graph isomorphism for compressed zero-divisor graphs.

Decisions are made by backtracking search over a color partition produced by
iterated neighborhood refinement. Cheap invariants (vertex count, loop count,
degree multiset) answer most negative instances before any search happens;
when they all agree the search itself is the separating certificate. Every
positive answer carries a vertex pairing that is re-verified edge by edge
before it is returned.
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


def _refine(adj1, adj2, init1, init2):
    """Shared-palette neighborhood refinement over both graphs at once.

    Returns final color lists. Colors are comparable across graphs because
    both are interned through one dictionary.
    """
    n1 = len(init1)
    adj = adj1 + [{u + n1 for u in nbrs} for nbrs in adj2]
    palette: dict[object, int] = {}
    colors = []
    for key in list(init1) + list(init2):
        colors.append(palette.setdefault(("init", key), len(palette)))
    for _ in range(len(adj)):
        before = len(set(colors))
        fresh: dict[object, int] = {}
        new = []
        for v in range(len(adj)):
            key = (colors[v], tuple(sorted(colors[u] for u in adj[v])))
            new.append(fresh.setdefault(key, len(fresh)))
        colors = new
        if len(set(colors)) == before:
            break
    return colors[:n1], colors[n1:]


def _verify_witness(g1, g2, pairs, respect_loops, respect_sizes):
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
    if respect_sizes:
        for g in (g1, g2):
            if any(v.size is None for v in g.vertices):
                raise ValueError("respect_sizes requires every vertex to carry a size")
        if sorted(v.size for v in g1.vertices) != sorted(v.size for v in g2.vertices):
            return IsoReport(False, None, "size multiset", 0)
    if n == 0:
        return IsoReport(True, (), None, 0)
    if g1 == g2:
        pairs = tuple(sorted((v.label, v.label) for v in g1.vertices))
        if not _verify_witness(g1, g2, pairs, respect_loops, respect_sizes):
            raise AssertionError("internal error: witness failed verification")
        return IsoReport(True, pairs, None, 0)

    adj1, adj2 = _adjacency(g1), _adjacency(g2)

    def seed(g, adj):
        return [
            (
                len(adj[i]),
                v.loop if respect_loops else False,
                v.size if respect_sizes else 0,
            )
            for i, v in enumerate(g.vertices)
        ]

    col1, col2 = _refine(adj1, adj2, seed(g1, adj1), seed(g2, adj2))

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
        if used[w] or len(adj1[v]) != len(adj2[w]):
            return False
        for u in range(n):
            m = mapping[u]
            if m >= 0 and u != v and ((u in adj1[v]) != (m in adj2[w])):
                return False
        return True

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


def signature_sufficient(fact1, fact2) -> bool:
    """Equal exponent signatures guarantee isomorphic compressed graphs."""
    return signature(fact1) == signature(fact2)
