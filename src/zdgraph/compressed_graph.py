"""Compressed zero-divisor graphs built combinatorially from a factorization.

Given n = prod(p_i ** s_i) in a UFD, the nonzero zero-divisor classes of
D/(n) correspond one-to-one with the proper divisors of n up to associates,
i.e. with exponent vectors strictly between all-zeros and s.  Two classes
are adjacent exactly when the divisors multiply into (n): v + w >= s
componentwise.  A class squares to zero exactly when 2v >= s componentwise;
with loops=True such classes carry a self-loop.

Everything here is pure combinatorics on exponent vectors; the brute-force
ring oracle in finite_ring computes the same graphs with no reference to
factorizations, and the two routes are compared in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, product as _cartesian

from .arithmetic import (
    Factorization,
    FpPoly,
    format_poly_compact,
    gcd_exponents,
    multiplicity_vector,
)

__all__ = [
    "Vertex",
    "CompressedGraph",
    "Graph",
    "ZERO_CLASS",
    "ZeroDivisorBasis",
    "zero_divisor_basis",
    "basis_graph",
    "graph_from_factorization",
    "graph_from_exponents",
    "gcd_class_representative",
    "gcd_class_residues",
    "signature",
    "vertex_count",
    "expand_to_full_graph",
    "twin_quotient",
    "to_json",
    "from_json",
    "to_dot",
]


class _ZeroClassMarker:
    """Sentinel for the class of 0 (elements of the ideal itself)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ZERO_CLASS"


ZERO_CLASS = _ZeroClassMarker()


@dataclass(frozen=True)
class Vertex:
    """One annihilator class: a distinct label, plus optional metadata.

    exponents is set on the factorization path, size on the oracle path;
    either may be None when unknown.
    """

    label: str
    exponents: tuple[int, ...] | None = None
    size: int | None = None
    loop: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("vertex label must be a nonempty string")
        if self.exponents is not None:
            object.__setattr__(self, "exponents", tuple(map(int, self.exponents)))
        if self.size is not None and self.size < 1:
            raise ValueError(f"class size must be >= 1, got {self.size}")


@dataclass(frozen=True)
class CompressedGraph:
    """Vertices sorted by label, edges as index pairs i < j, loops on vertices.

    Construction canonicalizes: vertices are sorted by label and edges are
    renumbered, deduplicated and sorted, so equal graphs compare equal.
    Equality reads the vertices and edges only: a graph that admits loops
    but has no looped vertex equals the same graph built without loops, as
    its JSON shows it.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...] = ()
    loops_admitted: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        order, edges = _canonical(
            [v.label for v in verts],
            self.edges,
            "self-edges are not stored as edges; use the vertex loop flag",
        )
        if not self.loops_admitted and any(v.loop for v in verts):
            raise ValueError("loop flags set on a graph built without loops")
        object.__setattr__(self, "vertices", tuple(verts[i] for i in order))
        object.__setattr__(self, "edges", edges)

    def relabel(self, labels) -> CompressedGraph:
        """This graph with vertex i renamed labels[i], in canonical form;
        metadata, loop flags and edges carry over."""
        _check_relabel(self.vertices, labels)
        verts = tuple(Vertex(s, v.exponents, v.size, v.loop) for v, s in zip(self.vertices, labels))
        return CompressedGraph(verts, self.edges, self.loops_admitted)

    @property
    def loop_count(self) -> int:
        return sum(1 for v in self.vertices if v.loop)

    def degree_multiset(self) -> tuple[int, ...]:
        deg = [0] * len(self.vertices)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(sorted(deg))


@dataclass(frozen=True)
class Graph:
    """A plain simple graph (full zero-divisor graphs, blow-ups).

    Same canonical form as CompressedGraph: labels sorted, edges i < j.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        order, edges = _canonical(labels, self.edges, "simple graph admits no loops")
        object.__setattr__(self, "labels", tuple(labels[i] for i in order))
        object.__setattr__(self, "edges", edges)

    def relabel(self, labels) -> Graph:
        """This graph with vertex i renamed labels[i], in canonical form."""
        _check_relabel(self.labels, labels)
        return Graph(tuple(labels), self.edges)

    def as_compressed(self) -> CompressedGraph:
        """View as a loop-free CompressedGraph (for the isomorphism search)."""
        return CompressedGraph(tuple(Vertex(s) for s in self.labels), self.edges, False)

    def to_json(self) -> str:
        """The text of json.dumps({"vertices": labels, "edges": [[i, j],
        ...]}, indent=2) plus a newline."""
        return _json_graph([_json_str(s) for s in self.labels], self.edges)

    def compressed_json(self) -> str:
        """to_json(self.as_compressed()), written without building that
        graph: each vertex is a bare label."""
        head, tail = _PLAIN_VERTEX
        return _json_graph([head + _json_str(s) + tail for s in self.labels], self.edges)

    def to_dot(self) -> str:
        return _dot("zero_divisor_graph", [Vertex(s) for s in self.labels], self.edges)


def _check_relabel(vertices, labels) -> None:
    if len(labels) != len(vertices):
        raise ValueError(f"relabel needs {len(vertices)} labels, got {len(labels)}")


def _canonical(labels, edges, self_edge_error: str):
    """Shared canonical form: the label sort order, and the edges renumbered
    into it, deduplicated, oriented i < j and sorted.

    Edges come as (i, j) pairs, which are renumbered, or as one (E, 2)
    integer array. The builders hand over such an array already in that
    form, which is only checked; any other array is renumbered as its
    pairs."""
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError("vertex labels must be pairwise distinct")
    order = sorted(range(n), key=labels.__getitem__)
    if type(edges).__module__ == "numpy":
        if order == list(range(n)) and _is_canonical_array(edges, n):
            import numpy as np  # imported here for the reason given in _basis_edges

            ids = np.array(range(n), dtype=object)  # edge endpoints share these ints
            return order, tuple(zip(ids[edges[:, 0]].tolist(), ids[edges[:, 1]].tolist()))
        edges = edges.tolist()
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


def _is_canonical_array(edges, n: int) -> bool:
    """Whether edges is an (E, 2) integer array with 0 <= i < j < n in every
    row and the keys i * n + j strictly increasing: the form _canonical
    gives them."""
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
        return False
    if not len(edges):
        return True
    ends = edges.astype("int64")  # uint64 above the int64 range turns negative
    first, second = ends[:, 0], ends[:, 1]
    if ends.min() < 0 or ends.max() >= n or not (first < second).all():
        return False
    keys = first * n + second
    return bool((keys[1:] > keys[:-1]).all())


# --- the zero-divisor basis -------------------------------------------------


@dataclass(frozen=True)
class ZeroDivisorBasis:
    """Exponent vectors of the nontrivial divisors of n, one per associate class."""

    factorization: Factorization
    vectors: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        s = self.factorization.exponents()
        if not s:
            raise ValueError("n must be neither zero nor a unit")
        object.__setattr__(self, "vectors", _divisor_vectors(s))

    def __len__(self) -> int:
        return len(self.vectors)

    def divisors(self) -> tuple:
        """The canonical divisor elements, aligned with vectors.

        The divisor box is walked in the vectors' order, the last exponent
        fastest, each divisor one multiplication from the one before it."""
        fact = self.factorization
        box = [1 if fact.backend == "int" else FpPoly(fact.char, (1,))]
        for irr, e in fact.factors:
            walked = []
            for d in box:
                walked.append(d)
                for _ in range(e):
                    d = d * irr.value
                    walked.append(d)
            box = walked
        return tuple(box[1:-1])  # less the unit and n itself


def zero_divisor_basis(fact: Factorization) -> ZeroDivisorBasis:
    """All exponent vectors strictly between (0,...,0) and s."""
    return ZeroDivisorBasis(fact)


def _element_label(x) -> str:
    if isinstance(x, FpPoly):
        return format_poly_compact(x)
    return str(x)


def _divisor_vectors(s: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors strictly between (0,...,0) and s, in lexicographic order."""
    return tuple(v for v in _cartesian(*(range(e + 1) for e in s)) if any(v) and v != s)


def basis_graph(gen_vectors, vectors, labels, loops: bool) -> CompressedGraph:
    """Graph of a union of principal ideals, one exponent vector s per
    generator, on the given vectors: edge between v, w iff v + w >= s
    componentwise for some s; loop at v iff 2v >= s for some s."""
    # in label order, so that the edges come out in canonical order
    order = sorted(range(len(vectors)), key=labels.__getitem__)
    vectors = [vectors[i] for i in order]
    edges, looped = _basis_edges(gen_vectors, vectors)
    verts = tuple(
        Vertex(labels[i], exponents=v, loop=loops and loop)
        for i, v, loop in zip(order, vectors, looped)
    )
    return CompressedGraph(verts, edges, loops)


# Pairs tested per block in _basis_edges: a graph of up to 256 vertices
# takes one pass, a larger one is swept in blocks of rows, so the boolean
# temporaries stay near 64 KiB and no V x V array is allocated.
_EDGE_BLOCK = 1 << 16


def _basis_edges(gen_vectors, vectors):
    """The pairs (a, b), a < b, with vectors[b] >= s - vectors[a]
    componentwise for some s in gen_vectors, in increasing order, as an
    (E, 2) array; and whether each vectors[a] >= s - vectors[a] for some s
    (its loop), as a list of bools."""
    # Imported here so that `import zdgraph` still loads numpy only after its
    # other modules: loading it first left about 1 MB more resident when the
    # modules compile from source (no cached bytecode).
    import numpy as np

    n, k = len(vectors), len(gen_vectors[0])
    comps = np.array(vectors, dtype=np.int64).reshape(n, k).T  # component i
    gens = np.array(gen_vectors, dtype=np.int64).reshape(-1, k)
    # s - v lies in [-max, max]: compare in the narrowest signed type that holds it
    narrow = np.min_scalar_type(-int(max(gens.max(), comps.max(initial=0))) - 1)
    comps, gens = comps.astype(narrow), gens.astype(narrow)
    needs = [s[:, None] - comps for s in gens]
    blocks, loops = [np.empty((0, 2), dtype=np.intp)], [np.empty(0, dtype=bool)]
    step = max(1, _EDGE_BLOCK // max(n, 1))
    for lo in range(0, n, step):
        # rows a in [lo, lo + step) against columns b in [lo, n), for each s
        hit = None
        for need in needs:
            h = comps[0, lo:] >= need[0, lo : lo + step, None]
            for c, t in zip(comps[1:], need[1:]):
                h &= c[lo:] >= t[lo : lo + step, None]
            hit = h if hit is None else hit | h
        loops.append(hit.diagonal())  # b = a: the loop at a
        rows, cols = np.nonzero(hit)
        upper = cols > rows
        blocks.append(np.transpose((rows[upper], cols[upper])) + lo)
    return np.concatenate(blocks), np.concatenate(loops).tolist()


def graph_from_exponents(s: tuple[int, ...], loops: bool) -> CompressedGraph:
    """Compressed graph of any element with irreducible exponents s.

    By the sufficiency theorem the graph depends only on s, not on which
    irreducibles occur or in which UFD.  Vertex labels are the exponent
    vectors rendered as comma-joined integers.
    """
    s = tuple(int(e) for e in s)
    if not s or any(e < 1 for e in s):
        raise ValueError(f"exponents must be a nonempty tuple of positive integers, got {s}")
    vecs = _divisor_vectors(s)
    return basis_graph([s], vecs, [",".join(str(e) for e in v) for v in vecs], loops)


def graph_from_factorization(fact: Factorization, loops: bool) -> CompressedGraph:
    """Gamma_C of D/(n) from the factorization of n.

    Vertices are the basis divisors (labels are the divisor elements);
    edge between v, w iff v + w >= s componentwise; loop at v iff 2v >= s.
    """
    basis = zero_divisor_basis(fact)
    labels = [_element_label(d) for d in basis.divisors()]
    return basis_graph([fact.exponents()], basis.vectors, labels, loops)


def gcd_class_representative(a, fact: Factorization):
    """The basis vector whose class contains the image of a, or a marker.

    Returns ZERO_CLASS when a is 0 or a multiple of n; the all-zeros vector
    when a is coprime to n (the class of units); otherwise the exponent
    vector min(k_i, s_i) of gcd(a, n), which lies in the basis.
    """
    zero = a == 0 if not isinstance(a, FpPoly) else a.is_zero
    if zero:
        return ZERO_CLASS
    k = multiplicity_vector(a, fact)
    clipped = gcd_exponents(k, fact.exponents())
    if clipped == fact.exponents():
        return ZERO_CLASS
    return clipped


def gcd_class_residues(fact: Factorization):
    """gcd_class_representative of every a in Z/n at once, as residues.

    n is the integer fact factors.  rep[a] = prod p_i^min(v_{p_i}(a), s_i)
    mod n, an int64 array over range(n): 0 for a = 0 (the ZERO_CLASS
    marker), 1 for the units, and otherwise the divisor of a's clipped
    exponent vector.  For each prime power p^k of n, k = 1..s, every
    multiple of p^k gains one factor p.
    """
    import numpy as np  # imported here for the reason given in _basis_edges

    if fact.backend != "int":
        raise ValueError("gcd_class_residues needs an integer factorization")
    n = abs(fact.value())
    rep = np.ones(n, dtype=np.int64)
    for irr, s in fact.factors:
        p = irr.value
        for k in range(1, s + 1):
            rep[:: p**k] *= p
    return rep % n


def signature(fact: Factorization) -> tuple[int, ...]:
    """The exponent multiset, sorted non-increasing; the isomorphism invariant."""
    return tuple(sorted(fact.exponents(), reverse=True))


def vertex_count(fact: Factorization) -> int:
    """prod(s_i + 1) - 2: the number of vertices of the compressed graph."""
    s = fact.exponents()
    if not s:
        raise ValueError("n must be neither zero nor a unit")
    out = 1
    for e in s:
        out *= e + 1
    return out - 2


def expand_to_full_graph(g: CompressedGraph) -> Graph:
    """Blow Gamma_C back up to Gamma: cliques for looped classes,
    independent sets for unlooped ones, complete joins across edges.

    Needs class sizes on every vertex and a loop-admitting build, since an
    unlooped graph cannot distinguish cliques from independent sets.
    Expanded vertices are labeled "<class label>#<t>" for t = 1..size.
    """
    if not g.loops_admitted:
        raise ValueError("expansion needs a loop-admitting graph")
    if any(v.size is None for v in g.vertices):
        raise ValueError("expansion needs a class size on every vertex")
    labels = []
    groups = []
    for v in g.vertices:
        idx = []
        for t in range(1, v.size + 1):
            idx.append(len(labels))
            labels.append(f"{v.label}#{t}")
        groups.append(idx)
    edges = []
    for vi, v in enumerate(g.vertices):
        if v.loop:
            edges.extend(combinations(groups[vi], 2))
    for i, j in g.edges:
        for a in groups[i]:
            for b in groups[j]:
                edges.append((a, b))
    return Graph(tuple(labels), tuple(edges))


def twin_quotient(g: Graph) -> tuple[CompressedGraph, tuple[tuple[str, ...], ...]]:
    """The inverse of expand_to_full_graph: g's twin classes as vertices.

    x and y are twins when N(x) - {y} = N(y) - {x}. A twin class is a
    clique (equal closed neighbourhoods) or an independent set (equal open
    ones), never both, so it becomes one vertex with size the class size
    and a loop when it is a clique of two or more; classes are adjacent
    when their members are. Any isomorphism maps twin classes onto twin
    classes, so two graphs are isomorphic exactly when their quotients are,
    sizes and loops included. Each vertex is labeled by its class's first
    member; the second value lists each class's members, aligned with the
    quotient's vertices.
    """
    import numpy as np  # imported here for the reason given in _basis_edges

    n = len(g.labels)
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([ends[:, 0], ends[:, 1]])
    cols = np.concatenate([ends[:, 1], ends[:, 0]])
    # neighbourhoods as packed bit rows: open, then closed (with the vertex)
    hoods = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(hoods, (rows, cols >> 3), np.uint8(128) >> (cols & 7).astype(np.uint8))
    open_keys = [row.tobytes() for row in hoods]
    ids = np.arange(n)
    hoods[ids, ids >> 3] |= np.uint8(128) >> (ids & 7).astype(np.uint8)
    closed_keys = [row.tobytes() for row in hoods]
    by_open: dict[bytes, list[int]] = {}
    by_closed: dict[bytes, list[int]] = {}
    for v in range(n):
        by_open.setdefault(open_keys[v], []).append(v)
        by_closed.setdefault(closed_keys[v], []).append(v)
    # first member -> (members, clique); filled in order of first members
    classes: dict[int, tuple[list[int], bool]] = {}
    for v in range(n):
        group = by_open[open_keys[v]]
        if len(group) == 1:
            group = by_closed[closed_keys[v]]
            classes.setdefault(group[0], (group, len(group) > 1))
        else:
            classes.setdefault(group[0], (group, False))
    firsts = list(classes)
    verts = tuple(
        Vertex(g.labels[v], size=len(classes[v][0]), loop=classes[v][1]) for v in firsts
    )
    reps = np.array(firsts, dtype=np.int64)
    adjacent = np.unpackbits(hoods[reps], axis=1, count=n)[:, reps].astype(bool)
    qrows, qcols = np.nonzero(np.triu(adjacent, 1))
    members = tuple(tuple(g.labels[m] for m in classes[v][0]) for v in firsts)
    return CompressedGraph(verts, tuple(zip(qrows.tolist(), qcols.tolist())), True), members


# --- serialization ----------------------------------------------------------


# The graph JSON is written directly rather than through json.dumps: with an
# indent, json.dumps runs the pure-Python encoder, about ten times slower than
# these joins on a graph of 5313 edges.  The text is the same byte for byte;
# tests compare the two on random graphs.
_json_str = json.encoder.encode_basestring_ascii


def _json_block(items, depth: int, brackets: str = "[]") -> str:
    """An array (or, with brackets "{}", an object) laid out as json.dumps
    with indent=2 lays it out at nesting depth `depth`; items are the
    members already rendered, object members as '"key": value'."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _json_graph(vertex_items, edges) -> str:
    """The document {"vertices": [...], "edges": [[i, j], ...]} with the
    vertices already rendered at depth 2, plus a newline."""
    edge_items = [f"[\n      {i},\n      {j}\n    ]" for i, j in edges]
    members = [
        f'"vertices": {_json_block(vertex_items, 1)}',
        f'"edges": {_json_block(edge_items, 1)}',
    ]
    return _json_block(members, 0, "{}") + "\n"


def _json_vertex(v: Vertex) -> str:
    exps = "null" if v.exponents is None else _json_block([str(e) for e in v.exponents], 3)
    members = [
        f'"label": {_json_str(v.label)}',
        f'"exponents": {exps}',
        f'"size": {"null" if v.size is None else v.size}',
        f'"loop": {"true" if v.loop else "false"}',
    ]
    return _json_block(members, 2, "{}")


# the text of a vertex with a label only, on either side of the label
_PLAIN_VERTEX = tuple(_json_vertex(Vertex("x")).split('"x"'))


def to_json(g: CompressedGraph) -> str:
    """Canonical JSON: vertices sorted by label, edges as [i, j] with i < j.

    The text is json.dumps(payload, indent=2) plus a newline, for the
    payload {"vertices": [{"label", "exponents", "size", "loop"}, ...],
    "edges": [[i, j], ...]}."""
    return _json_graph([_json_vertex(v) for v in g.vertices], g.edges)


def from_json(text: str) -> CompressedGraph:
    """Inverse of to_json, except that the JSON does not carry
    loops_admitted: it reads back as whether any vertex is looped.  So a
    graph that admits loops but has none (Z/6) reads back as one built
    without loops, which equals it but which expand_to_full_graph refuses."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or set(payload) != {"vertices", "edges"}:
        raise ValueError("expected an object with 'vertices' and 'edges'")
    verts = []
    for item in payload["vertices"]:
        if set(item) != {"label", "exponents", "size", "loop"}:
            raise ValueError(f"malformed vertex entry {item!r}")
        exps = item["exponents"]
        verts.append(
            Vertex(
                item["label"],
                exponents=tuple(exps) if exps is not None else None,
                size=item["size"],
                loop=bool(item["loop"]),
            )
        )
    edges = tuple((int(i), int(j)) for i, j in payload["edges"])
    return CompressedGraph(tuple(verts), edges, any(v.loop for v in verts))


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(g: CompressedGraph) -> str:
    """DOT text; loops render as self-edges, metadata as node attributes."""
    return _dot("compressed_zero_divisor_graph", g.vertices, g.edges)


def _dot(name: str, vertices, edges) -> str:
    lines = [f"graph {name} {{"]
    for i, v in enumerate(vertices):
        attrs = [f'label="{_dot_escape(v.label)}"']
        if v.exponents is not None:
            attrs.append('exponents="' + ",".join(str(e) for e in v.exponents) + '"')
        if v.size is not None:
            attrs.append(f'size="{v.size}"')
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    lines.extend(f"  n{i} -- n{j};" for i, j in edges)
    lines.extend(f"  n{i} -- n{i};" for i, v in enumerate(vertices) if v.loop)
    lines.append("}")
    return "\n".join(lines) + "\n"
