"""Brute-force oracle over concrete finite rings.

Everything in this module works by enumerating ring elements and
multiplying them out; nothing consults factorizations or divisor
combinatorics.  That independence is the point: the compressed graphs
computed here are compared against the construction in compressed_graph,
and any agreement between the two routes is evidence, not circularity.

Supported models: Z/n, F_p[x]/(f), F_p[x,y]/(monomial ideal with pure
powers of both variables), and quotients of any of those by a finitely
generated ideal.  Multiplication is carried out in blocked numpy index
tables.  The annihilator scan of Z/n and of quotient rings groups elements
by the zero pattern of their table rows; the scan of F_p-algebras
(F_p[x]/(f) and the bivariate quotients) keys each element r by a k-by-k
canonical form of its multiplication matrix over F_p, whose kernel is
ann(r).  That matrix is read off the structure tensor, which is the
multiplication table in coordinates, so neither scan ever sees a
factorization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import (
    FpPoly,
    format_poly_compact,
    format_poly_pretty,
    is_prime,
    parse_poly_compact,
    parse_poly_pretty,
)
from .compressed_graph import CompressedGraph, Graph, Vertex

__all__ = [
    "ENUMERATION_LIMIT",
    "FULL_GRAPH_LIMIT",
    "SCAN_LIMIT",
    "EXHAUSTIVE_LIMIT",
    "GrammarError",
    "RingTooLarge",
    "IntegersMod",
    "PolyQuotient",
    "BivariateMonomialQuotient",
    "QuotientRing",
    "AnnihilatorClass",
    "ring_size",
    "standard_monomials",
    "enumerate_elements",
    "annihilator",
    "zero_divisor_classes",
    "oracle_compressed_graph",
    "full_zero_divisor_graph",
    "count_regular_elements",
    "ideal_members",
    "ideal_is_union",
    "quotient_by_ideal",
    "mul_elements",
    "add_elements",
    "element_label",
    "parse_element",
    "parse_monomial",
    "format_monomial",
    "parse_ring_spec",
    "format_ring_spec",
]

ENUMERATION_LIMIT = 10**6
FULL_GRAPH_LIMIT = 10**4
SCAN_LIMIT = 20000
EXHAUSTIVE_LIMIT = 2000


class GrammarError(ValueError):
    """Malformed ring-spec or element text."""


class RingTooLarge(ValueError):
    """The requested operation exceeds its configured size bound."""


# --- ring specs -------------------------------------------------------------


@dataclass(frozen=True)
class IntegersMod:
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"modulus must be >= 2, got {self.n}")


@dataclass(frozen=True)
class PolyQuotient:
    p: int
    modulus: FpPoly

    def __post_init__(self) -> None:
        if not isinstance(self.modulus, FpPoly) or self.modulus.p != self.p:
            raise ValueError("modulus must be an FpPoly over the same p")
        if self.modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        object.__setattr__(self, "modulus", self.modulus.monic())


@dataclass(frozen=True)
class BivariateMonomialQuotient:
    """F_p[x,y] mod a monomial ideal; generators are (x-exp, y-exp) pairs.

    A pure power of x and a pure power of y must appear, which bounds the
    standard monomials and keeps the ring finite.
    """

    p: int
    generators: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")
        gens = tuple(sorted({(int(a), int(b)) for a, b in self.generators}))
        if not gens:
            raise ValueError("at least one generator required")
        for a, b in gens:
            if a < 0 or b < 0 or (a, b) == (0, 0):
                raise ValueError(f"generator x^{a}*y^{b} is not a proper monomial")
        if not any(b == 0 for a, b in gens) or not any(a == 0 for a, b in gens):
            raise ValueError("generators must include a pure power of x and of y")
        for g in gens:
            for h in gens:
                if g != h and g[0] <= h[0] and g[1] <= h[1]:
                    raise ValueError(f"generator {h} is divisible by {g}; use a minimal set")
        object.__setattr__(self, "generators", tuple(sorted(gens, key=lambda g: (g[0] + g[1], g[1]))))


@dataclass(frozen=True)
class QuotientRing:
    """A base model modulo the ideal generated by the given element indices."""

    base: object
    ideal_gen_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if isinstance(self.base, QuotientRing):
            raise ValueError("nested quotients are not supported; quotient the base directly")
        if not isinstance(self.base, (IntegersMod, PolyQuotient, BivariateMonomialQuotient)):
            raise ValueError(f"unsupported base spec {self.base!r}")
        n = ring_size(self.base)
        gens = tuple(sorted(set(int(i) for i in self.ideal_gen_indices)))
        if any(not 0 <= g < n for g in gens):
            raise ValueError("ideal generator index out of range")
        object.__setattr__(self, "ideal_gen_indices", gens)


def standard_monomials(spec: BivariateMonomialQuotient) -> tuple[tuple[int, int], ...]:
    """Monomials outside the ideal, ordered by total degree then y-exponent."""
    xbound = min(a for a, b in spec.generators if b == 0)
    ybound = min(b for a, b in spec.generators if a == 0)
    out = []
    for a in range(xbound):
        for b in range(ybound):
            if not any(a >= ga and b >= gb for ga, gb in spec.generators):
                out.append((a, b))
    return tuple(sorted(out, key=lambda m: (m[0] + m[1], m[1])))


def ring_size(spec) -> int:
    if isinstance(spec, IntegersMod):
        return spec.n
    if isinstance(spec, PolyQuotient):
        return spec.p**spec.modulus.degree
    if isinstance(spec, BivariateMonomialQuotient):
        return spec.p ** len(standard_monomials(spec))
    if isinstance(spec, QuotientRing):
        return _model(spec).size
    raise TypeError(f"unsupported ring spec {spec!r}")


# --- internal models: index arithmetic --------------------------------------


class _ZeroPatternKeys:
    """Scan keys for models with no linear structure: the packed zero
    pattern of each element's row in the multiplication table."""

    @property
    def scan_block(self) -> int:
        return self.row_block

    def scan_keys(self, rows) -> tuple[np.ndarray, np.ndarray]:
        zero = self.mul_rows(rows) == 0
        return np.packbits(zero, axis=1), zero.sum(axis=1)


class _IntModel(_ZeroPatternKeys):
    def __init__(self, n: int):
        self.n = n
        self.size = n
        self.row_block = max(1, 2**21 // n)
        self._all = np.arange(n, dtype=np.int64)

    def mul_rows(self, rows) -> np.ndarray:
        r = np.asarray(rows, dtype=np.int64)
        return (r[:, None] * self._all) % self.n

    def add_rows(self, rows) -> np.ndarray:
        r = np.asarray(rows, dtype=np.int64)
        return (r[:, None] + self._all) % self.n

    def element(self, i: int):
        return int(i)

    def index(self, x) -> int:
        if not isinstance(x, int):
            raise TypeError(f"expected an int residue, got {type(x).__name__}")
        return x % self.n


class _VectorModel:
    """Shared machinery for rings whose elements are coefficient vectors.

    Element index i has digits (i // p^t) % p, one per basis monomial; a
    structure tensor M[i,j,t] gives the coefficient of basis monomial t in
    the product of basis monomials i and j.  Both rings are commutative,
    so M is symmetric in i and j.
    """

    def __init__(self, p: int, struct: np.ndarray):
        self.p = p
        self.k = struct.shape[0]
        self.size = p**self.k
        self.row_block = max(1, 2**19 // self.size)
        self.scan_block = max(1, 2**18 // self.k**2)
        self.M = struct
        self.radix = p ** np.arange(self.k, dtype=np.int64)
        # row reduction adds products of two residues to a residue, so its
        # entries stay below p^2
        self._reduce_dtype = np.min_scalar_type(p * p - 1)
        if self.size > SCAN_LIMIT:
            self._digits = None
        else:
            self._digits = self._digitize(np.arange(self.size, dtype=np.int64))
            self._inverse = np.array(
                [pow(a, -1, p) if a else 0 for a in range(p)], dtype=self._reduce_dtype
            )

    def _digitize(self, idx: np.ndarray) -> np.ndarray:
        return (idx[:, None] // self.radix) % self.p

    def _all_digits(self) -> np.ndarray:
        if self._digits is None:
            raise RingTooLarge(
                f"table operations need at most {SCAN_LIMIT} elements, ring has {self.size}"
            )
        return self._digits

    def mul_matrices(self, rows) -> np.ndarray:
        """L[r,i,t] = sum_j r_j*M[i,j,t] mod p: row i of L_r holds the
        coordinates of basis monomial i times r, so x*r = x @ L_r."""
        r = self._digitize(np.asarray(rows, dtype=np.int64))
        return np.tensordot(r, self.M, axes=([1], [1])) % self.p

    def mul_rows(self, rows) -> np.ndarray:
        digits = self._all_digits()
        return (np.matmul(digits, self.mul_matrices(rows)) % self.p) @ self.radix

    def scan_keys(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Key each element r by the reduced row echelon form of L_r^T.

        ann(r) is the left kernel of L_r, the orthogonal complement of the
        column space of L_r; that column space is the row space of L_r^T,
        and its reduced echelon form is unique.  So two elements share a key
        exactly when their annihilators agree, and |ann(r)| = p^(k - rank).
        """
        reduced = self.mul_matrices(rows).transpose(0, 2, 1).astype(self._reduce_dtype, order="C")
        rank = _row_reduce(reduced, self.p, self._inverse)
        return reduced.reshape(len(reduced), self.k**2), self.p ** (self.k - rank)

    def add_rows(self, rows) -> np.ndarray:
        digits = self._all_digits()
        r = self._digitize(np.asarray(rows, dtype=np.int64))
        s = (r[:, None, :] + digits[None, :, :]) % self.p
        return s @ self.radix

    def coeffs_to_index(self, coeffs) -> int:
        return int(np.dot(np.asarray(coeffs, dtype=np.int64), self.radix))

    def index_to_coeffs(self, i: int) -> tuple[int, ...]:
        return tuple(int(d) for d in self._digitize(np.asarray([i], dtype=np.int64))[0])


class _PolyModel(_VectorModel):
    def __init__(self, spec: PolyQuotient):
        f = spec.modulus
        k = f.degree
        struct = np.zeros((k, k, k), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                rem = FpPoly(spec.p, (0,) * (i + j) + (1,)) % f
                for t, c in enumerate(rem.coeffs):
                    struct[i, j, t] = c
        super().__init__(spec.p, struct)
        self.modulus = f

    def element(self, i: int) -> FpPoly:
        return FpPoly(self.p, self.index_to_coeffs(i))

    def index(self, x) -> int:
        if not isinstance(x, FpPoly) or x.p != self.p:
            raise TypeError("expected an FpPoly over the same p")
        rem = x % self.modulus
        return self.coeffs_to_index(rem.coeffs + (0,) * (self.k - len(rem.coeffs)))


class _BivarModel(_VectorModel):
    def __init__(self, spec: BivariateMonomialQuotient):
        monos = standard_monomials(spec)
        k = len(monos)
        if spec.p**k > ENUMERATION_LIMIT:
            raise RingTooLarge(f"ring has {spec.p}^{k} elements, above {ENUMERATION_LIMIT}")
        pos = {m: t for t, m in enumerate(monos)}
        struct = np.zeros((k, k, k), dtype=np.int64)
        for i, (a1, b1) in enumerate(monos):
            for j, (a2, b2) in enumerate(monos):
                m = (a1 + a2, b1 + b2)
                if not any(m[0] >= ga and m[1] >= gb for ga, gb in spec.generators):
                    struct[i, j, pos[m]] = 1
        super().__init__(spec.p, struct)
        self.monomials = monos

    def element(self, i: int) -> tuple[int, ...]:
        return self.index_to_coeffs(i)

    def index(self, x) -> int:
        if not isinstance(x, tuple) or len(x) != self.k:
            raise TypeError(f"expected a coefficient tuple of length {self.k}")
        if any(not 0 <= c < self.p for c in x):
            raise ValueError(f"coefficients must lie in [0, {self.p})")
        return self.coeffs_to_index(x)


class _QuotModel(_ZeroPatternKeys):
    def __init__(self, spec: QuotientRing):
        base = _model(spec.base)
        if base.size > SCAN_LIMIT:
            raise RingTooLarge(f"quotient base has {base.size} elements, above {SCAN_LIMIT}")
        ideal = _ideal_indices(base, spec.ideal_gen_indices)
        if len(ideal) == base.size:
            raise ValueError("ideal is the whole ring; the quotient would be the zero ring")
        in_ideal = np.zeros(base.size, dtype=bool)
        in_ideal[ideal] = True
        coset_id = np.full(base.size, -1, dtype=np.int64)
        reps = []
        for x in range(base.size):
            if coset_id[x] >= 0:
                continue
            coset = base.add_rows([x])[0][ideal]
            coset_id[coset] = len(reps)
            reps.append(x)
        self.base = base
        self.reps = np.asarray(reps, dtype=np.int64)
        self.coset_id = coset_id
        self.size = len(reps)
        self.row_block = max(1, 2**21 // base.size)

    def mul_rows(self, rows) -> np.ndarray:
        r = self.reps[np.asarray(rows, dtype=np.int64)]
        return self.coset_id[self.base.mul_rows(r)[:, self.reps]]

    def add_rows(self, rows) -> np.ndarray:
        r = self.reps[np.asarray(rows, dtype=np.int64)]
        return self.coset_id[self.base.add_rows(r)[:, self.reps]]

    def element(self, i: int):
        return self.base.element(int(self.reps[i]))

    def index(self, x) -> int:
        return int(self.coset_id[self.base.index(x)])


@lru_cache(maxsize=None)
def _model(spec):
    if isinstance(spec, IntegersMod):
        return _IntModel(spec.n)
    if isinstance(spec, PolyQuotient):
        return _PolyModel(spec)
    if isinstance(spec, BivariateMonomialQuotient):
        return _BivarModel(spec)
    if isinstance(spec, QuotientRing):
        return _QuotModel(spec)
    raise TypeError(f"unsupported ring spec {spec!r}")


def _row_reduce(a: np.ndarray, p: int, inverse: np.ndarray) -> np.ndarray:
    """Bring each k-by-k matrix of the batch a to reduced row echelon form
    over F_p, in place, and return the ranks.

    One elimination step per column, vectorized over the batch; inverse[v]
    is the inverse of v mod p, with inverse[0] = 0.
    """
    batch, k, _ = a.shape
    every = np.arange(batch)
    row_pos = np.arange(k)
    rank = np.zeros(batch, dtype=np.intp)
    for c in range(k):
        free = (a[:, :, c] != 0) & (row_pos >= rank[:, None])
        pivot = free.argmax(axis=1)
        has = free[every, pivot]
        m = every[has]
        top = a[m, rank[m]]
        a[m, rank[m]] = a[m, pivot[m]]
        a[m, pivot[m]] = top
        # the normalized pivot row; all zero where column c has no pivot
        lead = a[every, rank] * inverse[a[every, rank, c]][:, None] % p
        # adding (p - v) * lead clears an entry v of column c; the pivot row
        # gets p * lead, which leaves it as it was
        factor = p - a[:, :, c]
        factor[every, rank] = p
        # rows at or below the rank are zero left of column c, so is lead
        a[:, :, c:] += factor[:, :, None] * lead[:, None, c:]
        a[:, :, c:] %= p
        a[m, rank[m]] = lead[m]
        rank += has
    return rank


def _ideal_indices(model, gen_indices) -> np.ndarray:
    """Indices of the ideal generated by the given elements: all multiples,
    closed under addition to a fixpoint."""
    parts = [np.asarray([0], dtype=np.int64)]
    for g in gen_indices:
        parts.append(model.mul_rows([int(g)])[0])
    current = np.unique(np.concatenate(parts))
    while True:
        sums = model.add_rows(current)[:, current]
        merged = np.union1d(current, sums.ravel())
        if len(merged) == len(current):
            return merged
        current = merged


# --- annihilator scan -------------------------------------------------------


class _Group:
    __slots__ = ("first", "members", "mask", "ann_count")

    def __init__(self, first: int, mask: bytes, ann_count: int):
        self.first = first
        self.members: list[int] = []
        self.mask = mask
        self.ann_count = ann_count


class _Scan:
    __slots__ = ("class_ids", "groups", "zd_gids")

    def __init__(self, class_ids, groups, zd_gids):
        self.class_ids = class_ids
        self.groups = groups
        self.zd_gids = zd_gids


@lru_cache(maxsize=None)
def _scan(spec) -> _Scan:
    """Group every element by its exact annihilator set.

    Each model keys its elements so that two keys agree exactly when the
    annihilators do: Z/n and quotient rings by the packed zero pattern of
    the element's row in the multiplication table, F_p-algebras by a
    canonical form of the element's multiplication matrix (see
    _VectorModel.scan_keys).  Group ids follow first appearance in
    enumeration order, which makes everything downstream deterministic.
    Each group's annihilator mask comes from one table row of its first
    member, checked against the size the key predicted.
    """
    model = _model(spec)
    n = model.size
    if n > SCAN_LIMIT:
        raise RingTooLarge(f"annihilator scan needs at most {SCAN_LIMIT} elements, ring has {n}")
    class_ids = np.empty(n, dtype=np.int32)
    gid_of: dict[bytes, int] = {}
    firsts: list[int] = []
    ann_counts: list[int] = []
    block = model.scan_block
    for start in range(0, n, block):
        keys, counts = model.scan_keys(np.arange(start, min(start + block, n), dtype=np.int64))
        keys = np.ascontiguousarray(keys)
        opaque = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize))).ravel()
        _, first, inverse = np.unique(opaque, return_index=True, return_inverse=True)
        local = np.empty(len(first), dtype=np.int32)
        for u in np.argsort(first):
            gid = gid_of.setdefault(opaque[first[u]].tobytes(), len(gid_of))
            if gid == len(firsts):
                firsts.append(start + int(first[u]))
                ann_counts.append(int(counts[first[u]]))
            local[u] = gid
        class_ids[start : start + len(keys)] = local[inverse.ravel()]
    groups: list[_Group] = []
    for start in range(0, len(firsts), model.row_block):
        reps = firsts[start : start + model.row_block]
        zero = model.mul_rows(reps) == 0
        packed = np.packbits(zero, axis=1)
        for offset, popcount in enumerate(zero.sum(axis=1)):
            gid = start + offset
            if popcount != ann_counts[gid]:
                raise AssertionError(
                    f"internal error: element {reps[offset]} annihilates {popcount} "
                    f"elements, its scan key predicted {ann_counts[gid]}"
                )
            groups.append(_Group(reps[offset], packed[offset].tobytes(), ann_counts[gid]))
    by_class = np.argsort(class_ids, kind="stable")
    ends = np.cumsum(np.bincount(class_ids, minlength=len(groups)))
    for g, members in zip(groups, np.split(by_class, ends[:-1])):
        g.members = members.tolist()
    zd_gids = tuple(
        gid for gid, g in enumerate(groups) if g.ann_count >= 2 and g.first != 0
    )
    return _Scan(class_ids, groups, zd_gids)


# --- public oracle operations -----------------------------------------------


@dataclass(frozen=True)
class AnnihilatorClass:
    """An annihilator-equality class of nonzero zero-divisors."""

    representative: object
    members: tuple
    annihilator: tuple
    size: int
    is_self_annihilating: bool


def enumerate_elements(spec) -> list:
    """All canonical residues, in a fixed order starting 0, 1."""
    model = _model(spec)
    if model.size > ENUMERATION_LIMIT:
        raise RingTooLarge(f"ring has {model.size} elements, above {ENUMERATION_LIMIT}")
    return [model.element(i) for i in range(model.size)]


def _mask_indices(mask: bytes, n: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(mask, dtype=np.uint8))[:n]
    return np.flatnonzero(bits)


def annihilator(spec, r) -> list:
    """Every x with r*x = 0, in enumeration order."""
    model = _model(spec)
    row = model.mul_rows([model.index(r)])[0]
    return [model.element(int(i)) for i in np.flatnonzero(row == 0)]


def zero_divisor_classes(spec) -> list[AnnihilatorClass]:
    """Annihilator classes of the nonzero zero-divisors, by first appearance."""
    scan = _scan(spec)
    model = _model(spec)
    out = []
    for gid in scan.zd_gids:
        g = scan.groups[gid]
        ann = _mask_indices(g.mask, model.size)
        rep = g.first
        self_ann = bool((g.mask[rep // 8] >> (7 - rep % 8)) & 1)
        out.append(
            AnnihilatorClass(
                representative=model.element(rep),
                members=tuple(model.element(m) for m in g.members),
                annihilator=tuple(model.element(int(i)) for i in ann),
                size=len(g.members),
                is_self_annihilating=self_ann,
            )
        )
    return out


def oracle_compressed_graph(spec, loops: bool) -> CompressedGraph:
    """Gamma_C(R) by brute force: one vertex per annihilator class, adjacency
    decided by multiplying class representatives."""
    scan = _scan(spec)
    model = _model(spec)
    reps = [scan.groups[gid].first for gid in scan.zd_gids]
    table = model.mul_rows(reps)[:, reps] == 0 if reps else np.zeros((0, 0), dtype=bool)
    verts = []
    for pos, gid in enumerate(scan.zd_gids):
        g = scan.groups[gid]
        verts.append(
            Vertex(
                element_label(spec, model.element(g.first)),
                size=len(g.members),
                loop=bool(table[pos, pos]) if loops else False,
            )
        )
    edges = [
        (i, j)
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
        if table[i, j]
    ]
    return CompressedGraph(tuple(verts), tuple(edges), loops)


def full_zero_divisor_graph(spec) -> Graph:
    """Gamma(R): simple graph on the nonzero zero-divisors."""
    model = _model(spec)
    if model.size > FULL_GRAPH_LIMIT:
        raise RingTooLarge(f"full graph needs at most {FULL_GRAPH_LIMIT} elements, ring has {model.size}")
    scan = _scan(spec)
    zd = np.asarray(
        sorted(m for gid in scan.zd_gids for m in scan.groups[gid].members), dtype=np.int64
    )
    labels = tuple(element_label(spec, model.element(int(i))) for i in zd)
    edges = []
    block = model.row_block
    for start in range(0, len(zd), block):
        chunk = zd[start : start + block]
        zero = model.mul_rows(chunk)[:, zd] == 0
        for local, i in enumerate(range(start, min(start + block, len(zd)))):
            cols = np.flatnonzero(zero[local, i + 1 :]) + i + 1
            edges.extend((i, int(j)) for j in cols)
    return Graph(labels, tuple(edges))


def count_regular_elements(spec) -> int:
    """|R - Z(R)|: elements that are not nonzero zero-divisors (units and 0)."""
    scan = _scan(spec)
    zd_total = sum(len(scan.groups[gid].members) for gid in scan.zd_gids)
    return _model(spec).size - zd_total


def ideal_members(spec, gens: list) -> list:
    """All elements of the ideal generated by gens, in enumeration order."""
    model = _model(spec)
    if model.size > SCAN_LIMIT:
        raise RingTooLarge(f"ideal enumeration needs at most {SCAN_LIMIT} elements")
    idx = _ideal_indices(model, [model.index(g) for g in gens])
    return [model.element(int(i)) for i in idx]


def ideal_is_union(spec, ideal_gens: list, union_candidates: list) -> bool:
    """Whether the ideal generated by ideal_gens equals the union of the
    principal ideals of the candidates, by exhaustive membership."""
    model = _model(spec)
    if model.size > SCAN_LIMIT:
        raise RingTooLarge(f"ideal comparison needs at most {SCAN_LIMIT} elements")
    ideal = _ideal_indices(model, [model.index(g) for g in ideal_gens])
    parts = [np.asarray([0], dtype=np.int64)]
    for c in union_candidates:
        parts.append(model.mul_rows([model.index(c)])[0])
    union = np.unique(np.concatenate(parts))
    return bool(np.array_equal(ideal, union))


def quotient_by_ideal(spec, gens: list) -> QuotientRing:
    """Spec for the quotient of a finite model by the ideal the gens generate.

    Builds the quotient model here, so an ideal that is the whole ring raises
    ValueError now rather than at the first use of the quotient."""
    model = _model(spec)
    quotient = QuotientRing(spec, tuple(model.index(g) for g in gens))
    _model(quotient)
    return quotient


def mul_elements(spec, a, b):
    model = _model(spec)
    return model.element(int(model.mul_rows([model.index(a)])[0][model.index(b)]))


def add_elements(spec, a, b):
    model = _model(spec)
    return model.element(int(model.add_rows([model.index(a)])[0][model.index(b)]))


# --- element text forms -----------------------------------------------------


def _bivar_term_order(monomial: tuple[int, int]) -> tuple[int, int]:
    a, b = monomial
    return (-(a + b), b)


def format_monomial(m: tuple[int, int]) -> str:
    a, b = m
    parts = []
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    if b:
        parts.append("y" if b == 1 else f"y^{b}")
    return "*".join(parts) if parts else "1"


_MONO_PART = re.compile(r"^([xy])(?:\^(\d+))?$")


def parse_monomial(text: str) -> tuple[int, int]:
    """Parse "x^2*y" style monomials into an exponent pair."""
    s = text.replace(" ", "")
    if s == "1":
        return (0, 0)
    a = b = 0
    for part in s.split("*"):
        m = _MONO_PART.match(part)
        if m is None:
            raise GrammarError(f"malformed monomial {text!r}")
        e = int(m.group(2)) if m.group(2) else 1
        if m.group(1) == "x":
            a += e
        else:
            b += e
    return (a, b)


def _format_bivar_element(spec: BivariateMonomialQuotient, coeffs: tuple[int, ...]) -> str:
    monos = standard_monomials(spec)
    terms = [(m, c) for m, c in zip(monos, coeffs) if c]
    if not terms:
        return "0"
    terms.sort(key=lambda mc: _bivar_term_order(mc[0]))
    rendered = []
    for m, c in terms:
        if m == (0, 0):
            rendered.append(str(c))
        elif c == 1:
            rendered.append(format_monomial(m))
        else:
            rendered.append(f"{c}*{format_monomial(m)}")
    return "+".join(rendered)


def _parse_bivar_element(spec: BivariateMonomialQuotient, text: str) -> tuple[int, ...]:
    monos = standard_monomials(spec)
    pos = {m: t for t, m in enumerate(monos)}
    coeffs = [0] * len(monos)
    s = text.replace(" ", "")
    if not s:
        raise GrammarError("empty element")
    if s == "0":
        return tuple(coeffs)
    for term in s.split("+"):
        parts = term.split("*")
        c = 1
        if parts and parts[0].isdigit():
            c = int(parts[0])
            parts = parts[1:]
            if not parts:
                # constant term
                coeffs[pos[(0, 0)]] = (coeffs[pos[(0, 0)]] + c) % spec.p
                continue
        m = parse_monomial("*".join(parts))
        # monomials inside the ideal reduce to zero
        if any(m[0] >= ga and m[1] >= gb for ga, gb in spec.generators):
            continue
        if m not in pos:
            raise GrammarError(f"monomial {format_monomial(m)} is not standard for this ring")
        coeffs[pos[m]] = (coeffs[pos[m]] + c) % spec.p
    return tuple(coeffs)


def element_label(spec, x) -> str:
    """Canonical text for a ring element; used for graph labels and the CLI."""
    if isinstance(spec, QuotientRing):
        return element_label(spec.base, x)
    if isinstance(spec, IntegersMod):
        return str(x % spec.n)
    if isinstance(spec, PolyQuotient):
        return format_poly_compact(x)
    if isinstance(spec, BivariateMonomialQuotient):
        return _format_bivar_element(spec, x)
    raise TypeError(f"unsupported ring spec {spec!r}")


def parse_element(spec, text: str):
    """Inverse of element_label, tolerant of unreduced input."""
    if isinstance(spec, QuotientRing):
        model = _model(spec)
        return model.element(model.index(parse_element(spec.base, text)))
    if isinstance(spec, IntegersMod):
        try:
            return int(text) % spec.n
        except ValueError as exc:
            raise GrammarError(f"malformed integer residue {text!r}") from exc
    if isinstance(spec, PolyQuotient):
        try:
            poly = parse_poly_compact(text) if "@" in text else parse_poly_pretty(text, spec.p)
        except ValueError as exc:
            raise GrammarError(f"malformed polynomial {text!r}") from exc
        if poly.p != spec.p:
            raise GrammarError(f"characteristic of {text!r} does not match the ring")
        return poly % spec.modulus
    if isinstance(spec, BivariateMonomialQuotient):
        return _parse_bivar_element(spec, text)
    raise TypeError(f"unsupported ring spec {spec!r}")


# --- ring-spec grammar -------------------------------------------------------


_INT_SPEC = re.compile(r"^Z/(\d+)$")
_POLY_SPEC = re.compile(r"^F(\d+)\[x\]/\((.+)\)$")
_BIVAR_SPEC = re.compile(r"^F(\d+)\[x,y\]/\((.+)\)$")


def parse_ring_spec(text: str):
    """Parse `Z/12`, `F2[x]/(x^3)`, or `F2[x,y]/(x^2,y^2,x*y)`."""
    s = text.replace(" ", "")
    m = _INT_SPEC.match(s)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise GrammarError(f"modulus must be >= 2 in {text!r}")
        return IntegersMod(n)
    m = _BIVAR_SPEC.match(s)
    if m:
        p = int(m.group(1))
        if not is_prime(p):
            raise GrammarError(f"{p} is not prime in {text!r}")
        gens = tuple(parse_monomial(g) for g in m.group(2).split(","))
        try:
            return BivariateMonomialQuotient(p, gens)
        except ValueError as exc:
            raise GrammarError(str(exc)) from exc
    m = _POLY_SPEC.match(s)
    if m:
        p = int(m.group(1))
        if not is_prime(p):
            raise GrammarError(f"{p} is not prime in {text!r}")
        try:
            modulus = parse_poly_pretty(m.group(2), p)
        except ValueError as exc:
            raise GrammarError(f"malformed modulus in {text!r}") from exc
        if modulus.degree < 1:
            raise GrammarError(f"modulus must have degree >= 1 in {text!r}")
        return PolyQuotient(p, modulus)
    raise GrammarError(f"unrecognized ring spec {text!r}")


def format_ring_spec(spec) -> str:
    if isinstance(spec, IntegersMod):
        return f"Z/{spec.n}"
    if isinstance(spec, PolyQuotient):
        return f"F{spec.p}[x]/({format_poly_pretty(spec.modulus)})"
    if isinstance(spec, BivariateMonomialQuotient):
        return f"F{spec.p}[x,y]/({','.join(format_monomial(g) for g in spec.generators)})"
    if isinstance(spec, QuotientRing):
        model = _model(spec)
        gens = ",".join(
            element_label(spec.base, model.base.element(i)) for i in spec.ideal_gen_indices
        )
        return f"{format_ring_spec(spec.base)} mod ({gens})"
    raise TypeError(f"unsupported ring spec {spec!r}")
