"""Brute-force oracle over concrete finite rings.

Everything in this module works by enumerating ring elements and
multiplying them out; nothing consults factorizations or divisor
combinatorics.  That independence is the point: the compressed graphs
computed here are compared against the construction in compressed_graph,
and any agreement between the two routes is evidence, not circularity.

Supported models: Z/n, F_p[x]/(f), F_p[x,y]/(monomial ideal with pure
powers of both variables), and quotients of any of those by a finitely
generated ideal, each quotient a model of its base's kind.
Multiplication is carried out in blocked numpy index tables.  The
annihilator scan of Z/n groups elements by the zero pattern of their table
rows; the scan of F_p-algebras (all the others but Z/n windows) keys each
element r by a k-by-k canonical form of its multiplication matrix over
F_p, whose kernel is ann(r).  That matrix is read off the structure
tensor, which is the multiplication table in coordinates, so neither scan
ever sees a factorization.  The nonzero multiples of r share its key, so
one matrix per F_p-line is reduced, and each block's matrices are reduced
together, the batch on the last axis.  The structure tensor and the digit
table exist only for rings of at most SCAN_LIMIT elements, the only ones
any table operation accepts; graph labels are rendered from the digit
table, a whole index array at a time.

Everything derived from one ring spec lives in its RingTable, which
ring_table(spec) returns: the model, the annihilator scan (built on first
use, its members stored as slices of one int32 array), and whatever a
caller that reuses per-ring results asks it to keep (conjecture 1 keeps
each ring's keys, digests and report fragments; nothing else keeps full
graphs).  Tables sit in one least-recently-used cache, and the charge never
exceeds TABLE_BUDGET; a table larger than the budget on its own is built,
used and dropped.  Each entry of a table charges its declared size, its
nbytes: the buffers of the arrays that entry alone holds (a window's base
is charged to the base's own table) plus a fixed size per Python object
around them.  The 1999 scans of `zdgraph verify --max-n 2000` charge
about 23.6 MB, so the budget of 64 MB holds them all and none is built twice.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arithmetic import (
    FpPoly,
    format_coeffs_compact,
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
    "TABLE_BUDGET",
    "GrammarError",
    "RingTooLarge",
    "IntegersMod",
    "PolyQuotient",
    "BivariateMonomialQuotient",
    "QuotientRing",
    "AnnihilatorClass",
    "RingTable",
    "ring_table",
    "ring_size",
    "standard_monomials",
    "enumerate_elements",
    "annihilator",
    "annihilator_size",
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
# Bytes that the cached ring tables may hold together (see RingTable).
TABLE_BUDGET = 64 * 2**20
# Declared sizes beyond array buffers: an object with a few attributes and
# its instance dict, one ndarray header, and one annihilator group's tuple,
# members view and ints.
_OBJECT_BYTES = 384
_ARRAY_BYTES = 112
_GROUP_BYTES = 300


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
    # the standard monomials, listed by standard_monomials on first use
    monomials: tuple[tuple[int, int], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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


def _staircase(spec: BivariateMonomialQuotient) -> list[tuple[int, int, int]]:
    """(start, end, height) for each run of x-exponents whose columns of
    standard monomials hold y^0 .. y^(height - 1).  Sorted by x-exponent, a
    minimal set's y-exponents fall, and generator (a, b) caps the columns
    from a up to the next generator's x-exponent at height b."""
    steps = sorted(spec.generators)
    return [(a, end, b) for (a, b), (end, _) in zip(steps, steps[1:])]


def standard_monomials(spec: BivariateMonomialQuotient) -> tuple[tuple[int, int], ...]:
    """Monomials outside the ideal, ordered by total degree then y-exponent;
    listed once per spec."""
    if spec.monomials is None:
        monos = [(a, b) for start, end, h in _staircase(spec) for a in range(start, end) for b in range(h)]
        object.__setattr__(spec, "monomials", tuple(sorted(monos, key=lambda m: (m[0] + m[1], m[1]))))
    return spec.monomials


def _bivar_size(spec: BivariateMonomialQuotient) -> int:
    """p^k for the k standard monomials, counted off the staircase and
    refused above ENUMERATION_LIMIT before p^k is formed: p >= 2, so p^k
    stays within the limit only while 2^k does."""
    k = sum((end - start) * h for start, end, h in _staircase(spec))
    if k >= ENUMERATION_LIMIT.bit_length() or spec.p**k > ENUMERATION_LIMIT:
        raise RingTooLarge(f"ring has {spec.p}^{k} elements, above {ENUMERATION_LIMIT}")
    return spec.p**k


def ring_size(spec) -> int:
    if isinstance(spec, IntegersMod):
        return spec.n
    if isinstance(spec, PolyQuotient):
        return spec.p**spec.modulus.degree
    if isinstance(spec, BivariateMonomialQuotient):
        return _bivar_size(spec)
    if isinstance(spec, QuotientRing):
        return ring_table(spec).model.size
    raise TypeError(f"unsupported ring spec {spec!r}")


# --- internal models: index arithmetic --------------------------------------


class _IntModel:
    nbytes = _OBJECT_BYTES  # declared size: the model holds no array

    def __init__(self, n: int):
        # mul_rows multiplies two residues in int64, exact while (n-1)^2 < 2^63
        if n > 3037000500:
            raise RingTooLarge(f"ring has {n} elements, above 3037000500: its products overflow int64")
        self.n = n
        self.size = n
        self.scan_block = self.block_rows(n)

    def block_rows(self, cols: int) -> int:
        return max(1, 2**21 // max(1, cols))  # mul_rows blocks of about 2^21 products

    def _cols(self, cols, dtype) -> np.ndarray:
        if cols is None:
            return np.arange(self.n, dtype=dtype)
        return np.asarray(cols, dtype=dtype)

    def mul_rows(self, rows, cols=None) -> np.ndarray:
        """The products rows x cols: entry [a, b] is rows[a] * cols[b] mod n.
        cols=None means every residue, so row a is a full table row."""
        # a product of two residues is below n^2, which fits in uint32 up to
        # n = 2^16; there the blocks take half the memory of int64 ones
        dtype = np.uint32 if self.n <= 2**16 else np.int64
        r = np.asarray(rows, dtype=dtype)
        prod = r[:, None] * self._cols(cols, dtype)
        # p - (p // n) * n: numpy divides by a scalar faster than it takes
        # a remainder
        quot = prod // self.n
        quot *= self.n
        prod -= quot
        return prod

    def add_rows(self, rows, cols=None) -> np.ndarray:
        """The sums rows x cols, with cols as in mul_rows."""
        r = np.asarray(rows, dtype=np.int64)
        return (r[:, None] + self._cols(cols, np.int64)) % self.n

    def scan_keys(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Key each element by the packed zero pattern of its table row."""
        zero = self.mul_rows(rows) == 0
        return np.packbits(zero, axis=1), zero.sum(axis=1)

    def quotient(self, gens) -> _IntModel:
        """Z/n modulo the ideal of gens: Z/d, for the ideal's least positive
        member d = gcd(n, gens), so each coset is indexed by its least member."""
        return _IntModel(math.gcd(self.n, *gens))

    def project(self, idx) -> np.ndarray:
        """Each index of idx, from any Z/m that n divides, taken mod n."""
        return np.asarray(idx, dtype=np.int64) % self.n

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

    mul_rows(rows, cols) and add_rows(rows, cols) return the block of
    products or sums rows x cols as element indices; cols=None means every
    element, so row a is a full table row.  Over odd p a block's float
    intermediate holds len(rows) x k x len(cols) digits, which
    block_rows(len(cols)) rows keep near 2^19 entries; over F_2 it holds
    len(rows) x 2^k words.

    The multiplication matrices, and over odd p the products, run in
    floating point so that numpy hands them to BLAS, and they stay exact
    integers: each entry of a product is a sum of at most
    k terms, each a digit times a digit or a digit times a coefficient of
    M, so every partial sum is an integer below B = k*(p-1)^2 whatever
    order BLAS adds in.  float32 holds every integer below 2^24, and while
    B < 2^22 its quotient a/p also floors to the exact a // p: a/p is at
    most 2^22/p, where half an ulp is at most 1/(4p), less than the gap
    1/p between a/p and the next integer above it when p does not divide
    a.  Above that bound the products run in float64: every operation
    reads its digits from a table that only rings of at most SCAN_LIMIT
    elements have, so p^k <= 20000, B < 2^29 and the same argument holds
    with room to spare under float64's 2^53.  Sums of two digits
    (add_rows) stay below 2p, which is below 2^22 whenever B is, and the
    indices that digits combine into stay below p^k <= 20000.

    Over F_2 an element index is a word whose bit t is digit t, and r*y
    is the sum over the set bits j of y of r*e_j, e_j the j-th basis
    monomial.  Adding vectors over F_2 is xor of their words, so the index
    of r*y is the xor of the indices of the r*e_j: mul_rows reads those k
    words off L_r and fills the row of r for every index by k xor
    doublings.  xor carries nothing from one bit to the next, so every
    word is exact, and each fits the word type, min_scalar_type(size - 1),
    which holds every index below size = 2^k: whatever SCAN_LIMIT is, no
    index wraps.  The k words are read through the float radix, exact
    while 2^k <= 2^24, and only the requested columns of the words are
    widened to int64.  scan_keys packs each row of L_r^T into one word
    the same way and reduces the packed rows by xor (_row_reduce_f2).
    """

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.size = p**k
        self.scan_block = max(1, 2**18 // max(1, k) ** 2)
        dtype = np.float32 if k * (p - 1) ** 2 < 2**22 else np.float64
        # row reduction adds products of two residues to a residue, so its
        # entries stay below p^2
        self._reduce_dtype = np.min_scalar_type(p * p - 1)
        if self.size > SCAN_LIMIT:
            # every table operation and index conversion refuses the ring,
            # so nothing reads the structure tensor, the digits or the
            # radix, whose int64 powers of p would wrap above 2^63
            self.M = self._digits_t = self.radix = self._radix = None
            return
        self.radix = p ** np.arange(k, dtype=np.int64)
        self._radix = self.radix.astype(dtype)
        self.M = self._structure().astype(dtype)
        self._digits_t = self._digitize(np.arange(self.size, dtype=np.int64)).T.astype(dtype)
        self._inverse = np.array([pow(a, -1, p) if a else 0 for a in range(p)], dtype=self._reduce_dtype)
        # over F_2: an element index as a machine word, bit t its digit t
        self._word = np.min_scalar_type(self.size - 1)

    @property
    def nbytes(self) -> int:
        """Declared size: the model's own arrays; a window's base is an
        attribute but not an array, so it is charged to its own table."""
        arrays = [a for a in vars(self).values() if isinstance(a, np.ndarray)]
        return _OBJECT_BYTES + sum(_ARRAY_BYTES + a.nbytes for a in arrays)

    def block_rows(self, cols: int) -> int:
        return max(1, 2**19 // (max(1, cols) * max(1, self.k)))  # k = 0: the zero ring

    def _digitize(self, idx: np.ndarray) -> np.ndarray:
        return (idx[:, None] // self.radix) % self.p

    def _refuse_above_scan_limit(self) -> None:
        if self._digits_t is None:
            raise RingTooLarge(
                f"table operations need at most {SCAN_LIMIT} elements, ring has {self.size}"
            )

    def _digit_rows(self, idx) -> np.ndarray:
        """Digit t of each element of idx in row t; idx=None means every
        element."""
        self._refuse_above_scan_limit()
        if idx is None:
            return self._digits_t
        return self._digits_t[:, np.asarray(idx, dtype=np.int64)]

    def _mod_p(self, a: np.ndarray) -> np.ndarray:
        """a mod p in place, exact under the bound in the class docstring;
        np.fmod gives the same and is slower."""
        q = a / self.p
        np.floor(q, out=q)
        q *= self.p
        a -= q
        return a

    def mul_matrices(self, rows) -> np.ndarray:
        """L[r,i,t] = sum_j r_j*M[i,j,t] mod p, as floats: row i of L_r holds
        the coordinates of basis monomial i times r, so x*r = x @ L_r."""
        return self._mod_p(np.tensordot(self._digit_rows(rows), self.M, axes=([0], [1])))

    def mul_rows(self, rows, cols=None) -> np.ndarray:
        if self.p == 2:
            # words[r, j] is the index of r*e_j; the index of r*y, for y
            # below 2^(j+1) with bit j set, is that of r*(y - 2^j) xor words[r, j]
            words = (self.mul_matrices(rows) @ self._radix).astype(self._word)
            table = np.empty((len(words), self.size), dtype=self._word)
            table[:, 0] = 0
            for j in range(self.k):
                np.bitwise_xor(table[:, : 1 << j], words[:, j, None], out=table[:, 1 << j : 2 << j])
            if cols is not None:
                table = table[:, np.asarray(cols, dtype=np.int64)]
            return table.astype(np.int64)
        digits = self._digit_rows(cols)
        lt = self.mul_matrices(rows).transpose(0, 2, 1)
        # one gemm: row (r, t) of the product is coordinate t of cols * r
        prod = (lt.reshape(-1, self.k) @ digits).reshape(len(lt), self.k, digits.shape[1])
        return (self._radix @ self._mod_p(prod)).astype(np.int64)

    def scan_keys(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Key each element r by the reduced row echelon form of L_r^T.

        ann(r) is the left kernel of L_r, the orthogonal complement of the
        column space of L_r; that column space is the row space of L_r^T,
        and its reduced echelon form is unique.  So two elements share a key
        exactly when their annihilators agree, and |ann(r)| = p^(k - rank).

        One matrix is reduced per F_p-line: for c != 0, c*r has matrix
        c*L_r, whose rows span the same space, so c*r has r's key exactly.
        Each element takes the key of its multiple whose highest nonzero
        digit is 1 (0 keeps its own), and the distinct multiples of the
        block go to _row_reduce as one (row, column, element) batch.
        Over F_2 every element is its own line, and row t of L_r^T is one
        word whose bit i is L[r, i, t]: the (row, element) batch of words
        goes to _row_reduce_f2, and the key is the reduced words.
        """
        if self.p == 2:
            packed = (self._radix @ self.mul_matrices(rows)).astype(self._word).T.copy()
            rank = _row_reduce_f2(packed, self.k)
            return packed.T, 2 ** (self.k - rank)
        digits = self._digit_rows(rows).astype(np.int64)
        top = digits[self.k - 1 - (digits[::-1] != 0).argmax(axis=0), np.arange(digits.shape[1])]
        lines, line_of = np.unique(self.radix @ (digits * self._inverse[top] % self.p), return_inverse=True)
        reduced = self.mul_matrices(lines).transpose(2, 1, 0).astype(self._reduce_dtype, order="C")
        rank = _row_reduce(reduced, self.p, self._inverse)
        keys = reduced.reshape(self.k**2, len(lines)).T[line_of]
        return keys, self.p ** (self.k - rank[line_of])

    def add_rows(self, rows, cols=None) -> np.ndarray:
        s = self._digit_rows(rows).T[:, None, :] + self._digit_rows(cols).T[None, :, :]
        return (self._mod_p(s) @ self._radix).astype(np.int64)

    def quotient(self, gens) -> _VectorQuotient:
        return _VectorQuotient(self, gens)

    def coeffs_to_index(self, coeffs) -> int:
        self._refuse_above_scan_limit()
        return int(np.dot(np.asarray(coeffs, dtype=np.int64), self.radix))

    def index_to_coeffs(self, i: int) -> tuple[int, ...]:
        self._refuse_above_scan_limit()
        return tuple(int(d) for d in self._digitize(np.asarray([i], dtype=np.int64))[0])


class _PolyModel(_VectorModel):
    def __init__(self, spec: PolyQuotient):
        self.modulus = spec.modulus
        super().__init__(spec.p, spec.modulus.degree)

    def _structure(self) -> np.ndarray:
        """M[i, j] holds the coordinates of x^(i+j) mod f, read off the 2k-1
        powers x^t mod f: f is monic, so x^k = -(f - x^k)."""
        k, p = self.k, self.p
        tail = np.array(self.modulus.coeffs[:k], dtype=np.int64)
        powers = np.zeros((2 * k - 1, k), dtype=np.int64)
        powers[0, 0] = 1
        for t in range(1, 2 * k - 1):
            powers[t, 1:] = powers[t - 1, :-1]
            powers[t] = (powers[t] - powers[t - 1, -1] * tail) % p
        return powers[np.add.outer(np.arange(k), np.arange(k))]

    def element(self, i: int) -> FpPoly:
        return FpPoly(self.p, self.index_to_coeffs(i))

    def index(self, x) -> int:
        if not isinstance(x, FpPoly) or x.p != self.p:
            raise TypeError("expected an FpPoly over the same p")
        rem = x % self.modulus
        return self.coeffs_to_index(rem.coeffs + (0,) * (self.k - len(rem.coeffs)))


class _BivarModel(_VectorModel):
    def __init__(self, spec: BivariateMonomialQuotient):
        _bivar_size(spec)  # refuses a ring above the bound before any monomial is listed
        self.spec = spec
        super().__init__(spec.p, len(standard_monomials(spec)))

    def _structure(self) -> np.ndarray:
        monos = standard_monomials(self.spec)
        pos = {m: t for t, m in enumerate(monos)}
        struct = np.zeros((self.k,) * 3, dtype=np.int64)
        for i, (a1, b1) in enumerate(monos):
            for j, (a2, b2) in enumerate(monos):
                m = (a1 + a2, b1 + b2)
                if not any(m[0] >= ga and m[1] >= gb for ga, gb in self.spec.generators):
                    struct[i, j, pos[m]] = 1
        return struct

    def element(self, i: int) -> tuple[int, ...]:
        return self.index_to_coeffs(i)

    def index(self, x) -> int:
        if not isinstance(x, tuple) or len(x) != self.k:
            raise TypeError(f"expected a coefficient tuple of length {self.k}")
        if any(not 0 <= c < self.p for c in x):
            raise ValueError(f"coefficients must lie in [0, {self.p})")
        return self.coeffs_to_index(x)


class _VectorQuotient(_VectorModel):
    """An F_p-algebra modulo an ideal, on the base's free digits.

    The ideal is the row space of the generators' multiplication matrices
    L_g.  In its reduced echelon form with each pivot at its row's highest
    digit, a nonzero member's highest nonzero digit is a pivot, so adding
    it to an element whose pivot digits are zero raises the index: each
    coset's least member is its one member with zero pivot digits.  The
    quotient's digits are the base's free digits in order, so its indices
    list the cosets by least member; its structure tensor is the base's on
    the free positions, each product reduced by the echelon rows.
    """

    def __init__(self, base: _VectorModel, gens):
        # every L_g's rows, highest digit first, as a batch of one matrix;
        # no generator: the zero ideal
        rows = base.mul_matrices(list(gens) or [0]).reshape(-1, base.k)[:, ::-1]
        echelon = rows.astype(base._reduce_dtype, order="C")[:, :, None]
        rank = _row_reduce(echelon, base.p, base._inverse)[0]
        echelon = echelon[:rank, :, 0].astype(np.int64)
        self.pivots = base.k - 1 - np.argmax(echelon != 0, axis=1)
        self.free = np.setdiff1d(np.arange(base.k), self.pivots)
        self.echelon = echelon[:, ::-1][:, self.free]
        self.base = base
        super().__init__(base.p, len(self.free))

    def _structure(self) -> np.ndarray:
        return self._reduce(self.base.M[np.ix_(self.free, self.free)].astype(np.int64))

    def _reduce(self, coords: np.ndarray) -> np.ndarray:
        """The free digits of base coordinates (last axis) once the echelon
        rows have cleared their pivot digits."""
        return (coords[..., self.free] - coords[..., self.pivots] @ self.echelon) % self.base.p

    def project(self, idx) -> np.ndarray:
        """The coset of each base index of idx."""
        return self._reduce(self.base._digitize(np.asarray(idx, dtype=np.int64))) @ self.radix

    def lift(self, idx) -> np.ndarray:
        """The base index of each coset's least member, for idx."""
        return self._digitize(np.asarray(idx, dtype=np.int64)) @ self.base.radix[self.free]

    def element(self, i: int):
        return self.base.element(int(self.lift([i])[0]))

    def index(self, x) -> int:
        return int(self.project([self.base.index(x)])[0])


def _build_model(spec):
    if isinstance(spec, IntegersMod):
        return _IntModel(spec.n)
    if isinstance(spec, PolyQuotient):
        return _PolyModel(spec)
    if isinstance(spec, BivariateMonomialQuotient):
        return _BivarModel(spec)
    if isinstance(spec, QuotientRing):
        base = ring_table(spec.base).model
        if base.size > SCAN_LIMIT:
            raise RingTooLarge(f"quotient base has {base.size} elements, above {SCAN_LIMIT}")
        model = base.quotient(spec.ideal_gen_indices)
        if model.size == 1:
            raise ValueError("ideal is the whole ring; the quotient would be the zero ring")
        return model
    raise TypeError(f"unsupported ring spec {spec!r}")


def _row_reduce(a: np.ndarray, p: int, inverse: np.ndarray) -> np.ndarray:
    """Bring each matrix a[:, :, b] of the batch a, with at least as many
    rows as columns, to reduced row echelon form over F_p, in place, and
    return the ranks.

    The batch runs along the last axis of the C-contiguous a, of shape
    (rows, cols, batch), so every elimination step works on contiguous runs
    of the whole batch, not on one short row per matrix.  One step per
    column; inverse[v] is the inverse of v mod p, with inverse[0] = 0.
    """
    rows, cols, batch = a.shape
    flat = a.reshape(-1)  # a view, as a is C-contiguous
    every = np.arange(batch)
    row_pos = np.arange(rows)[:, None]
    rank = np.zeros(batch, dtype=np.intp)
    for c in range(cols):
        free = (a[:, c] != 0) & (row_pos >= rank)
        pivot = free.argmax(axis=0)
        has = free[pivot, every]
        # where column c has no pivot, row rank is swapped with itself
        pivot = np.where(has, pivot, rank)
        # flat positions of columns c.. of row rank and row pivot, (cols - c, batch);
        # both rows are zero left of column c
        span = (np.arange(c, cols) * batch)[:, None] + every
        at_rank = rank * (cols * batch) + span
        at_pivot = pivot * (cols * batch) + span
        prow = flat[at_pivot]
        flat[at_pivot] = flat[at_rank]
        flat[at_rank] = prow
        # the normalized pivot row; all zero where column c has no pivot
        lead = prow * inverse[prow[0]] % p
        # adding (p - v) * lead clears an entry v of column c; the pivot row,
        # v * lead, gets (p + 1 - v) * lead and becomes lead
        factor = p - a[:, c]
        factor[rank, every] += 1
        a[:, c:] += factor[:, None] * lead
        a[:, c:] %= p
        rank += has
    return rank


def _row_reduce_f2(a: np.ndarray, cols: int) -> np.ndarray:
    """_row_reduce over F_2 on packed rows: a[i, b] is row i of matrix b of
    the batch, bit c of it the entry in column c, for the cols columns; at
    least as many rows as columns.  Each matrix is brought to reduced row
    echelon form in place, and the ranks are returned.

    The batch runs along the last axis of a, of shape (rows, batch), and a
    step clears column c from every row but the pivot row with one xor of
    whole words.
    """
    rows, batch = a.shape
    every = np.arange(batch)
    row_pos = np.arange(rows)[:, None]
    rank = np.zeros(batch, dtype=np.intp)
    for c in range(cols):
        bit = (a >> c) & 1
        free = (bit != 0) & (row_pos >= rank)
        pivot = free.argmax(axis=0)
        has = free[pivot, every]
        # where column c has no pivot, row rank is swapped with itself
        pivot = np.where(has, pivot, rank)
        lead = a[pivot, every]
        a[pivot, every] = a[rank, every]
        a[rank, every] = lead
        # bit still reads the rows before the swap, and rows rank..pivot - 1
        # have no bit c: it flags every row to clear, and row pivot, which
        # now holds the old row rank (no bit c) or the pivot row itself;
        # lead is all zero where column c has no pivot
        bit[pivot, every] = 0
        lead *= has
        a ^= bit * lead
        rank += has
    return rank


# --- annihilator scan -------------------------------------------------------


class _Group(NamedTuple):
    first: int
    members: np.ndarray  # a read-only slice of one buffer shared by the scan
    ann_count: int


class _Scan(NamedTuple):
    class_ids: np.ndarray  # read-only
    groups: tuple[_Group, ...]
    zd_gids: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Declared size: class_ids, the int32 buffer of the same length
        that the groups' members slice, and each group's objects."""
        arrays = 2 * (_ARRAY_BYTES + self.class_ids.nbytes)
        return _OBJECT_BYTES + arrays + _GROUP_BYTES * len(self.groups)


def _annihilator_scan(model) -> _Scan:
    """Group every element by its exact annihilator set.

    Each model keys its elements so that two keys agree exactly when the
    annihilators do: Z/n by the packed zero pattern of the element's row in
    the multiplication table, F_p-algebras by a canonical form of the
    element's multiplication matrix (see _VectorModel.scan_keys).  Group ids follow first appearance in
    enumeration order, which makes everything downstream deterministic.
    The annihilator size each key predicts is checked against one table row
    of its group's first member.  The members of every group are slices of
    one int32 buffer: the elements sorted by group id.
    """
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
    block = model.block_rows(n)
    for start in range(0, len(firsts), block):
        reps = firsts[start : start + block]
        popcounts = np.count_nonzero(model.mul_rows(reps) == 0, axis=1)
        for rep, popcount, count in zip(reps, popcounts, ann_counts[start : start + block]):
            if popcount != count:
                raise AssertionError(
                    f"internal error: element {rep} annihilates {popcount} "
                    f"elements, its scan key predicted {count}"
                )
    by_class = np.argsort(class_ids, kind="stable").astype(np.int32)
    by_class.flags.writeable = False
    class_ids.flags.writeable = False
    ends = np.cumsum(np.bincount(class_ids, minlength=len(firsts)))
    groups = tuple(map(_Group, firsts, np.split(by_class, ends[:-1]), ann_counts))
    zd_gids = tuple(gid for gid, g in enumerate(groups) if g.ann_count >= 2 and g.first != 0)
    return _Scan(class_ids, groups, zd_gids)


# --- the ring table ---------------------------------------------------------


class RingTable:
    """What the oracle derives from one ring spec, each part built once.

    model: the index arithmetic of the ring (size, mul_rows, element, index).
    scan: the annihilator scan, built on first use: class_ids[i] is the
      group of element i; groups[g] has fields first (the least member),
      members and ann_count; zd_gids lists the groups of nonzero
      zero-divisors.
    keep(build): build(spec) once for a caller that reuses what it builds.
    labels(idx): element_label of each element index of idx.
    nbytes: the declared sizes of the model, the scan once built, and what
      keep() holds, which is what the table cache is charged.

    Tables come from ring_table(spec) and may be shared by every caller,
    so nothing reached from a table may be mutated: the scan is tuples and
    read-only arrays, and keep() must get an immutable value.
    """

    def __init__(self, spec):
        self.spec = spec
        self.model = _build_model(spec)
        self.nbytes = self.model.nbytes
        self._scan: _Scan | None = None
        self._kept: dict = {}

    @property
    def scan(self) -> _Scan:
        if self._scan is None:
            self._scan = _annihilator_scan(self.model)
            _TABLES.charge(self, self._scan.nbytes)
        return self._scan

    def keep(self, build):
        """build(spec), computed once per table; what it returns declares
        its size as nbytes, is charged to the table cache and must never be
        mutated."""
        if build not in self._kept:
            self._kept[build] = build(self.spec)
            _TABLES.charge(self, self._kept[build].nbytes)
        return self._kept[build]

    def labels(self, idx) -> list[str]:
        """element_label of each element index of idx, in one pass over the
        digit table rather than one element at a time."""
        return _labels(self.spec, self.model, np.asarray(idx, dtype=np.int64))


class _TableCache:
    """Least-recently-used ring tables whose charged bytes stay within
    TABLE_BUDGET; a table that alone exceeds it is handed out uncached."""

    def __init__(self):
        self.tables: OrderedDict = OrderedDict()
        self.charged = 0

    def get(self, spec) -> RingTable:
        table = self.tables.get(spec)
        if table is not None:
            self.tables.move_to_end(spec)
            return table
        table = RingTable(spec)
        self.tables[spec] = table
        self.charged += table.nbytes
        self._evict()
        return table

    def charge(self, table: RingTable, nbytes: int) -> None:
        table.nbytes += nbytes
        if self.tables.get(table.spec) is table:
            self.charged += nbytes
            self._evict()

    def _evict(self) -> None:
        while self.charged > TABLE_BUDGET:
            _, table = self.tables.popitem(last=False)
            self.charged -= table.nbytes


_TABLES = _TableCache()


def ring_table(spec) -> RingTable:
    """The ring table of spec, from the cache while it stays there."""
    return _TABLES.get(spec)


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
    model = ring_table(spec).model
    if model.size > ENUMERATION_LIMIT:
        raise RingTooLarge(f"ring has {model.size} elements, above {ENUMERATION_LIMIT}")
    return [model.element(i) for i in range(model.size)]


def annihilator(spec, r) -> list:
    """Every x with r*x = 0, in enumeration order."""
    model, zero = _annihilator_row(spec, r)
    return [model.element(int(i)) for i in np.flatnonzero(zero)]


def annihilator_size(spec, r) -> int:
    """len(annihilator(spec, r)), counted without listing the elements."""
    return int(np.count_nonzero(_annihilator_row(spec, r)[1]))


def _annihilator_row(spec, r):
    """The ring's model, and whether r*x = 0 for each element x."""
    model = ring_table(spec).model
    if model.size > ENUMERATION_LIMIT:
        raise RingTooLarge(f"ring has {model.size} elements, above {ENUMERATION_LIMIT}")
    return model, model.mul_rows([model.index(r)])[0] == 0


def zero_divisor_classes(spec) -> list[AnnihilatorClass]:
    """Annihilator classes of the nonzero zero-divisors, by first appearance."""
    ring = ring_table(spec)
    scan, model = ring.scan, ring.model
    groups = [scan.groups[gid] for gid in scan.zd_gids]
    # the annihilator of each class: the zeros of its representative's row
    zero = model.mul_rows([g.first for g in groups]) == 0
    return [
        AnnihilatorClass(
            representative=model.element(g.first),
            members=tuple(model.element(m) for m in g.members),
            annihilator=tuple(model.element(int(i)) for i in np.flatnonzero(row)),
            size=len(g.members),
            is_self_annihilating=bool(row[g.first]),
        )
        for g, row in zip(groups, zero)
    ]


def oracle_compressed_graph(spec, loops: bool) -> CompressedGraph:
    """Gamma_C(R) by brute force: one vertex per annihilator class, adjacency
    decided by multiplying class representatives."""
    ring = ring_table(spec)
    scan, model = ring.scan, ring.model
    # (label, representative, size) in label order
    groups = [scan.groups[gid] for gid in scan.zd_gids]
    firsts = [g.first for g in groups]
    classes = sorted(zip(ring.labels(firsts), firsts, (len(g.members) for g in groups)))
    reps = [first for _, first, _ in classes]
    table = model.mul_rows(reps, reps) == 0 if reps else np.zeros((0, 0), dtype=bool)
    verts = tuple(
        Vertex(label, size=size, loop=bool(table[pos, pos]) if loops else False)
        for pos, (label, _, size) in enumerate(classes)
    )
    rows, cols = np.nonzero(np.triu(table, 1))
    return CompressedGraph(verts, tuple(zip(rows.tolist(), cols.tolist())), loops)


def full_zero_divisor_graph(spec) -> Graph:
    """Gamma(R): simple graph on the nonzero zero-divisors."""
    ring = ring_table(spec)
    model = ring.model
    if model.size > FULL_GRAPH_LIMIT:
        raise RingTooLarge(f"full graph needs at most {FULL_GRAPH_LIMIT} elements, ring has {model.size}")
    scan = ring.scan
    is_zd = np.zeros(len(scan.groups), dtype=bool)
    is_zd[list(scan.zd_gids)] = True
    zd = np.flatnonzero(is_zd[scan.class_ids])
    labels = ring.labels(zd)
    # in label order, so that the edges come out in canonical order
    order = sorted(range(len(zd)), key=labels.__getitem__)
    zd = zd[np.array(order, dtype=np.int64)]
    edges = [np.empty((0, 2), dtype=np.int64)]
    block = model.block_rows(len(zd))
    for start in range(0, len(zd), block):
        chunk = zd[start : start + block]
        zero = model.mul_rows(chunk, zd) == 0
        # local row i is vertex start + i; keep the columns right of it
        pairs = np.argwhere(np.triu(zero, start + 1))
        pairs[:, 0] += start
        edges.append(pairs)
    return Graph(tuple(labels[i] for i in order), np.concatenate(edges))


def count_regular_elements(spec) -> int:
    """|R - Z(R)|: elements that are not nonzero zero-divisors (units and 0)."""
    ring = ring_table(spec)
    zd_total = sum(len(ring.scan.groups[gid].members) for gid in ring.scan.zd_gids)
    return ring.model.size - zd_total


def _in_ideal(model, gens: list) -> np.ndarray:
    """Whether each element lies in the ideal of gens: the elements that
    the quotient by it sends to 0."""
    quotient = model.quotient([model.index(g) for g in gens])
    return quotient.project(np.arange(model.size)) == 0


def ideal_members(spec, gens: list) -> list:
    """All elements of the ideal generated by gens, in enumeration order."""
    model = ring_table(spec).model
    if model.size > SCAN_LIMIT:
        raise RingTooLarge(f"ideal enumeration needs at most {SCAN_LIMIT} elements")
    return [model.element(int(i)) for i in np.flatnonzero(_in_ideal(model, gens))]


def ideal_is_union(spec, ideal_gens: list, union_candidates: list) -> bool:
    """Whether the ideal generated by ideal_gens equals the union of the
    principal ideals of the candidates, by exhaustive membership."""
    model = ring_table(spec).model
    if model.size > SCAN_LIMIT:
        raise RingTooLarge(f"ideal comparison needs at most {SCAN_LIMIT} elements")
    union = np.zeros(model.size, dtype=bool)
    union[0] = True
    for c in union_candidates:
        union[model.mul_rows([model.index(c)])[0]] = True
    return bool(np.array_equal(_in_ideal(model, ideal_gens), union))


def quotient_by_ideal(spec, gens: list) -> QuotientRing:
    """Spec for the quotient of a finite model by the ideal the gens generate.

    Builds the quotient model here, so an ideal that is the whole ring raises
    ValueError now rather than at the first use of the quotient."""
    model = ring_table(spec).model
    quotient = QuotientRing(spec, tuple(model.index(g) for g in gens))
    ring_table(quotient)
    return quotient


def mul_elements(spec, a, b):
    model = ring_table(spec).model
    return model.element(int(model.mul_rows([model.index(a)], [model.index(b)])[0, 0]))


def add_elements(spec, a, b):
    model = ring_table(spec).model
    return model.element(int(model.add_rows([model.index(a)], [model.index(b)])[0, 0]))


# --- element text forms -----------------------------------------------------


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


def _bivar_formatter(spec: BivariateMonomialQuotient):
    """The text of a bivariate element from its coefficients, one per
    standard monomial: its nonzero terms by falling total degree, then
    rising y-exponent; the order and monomial texts are worked out once."""
    monos = standard_monomials(spec)
    order = sorted(range(len(monos)), key=lambda t: (-sum(monos[t]), monos[t][1]))
    terms = [(t, format_monomial(monos[t])) for t in order]

    def render(coeffs) -> str:
        rendered = []
        for t, mono in terms:
            c = coeffs[t]
            if c:
                rendered.append(mono if c == 1 else str(c) if mono == "1" else f"{c}*{mono}")
        return "+".join(rendered) or "0"

    return render


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


def _labels(spec, model, idx: np.ndarray) -> list[str]:
    """element_label of each index of idx in model, the model of spec; the
    digits of an F_p-algebra's elements come from its digit table at once
    and are formatted by the same rules element_label uses."""
    if isinstance(spec, QuotientRing):
        if isinstance(spec.base, IntegersMod):
            # each coset of Z/n is indexed by its least member, its base index
            return _labels(spec.base, model, idx)
        return _labels(spec.base, model.base, model.lift(idx))
    if isinstance(spec, IntegersMod):
        return [element_label(spec, i) for i in idx.tolist()]
    digits = model._digit_rows(idx).T.astype(np.int64).tolist()
    if isinstance(spec, PolyQuotient):
        return [format_coeffs_compact(d, spec.p) for d in digits]
    return list(map(_bivar_formatter(spec), digits))


def element_label(spec, x) -> str:
    """Canonical text for a ring element; used for graph labels and the CLI."""
    if isinstance(spec, QuotientRing):
        return element_label(spec.base, x)
    if isinstance(spec, IntegersMod):
        return str(x % spec.n)
    if isinstance(spec, PolyQuotient):
        return format_poly_compact(x)
    if isinstance(spec, BivariateMonomialQuotient):
        return _bivar_formatter(spec)(x)
    raise TypeError(f"unsupported ring spec {spec!r}")


def parse_element(spec, text: str):
    """Inverse of element_label, tolerant of unreduced input."""
    if isinstance(spec, QuotientRing):
        model = ring_table(spec).model
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
        base = ring_table(spec.base).model
        gens = ",".join(element_label(spec.base, base.element(i)) for i in spec.ideal_gen_indices)
        return f"{format_ring_spec(spec.base)} mod ({gens})"
    raise TypeError(f"unsupported ring spec {spec!r}")
