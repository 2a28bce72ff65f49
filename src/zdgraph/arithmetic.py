"""Exact arithmetic in the two supported coefficient domains.

The library works over two unique factorization domains: the rational
integers, and univariate polynomials over a prime field F_p.  This module
provides the shared value types (FpPoly, Irreducible, Factorization),
factorization into irreducibles, associate
canonicalization (positive integers, monic polynomials), multiplicity
vectors with gcd on exponents, and the text forms used by the CLI and the
JSON graph format.

Integers factor by trial division below 1000, then deterministic
Miller-Rabin (bases 2..41, exact below 3.3*10**24; Sorenson & Webster 2015)
and Pollard-Brent rho with a fixed seed (Brent 1980).  That takes well under
a second while the second-largest prime factor stays below about 10**11
(0.03 s for a product of two primes near 10**9).  A probable prime above
3.3*10**24 cannot be certified, so is_prime raises UncertifiedPrime for it
rather than answer either way.  Polynomials factor by square-free,
distinct-degree and equal-degree factorization (Cantor & Zassenhaus 1981)
with random splitting polynomials from a fixed seed: a few milliseconds at
degree 40 over F_2, and about 0.2 s for an irreducible of degree 128.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from itertools import count, product as _cartesian

__all__ = [
    "FpPoly",
    "Irreducible",
    "Factorization",
    "factor_integer",
    "factor_polynomial",
    "multiplicity_vector",
    "gcd_exponents",
    "poly_gcd",
    "is_prime",
    "UncertifiedPrime",
    "monic_polys",
    "format_poly_compact",
    "format_coeffs_compact",
    "parse_poly_compact",
    "format_poly_pretty",
    "parse_poly_pretty",
]


# Trial division runs over 2, 3 and 6k+-1 below _TRIAL_LIMIT; a cofactor
# it leaves has no prime factor below the limit, so one below its square
# is prime.  Miller-Rabin with the first 13 primes as bases is exact below
# _MR_LIMIT (Sorenson & Webster 2015); past it a probable prime is left
# uncertified.
_TRIAL_LIMIT = 1000
_TRIAL_SQUARE = _TRIAL_LIMIT * _TRIAL_LIMIT
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


class UncertifiedPrime(ArithmeticError):
    """A number passed Miller-Rabin above 3.3*10**24, where that test proves
    nothing and no primality certificate is implemented."""

    def __init__(self, n: int):
        super().__init__(
            f"{n} is a probable prime above {_MR_LIMIT}; its primality cannot be certified"
        )
        self.n = n


def is_prime(n: int) -> bool:
    """Deterministic primality: trial division for n below 10**6, else
    Miller-Rabin, exact below 3.3*10**24.  Past that bound a composite is
    still found composite, and a probable prime raises UncertifiedPrime."""
    if n < _TRIAL_SQUARE:
        return _trial_is_prime(n)
    if not _strong_probable_prime(n):
        return False
    if n >= _MR_LIMIT:
        raise UncertifiedPrime(n)
    return True


def _trial_is_prime(n: int) -> bool:
    if n < 4:
        return n >= 2
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES: False proves n composite, and
    True proves n prime when n < _MR_LIMIT."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper divisor of a composite n with no prime factor below
    _TRIAL_LIMIT: Brent's rho on x -> x^2 + c from x = 2, trying
    c = 1, 2, ... in turn, so the result is deterministic."""
    batch = 128
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:  # the batch's product hit 0 mod n: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


# --- polynomials over F_p -------------------------------------------------


@dataclass(frozen=True)
class FpPoly:
    """Polynomial over F_p; coefficients run constant term first.

    Construction reduces coefficients mod p and trims high zeros, so equal
    values compare equal.  The zero polynomial has an empty tuple and
    degree -1.
    """

    p: int
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.p < 2 or not is_prime(self.p):
            raise ValueError(f"characteristic must be a prime, got {self.p}")
        c = tuple(int(a) % self.p for a in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> FpPoly:
        """The monic associate."""
        inv = pow(self.leading, -1, self.p)
        return FpPoly(self.p, tuple(a * inv % self.p for a in self.coeffs))

    def sort_key(self) -> tuple:
        # degree first, then the coefficient tuple (constant term first)
        return (self.degree, self.coeffs)

    def _coerce(self, other) -> FpPoly:
        if isinstance(other, FpPoly):
            if other.p != self.p:
                raise ValueError(f"mixed characteristics {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpPoly(self.p, (other,))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> FpPoly:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        c = list(a)
        for i, x in enumerate(b):
            c[i] = (c[i] + x) % self.p
        return FpPoly(self.p, tuple(c))

    __radd__ = __add__

    def __mul__(self, other) -> FpPoly:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpPoly(self.p, tuple(_mul(self.coeffs, o.coeffs, self.p)))

    __rmul__ = __mul__

    def __divmod__(self, other) -> tuple[FpPoly, FpPoly]:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod(self.coeffs, o.coeffs, self.p)
        return FpPoly(self.p, tuple(q)), FpPoly(self.p, tuple(r))

    def __mod__(self, other) -> FpPoly:
        return divmod(self, other)[1]

    def __floordiv__(self, other) -> FpPoly:
        return divmod(self, other)[0]

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        return format_poly_pretty(self)


def poly_gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    """Monic gcd of two polynomials over the same F_p (zero if both zero)."""
    if a.p != b.p:
        raise ValueError(f"mixed characteristics {a.p} and {b.p}")
    return FpPoly(a.p, tuple(_gcd(a.coeffs, b.coeffs, a.p)))


# Coefficient lists, constant term first, with entries in [0, p) and no high
# zeros: the arithmetic under FpPoly and the factoring steps, which would
# otherwise build and check an FpPoly per intermediate value.


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _sub(a, b, p: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    return _trim(out)


def _mul(a, b, p: int) -> list[int]:
    if not a or not b:
        return []
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] += x * y
    return _trim([v % p for v in c])


def _divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b."""
    n = len(b) - 1
    rem = list(a)
    q = [0] * max(0, len(rem) - n)
    inv = pow(b[-1], -1, p)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + n] * inv % p  # entries are reduced mod p only here
        if c:
            q[k] = c
            for i, y in enumerate(b):
                rem[i + k] -= c * y
    return _trim(q), _trim([v % p for v in rem[:n]])


def _monic(a, p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _gcd(a, b, p: int) -> list[int]:
    """Monic gcd; the empty list if both are zero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p) if a else []


def _mulmod(a, b, f, p: int) -> list[int]:
    return _divmod(_mul(a, b, p), f, p)[1]


def _powmod(a, e: int, f, p: int) -> list[int]:
    """a^e mod f by square-and-multiply."""
    out = [1]
    a = _divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _mulmod(out, a, f, p)
        e >>= 1
        if e:
            a = _mulmod(a, a, f, p)
    return out


def monic_polys(p: int, degree: int):
    """Yield the monic polynomials of the given degree over F_p.

    Order is canonical: ascending lexicographic on the lower coefficient
    tuple (constant term first), matching FpPoly.sort_key within a degree.
    """
    if degree < 0:
        return
    if degree == 0:
        yield FpPoly(p, (1,))
        return
    for lower in _cartesian(range(p), repeat=degree):
        yield FpPoly(p, (*lower, 1))


# --- irreducibles and factorizations ---------------------------------------


@dataclass(frozen=True)
class Irreducible:
    """A canonical irreducible: a positive prime, or a monic irreducible poly.

    Irreducibility is certified by the factoring routine that produced the
    value; recheck() re-verifies it independently (is_prime for integers,
    trial division for polynomials).
    """

    value: int | FpPoly

    def __post_init__(self) -> None:
        v = self.value
        if isinstance(v, bool) or not isinstance(v, (int, FpPoly)):
            raise TypeError(f"unsupported irreducible value {v!r}")
        if isinstance(v, int):
            if v < 2:
                raise ValueError(f"integer irreducible must be >= 2, got {v}")
        else:
            if v.degree < 1:
                raise ValueError("polynomial irreducible must have degree >= 1")
            if not v.is_monic():
                raise ValueError("polynomial irreducible must be monic")

    @property
    def backend(self) -> str:
        return "int" if isinstance(self.value, int) else "poly"

    def sort_key(self) -> tuple:
        if isinstance(self.value, int):
            return (0, self.value)
        return self.value.sort_key()

    def recheck(self) -> bool:
        """Re-verify irreducibility: is_prime, or trial division by every monic
        polynomial up to half the degree.

        The trial division takes about p^(degree/2) divisions, and stays so
        on purpose: it shares no step with factor_polynomial, so it is an
        independent check of that routine's output.
        """
        v = self.value
        if isinstance(v, int):
            return is_prime(v)
        for d in range(1, v.degree // 2 + 1):
            for cand in monic_polys(v.p, d):
                if (v % cand).is_zero:
                    return False
        return True


@dataclass(frozen=True)
class Factorization:
    """unit * product of irreducible powers, in one backend.

    The unit is the sign for integers and the leading coefficient (as an
    integer in [1, p)) for polynomials.  Factors are sorted canonically
    and pairwise distinct with exponents >= 1.
    """

    backend: str
    unit: int
    factors: tuple[tuple[Irreducible, int], ...]

    def __post_init__(self) -> None:
        if self.backend not in ("int", "poly"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "int" and self.unit not in (1, -1):
            raise ValueError(f"integer unit must be +-1, got {self.unit}")
        keys = []
        for irr, e in self.factors:
            if irr.backend != self.backend:
                raise ValueError("factor backend does not match factorization")
            if e < 1:
                raise ValueError(f"exponent must be >= 1, got {e}")
            keys.append(irr.sort_key())
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("factors must be sorted and distinct")
        if self.backend == "poly":
            p = self.char
            if p is not None and not 1 <= self.unit < p:
                raise ValueError(f"polynomial unit must lie in [1, p), got {self.unit}")

    @property
    def char(self) -> int | None:
        """Field characteristic for the poly backend, None for integers."""
        if self.backend == "int":
            return None
        if not self.factors:
            return None
        value = self.factors[0][0].value
        assert isinstance(value, FpPoly)
        return value.p

    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.factors)

    def irreducibles(self) -> tuple[Irreducible, ...]:
        return tuple(irr for irr, _ in self.factors)

    def value(self) -> int | FpPoly:
        """Multiply the factorization back out."""
        if self.backend == "poly" and self.char is None:
            raise ValueError("cannot rebuild a polynomial value without factors")
        return self.unit * self.divisor(self.exponents())

    def divisor(self, vector: tuple[int, ...]) -> int | FpPoly:
        """The canonical divisor with the given exponent vector (no unit)."""
        if len(vector) != len(self.factors):
            raise ValueError("exponent vector length does not match factor count")
        out = 1 if self.backend == "int" else FpPoly(self.char, (1,))
        for (irr, e), v in zip(self.factors, vector):
            if not 0 <= v <= e:
                raise ValueError(f"exponent {v} out of range [0, {e}]")
            for _ in range(v):
                out = out * irr.value
        return out


def factor_integer(n: int) -> Factorization:
    """Factor an integer n >= 2 into primes.

    Trial division takes out the primes below _TRIAL_LIMIT.  Each cofactor
    left above the limit's square is either prime by is_prime or split by
    Pollard-Brent rho.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"expected an int, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"factor_integer needs n >= 2, got {n}")
    pairs: list[tuple[Irreducible, int]] = []
    m = n
    for d in (2, 3):
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            pairs.append((Irreducible(d), e))
    # remaining candidates 6k +- 1
    d = 5
    while d * d <= m and d < _TRIAL_LIMIT:
        for cand in (d, d + 2):
            e = 0
            while m % cand == 0:
                m //= cand
                e += 1
            if e:
                pairs.append((Irreducible(cand), e))
        d += 6
    # every prime factor of m is at least d
    large: dict[int, int] = {}
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        if d * d > m or is_prime(m):
            large[m] = large.get(m, 0) + 1
        else:
            f = _pollard_brent(m)
            pending += [f, m // f]
    pairs += ((Irreducible(q), e) for q, e in sorted(large.items()))
    return Factorization("int", 1, tuple(pairs))


def factor_polynomial(f: FpPoly | tuple[int, ...] | list[int], p: int | None = None) -> Factorization:
    """Factor a polynomial of degree >= 1 over F_p into monic irreducibles.

    Three steps (Cantor & Zassenhaus 1981): a square-free split by gcds with
    the derivative, a distinct-degree split by gcd(g, x^(p^d) - x) for each
    degree d, and an equal-degree split of each part by gcds with random
    polynomials drawn from random.Random(0), so the run is deterministic.
    The unit part is the leading coefficient; the factors are sorted by
    Irreducible.sort_key.
    """
    if isinstance(f, FpPoly):
        poly = f
        if p is not None and p != poly.p:
            raise ValueError(f"characteristic mismatch: {p} vs {poly.p}")
    else:
        if p is None:
            raise ValueError("a coefficient sequence needs an explicit characteristic")
        poly = FpPoly(p, tuple(f))
    if poly.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if poly.degree < 1:
        raise ValueError("factor_polynomial needs degree >= 1")
    p = poly.p
    rng = random.Random(0)
    pairs = [
        (Irreducible(FpPoly(p, tuple(g))), e)
        for w, e in _square_free(_monic(poly.coeffs, p), p)
        for u, d in _distinct_degree(w, p)
        for g in _equal_degree(u, d, p, rng)
    ]
    pairs.sort(key=lambda fe: fe[0].sort_key())
    return Factorization("poly", poly.leading, tuple(pairs))


def _square_free(f, p: int) -> list[tuple[list[int], int]]:
    """Pairs (w, e) with f = prod w^e, each w square-free and of degree >= 1,
    the w pairwise coprime; f is monic."""
    out = []
    c = _gcd(f, _trim([i * a % p for i, a in enumerate(f)][1:]), p)
    w = _divmod(f, c, p)[0]  # the irreducibles whose exponent p does not divide
    e = 1
    while len(w) > 1:
        y = _gcd(w, c, p)
        part = _divmod(w, y, p)[0]  # those of exponent exactly e
        if len(part) > 1:
            out.append((part, e))
        w, c, e = y, _divmod(c, y, p)[0], e + 1
    if len(c) > 1:
        # every exponent left is a multiple of p and c' = 0, so c is the p-th
        # power of the polynomial with coefficients c[0], c[p], c[2p], ...
        out += [(w, e * p) for w, e in _square_free(c[::p], p)]
    return out


def _distinct_degree(w, p: int) -> list[tuple[list[int], int]]:
    """Pairs (u, d): u is the product of w's irreducible factors of degree d,
    for each d that has one; w is square-free and monic."""
    out = []
    h = [0, 1]  # x^(p^d) mod w
    d = 0
    while len(w) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, w, p)
        u = _gcd(w, _sub(h, [0, 1], p), p)
        if len(u) > 1:
            out.append((u, d))
            w = _divmod(w, u, p)[0]
            h = _divmod(h, w, p)[1]
    if len(w) > 1:  # no factor of degree <= deg(w) / 2 is left: w is irreducible
        out.append((w, len(w) - 1))
    return out


def _equal_degree(u, d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The irreducible factors of u, a square-free monic product of
    irreducibles of degree d.

    For a random a, gcd(u, b) splits u with probability at least about 1/2,
    where b is the trace a + a^2 + ... + a^(2^(d-1)) for p = 2 and
    a^((p^d-1)/2) - 1 for odd p: in each factor's residue field F_(p^d), b
    is 0 for about half the values of a, independently of the other factors.
    """
    if len(u) - 1 == d:
        return [u]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(u) - 1)])
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = _mulmod(t, t, u, 2)
                b = _sub(b, t, 2)  # b + t in characteristic 2
        else:
            b = _sub(_powmod(a, (p**d - 1) // 2, u, p), [1], p)
        g = _gcd(u, b, p)
        if 1 < len(g) < len(u):
            return _equal_degree(g, d, p, rng) + _equal_degree(_divmod(u, g, p)[0], d, p, rng)


# --- multiplicity vectors ---------------------------------------------------


def multiplicity_vector(a: int | FpPoly, fact: Factorization) -> tuple[int, ...]:
    """Exponent of each irreducible of ``fact`` in a.

    Writes a = y * prod(p_i ** k_i) with no p_i dividing y and returns the
    tuple k, aligned with fact.factors.  The zero element is rejected;
    callers map it to the zero class themselves.
    """
    if fact.backend == "int":
        if not isinstance(a, int) or isinstance(a, bool):
            raise TypeError("integer backend expects an int")
    elif not isinstance(a, FpPoly):
        raise TypeError("polynomial backend expects an FpPoly")
    if not a:
        raise ValueError("a must be nonzero; the zero class is handled by the caller")
    if fact.char is not None and a.p != fact.char:
        raise ValueError(f"characteristic mismatch: {a.p} vs {fact.char}")
    ks = []
    for irr, _ in fact.factors:
        k = 0
        quo, rem = divmod(a, irr.value)
        while not rem:
            a, k = quo, k + 1
            quo, rem = divmod(a, irr.value)
        ks.append(k)
    return tuple(ks)


def gcd_exponents(k: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise min of two aligned exponent vectors."""
    if len(k) != len(s):
        raise ValueError(f"vector lengths differ: {len(k)} vs {len(s)}")
    if any(x < 0 for x in k) or any(x < 0 for x in s):
        raise ValueError("exponents must be nonnegative")
    return tuple(min(a, b) for a, b in zip(k, s))


# --- serialized text forms --------------------------------------------------


def format_poly_compact(f: FpPoly) -> str:
    """Serialize as "c0,c1,...,ck@p", constant term first."""
    return format_coeffs_compact(f.coeffs, f.p)


def format_coeffs_compact(coeffs, p: int) -> str:
    """format_poly_compact of the polynomial with these coefficients, ints
    in [0, p) with the constant term first; high zeros are dropped."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    if not end:
        return f"0@{p}"
    return ",".join(map(str, coeffs[:end])) + f"@{p}"


def parse_poly_compact(s: str) -> FpPoly:
    """Parse the "c0,c1,...,ck@p" form."""
    body, sep, tail = s.partition("@")
    if not sep or not tail:
        raise ValueError(f"missing characteristic in {s!r}")
    try:
        p = int(tail)
        coeffs = tuple(int(t) for t in body.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed polynomial {s!r}") from exc
    if any(not 0 <= c < p for c in coeffs):
        raise ValueError(f"coefficients of {s!r} must lie in [0, {p})")
    return FpPoly(p, coeffs)


def format_poly_pretty(f: FpPoly) -> str:
    """Human form in descending powers, e.g. "x^2+2*x+1"."""
    if f.is_zero:
        return "0"
    terms = []
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
            continue
        power = "x" if k == 1 else f"x^{k}"
        terms.append(power if c == 1 else f"{c}*{power}")
    return "+".join(terms)


_PRETTY_TERM = re.compile(r"^(?:(\d+)\*)?([a-z])(?:\^(\d+))?$|^(\d+)$")


def parse_poly_pretty(s: str, p: int) -> FpPoly:
    """Parse the human form in x; coefficients reduce mod p."""
    text = s.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial")
    if text == "0":
        return FpPoly(p, ())
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        m = _PRETTY_TERM.match(term)
        if m is None:
            raise ValueError(f"malformed term {term!r} in {s!r}")
        if m.group(4) is not None:
            coeffs[0] = coeffs.get(0, 0) + int(m.group(4))
            continue
        if m.group(2) != "x":
            raise ValueError(f"unknown variable {m.group(2)!r} in {s!r}")
        c = int(m.group(1)) if m.group(1) else 1
        k = int(m.group(3)) if m.group(3) else 1
        coeffs[k] = coeffs.get(k, 0) + c
    top = max(coeffs)
    return FpPoly(p, tuple(coeffs.get(i, 0) for i in range(top + 1)))
