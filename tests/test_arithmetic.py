"""Factorization and multiplicity vectors, checked against direct arithmetic."""

import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgraph.arithmetic import (
    Factorization,
    FpPoly,
    Irreducible,
    UncertifiedPrime,
    factor_integer,
    factor_polynomial,
    format_poly_compact,
    format_poly_pretty,
    gcd_exponents,
    is_prime,
    monic_polys,
    multiplicity_vector,
    parse_poly_compact,
    parse_poly_pretty,
    poly_gcd,
)


def naive_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


def sqrt_trial_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


class TestIsPrime:
    def test_small_range_against_naive(self):
        for n in range(-3, 10**4):
            assert is_prime(n) == naive_is_prime(n), n

    def test_miller_rabin_range_against_trial_division(self):
        # is_prime switches from trial division to Miller-Rabin at 10**6
        for n in range(10**6 - 2000, 10**6 + 3000):
            assert is_prime(n) == sqrt_trial_is_prime(n), n

    def test_known_large(self):
        assert is_prime(9973)
        assert not is_prime(9991)  # 97 * 103
        assert is_prime(2**61 - 1)
        assert is_prime(10**18 + 3)
        assert Irreducible(10**18 + 3).recheck()

    def test_pseudoprimes_are_composite(self):
        assert not is_prime(561)  # Carmichael numbers
        assert not is_prime(41041)
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
        assert not is_prime(3825123056546413051)  # strong pseudoprime to bases 2..23
        assert not is_prime(318665857834031151167461)  # strong pseudoprime to bases 2..37
        assert not is_prime((2**61 - 1) * (2**89 - 1))  # past the deterministic bound

    @pytest.mark.parametrize("check", [is_prime, factor_integer, lambda n: FpPoly(n, (1,))])
    def test_probable_prime_past_the_bound_is_not_reported_prime(self, check):
        with pytest.raises(UncertifiedPrime) as info:
            check(2**89 - 1)
        assert info.value.n == 2**89 - 1


class TestFactorInteger:
    def test_round_trip_dense(self):
        for n in range(2, 3000):
            f = factor_integer(n)
            assert f.value() == n, n
            assert all(is_prime(irr.value) for irr in f.irreducibles()), n
            assert all(e >= 1 for e in f.exponents()), n

    def test_round_trip_sparse_large(self):
        for n in (10**6, 10**9 + 7, 2**20 * 3**5, 999983 * 2, 10**12):
            f = factor_integer(n)
            assert f.value() == n
            assert all(irr.recheck() for irr in f.irreducibles())

    def test_twelve(self):
        f = factor_integer(12)
        assert [(irr.value, e) for irr, e in f.factors] == [(2, 2), (3, 1)]
        assert f.exponents() == (2, 1)

    def test_prime_power(self):
        f = factor_integer(243)
        assert [(irr.value, e) for irr, e in f.factors] == [(3, 5)]

    @pytest.mark.parametrize(
        "n, factors",
        [
            ((10**9 + 7) * (10**9 + 9), [(10**9 + 7, 1), (10**9 + 9, 1)]),
            ((10**9 + 7) ** 2, [(10**9 + 7, 2)]),
            (2**61 - 1, [(2**61 - 1, 1)]),
            (561, [(3, 1), (11, 1), (17, 1)]),
            (41041, [(7, 1), (11, 1), (13, 1), (41, 1)]),
            (3215031751, [(151, 1), (751, 1), (28351, 1)]),
            (999983**5, [(999983, 5)]),
            # above the deterministic Miller-Rabin bound, but composite
            (1000003 * (10**9 + 7) * (2**61 - 1), [(1000003, 1), (10**9 + 7, 1), (2**61 - 1, 1)]),
        ],
    )
    def test_pinned(self, n, factors):
        assert [(irr.value, e) for irr, e in factor_integer(n).factors] == factors

    # Runs under hypothesis's default deadline: trial division takes seconds
    # on most of these, Pollard-Brent rho at most tens of milliseconds.
    @given(
        st.lists(st.integers(10**3, 10**9).map(next_prime), min_size=1, max_size=2),
        st.integers(0, 1000),
    )
    def test_round_trip_at_1e18_scale(self, primes, offset):
        n = math.prod(primes)
        n *= next_prime(10**18 // n + offset)
        f = factor_integer(n)
        values = [irr.value for irr in f.irreducibles()]
        assert values == sorted(set(values))
        assert f.value() == n
        assert all(is_prime(v) for v in values)

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2015)
        cases = [rng.randrange(10 ** (k - 1), 10**k) for k in range(2, 19) for _ in range(12)]
        cases += [next_prime(rng.randrange(10**8, 10**9)) * next_prime(rng.randrange(10**9)) for _ in range(8)]
        for n in cases:
            assert {irr.value: e for irr, e in factor_integer(n).factors} == sympy.factorint(n), n

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            factor_integer(1)
        with pytest.raises(ValueError):
            factor_integer(0)
        with pytest.raises(TypeError):
            factor_integer(2.0)


class TestFpPoly:
    def test_canonical_trim_and_reduce(self):
        assert FpPoly(3, (4, 0, 3)) == FpPoly(3, (1,))
        assert FpPoly(2, ()).degree == -1
        assert FpPoly(5, (0, 0, 0)).is_zero

    def test_ring_axioms_exhaustive_f2_deg2(self):
        polys = [FpPoly(2, (a, b, c)) for a in range(2) for b in range(2) for c in range(2)]
        for f in polys:
            for g in polys:
                assert f + g == g + f
                assert f * g == g * f
                for h in polys:
                    assert (f + g) * h == f * h + g * h

    def test_divmod_reconstructs(self):
        for p in (2, 3, 5):
            polys = []
            for d in range(3):
                polys.extend(monic_polys(p, d))
            for f in polys:
                for g in polys:
                    q, r = divmod(f, g)
                    assert q * g + r == f
                    assert r.degree < g.degree

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(FpPoly(2, (1,)), FpPoly(2, ()))

    def test_nonprime_characteristic_rejected(self):
        with pytest.raises(ValueError):
            FpPoly(4, (1,))

    def test_mixed_characteristic_rejected(self):
        with pytest.raises(ValueError):
            FpPoly(2, (1,)) + FpPoly(3, (1,))

    def test_monic(self):
        f = FpPoly(5, (1, 0, 3))
        m = f.monic()
        assert m.leading == 1
        assert m == FpPoly(5, (2, 0, 1))  # 3 * 2 = 6 = 1 mod 5


class TestPolyGcd:
    def test_matches_common_divisor_search(self):
        # gcd over F_2 for all pairs up to degree 3, against a direct search
        p = 2
        polys = []
        for d in range(4):
            polys.extend(monic_polys(p, d))
        for f in polys:
            for g in polys:
                got = poly_gcd(f, g)
                best = None
                for d in range(max(f.degree, g.degree), -1, -1):
                    for cand in monic_polys(p, d):
                        if (f % cand).is_zero and (g % cand).is_zero:
                            best = cand
                            break
                    if best is not None:
                        break
                assert got == best

    def test_zero_cases(self):
        z = FpPoly(3, ())
        f = FpPoly(3, (1, 2))
        assert poly_gcd(z, z).is_zero
        assert poly_gcd(f, z) == f.monic()


def trial_division_factors(f):
    """(coefficients, exponent) of each monic irreducible factor of f, found
    by dividing by every monic polynomial of degree up to half of what is
    left; a divisor of least degree is irreducible."""
    rest, out, d = f.monic(), [], 1
    while 2 * d <= rest.degree:
        for cand in monic_polys(f.p, d):
            e = 0
            while (rest % cand).is_zero:
                rest, e = rest // cand, e + 1
            if e:
                out.append((cand.coeffs, e))
        d += 1
    if rest.degree > 0:
        out.append((rest.coeffs, 1))
    return sorted(out, key=lambda ce: (len(ce[0]), ce[0]))


def factor_pairs(fact):
    return [(irr.value.coeffs, e) for irr, e in fact.factors]


def product(polys, p):
    out = FpPoly(p, (1,))
    for g in polys:
        out = out * g
    return out


# Irreducible factors up to these degrees keep recheck's trial division,
# which tries about p^(degree/2) divisors, cheap.
_MAX_FACTOR_DEGREE = {2: 12, 3: 8, 5: 6, 7: 4, 13: 4}


@st.composite
def polys_with_repeated_factors(draw):
    """unit * prod g_i^e_i over F_p, of degree 1 to 12, with random g_i."""
    p = draw(st.sampled_from(sorted(_MAX_FACTOR_DEGREE)))
    f = FpPoly(p, (draw(st.integers(1, p - 1)),))
    for _ in range(draw(st.integers(1, 6))):
        room = 12 - f.degree
        if room == 0:
            break
        max_degree = min(_MAX_FACTOR_DEGREE[p], room)
        lower = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=max_degree))
        g = FpPoly(p, (*lower, 1))
        e = draw(st.integers(1, 3))
        f = f * product([g] * min(e, room // g.degree), p)
    return f


class TestFactorPolynomial:
    @pytest.mark.parametrize("p,max_degree", [(2, 7), (3, 4), (5, 3), (7, 3)])
    def test_matches_trial_division_exhaustively(self, p, max_degree):
        for deg in range(1, max_degree + 1):
            for f in monic_polys(p, deg):
                expected = trial_division_factors(f)
                for unit in range(1, p):
                    fact = factor_polynomial(f * unit)
                    assert (fact.unit, factor_pairs(fact)) == (unit, expected), (f, unit)

    @given(polys_with_repeated_factors())
    def test_factors_are_canonical_and_irreducible(self, f):
        fact = factor_polynomial(f)
        assert fact.value() == f
        irrs = fact.irreducibles()
        assert all(irr.value.is_monic() for irr in irrs)
        keys = [irr.sort_key() for irr in irrs]
        assert keys == sorted(set(keys))
        assert all(irr.recheck() for irr in irrs)

    def test_trace_split_over_f2(self):
        # both factors have degree 4, so only the equal-degree split (by the
        # trace map, since p = 2) can separate them
        f, g = parse_poly_pretty("x^4+x^3+1", 2), parse_poly_pretty("x^4+x+1", 2)
        assert factor_pairs(factor_polynomial(f * g)) == [(f.coeffs, 1), (g.coeffs, 1)]

    def test_odd_characteristic_split(self):
        # two irreducible quadratics over F_3, split by a^((3^2 - 1) / 2) - 1
        f, g = parse_poly_pretty("x^2+1", 3), parse_poly_pretty("x^2+x+2", 3)
        assert factor_pairs(factor_polynomial(f * g)) == [(f.coeffs, 1), (g.coeffs, 1)]

    def test_pth_power(self):
        # (x^2+1)^3 has derivative 0 over F_3: its cube root is taken
        f = parse_poly_pretty("x^2+1", 3)
        assert factor_pairs(factor_polynomial(f * f * f)) == [(f.coeffs, 3)]

    def test_mixed_multiplicities(self):
        # x^3 (x+1)^2 over F_2
        fact = factor_polynomial(parse_poly_pretty("x^5+x^3", 2))
        assert factor_pairs(fact) == [((0, 1), 3), ((1, 1), 2)]

    @pytest.mark.parametrize(
        "factors",
        [
            ["x^128+x^7+x^2+x+1"],
            ["x+1", "x^63+x+1", "x^64+x^4+x^3+x+1"],
        ],
    )
    def test_degree_128_over_f2_is_fast(self, factors):
        # trial division would try more than 2^63 divisors
        irrs = [parse_poly_pretty(g, 2) for g in factors]
        f = product(irrs, 2)
        assert f.degree == 128
        start = time.perf_counter()
        fact = factor_polynomial(f)
        assert time.perf_counter() - start < 2
        assert factor_pairs(fact) == [(g.coeffs, 1) for g in irrs]

    def test_round_trip_nonmonic(self):
        f = FpPoly(5, (2, 0, 3))  # 3x^2 + 2
        fact = factor_polynomial(f)
        assert fact.unit == 3
        assert fact.value() == f

    def test_x_squared_plus_x_over_f2(self):
        # x^2 + x = x * (x + 1)
        fact = factor_polynomial(FpPoly(2, (0, 1, 1)))
        assert [(irr.value.coeffs, e) for irr, e in fact.factors] == [
            ((0, 1), 1),
            ((1, 1), 1),
        ]

    def test_x_squared_plus_one_over_f3(self):
        # no roots in F_3: 0^2+1=1, 1^2+1=2, 2^2+1=2; degree 2, so irreducible
        f = FpPoly(3, (1, 0, 1))
        assert all((f % FpPoly(3, (-r, 1))).coeffs for r in range(3))
        fact = factor_polynomial(f)
        assert len(fact.factors) == 1
        assert fact.factors[0] == (Irreducible(f), 1)

    def test_cube_of_x(self):
        fact = factor_polynomial(FpPoly(2, (0, 0, 0, 1)))
        assert [(irr.value.coeffs, e) for irr, e in fact.factors] == [((0, 1), 3)]

    def test_coefficient_sequence_input(self):
        fact = factor_polynomial((0, 1, 1), p=2)
        assert fact.value() == FpPoly(2, (0, 1, 1))

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            factor_polynomial(FpPoly(2, (1,)))
        with pytest.raises(ValueError):
            factor_polynomial(FpPoly(2, ()))


class TestMultiplicityVector:
    def test_against_gcd_dense(self):
        # for every n <= 300 and every nonzero a < n, the gcd theorem route:
        # prod(p_i ** min(k_i, s_i)) == gcd(a, n)
        for n in range(2, 301):
            fact = factor_integer(n)
            s = fact.exponents()
            for a in range(1, n):
                k = multiplicity_vector(a, fact)
                clipped = gcd_exponents(k, s)
                assert fact.divisor(clipped) == math.gcd(a, n), (a, n)

    def test_large_fixture(self):
        fact = factor_integer(2**10 * 3**4 * 7)
        assert multiplicity_vector(2**3 * 3**9 * 5, fact) == (3, 9, 0)

    def test_polynomial_case(self):
        # x^2 + x against x^3 over F_2: exponent of x is 1
        fact = factor_polynomial(FpPoly(2, (0, 0, 0, 1)))
        assert multiplicity_vector(FpPoly(2, (0, 1, 1)), fact) == (1,)

    def test_polynomial_dense_gcd_agreement(self):
        # same gcd agreement check as the integer case, over F_2 mod x^2(x+1)
        n = FpPoly(2, (0, 1)) * FpPoly(2, (0, 1)) * FpPoly(2, (1, 1))
        fact = factor_polynomial(n)
        s = fact.exponents()
        residues = [FpPoly(2, bits) for bits in __import__("itertools").product(range(2), repeat=3)]
        for a in residues:
            if a.is_zero:
                continue
            k = multiplicity_vector(a, fact)
            clipped = gcd_exponents(k, s)
            assert fact.divisor(clipped) == poly_gcd(a, n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            multiplicity_vector(0, factor_integer(12))
        with pytest.raises(ValueError):
            multiplicity_vector(FpPoly(2, ()), factor_polynomial(FpPoly(2, (0, 0, 1))))


class TestGcdExponents:
    def test_componentwise_min(self):
        assert gcd_exponents((3, 0, 2), (2, 1, 5)) == (2, 0, 2)

    def test_spec_of_lengths(self):
        with pytest.raises(ValueError):
            gcd_exponents((1,), (1, 2))
        with pytest.raises(ValueError):
            gcd_exponents((-1,), (1,))


class TestSerialization:
    def test_compact_round_trip_exhaustive_f3_deg2(self):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    f = FpPoly(3, (a, b, c))
                    assert parse_poly_compact(format_poly_compact(f)) == f

    def test_compact_zero(self):
        assert format_poly_compact(FpPoly(7, ())) == "0@7"
        assert parse_poly_compact("0@7").is_zero

    def test_compact_rejects_garbage(self):
        for bad in ("1,2", "@3", "1,2@", "1;2@3", "3@3"):
            with pytest.raises(ValueError):
                parse_poly_compact(bad)

    def test_pretty_examples(self):
        assert format_poly_pretty(FpPoly(3, (1, 2, 1))) == "x^2+2*x+1"
        assert format_poly_pretty(FpPoly(2, (0, 1))) == "x"
        assert format_poly_pretty(FpPoly(5, (3,))) == "3"
        assert format_poly_pretty(FpPoly(2, ())) == "0"

    def test_pretty_round_trip_exhaustive_f2_deg3(self):
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for d in range(2):
                        f = FpPoly(2, (a, b, c, d))
                        assert parse_poly_pretty(format_poly_pretty(f), 2) == f

    @given(st.data(), st.sampled_from((2, 3, 5, 7, 13, 10**9 + 7)))
    def test_round_trips(self, data, p):
        f = FpPoly(p, tuple(data.draw(st.lists(st.integers(0, p - 1), max_size=12))))
        assert parse_poly_pretty(format_poly_pretty(f), p) == f
        assert parse_poly_compact(format_poly_compact(f)) == f

    def test_pretty_parse_tolerates_spaces(self):
        assert parse_poly_pretty("x^2 + 2*x + 1", 3) == FpPoly(3, (1, 2, 1))

    def test_pretty_parse_rejects_garbage(self):
        for bad in ("x^", "y+1", "x**2", ""):
            with pytest.raises(ValueError):
                parse_poly_pretty(bad, 2)

    def test_pretty_parse_reads_x_only(self):
        with pytest.raises(ValueError, match="unknown variable 'y' in 'y\\^2\\+1'"):
            parse_poly_pretty("y^2+1", 2)


class TestFactorizationValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Factorization("int", 1, ((Irreducible(3), 1), (Irreducible(2), 1)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Factorization("int", 1, ((Irreducible(2), 1), (Irreducible(2), 1)))

    def test_rejects_bad_unit(self):
        with pytest.raises(ValueError):
            Factorization("int", 2, ((Irreducible(2), 1),))

    def test_irreducible_guards(self):
        with pytest.raises(ValueError):
            Irreducible(1)
        with pytest.raises(ValueError):
            Irreducible(FpPoly(2, (0, 2)))  # reduces to zero
        with pytest.raises(ValueError):
            Irreducible(FpPoly(3, (1, 2)))  # not monic
