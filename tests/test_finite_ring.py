"""Oracle behavior pinned against direct, loop-based arithmetic written here.

The in-test oracles below recompute annihilators and products with plain
Python loops so the vectorized implementation has something independent to
answer to.
"""

import functools
import io
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from zdgraph.arithmetic import FpPoly
from zdgraph.cli import run
from zdgraph.conjectures import default_instances
from zdgraph.finite_ring import (
    ENUMERATION_LIMIT,
    BivariateMonomialQuotient,
    GrammarError,
    IntegersMod,
    PolyQuotient,
    QuotientRing,
    RingTooLarge,
    add_elements,
    annihilator,
    count_regular_elements,
    element_label,
    enumerate_elements,
    format_monomial,
    format_ring_spec,
    full_zero_divisor_graph,
    ideal_is_union,
    ideal_members,
    mul_elements,
    oracle_compressed_graph,
    parse_element,
    parse_monomial,
    parse_ring_spec,
    quotient_by_ideal,
    ring_size,
    ring_table,
    standard_monomials,
    zero_divisor_classes,
)
from zdgraph.finite_ring import _row_reduce

F2XY = BivariateMonomialQuotient(2, ((2, 0), (0, 2)))


def naive_int_annihilator(n, r):
    return [x for x in range(n) if (r * x) % n == 0]


def bivar_naive_mul(spec, u, v):
    # dict-of-monomials product, reducing monomials inside the ideal to zero
    monos = standard_monomials(spec)
    acc = {}
    for m1, c1 in zip(monos, u):
        for m2, c2 in zip(monos, v):
            if c1 and c2:
                m = (m1[0] + m2[0], m1[1] + m2[1])
                if any(m[0] >= ga and m[1] >= gb for ga, gb in spec.generators):
                    continue
                acc[m] = (acc.get(m, 0) + c1 * c2) % spec.p
    return tuple(acc.get(m, 0) for m in monos)


class TestEnumeration:
    def test_integers_mod_six(self):
        assert enumerate_elements(IntegersMod(6)) == [0, 1, 2, 3, 4, 5]

    def test_poly_quotient_f2_x2(self):
        spec = PolyQuotient(2, FpPoly(2, (0, 0, 1)))
        assert enumerate_elements(spec) == [
            FpPoly(2, ()),
            FpPoly(2, (1,)),
            FpPoly(2, (0, 1)),
            FpPoly(2, (1, 1)),
        ]

    def test_bivariate_x2_y(self):
        spec = BivariateMonomialQuotient(2, ((2, 0), (0, 1)))
        assert standard_monomials(spec) == ((0, 0), (1, 0))
        labels = [element_label(spec, x) for x in enumerate_elements(spec)]
        assert labels == ["0", "1", "x", "x+1"]

    def test_starts_with_zero_and_one(self):
        for spec in (IntegersMod(9), PolyQuotient(3, FpPoly(3, (1, 0, 1))), F2XY):
            elems = enumerate_elements(spec)
            zero, one = elems[0], elems[1]
            for x in elems:
                assert add_elements(spec, zero, x) == x
                assert mul_elements(spec, one, x) == x
                assert mul_elements(spec, zero, x) == zero

    def test_size_bound(self):
        with pytest.raises(RingTooLarge):
            enumerate_elements(PolyQuotient(2, FpPoly(2, (0,) * 21 + (1,))))
        assert ENUMERATION_LIMIT == 10**6


class TestMultiplication:
    def test_integers_exhaustive(self):
        for n in (2, 6, 8, 12, 17):
            spec = IntegersMod(n)
            for a in range(n):
                for b in range(n):
                    assert mul_elements(spec, a, b) == (a * b) % n
                    assert add_elements(spec, a, b) == (a + b) % n

    def test_poly_exhaustive(self):
        f = FpPoly(3, (0, 0, 1))  # x^2 over F_3
        spec = PolyQuotient(3, f)
        elems = enumerate_elements(spec)
        for a in elems:
            for b in elems:
                assert mul_elements(spec, a, b) == (a * b) % f
                assert add_elements(spec, a, b) == a + b

    def test_bivariate_exhaustive(self):
        elems = enumerate_elements(F2XY)
        for u in elems:
            for v in elems:
                assert mul_elements(F2XY, u, v) == bivar_naive_mul(F2XY, u, v)

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1])
    def test_integer_rows_at_the_narrow_dtype_boundary(self, n):
        # up to n = 2^16 the rows are computed in uint32, above it in int64
        rows = [0, 1, 2, n // 2 + 1, n - 2, n - 1]
        got = ring_table(IntegersMod(n)).model.mul_rows(rows)
        for row, a in zip(got.tolist(), rows):
            assert row == [(a * x) % n for x in range(n)], a

    @given(st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_column_blocks_are_full_rows_restricted(self, data):
        spec = data.draw(
            st.sampled_from(
                [IntegersMod(2**16 - 1), IntegersMod(2**16), IntegersMod(2**16 + 1)]
                + [quotient_by_ideal(F2XY, [parse_element(F2XY, "x*y")])]
                + [quotient_by_ideal(IntegersMod(48), [12])]
            )
            | poly_quotients()
            | bivariate_quotients()
        )
        model = ring_table(spec).model
        index = st.integers(0, model.size - 1)
        rows = data.draw(st.lists(index, max_size=6))
        cols = data.draw(st.lists(index, max_size=40))
        for op in (model.mul_rows, model.add_rows):
            block = op(rows, cols)
            assert block.shape == (len(rows), len(cols))
            assert block.tolist() == op(rows)[:, cols].tolist()

    def test_largest_narrow_product(self):
        # (2^16 - 1)^2 = 2^32 - 2^17 + 1 is the largest uint32 product formed
        assert mul_elements(IntegersMod(2**16), 2**16 - 1, 2**16 - 1) == 1

    def test_largest_wide_product(self):
        # above 2^16 rows multiply in int64, exact while (n-1)^2 < 2^63; a
        # larger Z/n is refused rather than given wrapped products
        assert mul_elements(IntegersMod(3037000500), 3037000499, 3037000499) == 1
        for n in (3037000501, 10**10):
            with pytest.raises(RingTooLarge, match=f"^ring has {n} elements, above 3037000500: "):
                mul_elements(IntegersMod(n), n // 2 + 1, n // 2 + 1)

    def test_quotient_ring_matches_plain_modulus(self):
        q = quotient_by_ideal(IntegersMod(48), [12])
        assert ring_size(q) == 12
        assert enumerate_elements(q) == list(range(12))
        for a in range(12):
            for b in range(12):
                assert mul_elements(q, a, b) == (a * b) % 12


class TestAnnihilator:
    def test_z8_examples(self):
        spec = IntegersMod(8)
        assert annihilator(spec, 2) == [0, 4]
        assert annihilator(spec, 4) == [0, 2, 4, 6]
        assert annihilator(spec, 0) == list(range(8))

    def test_size_bound(self):
        # the scan is one row of the table, n residues, so it is bounded as
        # enumeration is
        assert annihilator(IntegersMod(ENUMERATION_LIMIT), 2) == [0, ENUMERATION_LIMIT // 2]
        with pytest.raises(RingTooLarge, match=f"^ring has {ENUMERATION_LIMIT + 1} elements, above {ENUMERATION_LIMIT}$"):
            annihilator(IntegersMod(ENUMERATION_LIMIT + 1), 2)

    def test_matches_naive_dense(self):
        for n in range(2, 40):
            spec = IntegersMod(n)
            for r in range(n):
                assert annihilator(spec, r) == naive_int_annihilator(n, r), (n, r)

    def test_units_annihilate_nothing(self):
        spec = IntegersMod(9)
        for u in (1, 2, 4, 5, 7, 8):
            assert annihilator(spec, u) == [0]


class TestZeroDivisorClasses:
    def test_z8(self):
        classes = zero_divisor_classes(IntegersMod(8))
        assert [(c.representative, c.members, c.size) for c in classes] == [
            (2, (2, 6), 2),
            (4, (4,), 1),
        ]
        assert [c.is_self_annihilating for c in classes] == [False, True]
        assert classes[0].annihilator == (0, 4)
        assert classes[1].annihilator == (0, 2, 4, 6)

    def test_z12(self):
        classes = zero_divisor_classes(IntegersMod(12))
        assert [(c.representative, c.members) for c in classes] == [
            (2, (2, 10)),
            (3, (3, 9)),
            (4, (4, 8)),
            (6, (6,)),
        ]
        assert [c.size for c in classes] == [2, 2, 2, 1]
        assert [c.is_self_annihilating for c in classes] == [False, False, False, True]

    def test_field_has_none(self):
        assert zero_divisor_classes(IntegersMod(7)) == []

    def test_members_share_annihilator(self):
        for n in (8, 12, 16, 30, 36):
            spec = IntegersMod(n)
            for c in zero_divisor_classes(spec):
                for m in c.members:
                    assert annihilator(spec, m) == list(c.annihilator), (n, m)

    def test_sizes_sum_to_zero_divisor_count(self):
        for n in range(2, 80):
            spec = IntegersMod(n)
            zd = [
                r
                for r in range(1, n)
                if any((r * x) % n == 0 for x in range(1, n))
            ]
            assert sum(c.size for c in zero_divisor_classes(spec)) == len(zd), n

    def test_class_products_well_defined(self):
        # r's' = 0 iff rs = 0, over all class pairs and members
        for spec in (IntegersMod(12), IntegersMod(16), PolyQuotient(2, FpPoly(2, (0, 0, 0, 1))), F2XY):
            classes = zero_divisor_classes(spec)
            for c1 in classes:
                for c2 in classes:
                    outcomes = {
                        mul_elements(spec, a, b) == enumerate_elements(spec)[0]
                        for a in c1.members
                        for b in c2.members
                    }
                    assert len(outcomes) == 1, (spec, c1.representative, c2.representative)

    def test_nonzerodivisor_multiples_keep_class(self):
        # [nz] = [z] for every unit n
        for n in (12, 16, 27, 30):
            spec = IntegersMod(n)
            zds = {m for c in zero_divisor_classes(spec) for m in c.members}
            units = [u for u in range(1, n) if all((u * x) % n for x in range(1, n))]
            for z in zds:
                for u in units:
                    assert annihilator(spec, (u * z) % n) == annihilator(spec, z)


def reference_scan(model):
    """Group the elements of a model by the zero pattern of their full
    multiplication-table row, by first appearance: class ids, (first,
    members, ann_count, mask) per group, and the ids of the nonzero
    zero-divisor groups."""
    n = model.size
    block = max(1, 2**16 // n)
    class_ids, groups, gid_of = [], [], {}
    for start in range(0, n, block):
        zero = model.mul_rows(np.arange(start, min(start + block, n))) == 0
        for offset, row in enumerate(zero):
            mask = np.packbits(row).tobytes()
            if mask not in gid_of:
                gid_of[mask] = len(groups)
                groups.append((start + offset, [], int(row.sum()), mask))
            groups[gid_of[mask]][1].append(start + offset)
            class_ids.append(gid_of[mask])
    zd_gids = tuple(gid for gid, g in enumerate(groups) if g[2] >= 2 and g[0] != 0)
    return class_ids, groups, zd_gids


def assert_scan_matches_reference(spec):
    scan = ring_table(spec).scan
    class_ids, groups, zd_gids = reference_scan(ring_table(spec).model)
    assert scan.class_ids.tolist() == class_ids
    assert [(g.first, g.members.tolist(), g.ann_count, g.mask) for g in scan.groups] == groups
    assert scan.zd_gids == zd_gids


@st.composite
def poly_quotients(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    degree = draw(st.integers(1, {2: 11, 3: 7, 5: 4, 7: 3}[p]))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    return PolyQuotient(p, FpPoly(p, tuple(tail) + (1,)))


@st.composite
def bivariate_quotients(draw):
    # a staircase: column a of the standard monomials holds y^0..y^(h_a - 1)
    p = draw(st.sampled_from((2, 3)))
    cap = {2: 11, 3: 7}[p]
    heights = sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)), reverse=True)
    while sum(heights) > cap:
        heights.pop()
    gens = {(len(heights), 0), (0, heights[0])}
    gens |= {(a, heights[a]) for a in range(1, len(heights)) if heights[a] < heights[a - 1]}
    return BivariateMonomialQuotient(p, tuple(gens))


class TestRingTable:
    def test_scans_match_reference(self):
        specs = [IntegersMod(n) for n in range(2, 201)]
        specs.append(PolyQuotient(2, FpPoly(2, (0,) * 10 + (1,))))
        specs.append(quotient_by_ideal(F2XY, [parse_element(F2XY, "x*y")]))
        for spec in specs:
            assert_scan_matches_reference(spec)

    def test_cached_scans_are_read_only(self):
        scan = ring_table(IntegersMod(12)).scan
        assert ring_table(IntegersMod(12)).scan is scan
        for array in (scan.class_ids, scan.groups[1].members):
            with pytest.raises(ValueError):
                array[0] = 5

    def test_small_budget_keeps_verify_output(self, fresh_tables):
        fresh_tables()
        roomy = io.StringIO()
        assert run(["verify", "--max-n", "60"], out=roomy) == 0
        cache = fresh_tables(budget=20000)
        tight = io.StringIO()
        assert run(["verify", "--max-n", "60"], out=tight) == 0
        assert tight.getvalue() == roomy.getvalue()
        assert 0 < max(cache.charged_after) <= 20000
        assert 0 < len(cache.tables) < 10

    def test_table_above_the_budget_stays_uncached(self, fresh_tables):
        cache = fresh_tables(budget=1)
        table = ring_table(IntegersMod(12))
        assert table.nbytes > 1
        assert count_regular_elements(IntegersMod(12)) == 5
        assert (cache.tables, cache.charged) == ({}, 0)


class TestLinearScan:
    """The F_p-algebra scan keys elements by linear algebra; it must give the
    same groups as grouping full multiplication-table rows."""

    @given(st.one_of(poly_quotients(), bivariate_quotients()))
    @example(BivariateMonomialQuotient(2, ((3, 0), (2, 1), (0, 3))))
    @example(PolyQuotient(3, FpPoly(3, (0,) * 7 + (1,))))
    # above p = 7, where one key serves the p - 1 nonzero multiples of an element
    @example(parse_ring_spec("F13[x]/(x^3+8*x^2+4*x+5)"))
    @example(parse_ring_spec("F29[x]/(x^2+12*x+7)"))
    @example(parse_ring_spec("F101[x]/(x^2)"))
    @example(parse_ring_spec("F5[x]/(x^4+x^2)"))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_zero_pattern_grouping(self, spec):
        # drawn rings have at most 3^7 elements, the examples up to 101^2
        assert ring_size(spec) <= 101**2
        assert_scan_matches_reference(spec)

    def test_quotient_window_matches_zero_pattern_grouping(self):
        base = BivariateMonomialQuotient(2, ((3, 0), (2, 1), (0, 3)))
        q = quotient_by_ideal(base, [parse_element(base, "x*y")])
        assert ring_size(q) == 32
        assert_scan_matches_reference(q)


def reference_row_reduce(a, p, inverse):
    """Reference for _row_reduce with the batch on the first axis: each
    matrix a[b], with at least as many rows as columns, to reduced row
    echelon form over F_p in place, one matrix row at a time; returns the
    ranks."""
    batch, rows, cols = a.shape
    every = np.arange(batch)
    row_pos = np.arange(rows)
    rank = np.zeros(batch, dtype=np.intp)
    for c in range(cols):
        free = (a[:, :, c] != 0) & (row_pos >= rank[:, None])
        pivot = free.argmax(axis=1)
        has = free[every, pivot]
        m = every[has]
        top = a[m, rank[m]]
        a[m, rank[m]] = a[m, pivot[m]]
        a[m, pivot[m]] = top
        lead = a[every, rank] * inverse[a[every, rank, c]][:, None] % p
        factor = p - a[:, :, c]
        factor[every, rank] = p
        a[:, :, c:] += factor[:, :, None] * lead[:, None, c:]
        a[:, :, c:] %= p
        a[m, rank[m]] = lead[m]
        rank += has
    return rank


@st.composite
def matrix_batches(draw):
    """(p, a batch of matrices, batch first): square or m*k x k, with many
    zero entries so that ranks fall short, and some matrices all zero."""
    p = draw(st.sampled_from((2, 3, 5, 13, 29, 4099)))
    cols = draw(st.integers(1, 6))
    rows = cols * draw(st.integers(1, 3))
    batch = draw(st.integers(1, 12))
    entry = st.sampled_from((0, 0, 0, 1, p - 1)) | st.integers(0, p - 1)
    a = np.array(draw(st.lists(entry, min_size=batch * rows * cols, max_size=batch * rows * cols)))
    a = a.reshape(batch, rows, cols)
    a[np.array(draw(st.lists(st.booleans(), min_size=batch, max_size=batch)))] = 0
    return p, a


class TestRowReduce:
    """The batch-last elimination must give the same reduced matrices and
    ranks as the batch-first reference."""

    @given(matrix_batches())
    @example((2, np.zeros((1, 3, 3), dtype=np.int64)))
    @example((4099, np.array([[[0, 4098], [0, 2], [1, 0], [0, 0]]])))
    @example((3, np.array([[[1, 2], [2, 1]], [[0, 0], [0, 0]], [[0, 1], [1, 0]]])))
    @settings(max_examples=200, deadline=None)
    def test_matches_batch_first_reference(self, batch):
        p, a = batch
        dtype = np.min_scalar_type(p * p - 1)
        inverse = np.array([pow(v, -1, p) if v else 0 for v in range(p)], dtype=dtype)
        expected = a.astype(dtype)
        expected_rank = reference_row_reduce(expected, p, inverse)
        got = a.transpose(1, 2, 0).astype(dtype, order="C")
        rank = _row_reduce(got, p, inverse)
        assert rank.tolist() == expected_rank.tolist()
        assert np.array_equal(got.transpose(2, 0, 1), expected)


def reference_matrices(model, rows):
    """L[r,i,t] = sum_j r_j*M[i,j,t] mod p, in int64."""
    p, k = model.p, model.k
    digits = (np.asarray(rows, dtype=np.int64)[:, None] // p ** np.arange(k)) % p
    return np.tensordot(digits, model.M.astype(np.int64), axes=([1], [1])) % p


def reference_products(spec, rows, cols):
    """rows x cols as element indices, in int64; cols=None means every element."""
    if isinstance(spec, QuotientRing):
        # the coset of each product of coset representatives in the base
        ref = reference_quotient(spec)
        reps = ref.reps
        block = reference_products(spec.base, reps[rows], reps if cols is None else reps[cols])
        return ref.coset_id[block]
    model = ring_table(spec).model
    p, k = model.p, model.k
    cols = np.arange(model.size) if cols is None else np.asarray(cols, dtype=np.int64)
    radix = p ** np.arange(k, dtype=np.int64)
    digits = (cols[:, None] // radix) % p
    return (np.matmul(digits, reference_matrices(model, rows)) % p) @ radix


class ReferenceQuotient:
    """A quotient ring by coset lookup.  The ideal is the sum of the
    generators' principal ideals, each one row of the base's table; each
    coset is found by adding its least member to the ideal, and a product
    or sum of cosets is the coset of the base's product or sum of their
    least members."""

    def __init__(self, spec):
        base = ring_table(spec.base).model
        parts = [np.unique(base.mul_rows([g])[0]) for g in spec.ideal_gen_indices]
        ideal = parts[0] if parts else np.zeros(1, dtype=np.int64)
        for part in parts[1:]:
            members = np.zeros(base.size, dtype=bool)
            for start in range(0, len(part), 64):
                members[base.add_rows(part[start : start + 64], ideal)] = True
            ideal = np.flatnonzero(members)
        coset_id = np.full(base.size, -1, dtype=np.int64)
        reps = []
        for x in range(base.size):
            if coset_id[x] < 0:
                coset_id[base.add_rows([x], ideal)[0]] = len(reps)
                reps.append(x)
        self.spec, self.base = spec, base
        self.reps, self.coset_id, self.size = np.asarray(reps, dtype=np.int64), coset_id, len(reps)

    def _reps(self, idx):
        return self.reps if idx is None else self.reps[np.asarray(idx, dtype=np.int64)]

    def mul_rows(self, rows, cols=None):
        return self.coset_id[self.base.mul_rows(self._reps(rows), self._reps(cols))]

    def add_rows(self, rows, cols=None):
        return self.coset_id[self.base.add_rows(self._reps(rows), self._reps(cols))]

    def element(self, i):
        return self.base.element(int(self.reps[i]))

    def format(self):
        base = self.spec.base
        gens = ",".join(element_label(base, self.base.element(i)) for i in self.spec.ideal_gen_indices)
        return f"{format_ring_spec(base)} mod ({gens})"


@functools.lru_cache(maxsize=128)
def reference_quotient(spec):
    return ReferenceQuotient(spec)


@st.composite
def vector_quotients(draw):
    """A proper quotient of an F_p-algebra by the ideal of one to three
    non-units."""
    base = draw(st.one_of(poly_quotients(), bivariate_quotients()))
    scan = ring_table(base).scan
    # a unit, which annihilates only 0, would generate the whole ring
    nonunits = [int(i) for g in scan.groups if g.ann_count > 1 for i in g.members]
    gens = draw(st.lists(st.sampled_from(nonunits), min_size=1, max_size=3))
    spec = QuotientRing(base, tuple(gens))
    # non-units of a ring that is not local can still generate all of it
    assume(reference_quotient(spec).size > 1)
    return spec


@st.composite
def integer_windows(draw):
    """Z/n modulo the ideal of one to three residues, maybe the whole ring."""
    n = draw(st.integers(2, 400))
    gens = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    return QuotientRing(IntegersMod(n), tuple(gens))


def default_windows():
    """Every window of the default conjecture 2-4 scans (conjecture 3 scans
    conjecture 2's)."""
    sides = list(default_instances(2))
    sides += [side for a1, g1, a2, g2 in default_instances(4) for side in ((a1, g1), (a2, g2))]
    windows = []
    for ambient, gens in sides:
        model = ring_table(ambient).model
        window = QuotientRing(ambient, tuple(model.index(g) for g in gens))
        if window not in windows:
            windows.append(window)
    return windows


def with_default_windows(test):
    for window in default_windows():
        test = example(window)(test)
    return test


class TestQuotientModel:
    """Every quotient is built as a model of its base's kind; it must index,
    multiply, add, scan and print exactly as coset lookup does."""

    @given(st.one_of(vector_quotients(), integer_windows()))
    @with_default_windows
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_coset_lookup(self, spec):
        ref = reference_quotient(spec)
        if ref.size == 1:
            with pytest.raises(ValueError, match="^ideal is the whole ring; "):
                ring_table(spec)
            return
        model, base = ring_table(spec).model, ring_table(spec.base).model
        assert model.size == ref.size
        assert [model.element(i) for i in range(model.size)] == [ref.element(i) for i in range(ref.size)]
        assert [model.index(base.element(i)) for i in range(base.size)] == ref.coset_id.tolist()
        for start in range(0, model.size, 256):
            rows = np.arange(start, min(start + 256, model.size))
            assert np.array_equal(model.mul_rows(rows), ref.mul_rows(rows))
            assert np.array_equal(model.add_rows(rows), ref.add_rows(rows))
        scan = ring_table(spec).scan
        class_ids, groups, zd_gids = reference_scan(ref)
        assert scan.class_ids.tolist() == class_ids
        assert [(g.first, g.members.tolist(), g.ann_count, g.mask) for g in scan.groups] == groups
        assert scan.zd_gids == zd_gids
        assert format_ring_spec(spec) == ref.format()


class TestVectorKernel:
    """F_p-algebras multiply in floating point; every product must equal
    the int64 formula above."""

    @given(st.one_of(poly_quotients(), bivariate_quotients(), vector_quotients()), st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_products_match_int64_reference(self, spec, data):
        model = ring_table(spec).model
        index = st.integers(0, model.size - 1)
        rows = np.asarray(data.draw(st.lists(index, max_size=8)), dtype=np.int64)
        cols = np.asarray(data.draw(st.lists(index, max_size=60)), dtype=np.int64)
        for r, c in ((rows, cols), (rows, None), (rows[:0], cols), (rows, cols[:0])):
            got = model.mul_rows(r, c)
            assert got.dtype == np.int64
            assert np.array_equal(got, reference_products(spec, r, c))
        if hasattr(model, "mul_matrices"):
            for r in (rows, rows[:0]):
                assert np.array_equal(model.mul_matrices(r), reference_matrices(model, r))

    @pytest.mark.parametrize("p", [2039, 2053, 4099])
    def test_fields_either_side_of_the_float32_bound(self, p):
        # a field F_p[x]/(x+1) forms products up to (p-1)^2: 2038^2 is just
        # below 2^22, where float32 stops, 2052^2 just above it, and 4098^2
        # above 2^24, where float32 no longer holds every product
        spec = PolyQuotient(p, FpPoly(p, (1, 1)))
        model = ring_table(spec).model
        rows = np.r_[0:40, p - 40 : p]
        assert np.array_equal(model.mul_rows(rows), reference_products(spec, rows, None))
        assert np.array_equal(model.mul_matrices(rows), reference_matrices(model, rows))


class TestAboveScanLimit:
    """A model of a ring above SCAN_LIMIT converts no index, as it runs no
    table operation: int64 powers of p wrap once p^k passes 2^63."""

    @pytest.mark.parametrize("text", ["F2[x]/(x^15)", "F2[x,y]/(x^5,y^3)", "F2[x]/(x^150)"])
    def test_index_conversions_are_refused(self, text):
        spec = parse_ring_spec(text)
        model = ring_table(spec).model
        refusal = f"^table operations need at most 20000 elements, ring has {model.size}$"
        x = parse_element(spec, "x")
        for convert in (
            lambda: model.index(x),
            lambda: model.element(1),
            lambda: model.coeffs_to_index((0,) * model.k),
            lambda: model.index_to_coeffs(1),
            lambda: mul_elements(spec, x, x),
        ):
            with pytest.raises(RingTooLarge, match=refusal):
                convert()

    def test_large_power_is_not_read_as_zero(self):
        # 2^100 wraps to 0 in int64, which read x^100 as the index of 0
        spec = parse_ring_spec("F2[x]/(x^150)")
        with pytest.raises(RingTooLarge):
            ring_table(spec).model.index(parse_element(spec, "x^100"))


class TestBatchLabels:
    """A ring table renders the labels of an index array at once; each must
    be element_label of the element at that index."""

    def test_integers(self):
        for n in range(2, 201):
            ring = ring_table(IntegersMod(n))
            assert ring.labels(np.arange(n)) == [element_label(ring.spec, i) for i in range(n)]

    @given(
        st.one_of(poly_quotients(), bivariate_quotients(), vector_quotients(), integer_windows()),
        st.data(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_element_label(self, spec, data):
        if isinstance(spec, QuotientRing):
            assume(reference_quotient(spec).size > 1)
        ring = ring_table(spec)
        model = ring.model
        expected = [element_label(spec, model.element(i)) for i in range(model.size)]
        assert ring.labels(np.arange(model.size)) == expected
        idx = data.draw(st.lists(st.integers(0, model.size - 1), max_size=20))
        assert ring.labels(idx) == [expected[i] for i in idx]


class TestOracleCompressedGraph:
    def test_z6_looped(self):
        g = oracle_compressed_graph(IntegersMod(6), loops=True)
        assert [v.label for v in g.vertices] == ["2", "3"]
        assert g.edges == ((0, 1),)
        assert g.loop_count == 0

    def test_z8_looped(self):
        g = oracle_compressed_graph(IntegersMod(8), loops=True)
        assert [v.label for v in g.vertices] == ["2", "4"]
        assert g.edges == ((0, 1),)
        assert [v.label for v in g.vertices if v.loop] == ["4"]

    def test_z8_vs_z6_unlooped_same_shape(self):
        g8 = oracle_compressed_graph(IntegersMod(8), loops=False)
        g6 = oracle_compressed_graph(IntegersMod(6), loops=False)
        assert len(g8.vertices) == len(g6.vertices) == 2
        assert g8.edges == g6.edges == ((0, 1),)
        assert g8.loop_count == g6.loop_count == 0

    def test_sizes_recorded(self):
        g = oracle_compressed_graph(IntegersMod(12), loops=True)
        assert {v.label: v.size for v in g.vertices} == {"2": 2, "3": 2, "4": 2, "6": 1}

    def test_field_empty(self):
        g = oracle_compressed_graph(IntegersMod(11), loops=True)
        assert g.vertices == ()
        assert g.edges == ()

    def test_bivariate_x2_y(self):
        spec = BivariateMonomialQuotient(2, ((2, 0), (0, 1)))
        g = oracle_compressed_graph(spec, loops=True)
        assert [v.label for v in g.vertices] == ["x"]
        assert g.vertices[0].loop


class TestFullZeroDivisorGraph:
    def test_z6(self):
        g = full_zero_divisor_graph(IntegersMod(6))
        assert g.labels == ("2", "3", "4")
        assert g.edges == ((0, 1), (1, 2))

    def test_z9(self):
        g = full_zero_divisor_graph(IntegersMod(9))
        assert g.labels == ("3", "6")
        assert g.edges == ((0, 1),)

    def test_field_empty(self):
        assert full_zero_divisor_graph(IntegersMod(5)) == (
            full_zero_divisor_graph(IntegersMod(7))
        )

    def test_matches_naive_dense(self):
        for n in range(2, 40):
            g = full_zero_divisor_graph(IntegersMod(n))
            zds = [r for r in range(1, n) if any((r * x) % n == 0 for x in range(1, n))]
            assert sorted(int(s) for s in g.labels) == zds
            expected = set()
            for a in zds:
                for b in zds:
                    if a < b and (a * b) % n == 0:
                        expected.add((str(a), str(b)))
            got = {
                tuple(sorted((g.labels[i], g.labels[j]), key=int)) for i, j in g.edges
            }
            assert {(a, b) for a, b in got} == expected, n

    def test_size_bound(self):
        with pytest.raises(RingTooLarge):
            full_zero_divisor_graph(IntegersMod(10001))

    def test_product_blocks_memory_is_bounded(self):
        # 511 zero-divisors in 1024 elements with 10 digits each; the blocks
        # of products in flight are sized by rows x columns x digits
        spec = parse_ring_spec("F2[x,y]/(x^5,y^2)")
        ring_table(spec).scan
        tracemalloc.start()
        try:
            g = full_zero_divisor_graph(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(g.labels), len(g.edges)) == (511, 5313)
        assert peak < 16 * 2**20


class TestCountRegularElements:
    def test_examples(self):
        assert count_regular_elements(IntegersMod(8)) == 5
        assert count_regular_elements(IntegersMod(6)) == 3
        assert count_regular_elements(IntegersMod(7)) == 7


class TestIdeals:
    def test_principal_ideal_members(self):
        assert ideal_members(IntegersMod(12), [4]) == [0, 4, 8]
        assert ideal_members(IntegersMod(12), [8]) == [0, 4, 8]
        # no generator gives the zero ideal, a unit the whole ring
        for spec in (IntegersMod(12), F2XY):
            elems = enumerate_elements(spec)
            assert ideal_members(spec, []) == elems[:1]
            assert ideal_members(spec, [parse_element(spec, "1")]) == elems

    def test_two_generators_close_under_addition(self):
        got = ideal_members(F2XY, [parse_element(F2XY, "x"), parse_element(F2XY, "y")])
        labels = [element_label(F2XY, m) for m in got]
        assert labels == ["0", "x", "y", "x+y", "x*y", "x*y+x", "x*y+y", "x*y+x+y"]

    @pytest.mark.parametrize(
        "spec, gens",
        [
            ("Z/48", "12, 8"),
            ("Z/60", "6, 10, 15"),
            ("Z/36", "0, 9"),
            ("F2[x,y]/(x^2,y^2)", "x, y"),
            ("F2[x,y]/(x^3,y^3)", "x^2, x*y, y^2"),
            ("F3[x,y]/(x^2,y^2)", "x+y, x*y"),
            ("F2[x]/(x^4+x^2)", "x^3+x^2, x^2+x"),
            # more generator rows than digits, some of them redundant
            ("F2[x]/(x^6)", "x^3+x^2, x^4"),
            ("F3[x,y]/(x^2,y^3)", "x+2*y^2, x*y, y^2"),
            ("F5[x]/(x^4+x^2)", "x^2, x^3, 2*x^3+3*x^2"),
        ],
    )
    def test_members_are_the_additive_closure(self, spec, gens):
        # reference: every multiple of a generator, then sums of members
        # until no new element appears
        ring = parse_ring_spec(spec)
        gens = [parse_element(ring, g.strip()) for g in gens.split(",")]
        elems = enumerate_elements(ring)
        closure = {mul_elements(ring, r, g) for r in elems for g in gens}
        while True:
            sums = {add_elements(ring, a, b) for a in closure for b in closure}
            if sums <= closure:
                break
            closure |= sums
        assert ideal_members(ring, gens) == [e for e in elems if e in closure]

    @pytest.mark.parametrize(
        "n, gens", [(12, [8]), (360, [84, 150]), (4096, [96, 0]), (19999, [14])]
    )
    def test_integer_ideals_are_multiples_of_the_gcd(self, n, gens):
        g = math.gcd(n, *gens)
        assert ideal_members(IntegersMod(n), gens) == list(range(0, n, g))
        q = quotient_by_ideal(IntegersMod(n), gens)
        assert enumerate_elements(q) == list(range(g))
        for a in (1, g // 2 + 1, g - 1):
            assert mul_elements(q, a, g - 1) == (a * (g - 1)) % g

    def test_closure_memory_is_bounded(self):
        ring_table(IntegersMod(8000))
        tracemalloc.start()
        try:
            members = ideal_members(IntegersMod(8000), [2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert members == list(range(0, 8000, 2))
        assert peak < 64 * 2**20

    def test_union_true_for_principal(self):
        x = parse_element(F2XY, "x")
        assert ideal_is_union(F2XY, [x], [x])
        xy = parse_element(F2XY, "x*y")
        assert ideal_is_union(F2XY, [xy], [xy])

    def test_union_false_for_x_y(self):
        # x+y lies in the ideal (x, y) but in neither principal part
        x = parse_element(F2XY, "x")
        y = parse_element(F2XY, "y")
        assert not ideal_is_union(F2XY, [x, y], [x, y])

    def test_union_with_redundant_candidate(self):
        assert ideal_is_union(IntegersMod(48), [12, 24], [12])

    def test_quotient_rejects_improper_ideal(self):
        with pytest.raises(ValueError):
            ring_size(quotient_by_ideal(IntegersMod(12), [1]))

    def test_quotient_by_unit_fails_when_built(self):
        with pytest.raises(ValueError, match="whole ring"):
            quotient_by_ideal(IntegersMod(20), [7])


class TestQuotientRing:
    def test_z48_mod_12_matches_z12(self):
        q = quotient_by_ideal(IntegersMod(48), [12])
        a = oracle_compressed_graph(q, loops=True)
        b = oracle_compressed_graph(IntegersMod(12), loops=True)
        assert [v.label for v in a.vertices] == [v.label for v in b.vertices]
        assert a.edges == b.edges
        assert [v.loop for v in a.vertices] == [v.loop for v in b.vertices]
        assert [v.size for v in a.vertices] == [v.size for v in b.vertices]

    def test_poly_window_quotient(self):
        # F_2[x]/(x^4) mod (x^2) behaves like F_2[x]/(x^2)
        window = PolyQuotient(2, FpPoly(2, (0, 0, 0, 0, 1)))
        q = quotient_by_ideal(window, [FpPoly(2, (0, 0, 1))])
        direct = PolyQuotient(2, FpPoly(2, (0, 0, 1)))
        a = oracle_compressed_graph(q, loops=True)
        b = oracle_compressed_graph(direct, loops=True)
        assert [v.label for v in a.vertices] == [v.label for v in b.vertices]
        assert a.edges == b.edges

    def test_quotient_by_a_small_ideal_builds_quickly(self):
        # 8192 cosets of two elements each: the window is a vector model on
        # the base's 13 free digits, so it builds and scans like F2[x]/(x^13)
        window = PolyQuotient(2, FpPoly(2, (0,) * 14 + (1,)))
        start = time.perf_counter()
        q = quotient_by_ideal(window, [FpPoly(2, (0,) * 13 + (1,))])
        regular = count_regular_elements(q)
        elapsed = time.perf_counter() - start
        direct = PolyQuotient(2, FpPoly(2, (0,) * 13 + (1,)))
        assert enumerate_elements(q) == enumerate_elements(direct)
        assert regular == count_regular_elements(direct) == 4097
        assert elapsed < 2

    def test_quotient_blocks_memory_is_bounded(self):
        # 2048 cosets of a ring with 12 digits: a block of products in flight
        # holds rows x cosets x digits entries, in the window's 11 digits
        window = PolyQuotient(2, FpPoly(2, (0,) * 12 + (1,)))
        q = quotient_by_ideal(window, [FpPoly(2, (0,) * 11 + (1,))])
        ring_table(q).model
        tracemalloc.start()
        try:
            regular = count_regular_elements(q)
            g = oracle_compressed_graph(q, loops=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (regular, len(g.vertices)) == (1025, 10)
        assert peak < 16 * 2**20

    def test_no_nested_quotients(self):
        q = quotient_by_ideal(IntegersMod(48), [12])
        with pytest.raises(ValueError):
            QuotientRing(q, (2,))


def ring_specs(max_n=10**6):
    """Z/n up to max_n, F_p[x]/(f) and F_p[x,y] modulo a minimal monomial ideal."""
    return st.one_of(
        st.integers(2, max_n).map(IntegersMod), poly_quotients(), bivariate_quotients()
    )


class TestElementText:
    @given(ring_specs(max_n=256).filter(lambda spec: ring_size(spec) <= 256))
    @example(IntegersMod(12))
    @example(PolyQuotient(2, FpPoly(2, (0, 0, 0, 1))))
    @example(BivariateMonomialQuotient(2, ((3, 0), (0, 3))))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_element_round_trips(self, spec):
        for x in enumerate_elements(spec):
            assert parse_element(spec, element_label(spec, x)) == x

    def test_poly_text_parses(self):
        spec = PolyQuotient(2, FpPoly(2, (0, 0, 0, 1)))
        assert parse_element(spec, "x+1") == FpPoly(2, (1, 1))

    def test_bivar_formatting(self):
        spec = BivariateMonomialQuotient(3, ((2, 0), (0, 2)))
        one_x_xy = parse_element(spec, "2*x*y+x+1")
        assert element_label(spec, one_x_xy) == "2*x*y+x+1"

    def test_bivar_reduces_ideal_monomials(self):
        spec = BivariateMonomialQuotient(2, ((3, 0), (0, 3)))
        assert element_label(spec, parse_element(spec, "x^5")) == "0"
        assert element_label(spec, parse_element(spec, "x^2*y")) == "x^2*y"

    def test_monomial_forms(self):
        assert parse_monomial("x^2*y") == (2, 1)
        assert parse_monomial("y^3") == (0, 3)
        assert format_monomial((2, 1)) == "x^2*y"
        assert format_monomial((0, 1)) == "y"
        with pytest.raises(GrammarError):
            parse_monomial("z^2")


class TestGrammar:
    @given(ring_specs())
    @settings(max_examples=200, deadline=None)
    def test_canonical_round_trips(self, spec):
        assert parse_ring_spec(format_ring_spec(spec)) == spec

    def test_canonical_texts(self):
        for text in ("Z/12", "F2[x]/(x^3)", "F2[x,y]/(x^2,x*y,y^2)", "F3[x]/(x^2+1)"):
            assert format_ring_spec(parse_ring_spec(text)) == text

    def test_spec_variants_parse(self):
        assert parse_ring_spec("Z/8") == IntegersMod(8)
        assert parse_ring_spec("F2[x]/(x^3)") == PolyQuotient(2, FpPoly(2, (0, 0, 0, 1)))
        assert parse_ring_spec("F2[x,y]/(x^2,y^2,x*y)") == BivariateMonomialQuotient(
            2, ((2, 0), (1, 1), (0, 2))
        )

    def test_characteristic_near_1e18_parses(self):
        p = 10**18 + 3
        assert parse_ring_spec(f"F{p}[x]/(x)") == PolyQuotient(p, FpPoly(p, (0, 1)))

    def test_whitespace_tolerated(self):
        assert parse_ring_spec("F2[x, y]/(x^2, y^2)") == BivariateMonomialQuotient(
            2, ((2, 0), (0, 2))
        )

    def test_noncanonical_poly_is_monicized(self):
        spec = parse_ring_spec("F3[x]/(2*x^2+1)")
        assert format_ring_spec(spec) == "F3[x]/(x^2+2)"

    def test_rejects_garbage(self):
        for bad in ("Z/1", "Z/x", "F4[x]/(x^2)", "F2[x]/(1)", "F2[x,y]/(x^2)", "Q/5", ""):
            with pytest.raises(GrammarError):
                parse_ring_spec(bad)

    def test_quotient_format_mentions_base(self):
        q = quotient_by_ideal(IntegersMod(48), [12])
        assert format_ring_spec(q) == "Z/48 mod (12)"
        with pytest.raises(GrammarError):
            parse_ring_spec("Z/48 mod (12)")


class TestSpecValidation:
    def test_bivariate_needs_pure_powers(self):
        with pytest.raises(ValueError):
            BivariateMonomialQuotient(2, ((2, 0), (1, 1)))

    def test_bivariate_rejects_redundant_generator(self):
        with pytest.raises(ValueError):
            BivariateMonomialQuotient(2, ((2, 0), (0, 2), (3, 1)))

    def test_bivariate_rejects_unit_generator(self):
        with pytest.raises(ValueError):
            BivariateMonomialQuotient(2, ((0, 0),))

    def test_scan_size_bound(self):
        with pytest.raises(RingTooLarge):
            zero_divisor_classes(IntegersMod(25000))
