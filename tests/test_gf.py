import tracemalloc

import numpy as np
import pytest

from qhcodes.gf import (ADD_TABLE_MAX_ORDER, CONWAY_POLYNOMIALS, FieldError,
                        FiniteField, SquareTestInEvenCharError,
                        factor_prime_power, field_for_order, make_field)


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(25) == (5, 2)
    assert factor_prime_power(7) == (7, 1)
    with pytest.raises(FieldError):
        factor_prime_power(12)
    with pytest.raises(FieldError):
        factor_prime_power(1)


def test_field_laws_gf9():
    """Full check of the ring axioms on the 9-element field."""
    ctx = make_field(3, 2)
    els = list(range(ctx.order))
    for a in els:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in els:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in els:
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(
                    ctx.mul(a, b), ctx.mul(a, c))


def test_generator_is_primitive():
    for p, m in ((2, 4), (3, 2), (5, 2)):
        ctx = make_field(p, m)
        g = int(ctx.exp[1])
        seen = set()
        x = 1
        for _ in range(ctx.order - 1):
            seen.add(x)
            x = ctx.mul(x, g)
        assert len(seen) == ctx.order - 1


def test_frobenius_fixed_field():
    """x -> x^q fixes exactly the index-2 subfield."""
    for q in (3, 4, 5):
        ctx = field_for_order(q * q)
        fixed = [a for a in range(ctx.order) if ctx.frobenius_q(a) == a]
        assert len(fixed) == q
        assert sorted(fixed) == sorted(ctx.embed_table.tolist())


def test_frobenius_is_additive_and_multiplicative():
    ctx = make_field(3, 2)
    for a in range(ctx.order):
        for b in range(ctx.order):
            assert ctx.frobenius_q(ctx.add(a, b)) == ctx.add(
                ctx.frobenius_q(a), ctx.frobenius_q(b))
            assert ctx.frobenius_q(ctx.mul(a, b)) == ctx.mul(
                ctx.frobenius_q(a), ctx.frobenius_q(b))


def test_trace_norm_land_in_subfield():
    ctx = make_field(2, 4)
    q = ctx.sub_order
    traces = set()
    norms = set()
    for a in range(ctx.order):
        # a + a^q and a a^q lie in GF(q); to_subfield refuses all else
        c = ctx.frobenius_q(a)
        t, n = ctx.to_subfield(ctx.add(a, c)), ctx.to_subfield(ctx.mul(a, c))
        assert 0 <= t < q and 0 <= n < q
        traces.add(t)
        norms.add(n)
    assert traces == set(range(q))      # trace is onto
    assert norms == set(range(q))       # norm is onto with 0 -> 0


def test_subfield_roundtrip():
    ctx = make_field(3, 2)
    sub, up = ctx.subfield, ctx.embed_table
    for e in range(sub.order):
        assert ctx.to_subfield(int(up[e])) == e
    # embedding respects the operations
    for a in range(sub.order):
        for b in range(sub.order):
            assert up[sub.add(a, b)] == ctx.add(int(up[a]), int(up[b]))
            assert up[sub.mul(a, b)] == ctx.mul(int(up[a]), int(up[b]))


def test_square_counts_odd_q():
    ctx = make_field(5, 1)
    squares = [a for a in range(ctx.order) if ctx.is_square(a)]
    assert len(squares) == 1 + (5 - 1) // 2
    even = make_field(2, 2)
    with pytest.raises(SquareTestInEvenCharError):
        even.is_square(3)


def test_absolute_trace_balance():
    """The absolute trace is a balanced map onto GF(p)."""
    ctx = make_field(2, 4)
    hist = {}
    for a in range(ctx.order):
        t = ctx.trace_to_prime(a)
        hist[t] = hist.get(t, 0) + 1
    assert hist == {0: 8, 1: 8}


def test_vectorized_matches_scalar():
    ctx = make_field(3, 2)
    a = np.arange(ctx.order).repeat(ctx.order)
    b = np.tile(np.arange(ctx.order), ctx.order)
    vs = ctx.vadd(a, b)
    vm = ctx.vmul(a, b)
    for x, y, s, m in zip(a, b, vs, vm):
        assert s == ctx.add(int(x), int(y))
        assert m == ctx.mul(int(x), int(y))


def test_vadd_without_a_table_above_the_cutoff():
    """GF(61^2) adds digit by digit: same sums as the scalar add, and no
    order x order table is built."""
    ctx = make_field(61, 2)
    assert ctx.order > ADD_TABLE_MAX_ORDER
    rng = np.random.default_rng(61)
    a = rng.integers(0, ctx.order, size=500)
    b = rng.integers(0, ctx.order, size=500)
    got = ctx.vadd(a, b)
    assert [int(x) for x in got] == [ctx.add(int(x), int(y)) for x, y in zip(a, b)]
    assert ctx.add_flat is None and ctx._add_flat is None


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 2), (31, 2), (61, 2)])
def test_vadd_on_narrow_dtypes(p, m):
    """Sums of uint8/uint16 operands, alone or mixed with int64, equal the
    int64 sums: an index a * order into the table must not wrap.  Each
    sum keeps its operands' dtype."""
    ctx = make_field(p, m)
    narrow = np.min_scalar_type(ctx.order - 1)
    rng = np.random.default_rng(ctx.order)
    a = rng.integers(0, ctx.order, size=2000)
    b = rng.integers(0, ctx.order, size=2000)
    want = ctx.vadd(a, b)
    for x, y in ((a.astype(narrow), b.astype(narrow)), (a.astype(narrow), b),
                 (a, b.astype(narrow))):
        assert np.array_equal(ctx.vadd(x, y), want)
        assert ctx.vadd(x, y).dtype == np.result_type(x, y)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (61, 2)])
def test_vadd_broadcasts_on_every_path(p, m):
    """XOR (characteristic 2), the addition table (GF(9)) and digit by
    digit (GF(61^2)) all broadcast a (1, 3) row against a (2, 3) table,
    whichever operand comes first."""
    ctx = make_field(p, m)
    assert (ctx.add_flat is None) == (p == 61)
    narrow = np.min_scalar_type(ctx.order - 1)
    rng = np.random.default_rng(ctx.order)
    row = rng.integers(0, ctx.order, size=(1, 3)).astype(narrow)
    table = rng.integers(0, ctx.order, size=(2, 3)).astype(narrow)
    want = [[ctx.add(int(x), int(y)) for x, y in zip(row[0], t)] for t in table]
    for got in (ctx.vadd(row, table), ctx.vadd(table, row)):
        assert got.shape == (2, 3) and got.dtype == narrow
        assert got.tolist() == want


def test_pow_row_and_scalar_row():
    ctx = make_field(2, 4)
    row = ctx.pow_row(3)
    for a in range(ctx.order):
        assert row[a] == ctx.pow(a, 3)
    srow = ctx.scalar_mul_row(5)
    for a in range(ctx.order):
        assert srow[a] == ctx.mul(5, a)


def test_rows_are_not_kept():
    # make_field keeps a field for the life of the process, so any row it
    # kept would stay: one of Q int64 per scalar is 106 MiB at GF(61^2)
    ctx = FiniteField(61, 2)
    tracemalloc.start()
    try:
        for c in range(ctx.order):
            ctx.scalar_mul_row(c)
        for k in (2, 61, 62):
            ctx.pow_row(k)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20


def test_missing_table_entry_is_refused():
    with pytest.raises(FieldError):
        FiniteField(2, 21)
    # a supplied modulus does not lift the table's bound on the order
    with pytest.raises(FieldError, match="no modulus table entry for GF\\(37\\^3\\)"):
        FiniteField(37, 3, modulus=(2, 1, 0, 1))


def test_table_orders_are_at_most_2_20():
    assert max(p ** m for p, m in CONWAY_POLYNOMIALS) == 2 ** 20


def test_reducible_modulus_is_refused():
    # (x + 1)^2 = x^2 + 2x + 1 over GF(3) has a repeated root
    with pytest.raises(FieldError):
        FiniteField(3, 2, modulus=(1, 2, 1))


def test_irreducible_but_imprimitive_modulus_is_refused():
    # x^2 + 1 is irreducible over GF(3) but x has order 4, not 8
    with pytest.raises(FieldError):
        FiniteField(3, 2, modulus=(1, 0, 1))


def test_tabulated_moduli_all_construct():
    """Every tabulated field up to order 2^16 builds, with dtype, the one
    statement of an element's dtype, the narrowest unsigned one that
    holds its encodings: uint8 up to order 256, else uint16.  The
    addition table is kept in it."""
    for (p, m) in CONWAY_POLYNOMIALS:
        if p ** m <= 2 ** 16:
            ctx = make_field(p, m)
            assert ctx.order == p ** m
            assert ctx.dtype == np.min_scalar_type(ctx.order - 1), (p, m)
    for p, m in ((2, 8), (3, 2), (31, 2)):
        ctx = make_field(p, m)
        assert ctx.add_flat.dtype == ctx.dtype == (np.uint8 if p ** m <= 256 else np.uint16)


def test_serialize_shape():
    ctx = make_field(3, 2)
    s = ctx.serialize()
    assert s["p"] == 3 and s["m"] == 2
    assert len(s["modulus"]) == 3 and s["modulus"][-1] == 1
