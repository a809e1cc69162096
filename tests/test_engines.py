"""The character-transform engine against direct evaluation.

_sizes_wht counts hyperplane sections through additive character
transforms of the affine charts of PG(1), ..., PG(r); _sizes_direct
evaluates every hyperplane on every point.  They must agree element
for element on any point set, not only on the varieties.
"""

import tracemalloc
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhcodes.variety as variety_mod
from qhcodes.budget import BudgetError
from qhcodes.geom import num_points, pg_space
from qhcodes.gf import field_for_order
from qhcodes.variety import (_limbs, _radix_p_transform, _scaled_tables,
                             _sizes_direct, _sizes_wht, _transform_limit,
                             _transform_modulus, _transform_range, _widest_radix,
                             build_variety, hyperplane_section_sizes,
                             hyperplane_spectrum, predicted_spectrum)

# (Q, r) with PG(r, Q) small enough for the direct engine
SPACES = [(2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
          (5, 2), (5, 3), (7, 1), (7, 2), (8, 2), (9, 1), (9, 2), (16, 2),
          (25, 2), (49, 2)]
BLOCKS = [5, 7, 36, 1 << 16]


def _prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _both_engines(ctx, space, indices):
    """Sizes from both engines, and the (p, bound, M, zeta) of every
    modulus the transform chose."""
    moduli = []

    def spy(p, bound):
        M, zeta = _transform_modulus(p, bound)
        moduli.append((p, bound, M, zeta))
        return M, zeta
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variety_mod, "_transform_modulus", spy)
        wht = _sizes_wht(ctx, space, indices)
    direct = _sizes_direct(ctx, space, indices)
    return wht, direct, moduli


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPACES), st.sampled_from(BLOCKS), st.data())
def test_transform_equals_direct_on_random_point_sets(qr, block, data):
    Q, r = qr
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    chosen = sorted(data.draw(st.sets(st.integers(0, space.n_points - 1))))
    # small pass blocks split and offset both the lead and trail axes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variety_mod, "SUBSPACE_BLOCK", block)
        wht, direct, moduli = _both_engines(ctx, space, np.array(chosen, dtype=np.int64))
    assert np.array_equal(wht, direct)
    if ctx.p == 2:
        assert moduli == []
    else:
        [(p, bound, M, zeta)] = moduli
        assert p == ctx.p and bound == (Q - 1) * len(chosen)
        assert _prime(M) and M % p == 1 and M > 2 * (Q - 1) * len(chosen)
        assert zeta != 1 and pow(zeta, p, M) == 1


def _structured_sets(space):
    """Indices of point sets that empty or fill whole charts: none, all,
    X_0 = 0 (PG(r-1) at infinity), X_0 = 1 (the affine chart A_r), and
    the last point of each chart PG(k), one per level k = 0 .. r."""
    pts = space.rows(np.arange(space.n_points))
    Q, r = space.ctx.order, space.r
    last = np.array([num_points(k, Q) - 1 for k in range(r + 1)])
    return {"empty": last[:0], "all": np.arange(space.n_points),
            "infinity": np.flatnonzero(pts[:, 0] == 0),
            "affine": np.flatnonzero(pts[:, 0] == 1), "one-per-level": last}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("Q, r", [(3, 3), (4, 3), (2, 4), (9, 2)])
def test_transform_equals_direct_on_structured_sets(Q, r, block):
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variety_mod, "SUBSPACE_BLOCK", block)
        for name, indices in _structured_sets(space).items():
            wht, direct, moduli = _both_engines(ctx, space, indices)
            assert np.array_equal(wht, direct), name
            assert len(moduli) == (ctx.p > 2), name


VARIETIES = [
    ("twisted", 3, 3), ("quasi-hermitian", 3, 3), ("hermitian", 3, 3),
    ("cone", 3, 3), ("twisted-infinity", 3, 3), ("twisted", 4, 3),
    ("quasi-hermitian", 4, 3), ("hermitian", 2, 3), ("hermitian", 2, 4),
]


@pytest.mark.parametrize("kind, q, r", VARIETIES)
def test_transform_equals_direct_on_varieties(kind, q, r):
    v = build_variety(kind, q, r)
    wht, direct, _ = _both_engines(v.ctx, v.space, v.indices)
    assert np.array_equal(wht, direct)


@pytest.mark.parametrize("kind, q, r", VARIETIES)
def test_section_sizes_hold_their_products_exactly(kind, q, r):
    # cutting_blocking_check multiplies the sizes by Q - 1 in their own
    # dtype, and surgery_check subtracts them: a signed dtype that holds
    # (Q - 1) n, from the transform and from its reference
    v = build_variety(kind, q, r)
    wht = hyperplane_section_sizes(v)
    direct = _sizes_direct(v.ctx, v.space, v.indices)
    for sizes in (wht, direct):
        assert np.issubdtype(sizes.dtype, np.signedinteger)
        assert np.iinfo(sizes.dtype).max >= (v.ctx.order - 1) * v.n
    assert wht.dtype == np.int32


@pytest.mark.parametrize("indices", [[5, 2], [2, 2, 5]])
def test_transform_refuses_indices_out_of_order(indices):
    # a chart is a range of the index array only when it is strictly increasing
    ctx = field_for_order(3)
    with pytest.raises(AssertionError, match="strictly increasing"):
        _sizes_wht(ctx, pg_space(ctx, 2), np.array(indices))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(0, 2 ** 26))
def test_transform_modulus(p, bound):
    M, zeta = _transform_modulus(p, bound)
    assert _prime(M) and M % p == 1 and M > 2 * bound
    assert zeta != 1 and pow(zeta, p, M) == 1
    # least such prime
    assert not any(_prime(c) for c in range(M - p, 2 * bound, -p))


@pytest.mark.parametrize("kind, q, r", [("hermitian", 7, 3), ("twisted", 5, 3)])
def test_a_cold_spectrum_searches_its_modulus_once(kind, q, r, monkeypatch):
    """The range check before the transform and the transform itself
    need the same modulus: a cold spectrum tests the same candidates for
    primality as one search, once each."""
    v = build_variety(kind, q, r)
    calls, is_prime = [], variety_mod._is_prime
    monkeypatch.setattr(variety_mod, "_is_prime", lambda n: calls.append(n) or is_prime(n))
    _transform_modulus.cache_clear()
    _transform_modulus(v.ctx.p, (v.ctx.order - 1) * v.n)
    search, calls[:] = list(calls), []
    _transform_modulus.cache_clear()
    hyperplane_spectrum(v)
    assert search and calls == search


@pytest.mark.parametrize("q", [16, 31, 61])
def test_auto_engine_is_the_transform(q, monkeypatch):
    # Hermitian curves, q + 1 of the q^2 + 1 points of PG(1, q^2): a
    # spectrum runs the transform, never direct evaluation
    calls = []

    def spy(*args):
        calls.append(args)
        return _sizes_direct(*args)
    monkeypatch.setattr(variety_mod, "_sizes_direct", spy)
    v = build_variety("hermitian", q, 1)
    auto = hyperplane_spectrum(v)
    assert auto.engine == "wht" and calls == []
    direct = _sizes_direct(v.ctx, v.space, v.indices)
    assert auto.counts == variety_mod.size_counts(direct)


def test_auto_engine_matches_the_prediction_at_hermitian_9_3():
    # a transform of the whole cone would hold 81^4, 43 million entries;
    # the largest chart holds 81^3
    sp = hyperplane_spectrum(build_variety("hermitian", 9, 3))
    assert sp.engine == "wht"
    assert sp.counts == predicted_spectrum(9, 3, "hermitian").counts


def _sizes_from_one_coordinate_tables(v):
    """|H meet v| for every hyperplane H = a . X of PG(r, Q), in canonical
    order, for a twisted or quasi-Hermitian v, from the tables (0, h, L)
    of its affine equation sum h(x_i) + L(x_r) = 0 and the points of
    S_inf, v's points with X_0 = X_r = 0 read in PG(r-2, Q).

    With a_r != 0 the affine points of H solve sum (h - L(b_i .))(x_i) =
    L(b_0), b = a / a_r; h - L(b .) takes h's values shifted by -kappa(b),
    so there are D[L(b_0) + sum kappa(b_i)] of them, D the (r-1)-fold
    convolution of h's histogram, and H meets the cone at infinity in
    n_inf points, one on each line through P0.  With a_r = 0, H is X_0 =
    0, holding 1 + Q n_inf points, or meets v in q^(2r-3) affine points,
    P0 and Q points on each line through P0 over a' meet S_inf, a' =
    (a_1 .. a_(r-1)), whose sizes _sizes_direct counts in PG(r-2, Q)."""
    ctx, r, Q, q = v.ctx, v.r, v.ctx.order, v.base_order
    elems = np.arange(Q)
    add = ctx.vadd(elems[:, None], elems)
    _, h, lin = variety_mod._twisted_affine(v.params)
    hist = np.bincount(h, minlength=Q)
    kappa = np.empty(Q, dtype=np.int64)
    for b in range(Q):
        shifted = np.bincount(ctx.vadd(h, ctx.vneg(lin[ctx.scalar_mul_row(b)])), minlength=Q)
        # column c of hist[add] is t -> hist[t + c]
        [shifts] = np.nonzero(np.all(hist[add] == shifted[:, None], axis=0))
        assert shifts.size, f"no shift turns h - L({b} x)'s histogram into h's"
        kappa[b] = shifts[0]
    conv = hist
    for _ in range(r - 2):
        nxt = np.zeros(Q, dtype=np.int64)
        np.add.at(nxt, add, conv[:, None] * hist)
        conv = nxt
    base = pg_space(ctx, r - 2)
    pts = v.space.rows(v.indices)
    s_inf = base.index_array(pts[(pts[:, 0] == 0) & (pts[:, r] == 0), 1:r])
    meet = _sizes_direct(ctx, base, s_inf)
    hyps = v.space.rows(np.arange(v.space.n_points))
    sizes = np.empty(len(hyps), dtype=np.int64)
    on = np.flatnonzero(hyps[:, r])
    b = ctx.vmul(hyps[on, :r], ctx.exp[-ctx.log[hyps[on, r]] % (Q - 1)][:, None])
    key = lin[b[:, 0]]
    for i in range(1, r):
        key = ctx.vadd(key, kappa[b[:, i]])
    sizes[on] = len(s_inf) + conv[key]
    off = np.flatnonzero(hyps[:, r] == 0)
    rest = hyps[off, 1:r]
    x0 = ~rest.any(axis=1)
    assert hyps[off[x0]].tolist() == [[1] + [0] * r]
    sizes[off[x0]] = 1 + Q * len(s_inf)
    rest = rest[~x0]
    lead = rest[np.arange(len(rest)), np.argmax(rest != 0, axis=1)]
    rest = ctx.vmul(rest, ctx.exp[-ctx.log[lead] % (Q - 1)][:, None])
    sizes[off[~x0]] = q ** (2 * r - 3) + 1 + Q * meet[base.index_array(rest)]
    return sizes


@pytest.mark.parametrize("kind, q, r", [("twisted", 5, 3), ("twisted", 8, 3), ("twisted", 4, 4),
                                        ("twisted", 5, 4), ("quasi-hermitian", 5, 3),
                                        ("quasi-hermitian", 7, 3)])
def test_transform_equals_one_coordinate_tables_per_hyperplane(kind, q, r):
    """Every hyperplane's size, not only the histogram the moment checks
    see, is the sum of one-coordinate tables predicted_spectrum's
    decomposition gives."""
    v = build_variety(kind, q, r)
    assert np.array_equal(_sizes_from_one_coordinate_tables(v), hyperplane_section_sizes(v))


@pytest.mark.parametrize("Q, r", SPACES)
def test_hyperplane_count_bounds_every_transform_array(Q, r, monkeypatch):
    # the "scanning theta_r hyperplanes" check is the transform's only meter
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    sizes = []

    def spy(f, *args, **kwargs):
        sizes.append(f.size)
        return _radix_p_transform(f, *args, **kwargs)
    monkeypatch.setattr(variety_mod, "_radix_p_transform", spy)
    _sizes_wht(ctx, space, np.arange(space.n_points))
    # per level, the chart and at least one block of hyperplanes
    assert len(sizes) >= 2 * r
    assert max(sizes) < space.n_points


def _radix_p_by_digits(f, p, M, zeta, rows=1):
    """The transform one digit per pass in every characteristic, for
    odd p as an int64 contraction: the reference for the two-digit
    passes of p = 2 and the float64 passes of odd p."""
    if p > 2:
        w = np.array([[pow(zeta, i * j, M) for j in range(p)]
                      for i in range(p)], dtype=np.int64)
    lead, trail = rows, f.size // (rows * p)
    while trail >= 1:
        view = f.reshape(lead, p, trail)
        tstep = min(trail, max(1, variety_mod.SUBSPACE_BLOCK // p))
        lstep = max(1, variety_mod.SUBSPACE_BLOCK // (p * tstep))
        for l0 in range(0, lead, lstep):
            for t0 in range(0, trail, tstep):
                blk = view[l0:l0 + lstep, :, t0:t0 + tstep]
                if p == 2:
                    x = blk[:, 0].copy()
                    np.add(x, blk[:, 1], out=blk[:, 0])
                    np.subtract(x, blk[:, 1], out=blk[:, 1])
                else:
                    y = w @ blk.astype(np.int64)
                    np.remainder(y, M, out=y)
                    blk[...] = y
        lead, trail = lead * p, trail // p


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("p, digits", [(2, 1), (2, 2), (2, 5), (2, 8), (3, 1), (3, 4)])
def test_transform_passes_equal_the_one_digit_reference(p, digits, cols, block,
                                                        monkeypatch):
    # odd and even digit counts: p = 2 ends on a one-digit pass when odd;
    # each column of f is one row of the reference's transposed copy
    monkeypatch.setattr(variety_mod, "SUBSPACE_BLOCK", block)
    M, zeta = (0, 0) if p == 2 else _transform_modulus(p, 1000 * p ** digits)
    rng = np.random.default_rng(digits * 10 + cols)
    f = rng.integers(-1000 if p == 2 else 0, 1000, size=(p ** digits, cols),
                     dtype=np.int32)
    ref = f.T.copy()
    _radix_p_by_digits(ref, p, M, zeta, rows=cols)
    _radix_p_transform(f, p, M, zeta, cols=cols)
    assert np.array_equal(f, ref.T)


def _moduli(p):
    """(M, zeta) for odd p: a modulus of one limb, the first prime
    M = 1 (mod p) that needs two limbs at the widest radix of p's
    passes, and the largest that _transform_limit(p) admits."""
    radix, limit = _widest_radix(p), _transform_limit(p)
    lo, hi = 1, limit
    while lo < hi:   # the largest modulus of one limb
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if _limbs(mid, radix)[0] == 1 else (lo, mid - 1)
    top = limit - (limit - 1) % p
    while not _prime(top):
        top -= p
    return [_transform_modulus(p, 10 ** 5), _transform_modulus(p, (lo + 1) // 2),
            _transform_modulus(p, (top - 1) // 2)]


MODULI = {p: _moduli(p) for p in (3, 5, 7, 11, 61)}


def test_moduli_span_one_and_two_limbs():
    for p, moduli in MODULI.items():
        radix, limit = _widest_radix(p), _transform_limit(p)
        (M1, _), (M2, _), (M3, _) = moduli
        below = M2 - p   # the prime modulus before M2
        while not _prime(below):
            below -= p
        assert [_limbs(M, radix)[0] for M in (M1, below, M2, M3)] == [1, 1, 2, 2]
        assert M3 <= limit and not any(_prime(c) for c in range(M3 + p, limit + 1, p))


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("which", range(3))
@pytest.mark.parametrize("p, digits", [(3, 5), (5, 3), (7, 3), (11, 2), (61, 2)])
def test_odd_passes_equal_the_int64_reference(p, digits, which, cols, block, monkeypatch):
    # two-digit passes and a last one-digit pass (p = 3, 5, 7), blocks
    # that split both axes, and moduli of one limb, of two just past
    # the edge, and at the range's limit, whose residues fill 31 bits
    monkeypatch.setattr(variety_mod, "SUBSPACE_BLOCK", block)
    M, zeta = MODULI[p][which]
    rng = np.random.default_rng(which * 100 + p)
    f = rng.integers(0, M, size=(p ** digits, cols), dtype=np.int32)
    ref = f.T.copy()
    _radix_p_by_digits(ref, p, M, zeta, rows=cols)
    _radix_p_transform(f, p, M, zeta, cols=cols)
    assert np.array_equal(f, ref.T)


@pytest.mark.parametrize("p, which", [(3, 1), (3, 2), (7, 0), (7, 2), (61, 1)])
def test_odd_passes_fix_a_quotient_one_high(p, which):
    # where 1.0 / M rounds up, y (1/M) may round up past y / M when M
    # divides y: a transform that is 0 mod M at half its entries, taken
    # from the inverse transform (zeta^-1 and a factor p^-2), meets
    # such y in its last pass
    M, zeta = MODULI[p][which]
    assert Fraction(1.0 / M) > Fraction(1, M)
    rng = np.random.default_rng(p)
    want = rng.integers(0, M, size=(p ** 2, 3600 // p ** 2 + 1))
    want[rng.random(want.shape) < 0.5] = 0
    f = want.T.copy()
    _radix_p_by_digits(f, p, M, pow(zeta, -1, M), rows=f.shape[0])
    f = np.ascontiguousarray((f * pow(p, -2, M) % M).T, dtype=np.int32)
    _radix_p_transform(f, p, M, zeta, cols=f.shape[1])
    assert np.array_equal(f, want)


@pytest.mark.parametrize("p, digits", [(3, 5), (7, 3)])
def test_odd_passes_take_any_number_of_limbs(p, digits, monkeypatch):
    # more limbs than a modulus needs stay exact: three run Horner's
    # middle step, which no modulus in the range reaches
    M, zeta = MODULI[p][1]
    rng = np.random.default_rng(p)
    f = rng.integers(0, M, size=p ** digits, dtype=np.int32)
    want = f.copy()
    _radix_p_by_digits(want, p, M, zeta)
    for limbs in (2, 3, 4):
        monkeypatch.setattr(variety_mod, "_limbs",
                            lambda M, radix: (limbs, -(-M.bit_length() // limbs)))
        g = f.copy()
        _radix_p_transform(g, p, M, zeta)
        assert np.array_equal(g, want), limbs


@pytest.mark.parametrize("which", [0, 2])
@pytest.mark.parametrize("block", [1 << 12, 1 << 16])
def test_odd_transform_widens_a_block_at_a_time(which, block, monkeypatch):
    # an int32 chart of 7^6 entries: the float64 rows the passes widen
    # it into hold at most 4 x SUBSPACE_BLOCK entries, never the chart's
    # 7^6 (0.9 MB in float64)
    monkeypatch.setattr(variety_mod, "SUBSPACE_BLOCK", block)
    M, zeta = MODULI[7][which]
    f = np.random.default_rng(which).integers(0, M, size=7 ** 6, dtype=np.int32)
    _radix_p_transform(f[:49].copy(), 7, M, zeta)
    tracemalloc.start()
    try:
        _radix_p_transform(f, 7, M, zeta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * block + (1 << 14)


def _trace_digits(ctx):
    """trd[e] = sum_b Tr(e x^b) p^b, through the field's scalar trace."""
    return np.array([sum(ctx.trace_to_prime(ctx.mul(e, ctx.p ** b)) * ctx.p ** b
                         for b in range(ctx.m)) for e in range(ctx.order)])


@pytest.mark.parametrize("Q", [2, 3, 4, 8, 9, 16, 25, 49, 64])
def test_scaled_tables_equal_their_definition(Q):
    ctx = field_for_order(Q)
    trd = _trace_digits(ctx)
    elems = np.arange(Q)
    # r = 1 is the one level, r = 2 builds its last chart from level 1's,
    # r = 4 holds two levels; the last level has theta_(r-1) columns, so
    # r = 4 stops at Q = 16
    for r in [r for r in (1, 2, 3, 4) if Q ** (r - 1) <= 64 ** 2]:
        pts = pg_space(ctx, r - 1).rows(np.arange(num_points(r - 1, Q)))
        # one hyperplane per block, blocks of part of a run of x or of a
        # few runs, and one block per level
        for block in (1, 100, 1 << 16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(variety_mod, "SUBSPACE_BLOCK", block)
                # a block is read before the next is asked for
                levels = [[b.copy() for b in blocks] for blocks in _scaled_tables(ctx, trd, r)]
            # of at most `block` entries, or of one hyperplane
            assert all(1 <= b.shape[2] <= max(1, block // Q) for bs in levels for b in bs)
            levels = [np.concatenate(bs, axis=2) for bs in levels]
            assert len(levels) == r
            for k, (idx, key) in enumerate(levels, 1):
                idx, key = idx.T, key.T
                # the hyperplanes of PG(k-1): its first theta_(k-1) rows
                hyp = pts[:num_points(k - 1, Q), r - k:]
                want_key = np.zeros((len(hyp), Q), dtype=np.int64)
                want_idx = np.zeros((len(hyp), Q), dtype=np.int64)
                for i in range(k):
                    cu = ctx.vmul(hyp[:, i, None], elems)
                    want_key += cu * Q ** (k - 1 - i)
                    want_idx += trd[cu] * Q ** (k - 1 - i)
                assert np.array_equal(key, want_key) and np.array_equal(idx, want_idx)
                # c u over c != 0 and the hyperplanes: each nonzero vector once
                assert np.array_equal(np.sort(key[:, 1:], axis=None), np.arange(1, Q ** k))


@pytest.mark.parametrize("Q, r", SPACES + [(64, 2), (3721, 1), (64, 3), (16, 4)])
def test_transform_peak_memory_is_a_multiple_of_the_hyperplane_count(Q, r):
    # 32 bytes per hyperplane, past a fixed 16 KiB of small objects: the
    # int32 sizes and the chart take 8, and the last level's tables and
    # transform run in blocks of hyperplanes.  At r = 1 the one level is one row of
    # Q ~ theta_1 entries, which no block splits, so the field's rows and
    # an odd-p contraction of that row keep the former 24 words; a Q x Q
    # table at PG(1, 3721) alone would take 110 MB
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    every = np.arange(space.n_points)
    _sizes_wht(ctx, space, every)   # the cached character matrices
    tracemalloc.start()
    try:
        _sizes_wht(ctx, space, every)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (32 if r > 1 else 24 * 8) * space.n_points + (1 << 14)


def test_transform_range():
    # p = 2 bounds q n itself, and returns no modulus; q = 1 reaches the
    # odd edge 2^31 - 1, which no power of two times n equals
    assert _transform_limit(2) == 2 ** 31 - 1
    assert _transform_range(2, 1, 2 ** 31 - 1) == (0, 0)
    for q, n in ((1, 2 ** 31), (2, 2 ** 30), (64, 2 ** 25)):
        with pytest.raises(BudgetError, match=f"sums up to {2 ** 31}"):
            _transform_range(2, q, n)
    # odd p bounds (q - 1) n, which q = 2 makes n, and returns the
    # transform's own modulus
    for p in (3, 5, 61):
        L = _transform_limit(p)
        assert L < 2 ** 31 and p * L * L < 2 ** 63
        assert _transform_range(p, 2, 10 ** 6) == _transform_modulus(p, 10 ** 6)
        with pytest.raises(BudgetError, match=f"beyond the transform's exact range of {L}"):
            _transform_range(p, 2, L // 2 + 1)


def _stand_in(Q, r, n):
    """A variety of n points of PG(r, Q) that holds no point."""
    return SimpleNamespace(ctx=field_for_order(Q), r=r, n=n,
                           space=SimpleNamespace(n_points=num_points(r, Q)),
                           indices=None, _hyp_sizes=None)


@pytest.mark.parametrize("Q, r", [(64, 5), (27, 6)])
def test_transform_range_refuses_before_allocating(Q, r, monkeypatch):
    # a stand-in for 2^26 points, whose character sums outgrow int32
    # (p = 2) or the int64 products modulo M (odd p); such a set, like
    # hermitian(89,2) with (Q-1) n about 5.6 10^9, gets no spectrum
    v = _stand_in(Q, r, 2 ** 26)

    def spy(*args):
        raise AssertionError("the transform must not start")
    monkeypatch.setattr(variety_mod, "_sizes_wht", spy)
    with pytest.raises(BudgetError, match="character transform with sums"):
        hyperplane_section_sizes(v, budget=2 ** 40)


def test_transform_range_for_p2_bounds_q_times_n(monkeypatch):
    # p = 2 carries the second transform's partial sums, up to Q n, in
    # int32: at Q = 64, n = 2^25 has 63 n < 2^31 <= 64 n and is refused,
    # and one point fewer starts the transform
    calls = []
    monkeypatch.setattr(variety_mod, "_sizes_wht",
                        lambda *args: calls.append(args) or np.zeros(1, np.int32))
    with pytest.raises(BudgetError, match="sums up to 2147483648"):
        hyperplane_section_sizes(_stand_in(64, 5, 2 ** 25), budget=2 ** 40)
    assert calls == []
    hyperplane_section_sizes(_stand_in(64, 5, 2 ** 25 - 1), budget=2 ** 40)
    assert len(calls) == 1
