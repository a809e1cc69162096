import tracemalloc
from functools import lru_cache
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest

import qhcodes.geom as geom_mod
import qhcodes.gf as gf_mod
from qhcodes.budget import BudgetError
from qhcodes.geom import (ProjectiveSpace, gaussian_binomial, num_points,
                          pg_space, dot_rows, row_reduce, rref_bases,
                          span_rank, subspace_counts, subspace_points)
from qhcodes.gf import field_for_order, make_field
from qhcodes.variety import build_variety, line_section_sizes


def test_point_counts():
    assert num_points(2, 9) == 91
    assert num_points(3, 9) == 820
    assert num_points(3, 16) == 4369
    assert gaussian_binomial(4, 2, 3) == 130


def all_rows(space):
    return space.rows(np.arange(space.n_points))


def test_space_enumeration_is_canonical():
    """Points are lexicographically sorted leading-one representatives."""
    ctx = make_field(3, 2)
    space = pg_space(ctx, 2)
    pts = all_rows(space)
    assert len(pts) == 91
    # first coordinate block: X0 = 1 comes after the X0 = 0 block of a
    # lex sort on tuples, so just check sortedness and normalization
    as_tuples = [tuple(int(x) for x in row) for row in pts]
    assert as_tuples == sorted(as_tuples)
    for row in as_tuples:
        lead = next(x for x in row if x)
        assert lead == 1
    assert len(set(as_tuples)) == 91


def test_point_lookup_roundtrip():
    ctx = make_field(2, 2)
    space = pg_space(ctx, 3)
    idx = np.array([0, 1, 17, 84])
    assert np.array_equal(space.index_array(space.rows(idx)), idx)
    # a scaled representative is refused, and resolves to the same point
    # once divided by its leading entry
    scaled = ctx.scalar_mul_row(2)[space.rows([10])]
    with pytest.raises(KeyError):
        space.index_array(scaled)
    lead = int(scaled[0][np.flatnonzero(scaled[0])[0]])
    assert space.index_array(ctx.scalar_mul_row(ctx.inv(lead))[scaled]).tolist() == [10]


@pytest.mark.parametrize("Q,r", [(2, 1), (2, 4), (3, 3), (4, 3), (9, 2), (25, 2)])
def test_index_array_matches_a_sorted_search(Q, r):
    """The key table gives what a binary search over the sorted keys
    gives, on every point of PG(r, Q) in shuffled order."""
    space = pg_space(field_for_order(Q), r)
    order = np.random.default_rng(Q * 10 + r).permutation(space.n_points)
    pts = space.rows(order)
    keys = pts @ (Q ** np.arange(r, -1, -1, dtype=np.int64))
    table = space.keys_of(np.arange(space.n_points))
    expect = np.searchsorted(table, keys)
    assert np.array_equal(table[expect], keys)
    assert np.array_equal(space.index_array(pts), expect)
    assert np.array_equal(expect, order)


@pytest.mark.parametrize("Q", [3, 4, 9])
def test_index_array_refuses_rows_that_are_not_points(Q):
    space = pg_space(field_for_order(Q), 3)
    good = space.rows([0, space.n_points - 1])
    bad_rows = {
        "zero row": [0, 0, 0, 0],
        "leading 2, key inside the table": [0, 0, 2, 1],
        "leading 2, key at the table's end": [2, 0, 0, 0],
        # its base-Q key is that of the point (0, 1, 1, 0)
        "entry Q": [0, 1, 0, Q],
        "negative entry": [0, 1, -1, 0],
        "key beyond the table": [Q - 1, Q - 1, 0, 0],
    }
    for what, row in bad_rows.items():
        pts = np.vstack([good, np.array([row], dtype=np.int64)])
        with pytest.raises(KeyError):
            space.index_array(pts)
        with pytest.raises(KeyError):
            space.index_array(np.array([row], dtype=np.int64))


def reference_tables(Q, r):
    """PG(r, Q) as a stored table: the block of points with lead 1 at
    column lead, for lead = r .. 0, their free columns counting up in
    base Q, concatenated; and each point's key, its base-Q value."""
    blocks = []
    for lead in range(r, -1, -1):
        width = r - lead
        count = np.arange(Q ** width, dtype=np.int64)
        block = np.zeros((len(count), r + 1), dtype=np.int64)
        block[:, lead] = 1
        for j in range(width):
            block[:, lead + 1 + j] = count // Q ** (width - 1 - j) % Q
        blocks.append(block)
    points = np.concatenate(blocks, axis=0)
    keys = points @ (Q ** np.arange(r, -1, -1, dtype=np.int64))
    assert bool(np.all(np.diff(keys) > 0))
    return points, keys


ARITHMETIC_SPACES = [(Q, r) for Q in (2, 3, 4, 8, 9, 16, 25, 49, 64, 3721)
                     for r in range(1, 18) if num_points(r, Q) <= 3 * 10 ** 5]


@pytest.mark.parametrize("Q,r", ARITHMETIC_SPACES)
def test_arithmetic_matches_the_stored_tables(Q, r):
    """rows, keys_of and index_array agree with the stored tables on
    every point, in shuffled order."""
    points, keys = reference_tables(Q, r)
    space = ProjectiveSpace(field_for_order(Q), r)
    assert space.n_points == len(points)
    order = np.random.default_rng(Q * 100 + r).permutation(space.n_points)
    assert np.array_equal(space.keys_of(order), keys[order])
    assert np.array_equal(space.rows(order), points[order])
    assert np.array_equal(space.index_array(points[order]), order)


def test_a_space_stores_no_table():
    ctx = field_for_order(49)
    tracemalloc.start()
    try:
        space = ProjectiveSpace(ctx, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.n_points == 5884901
    assert peak < 64 * 1024


@pytest.mark.parametrize("Q,r", [(2, 0), (9, 0), (4, 3), (25, 2), (3, 5)])
def test_starts_are_the_chart_offsets(Q, r):
    # theta_(w-1), where the points with w coordinates after their
    # leading 1 begin, for w = 0 .. r + 1: the last is n_points
    space = ProjectiveSpace(field_for_order(Q), r)
    assert space.starts.tolist() == [num_points(w - 1, Q) for w in range(r + 2)]
    assert space.starts[-1] == space.n_points


def test_dot_rows_matches_scalar():
    ctx = make_field(3, 2)
    space = pg_space(ctx, 2)
    pts = space.rows(np.arange(20))
    h = pts[7]
    acc = dot_rows(ctx, h, pts)
    for j in range(20):
        s = 0
        for a, b in zip(h, pts[j]):
            s = ctx.add(s, ctx.mul(int(a), int(b)))
        assert acc[j] == s


def test_hyperplane_incidence_count():
    """Every hyperplane of PG(2, 4) holds q + 1 = 5 points."""
    ctx = make_field(2, 2)
    pts = all_rows(pg_space(ctx, 2))
    for h in pts:
        acc = dot_rows(ctx, h, pts)
        assert int((acc == 0).sum()) == 5


def test_row_reduce_rank():
    ctx = make_field(3, 2)
    mat = np.array([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    # row 2 = 2 * row 1 in GF(9) encoding terms iff vmul says so; build
    # a dependent row explicitly instead
    dep = np.array([ctx.mul(2, int(x)) for x in mat[0]])
    stacked = np.vstack([mat[0], dep, mat[2]])
    rank, red = row_reduce(ctx, stacked)
    assert rank == 2
    assert len(red) == 2


def test_span_rank_full():
    ctx = make_field(2, 2)
    pts = all_rows(pg_space(ctx, 3))
    assert span_rank(ctx, pts) == 4
    assert span_rank(ctx, pts[:1]) == 1
    assert span_rank(ctx, pts[:0]) == 0


def test_rref_bases_count():
    """Pivot blocks of contiguous row arrays cover each subspace once."""
    ctx = make_field(2, 2)
    total = 0
    for rows in rref_bases(ctx, 2, 2):
        assert len(rows) == 2
        for row in rows:
            assert row.shape == (len(rows[0]), 3) and row.flags.c_contiguous
        total += len(rows[0])
    sets = batched_index_sets(4, 2, 2)
    assert total == len(set(sets)) == gaussian_binomial(3, 2, 4)


def reference_bases(ctx, r, nrows):
    """The per-basis loop: one (nrows, r+1) reduced row echelon matrix
    per subspace, free entries by itertools.product."""
    for pivots in combinations(range(r + 1), nrows):
        free = [(t, c) for t, p in enumerate(pivots)
                for c in range(p + 1, r + 1) if c not in pivots]
        for values in product(range(ctx.order), repeat=len(free)):
            mat = np.zeros((nrows, r + 1), dtype=np.int64)
            for t, p in enumerate(pivots):
                mat[t, p] = 1
            for (t, c), val in zip(free, values):
                mat[t, c] = val
            yield mat


def reference_points(ctx, basis):
    """Normalized points of one reduced basis: each row plus every
    combination of the rows below it."""
    s, q = basis.shape[0], ctx.order
    chunks = []
    for lead in range(s):
        width = s - lead - 1
        coeffs = np.array(list(product(range(q), repeat=width)), dtype=np.int64)
        pts = np.broadcast_to(basis[lead], (len(coeffs), basis.shape[1])).copy()
        for j in range(width):
            scaled = ctx.vmul(coeffs[:, j][:, None], basis[lead + 1 + j][None, :])
            pts = ctx.vadd(pts, scaled)
        chunks.append(pts)
    return np.concatenate(chunks, axis=0)


@lru_cache(maxsize=None)
def reference_index_sets(Q, r, nrows):
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    return [frozenset(space.index_array(reference_points(ctx, b)).tolist())
            for b in reference_bases(ctx, r, nrows)]


def batched_index_sets(Q, r, nrows):
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    out = []
    for rows in rref_bases(ctx, r, nrows):
        idx = np.stack([space.index_array(pts)
                        for pts in subspace_points(ctx, rows)], axis=1)
        out.extend(frozenset(row) for row in idx.tolist())
    return out


SPACES = ((4, 2), (4, 3), (4, 4), (9, 3))


@pytest.mark.parametrize("Q,r,nrows",
                         [(Q, r, s) for Q, r in SPACES for s in range(1, r + 1)])
def test_batched_subspaces_match_reference(Q, r, nrows, monkeypatch):
    # blocks of 7 split and offset every pivot pattern wider than one
    monkeypatch.setattr(geom_mod, "SUBSPACE_BLOCK", 7)
    sets = batched_index_sets(Q, r, nrows)
    assert len(sets) == gaussian_binomial(r + 1, nrows, Q)
    assert all(len(s) == num_points(nrows - 1, Q) for s in sets)
    assert len(set(sets)) == len(sets)
    assert set(sets) == set(reference_index_sets(Q, r, nrows))


@pytest.mark.parametrize("kind,q,r", [("hermitian", 2, 4), ("twisted", 3, 3)])
def test_subspace_section_sizes_match_reference(kind, q, r, monkeypatch):
    monkeypatch.setattr(geom_mod, "SUBSPACE_BLOCK", 7)
    v = build_variety(kind, q, r)
    memb = v.membership()
    for nrows in range(1, r + 1):
        ref = sorted(int(memb[list(s)].sum())
                     for s in reference_index_sets(q * q, r, nrows))
        assert sorted(subspace_counts(v.space, v.indices, nrows).tolist()) == ref


# both characteristics; every odd case has some low-key group of order
# above 8 and one below it; PG(3, 7) and PG(3, 8) copy their line runs
# q-fold at p = 7 and at p = 2 with m = 3
KEY_SPACES = ((4, 3), (4, 4), (16, 2), (9, 3), (25, 2), (3, 4), (7, 3), (8, 3))


@pytest.mark.parametrize("Q,r,nrows",
                         [(Q, r, s) for Q, r in KEY_SPACES for s in range(2, r + 2)])
def test_subspace_keys_match_the_points(Q, r, nrows, monkeypatch):
    """subspace_counts of one point is that point's incidence with the
    subspaces of subspace_points, subspace by subspace, on a seeded
    sample of points that holds the first and last of every chart."""
    monkeypatch.setattr(geom_mod, "SUBSPACE_BLOCK", 7)
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    # idx[s]: the indices of the points of subspace s
    idx = np.concatenate([np.stack([space.index_array(p) for p in subspace_points(ctx, rows)],
                                   axis=1) for rows in rref_bases(ctx, r, nrows)])
    # chart k holds the indices theta_(k-1) .. theta_k - 1
    ends = [num_points(k - 1, Q) for k in range(r + 1)] + \
        [num_points(k, Q) - 1 for k in range(r + 1)]
    rng = np.random.default_rng(Q * 100 + r * 10 + nrows)
    sample = np.union1d(ends, rng.choice(space.n_points, 6, replace=False))
    for i in sample:
        sizes = subspace_counts(space, np.array([i]), nrows)
        assert sizes.dtype == np.min_scalar_type(num_points(nrows - 1, Q))
        assert np.array_equal(sizes, np.count_nonzero(idx == i, axis=1))


def test_line_pass_peaks_below_its_sizes_and_table_of_sums(monkeypatch):
    """Twisted (5,3)'s line pass holds its sizes, the q-fold copies of
    the runs of one pivot choice and lead row, at most Q^4 bytes, and at
    most 1 MiB more: its tables of sums span one column, (25, 25), never
    the (625, 625) of two, and each pattern's rows are counted as they
    are gathered."""
    v = build_variety("twisted", 5, 3)
    ncols, low_adder = [], geom_mod._low_adder

    def spy(add, width):
        ncols.append(width)
        return low_adder(add, width)
    monkeypatch.setattr(geom_mod, "_low_adder", spy)
    tracemalloc.start()
    try:
        sizes = line_section_sizes(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes.nbytes == gaussian_binomial(4, 2, 25) and ncols == [1]
    assert peak < sizes.nbytes + 25 ** 4 + 2 ** 20


def test_plane_lines_are_read_without_copies():
    """Lines of PG(2, 256) are too few to pay for q-fold copies of their
    runs (Q^3 bytes, 256 Q^2): the pass peaks at about 21 Q^2 bytes above
    its sizes, in one chunk's counts and rows and the intp indices that
    take makes of the rows, and stays under 24 Q^2."""
    Q = 256
    space = pg_space(field_for_order(Q), 2)
    chosen = np.flatnonzero(np.random.default_rng(Q).random(space.n_points) < 1 / 3)
    want = reference_section_sizes(SimpleNamespace(ctx=space.ctx, r=2, space=space,
                                                   indices=chosen), 2)
    tracemalloc.start()
    try:
        sizes = subspace_counts(space, chosen, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(sizes, want)
    assert peak < sizes.nbytes + 24 * Q ** 2


def test_one_line_scales_no_digit():
    """PG(1, 3721) is one line, with no free column to scale: counting it
    builds no product table of GF(Q), whose Q^2 entries would take 27 MB
    in uint16."""
    ctx = field_for_order(3721)
    space = pg_space(ctx, 1)
    tracemalloc.start()
    try:
        sizes = subspace_counts(space, np.arange(0, space.n_points, 2), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes.tolist() == [1861]
    assert peak < 2 ** 21


@pytest.mark.parametrize("nrows", [1, 2, 3])
def test_subspace_counts_refuse_before_building(nrows, monkeypatch):
    def built(*args):
        raise AssertionError("built before the budget check")
    monkeypatch.setattr(geom_mod, "_low_adder", built)
    monkeypatch.setattr(ProjectiveSpace, "keys_of", built)
    space = pg_space(field_for_order(9), 3)
    total = gaussian_binomial(4, nrows, 9)
    with pytest.raises(BudgetError, match=rf"enumerating {total} subspaces of PG\(3,9\)"):
        subspace_counts(space, np.arange(10), nrows, budget=total - 1)


def reference_section_sizes(v, nrows):
    """Membership summed over the indices of subspace_points."""
    memb = np.zeros(v.space.n_points, dtype=np.int64)
    memb[v.indices] = 1
    out = []
    for rows in rref_bases(v.ctx, v.r, nrows):
        cnt = np.zeros(len(rows[0]), dtype=np.int64)
        for pts in subspace_points(v.ctx, rows):
            cnt += memb[v.space.index_array(pts)]
        out.append(cnt)
    return np.concatenate(out)


@pytest.mark.parametrize("Q,r,cap", [(Q, r, None) for Q, r in KEY_SPACES]
                         + [(Q, r, 8) for Q, r in KEY_SPACES if Q % 2])
def test_subspace_section_sizes_match_the_index_route(Q, r, cap, monkeypatch):
    """Sizes by key mask equal sizes by point index, on a random third
    of PG(r, Q).  Cap 8 rebuilds the field with its full addition table
    only up to order 8, so that the addition table of larger fields
    comes from vadd's digit-by-digit sums, the route of every field
    above gf.ADD_TABLE_MAX_ORDER.  Every table of sums is broadcast from
    the addition table that vadd gave, and at r >= 3 none spans more
    than r - nrows columns, one fewer than the widest sum."""
    ctx = field_for_order(Q)
    if cap is not None:
        monkeypatch.setattr(gf_mod, "ADD_TABLE_MAX_ORDER", cap)
        ctx = gf_mod.FiniteField(ctx.p, ctx.m)
        assert (ctx.add_flat is None) == (Q > cap)
    sums, tables = [], []
    vadd, low_adder = ctx.vadd, geom_mod._low_adder

    def vadd_spy(a, b):
        sums.append(vadd(a, b))
        return sums[-1]

    def spy(add, ncols):
        assert sums and add is sums[-1]
        tables.append((nrows, ncols))
        return low_adder(add, ncols)
    monkeypatch.setattr(ctx, "vadd", vadd_spy)
    monkeypatch.setattr(geom_mod, "_low_adder", spy)
    monkeypatch.setattr(geom_mod, "SUBSPACE_BLOCK", 7)
    space = pg_space(ctx, r)
    rng = np.random.default_rng(Q * 10 + r)
    chosen = np.flatnonzero(rng.random(space.n_points) < 1 / 3)
    v = SimpleNamespace(ctx=ctx, r=r, space=space, indices=chosen)
    for nrows in range(2, r + 1):
        sizes = subspace_counts(v.space, v.indices, nrows)
        assert sizes.dtype == np.min_scalar_type(num_points(nrows - 1, Q))
        assert np.array_equal(sizes, reference_section_sizes(v, nrows))
    assert {n for n, _ in tables} == set(range(2, r + 1))
    if r >= 3:
        assert all(ncols <= r - n for n, ncols in tables)


def test_line_count_pg3():
    assert gaussian_binomial(3 + 1, 2, 9) == 7462
