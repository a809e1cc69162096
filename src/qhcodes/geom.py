"""Projective geometry PG(r, q) over integer-encoded finite fields.

Points and hyperplanes are length r+1 coordinate vectors normalized so
the leftmost nonzero coordinate is 1.  The canonical order is
lexicographic on the encoding tuples, which places the all-but-last-zero
point (0, ..., 0, 1) first and the affine chart (1, x_1, ..., x_r) last;
ProjectiveSpace maps it to coordinates and back by arithmetic alone.
Hyperplanes use the same normalization and order on their dual vectors;
a point P lies on a hyperplane H iff sum(P_i * H_i) = 0.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import isqrt

import numpy as np

from .budget import check_budget
from .gf import FiniteField

# subspaces per block of rref_bases, keys per chunk of subspace_counts,
# points per chunk of a variety build, entries per block of a transform
# pass or of a code's class words; bounds the memory of every caller
SUBSPACE_BLOCK = 1 << 16


def num_points(r: int, q: int) -> int:
    return (q ** (r + 1) - 1) // (q - 1)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num, den = 1, 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def _digit_matrix(q: int, width: int, n: np.ndarray) -> np.ndarray:
    """Rows of the width base-q digits of n, most significant first."""
    n = np.array(n, dtype=np.int64)
    out = np.empty((len(n), width), dtype=np.int64)
    for i in range(width - 1, -1, -1):
        np.divmod(n, q, out=(n, out[:, i]))
    return out


class ProjectiveSpace:
    """PG(r, q) in canonical order: the points whose leading 1 has w
    coordinates after it have indices theta_(w-1) .. theta_w - 1, the
    i-th with key (its base-q value) q^w + i; theta_(-1) = 0.  starts
    holds theta_(w-1) for w = 0 .. r + 1, the last being n_points.  No
    table of points or keys is stored: callers derive the rows of the
    indices they need, a block at a time.
    Unmetered: the variety builders check the budget before a scan."""

    def __init__(self, ctx: FiniteField, r: int):
        if r < 0:
            raise ValueError(f"r = {r} must be at least 0")
        self.ctx = ctx
        self.r = r
        self.n_points = num_points(r, ctx.order)
        self._powers = ctx.order ** np.arange(r + 1, dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(self._powers)))

    def keys_of(self, idx) -> np.ndarray:
        """Keys of the points with canonical indices idx."""
        w = np.searchsorted(self.starts, idx, side="right") - 1
        return idx - self.starts[w] + self._powers[w]

    def rows(self, idx) -> np.ndarray:
        """Coordinate rows, int64, of the points with canonical indices idx."""
        return _digit_matrix(self.ctx.order, self.r + 1, self.keys_of(idx))

    def index_array(self, pts: np.ndarray) -> np.ndarray:
        """Canonical indices of the rows of pts, all normalized points.
        A row's key, its base-q value, is a point's iff q^w <= key < 2 q^w
        for some w; that point's index is key - q^w + theta_(w-1)."""
        if pts.size and (pts.min() < 0 or pts.max() >= self.ctx.order):
            raise KeyError("some rows have entries outside the field")
        keys = pts @ self._powers[::-1]
        w = np.searchsorted(self._powers, keys, side="right") - 1
        if np.any(keys <= 0) or np.any(keys >= 2 * self._powers[w]):
            raise KeyError("some rows are not normalized points")
        return keys - self._powers[w] + self.starts[w]


@lru_cache(maxsize=None)
def pg_space(ctx: FiniteField, r: int) -> ProjectiveSpace:
    return ProjectiveSpace(ctx, r)


def dot_rows(ctx: FiniteField, h, pts: np.ndarray) -> np.ndarray:
    """Evaluate the functional h on every row of pts."""
    acc = None
    for k, c in enumerate(h):
        c = int(c)
        if c == 0:
            continue
        term = pts[:, k] if c == 1 else ctx.scalar_mul_row(c)[pts[:, k]]
        acc = term if acc is None else ctx.vadd(acc, term)
    if acc is None:
        raise ValueError("zero functional")
    return acc


def row_reduce(ctx: FiniteField, mat: np.ndarray):
    """Row echelon form over the field; returns (rank, reduced rows)."""
    mat = np.array(mat, dtype=np.int64, copy=True)
    if mat.ndim != 2:
        raise ValueError("need a 2d matrix")
    n, w = mat.shape
    rank = 0
    for col in range(w):
        if rank >= n:
            break
        rest = mat[rank:, col]
        nz = np.nonzero(rest)[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            mat[[rank, piv]] = mat[[piv, rank]]
        pv = int(mat[rank, col])
        if pv != 1:
            mat[rank] = ctx.scalar_mul_row(ctx.inv(pv))[mat[rank]]
        factors = mat[:, col].copy()
        factors[rank] = 0
        rows = np.nonzero(factors)[0]
        if rows.size:
            scaled = ctx.vmul(ctx.vneg(factors[rows])[:, None], mat[rank][None, :])
            mat[rows] = ctx.vadd(mat[rows], scaled)
        rank += 1
    return rank, mat[:rank]


def span_rank(ctx: FiniteField, vectors) -> int:
    """Rank of the span of the given coordinate vectors."""
    arr = np.atleast_2d(np.array(list(vectors), dtype=np.int64))
    if arr.size == 0:
        return 0
    return row_reduce(ctx, arr)[0]


def _pivot_choices(r: int, nrows: int):
    """(pivots, free) for every choice of nrows pivot columns: the free
    columns of each row, right of its pivot and at no other pivot."""
    for pivots in combinations(range(r + 1), nrows):
        yield pivots, [[c for c in range(p + 1, r + 1) if c not in pivots]
                       for p in pivots]


def rref_bases(ctx: FiniteField, r: int, nrows: int, budget: int | None = None):
    """All nrows-dimensional row spaces in PG(r, q), one block at a time.

    For each choice of pivot columns, yields tuples of nrows arrays of
    shape (count, r+1), count <= SUBSPACE_BLOCK: array t holds row t of
    the reduced row echelon basis of every subspace of the block, one
    subspace per array row.  Over all blocks every subspace appears
    exactly once.
    """
    q = ctx.order
    total = gaussian_binomial(r + 1, nrows, q)
    check_budget(f"enumerating {total} subspaces of PG({r},{q})", total, budget)
    for pivots, free in _pivot_choices(r, nrows):
        # a counter whose base-q digits, most significant first, fill
        # the free columns row by row, in blocks of SUBSPACE_BLOCK
        width = sum(len(cols) for cols in free)
        end = q ** width
        for lo in range(0, end, SUBSPACE_BLOCK):
            count = min(SUBSPACE_BLOCK, end - lo)
            digits = _digit_matrix(q, width, np.arange(lo, lo + count))
            rows, at = [], 0
            for p, cols in zip(pivots, free):
                row = np.zeros((count, r + 1), dtype=np.int64)
                row[:, p] = 1
                row[:, cols] = digits[:, at:at + len(cols)]
                at += len(cols)
                rows.append(row)
            yield tuple(rows)


def subspace_counts(space: ProjectiveSpace, indices, nrows: int,
                    budget: int | None = None) -> np.ndarray:
    """|S meet V| for V the points with canonical indices `indices` and
    every subspace S of vector dimension nrows, in rref_bases order,
    without the rows of rref_bases or subspace_points.

    Makes the budget check of rref_bases before anything is built.  The
    sizes are np.min_scalar_type(theta), theta = (q^nrows - 1) / (q - 1)
    the number of points of one S.  V is a uint8 mask over all 2 q^r
    keys.  The subspaces of one choice of pivot columns, counted from
    lead row t, form a (P, M, Y, Z) counter: the digits of the rows
    before t (on which lead t's points do not depend), of row t left and
    right of row t+1's pivot, and of the rows after t.  Row t's digits
    left of row t+1's pivot add as integers, in the rows of offsets, so
    each coefficient pattern reads its (M, Y) run of the mask once, from
    the key of its pivot entries.  Right of that pivot, in the f columns
    that are no pivot, row t's digits y take the field sum with x, the
    sum of the c_j multiples of the later rows.  That sum splits by its
    last digit: key(x + y) = hi[x_hi, y_hi] q + add[x_lo, y_lo], with hi
    the table of sums (_low_adder) over the f - 1 digits before it and
    add the field's addition table, so no table over f digits is built.
    Each run is copied q times once, shifted[m, h q + a, l] =
    run[m, h q + add[a, l]], and a pattern gathers H = Y / q rows of q
    bytes, hi[x_hi, :H] q + x_lo, instead of Y single bytes.  The copies
    of one pivot choice and lead row, q^(r + 1 - p_t) bytes, are made
    only where they are no more than the subspaces the budget meters;
    elsewhere, which is only at nrows = r where f <= 1, a pattern
    gathers Y rows of one byte, add[x_lo, :Y].  The Z axis goes in
    chunks of at most SUBSPACE_BLOCK keys, but of at least
    sqrt(SUBSPACE_BLOCK) z, so that the sizes take a chunk's counts in
    runs of that many; each pattern's rows for a chunk are gathered into
    one uint8 buffer and added to the chunk's counts before the next
    pattern's are made.  At nrows = r + 1 the one subspace is the whole
    space, which holds all of V.
    """
    ctx, r, q = space.ctx, space.r, space.ctx.order
    total = gaussian_binomial(r + 1, nrows, q)
    check_budget(f"enumerating {total} subspaces of PG({r},{q})", total, budget)
    if nrows == r + 1:
        return np.array([len(indices)], dtype=np.min_scalar_type(space.n_points))
    mask = np.zeros(2 * q ** r, dtype=np.uint8)
    mask[space.keys_of(indices)] = 1
    weight = [q ** (r - c) for c in range(r + 1)]
    # the widest sum is that of row 1 of pivots 0, 1, ..., nrows-1
    width = r + 1 - nrows if nrows > 1 else 0
    digit = np.arange(q if width else 1, dtype=np.min_scalar_type(q - 1))
    add = ctx.vadd(digit[:, None], digit[None, :])
    hi = _low_adder(add, max(width - 1, 0))
    # scaled[0, c, d] q + scaled[1, c, d]: key of c times the digits d,
    # a sum of GF(q)'s product table times each digit's weight
    scaled = np.zeros((2, q, 1), dtype=np.promote_types(hi.dtype, add.dtype))
    if width:
        prod = product_table(ctx, scaled.dtype)[:, None, :]
        for w in [q ** i for i in range(width - 1, -1, -1)]:
            scale = np.array([w // q, w % q], dtype=scaled.dtype)[:, None, None, None]
            scaled = (scaled[:, :, :, None] + prod * scale).reshape(2, q, -1)
    sizes = np.zeros(total, dtype=np.min_scalar_type(num_points(nrows - 1, q)))
    at = 0
    for pivots, free in _pivot_choices(r, nrows):
        widths = [len(cols) for cols in free]
        size = q ** sum(widths)
        for t in range(nrows):
            low = free[t + 1] if t + 1 < nrows else []
            # weight of row t's last column left of row t+1's pivot
            step = weight[pivots[t + 1]] * q if t + 1 < nrows else 1
            P, M, Y = q ** sum(widths[:t]), q ** (widths[t] - len(low)), q ** len(low)
            Z = size // (P * M * Y)
            offsets = np.arange(M)[:, None] * step + _keys(q, [weight[c] for c in low])
            offsets = offsets.astype(np.min_scalar_type(weight[pivots[t]] - 1))
            # copy the runs q-fold only where the copies, q^(r+1-p_t)
            # bytes, are no more than the subspaces metered
            S = q if low and q ** (r + 1 - pivots[t]) <= total else 1
            H = Y // S
            offsets = (offsets.reshape(M, H, q)[:, :, add] if S > 1 else offsets).reshape(M, Y, S)
            # rows_of[x_hi]: the rows of the shifted run that start at the
            # keys (x_hi + y_hi) q; unshifted, where f <= 1, rows_of[x_lo]
            # are the keys x_lo + y
            rows_of = (np.multiply(hi[:H, :H], q, dtype=np.intp) if S > 1
                       else np.ascontiguousarray(add[:, :Y]))
            starts = weight[pivots[t]] + _keys(q, [weight[p] for p in pivots[t + 1:]])
            runs = [mask[start:][offsets] for start in starts.tolist()]
            spans = [(q ** sum(widths[j + 1:]), q ** widths[j]) for j in range(t + 1, nrows)]
            out = sizes[at:at + size].reshape(P, M, Y, Z)
            chunk = max(isqrt(SUBSPACE_BLOCK), SUBSPACE_BLOCK // (M * Y))
            for lo in range(0, Z, chunk):
                n = np.arange(lo, min(lo + chunk, Z), dtype=np.intp)
                subs = [scaled.take(n // shift % w, 2) for shift, w in spans]
                cnt = np.zeros((M, len(n), Y), dtype=sizes.dtype)
                buf = np.empty((M, len(n), H, S), dtype=np.uint8)
                zero = [np.zeros(len(n), dtype=tab.dtype) for tab in (hi, add)]
                for run, (x_hi, x_lo) in zip(runs, _sums(hi, add, zero, subs), strict=True):
                    rows = (rows_of.take(x_hi, 0) + x_lo[:, None] if S > 1
                            else rows_of.take(x_lo, 0))
                    run.take(rows, 1, buf, "clip")
                    cnt += buf.reshape(M, len(n), Y)
                out[..., lo:lo + len(n)] += cnt.transpose(0, 2, 1)
        at += size
    return sizes


def _sums(hi, add, part, subs):
    """Keys of part + sum c_j subs[j] per pattern, in subspace_points
    order, as pairs (high digits, last digit) that add in hi and add;
    subs[j][0, c] q + subs[j][1, c] are the keys of c subs[j]."""
    if not subs:
        yield part
        return
    (c_hi, c_lo), rest = subs[0], subs[1:]
    yield from _sums(hi, add, part, rest)
    for c in range(1, len(c_hi)):
        yield from _sums(hi, add, (hi[part[0], c_hi[c]], add[part[1], c_lo[c]]), rest)


def _keys(q: int, weights: list) -> np.ndarray:
    """sum_i d_i weights[i] for every digit vector d in base q, counting
    up with the first digit most significant."""
    keys = np.zeros(1, dtype=np.int64)
    for w in weights:
        keys = (keys[:, None] + np.arange(0, q * w, w)).ravel()
    return keys


def product_table(ctx: FiniteField, dtype) -> np.ndarray:
    """GF(q)'s (q, q) product table, entry (c, x) = c x, in dtype, which
    holds q - 1: one ctx.vmul per block of rows of about 2^10 products,
    so that its int64 temporaries stay small."""
    q, rows = ctx.order, max(1, (1 << 10) // ctx.order)
    elems, out = np.arange(q, dtype=dtype), np.empty((q, q), dtype=dtype)
    for c in range(0, q, rows):
        out[c:c + rows] = ctx.vmul(elems[c:c + rows, None], elems)
    return out


def _low_adder(add: np.ndarray, ncols: int) -> np.ndarray:
    """The (q^ncols, q^ncols) table of sums: entry (x, y) is the key of
    the coordinatewise field sum of the vectors with keys x and y over
    ncols coordinates, in the narrowest dtype that holds such a key.
    Each coordinate broadcasts add, the field's (q, q) addition table
    (XOR in characteristic 2), over the ones before it."""
    q = len(add)
    dtype = np.min_scalar_type(q ** ncols - 1)
    table = np.zeros((1, 1), dtype=dtype)
    for _ in range(ncols):
        size = len(table) * q
        table = (table[:, None, :, None] * dtype.type(q)
                 + add[None, :, None, :]).reshape(size, size)
    return table


def subspace_points(ctx: FiniteField, rows: tuple):
    """Normalized points of a block of subspaces from rref_bases.

    Yields one (count, r+1) array per coefficient pattern: for every
    subspace of the block, rows[lead] + sum_j c_j rows[j] over j > lead.
    Reduced echelon form makes these combinations normalized, and over
    all patterns each subspace's points appear exactly once.
    """
    for lead in range(len(rows)):
        yield from _combinations(ctx, rows[lead], rows[lead + 1:])


def _combinations(ctx: FiniteField, base: np.ndarray, rest: tuple):
    if not rest:
        yield base
        return
    for c in range(ctx.order):
        part = base if c == 0 else ctx.vadd(base, ctx.scalar_mul_row(c)[rest[0]])
        yield from _combinations(ctx, part, rest[1:])

