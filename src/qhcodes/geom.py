"""Projective geometry PG(r, q) over integer-encoded finite fields.

Points and hyperplanes are length r+1 coordinate vectors normalized so
the leftmost nonzero coordinate is 1.  The canonical order is
lexicographic on the encoding tuples, which places the all-but-last-zero
point (0, ..., 0, 1) first and the affine chart (1, x_1, ..., x_r) last.
Hyperplanes use the same normalization and order on their dual vectors;
a point P lies on a hyperplane H iff sum(P_i * H_i) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .budget import check_budget
from .gf import FiniteField

# subspaces per block of rref_bases; bounds the memory of every caller
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


def normalize_point(ctx: FiniteField, vec) -> tuple:
    vec = tuple(int(v) for v in vec)
    for i, v in enumerate(vec):
        if v:
            if v == 1:
                return vec
            s = ctx.inv(v)
            return tuple(0 if j < i else ctx.mul(s, w) for j, w in enumerate(vec))
    raise ValueError("the zero vector is not a projective point")


def _digit_matrix(q: int, width: int, count: int, start: int = 0) -> np.ndarray:
    """Rows start..start+count-1 written base q, most significant digit first."""
    cols = []
    n = np.arange(start, start + count, dtype=np.int64)
    for i in range(width - 1, -1, -1):
        cols.append((n // q ** i) % q)
    return np.stack(cols, axis=1) if width else np.zeros((count, 0), dtype=np.int64)


class ProjectiveSpace:
    """All points of PG(r, q) in canonical order, with index lookup.
    Unmetered: the variety builders check the budget before building one."""

    def __init__(self, ctx: FiniteField, r: int):
        if r < 1:
            raise ValueError(f"r = {r} must be at least 1")
        q = ctx.order
        self.ctx = ctx
        self.r = r
        self.n_points = num_points(r, q)
        blocks = []
        for lead in range(r, -1, -1):
            width = r - lead
            count = q ** width
            block = np.zeros((count, r + 1), dtype=np.int64)
            block[:, lead] = 1
            if width:
                block[:, lead + 1:] = _digit_matrix(q, width, count)
            blocks.append(block)
        self.points = np.concatenate(blocks, axis=0)
        # base-q value of the coordinate tuple; ascending because blocks
        # follow the lexicographic order
        weights = q ** np.arange(r, -1, -1, dtype=np.int64)
        self.keys = self.points @ weights
        assert bool(np.all(np.diff(self.keys) > 0))
        self._lookup = None

    def index_of(self, vec) -> int:
        """Canonical index of a (normalized) point."""
        return int(self.index_array(np.array([vec], dtype=np.int64))[0])

    def index_array(self, pts: np.ndarray) -> np.ndarray:
        """Canonical indices of the rows of pts, all normalized points.

        A row's key, its base-q value, is below 2 q^r because its
        leading coordinate is 1; a table over those keys, built on first
        use, maps each key to its point's index and every other key to -1.
        """
        q = self.ctx.order
        if self._lookup is None:
            self._lookup = np.full(2 * q ** self.r, -1, dtype=np.int64)
            self._lookup[self.keys] = np.arange(self.n_points)
        if pts.size and (pts.min() < 0 or pts.max() >= q):
            raise KeyError("some rows have entries outside the field")
        keys = pts @ (q ** np.arange(self.r, -1, -1, dtype=np.int64))
        if keys.size and keys.max() >= len(self._lookup):
            raise KeyError("some rows are not normalized points")
        idx = self._lookup[keys]
        if np.any(idx < 0):
            raise KeyError("some rows are not normalized points")
        return idx


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


@dataclass(frozen=True)
class SubspaceBasis:
    rank: int
    rows: tuple


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


def span_rank(ctx: FiniteField, vectors) -> SubspaceBasis:
    """Rank and echelon basis of the span of the given coordinate vectors."""
    arr = np.atleast_2d(np.array(list(vectors), dtype=np.int64))
    if arr.size == 0:
        return SubspaceBasis(0, ())
    rank, rows = row_reduce(ctx, arr)
    return SubspaceBasis(rank, tuple(tuple(int(v) for v in row) for row in rows))


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
    for pivots in combinations(range(r + 1), nrows):
        free = [[c for c in range(p + 1, r + 1) if c not in pivots] for p in pivots]
        width = sum(len(cols) for cols in free)
        for lo in range(0, q ** width, SUBSPACE_BLOCK):
            digits = _digit_matrix(q, width, min(SUBSPACE_BLOCK, q ** width - lo), lo)
            rows, at = [], 0
            for p, cols in zip(pivots, free):
                row = np.zeros((len(digits), r + 1), dtype=np.int64)
                row[:, p] = 1
                row[:, cols] = digits[:, at:at + len(cols)]
                at += len(cols)
                rows.append(row)
            yield tuple(rows)


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


def line_count(ctx: FiniteField, r: int) -> int:
    return gaussian_binomial(r + 1, 2, ctx.order)
