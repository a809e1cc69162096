"""Projective linear codes from point sets of PG(r, q^2).

The points of a spanning set V, in canonical order, are the columns of
a generator matrix; nonzero codewords correspond to nonzero linear
functionals, so the weight of a word equals |V| minus the size of the
section of V by the functional's hyperplane.  This gives two
independent routes to every weight statement: hyperplane sections and
exhaustive codeword enumeration.

Minimality of the whole code is checked three ways: the sufficient
minimum/maximum weight ratio condition (q w_min > (q-1) w_max), the
geometric cutting criterion (every hyperplane section spans its
hyperplane), and brute-force support containment over all codewords.
The cutting criterion is read off the hyperplane section sizes: only a
hyperplane with (q-1) |H meet V| <= q s_max - n can fail, and only
those candidates are row-reduced.  When the weight ratio condition
holds there are none.  Supports and weights are invariant under
nonzero scalars, so every exhaustive route enumerates one word per
projective class, the words of the normalized messages (the points of
PG(k-1, q)), and counts each for its q - 1 multiples.  The brute force
tests every support class against every other at once, by ANDing, for
each class, the bitsets of the classes that vanish on its zero
coordinates; the pair count stays what the budget meters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .budget import BudgetError, check_budget
from .geom import SUBSPACE_BLOCK, dot_rows, pg_space, product_table, row_reduce, span_rank
from .gf import FiniteField
from .variety import (Variety, count_rows, hyperplane_section_sizes, section_counts,
                      size_counts)

WORDS_HARD_CAP = 2 ** 24


class CodeError(ValueError):
    pass


@dataclass
class LinearCode:
    """Code given by the columns of its generator matrix.

    cols[j] holds the j-th column, a vector of length k; messages are
    row vectors u and the j-th symbol of the codeword is u . cols[j].
    """
    ctx: FiniteField
    cols: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return int(self.cols.shape[0])

    @property
    def k(self) -> int:
        return int(self.cols.shape[1])

    @cached_property
    def row_tables(self) -> tuple:
        """Table i holds a times row i of the generator matrix in row a,
        in the field's dtype."""
        prod = product_table(self.ctx, self.ctx.dtype)
        return tuple(prod[:, self.cols[:, i]] for i in range(self.k))

    def codeword_block(self, msgs: np.ndarray) -> np.ndarray:
        """Codewords of a block of messages, one row per message: k row
        gathers from the tables and k - 1 field additions."""
        tables = self.row_tables
        words = tables[0][msgs[:, 0]]
        for i in range(1, self.k):
            words = self.ctx.vadd(words, tables[i][msgs[:, i]])
        return words

    def class_blocks(self, budget: int | None = None):
        """The words of the normalized messages, the points of
        PG(k-1, q) in canonical order, SUBSPACE_BLOCK // n + 1 rows at a
        time: one word per class of nonzero scalar multiples.  The budget
        and WORDS_HARD_CAP meter all q^k words and refuse here, alike,
        before the generator is returned."""
        _check_words(self.ctx.order, self.k, budget)
        space, step = pg_space(self.ctx, self.k - 1), SUBSPACE_BLOCK // self.n + 1
        return (self.codeword_block(space.rows(np.arange(lo, min(lo + step, space.n_points))))
                for lo in range(0, space.n_points, step))


def _check_words(q: int, k: int, budget: int | None = None) -> None:
    n_words = q ** k
    check_budget(f"enumerating {n_words} codewords", n_words, budget, WORDS_HARD_CAP)


def bruteforce_or_skip(v: Variety, brute, budget: int | None = None):
    """brute(code, budget) on the code of v, which must span, or the
    SKIP entry of its refusal; the words are metered before the rows."""
    try:
        _check_words(v.ctx.order, v.r + 1, budget)
        return brute(LinearCode(v.ctx, v.space.rows(v.indices)), budget)
    except BudgetError as e:
        return {"status": "SKIP", "reason": str(e)}


def code_from_variety(v: Variety, p0: int | None = None) -> LinearCode:
    """Code whose columns are the points of v in canonical order.

    p0, a position into that order, moves the chosen point to column 0
    (used by the secret sharing layer).  Refuses point sets that do not
    span, since then some coordinates of the message are invisible.
    """
    idx = v.indices
    if p0 is not None:
        if not 0 <= p0 < len(idx):
            raise CodeError(f"p0 = {p0} out of range 0 .. {len(idx) - 1}")
        idx = np.concatenate(([idx[p0]], np.delete(idx, p0)))
    _require_span(v)
    return LinearCode(v.ctx, v.space.rows(idx))


def _require_span(v: Variety) -> None:
    """Refuse v unless its points span PG(r, Q), the one test of whether
    v defines a code.  They are row-reduced onto the basis so far in
    blocks of 256 rows, four times larger each time up to SUBSPACE_BLOCK,
    until rank r + 1: a set that does not span reads every point.  The
    first block also holds the last point: canonical order puts every
    point of X_0 = 0 first, and the last point is affine whenever any
    is, as for the twisted and quasi-Hermitian kinds, so one block
    settles those however many points they have at infinity."""
    rank, basis, lo, step = 0, v.space.rows(v.indices[-1:]), 0, 256
    while lo < v.n:
        block = v.space.rows(v.indices[lo:lo + step])
        rank, basis = row_reduce(v.ctx, np.concatenate((basis, block)))
        if rank == v.r + 1:
            return
        lo, step = lo + step, min(4 * step, SUBSPACE_BLOCK)
    raise CodeError(f"point set spans a proper subspace: rank {rank} < {v.r + 1}")


# ---------------------------------------------------------------------------
# weight distributions

@dataclass
class WeightDistribution:
    q: int               # field size of the code alphabet
    n: int
    k: int
    weights: dict        # weight -> number of nonzero codewords
    source: str

    @property
    def w_min(self) -> int:
        return min(self.weights)

    @property
    def w_max(self) -> int:
        return max(self.weights)

    def check_complete(self) -> None:
        total = sum(self.weights.values())
        expect = self.q ** self.k - 1
        if total != expect:
            raise CodeError(
                f"weight distribution covers {total} words, expected {expect}")

    def as_dict(self) -> dict:
        return {
            "q": self.q, "n": self.n, "k": self.k, "source": self.source,
            "weights": count_rows(self.weights, "w", "count"),
        }


def weights_from_sections(v: Variety,
                          budget: int | None = None) -> WeightDistribution:
    """Weight distribution via hyperplane sections: each hyperplane of
    section size s accounts for q-1 words of weight n - s."""
    _require_span(v)
    counts = size_counts(hyperplane_section_sizes(v, budget))
    q = v.ctx.order
    weights = {v.n - s: c * (q - 1) for s, c in counts.items()}
    dist = WeightDistribution(q, v.n, v.r + 1, weights, "hyperplane-sections")
    dist.check_complete()
    return dist


def weights_bruteforce(code: LinearCode,
                       budget: int | None = None) -> WeightDistribution:
    """Weight distribution by enumerating every codeword: one word per
    projective class, which stands for its q - 1 multiples."""
    q = code.ctx.order
    counts = np.zeros(code.n + 1, dtype=np.int64)
    # summed in the narrowest dtype that holds n: faster than int64
    wdt = np.min_scalar_type(code.n)
    for words in code.class_blocks(budget):
        weights = (words != 0).view(np.uint8).sum(axis=1, dtype=wdt)
        counts += np.bincount(weights, minlength=code.n + 1)
    hist = {w: int(c) * (q - 1) for w, c in enumerate(counts) if c}
    dist = WeightDistribution(q, code.n, code.k, hist, "exhaustive")
    dist.check_complete()
    return dist


# ---------------------------------------------------------------------------
# divisibility and higher weights

@dataclass
class DivisibilityReport:
    divisor: int
    all_divisible: bool
    offenders: dict

    def as_dict(self):
        return {"divisor": self.divisor, "all_divisible": self.all_divisible,
                "offenders": count_rows(self.offenders, "w", "count")}


def divisibility_report(dist: WeightDistribution, divisor: int) -> DivisibilityReport:
    if divisor < 1:
        raise CodeError(f"divisor {divisor} must be at least 1")
    offenders = {w: c for w, c in dist.weights.items() if w % divisor}
    return DivisibilityReport(divisor, not offenders, offenders)


@dataclass
class HigherWeightReport:
    k: int
    d: int
    max_section: int
    subspaces: int

    def as_dict(self):
        return {"k": self.k, "d": self.d, "max_section": self.max_section,
                "subspaces": self.subspaces}


def higher_weight(v: Variety, k: int,
                  budget: int | None = None) -> HigherWeightReport:
    """Generalized Hamming weight d_k = n - max |V meet codim-k subspace|.
    Only a spanning V defines a code, which _require_span reads from the
    rank of its points before any count.  d_1 then counts the
    hyperplanes by the character transform, and every other k by the
    route variety.section_counts picks for the subspaces of vector
    dimension r + 1 - k."""
    r = v.r
    if not 1 <= k <= r:
        raise CodeError(f"k = {k} out of range 1 .. {r}")
    _require_span(v)
    counts = (size_counts(hyperplane_section_sizes(v, budget)) if k == 1
              else section_counts(v, r + 1 - k, budget)[0])
    best = max(counts)
    return HigherWeightReport(k, v.n - best, best, sum(counts.values()))


# ---------------------------------------------------------------------------
# minimality

@dataclass
class ABReport:
    w_min: int
    w_max: int
    lhs: int            # q * w_min
    rhs: int            # (q-1) * w_max
    passes: bool

    def as_dict(self):
        return {"w_min": self.w_min, "w_max": self.w_max,
                "lhs_q_wmin": self.lhs, "rhs_qm1_wmax": self.rhs,
                "passes": self.passes}


def ab_condition(dist: WeightDistribution) -> ABReport:
    """Sufficient condition for minimality: q w_min > (q-1) w_max,
    compared in exact integers."""
    lhs = dist.q * dist.w_min
    rhs = (dist.q - 1) * dist.w_max
    return ABReport(dist.w_min, dist.w_max, lhs, rhs, lhs > rhs)


@dataclass
class CuttingReport:
    ok: bool
    hyperplanes: int
    witness_index: int | None = None
    witness_coords: tuple | None = None
    witness_rank: int | None = None

    def as_dict(self):
        return {"ok": self.ok, "hyperplanes": self.hyperplanes,
                "witness_index": self.witness_index,
                "witness_coords": (None if self.witness_coords is None
                                   else list(self.witness_coords)),
                "witness_rank": self.witness_rank}


def cutting_blocking_check(v: Variety,
                           budget: int | None = None) -> CuttingReport:
    """Does every hyperplane section of v span its hyperplane?

    Equivalent to minimality of the code with columns v.  A section
    H meet v of size h that does not span H lies in a codimension-2
    subspace S inside H.  The q+1 hyperplanes through S hold n + q h
    points, so the other q hold n + (q-1) h <= q s_max.  Only these
    candidates, (q-1) h <= q s_max - n, are row-reduced, in index order;
    the first failure is the failing hyperplane of least index (as a
    functional coordinate vector), reported with its section's rank.
    At h = s_min the bound negates q w_min > (q-1) w_max, so when that
    holds no hyperplane is a candidate.
    """
    ctx, space, q = v.ctx, v.space, v.ctx.order
    sizes = hyperplane_section_sizes(v, budget)
    cand = np.flatnonzero((q - 1) * sizes <= q * int(sizes.max()) - v.n)
    check_budget(f"row-reducing {len(cand)} candidate hyperplane sections of "
                 f"{v.n} points", len(cand) * v.n, budget)
    pts = space.rows(v.indices)
    for i, h in zip(cand, space.rows(cand)):
        rank = span_rank(ctx, pts[dot_rows(ctx, h, pts) == 0])
        if rank < v.r:
            return CuttingReport(False, space.n_points, int(i),
                                 tuple(int(x) for x in h), rank)
    return CuttingReport(True, space.n_points)


@dataclass
class MinimalityReport:
    ok: bool
    words: int
    classes: int
    non_minimal_words: int
    non_minimal_weights: dict
    witnesses: list

    def as_dict(self):
        return {
            "ok": self.ok, "words": self.words, "classes": self.classes,
            "non_minimal_words": self.non_minimal_words,
            "non_minimal_weights": count_rows(self.non_minimal_weights, "w", "count"),
            "witnesses": self.witnesses[:8],
        }


def _unique_rows(rows: np.ndarray) -> tuple:
    """np.unique(rows, axis=0, return_inverse=True) for 2-D uint8 rows,
    sorted as byte strings through a 1-D void view: the same order,
    without np.unique's flattened copy of the rows."""
    width = rows.shape[1]
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, width))).ravel()
    perm = keys.argsort()
    ordered = keys[perm]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty_like(perm)
    inverse[perm] = np.cumsum(first) - 1
    return ordered[first].view(np.uint8).reshape(-1, width), inverse


def first_inside(bits: np.ndarray) -> np.ndarray:
    """For boolean rows sorted by size, the index of the first strictly
    smaller row inside each row, or -1 where there is none.

    A row lies inside another exactly when it vanishes on all of the
    other's zero coordinates.  For each coordinate a bitset holds the
    rows that vanish there; ANDing those of a row's zero coordinates,
    over the rows of smaller size, leaves the rows inside it, and the
    lowest set bit is the answer.  Rows of one size share a zero count,
    so each size group is one gather per zero coordinate.
    """
    n_rows, n = bits.shape
    sizes = bits.sum(axis=1, dtype=np.int64)
    # vanish[x]: bit i of the little-endian uint64 words is set when
    # row i vanishes at coordinate x
    n_wd = -(-n_rows // 64)
    zero = np.zeros((n, 64 * n_wd), dtype=bool)
    np.equal(bits.T, 0, out=zero[:, :n_rows])
    vanish = np.packbits(zero, axis=1, bitorder="little").view("<u8")
    del zero
    first = np.full(n_rows, -1, dtype=np.int64)
    starts = np.flatnonzero(np.diff(sizes, prepend=-1))
    for lo, hi in zip(starts, [*starts[1:], n_rows]):
        if lo == 0:
            continue
        # only the rows before lo, the smaller ones, can lie inside
        n_wl = -(-lo // 64)
        acc = np.full((hi - lo, n_wl), ~np.uint64(0), dtype="<u8")
        acc[:, -1] >>= np.uint64(64 * n_wl - lo)
        zeros = np.nonzero(bits[lo:hi] == 0)[1].reshape(hi - lo, -1)
        col = np.empty_like(acc)
        for x in zeros.T:
            np.take(vanish[:, :n_wl], x, axis=0, out=col)
            acc &= col
        hit = np.flatnonzero(acc.any(axis=1))
        word = (acc[hit] != 0).argmax(axis=1)
        bit = np.unpackbits(acc[hit, word].view(np.uint8).reshape(-1, 8), axis=1,
                            bitorder="little").argmax(axis=1)
        first[hit + lo] = 64 * word + bit
    return first


def minimality_bruteforce(code: LinearCode,
                          budget: int | None = None) -> MinimalityReport:
    """Exhaustive minimality check by support containment.

    Enumerates one word per projective class and collapses equal
    supports, which non-proportional words can share, into support
    classes sorted by support size.  A word is non-minimal
    exactly when some class has support strictly inside its own;
    first_inside finds, for every class at once, the first such class
    in size order, which is the reported witness.  Every class is still
    tested against every other, so the budget meters the pair count.
    """
    q, n = code.ctx.order, code.n
    n_words = q ** code.k
    blocks = code.class_blocks(budget)
    # at most one support class per projective class
    max_cls = (n_words - 1) // (q - 1)
    pair_ops = max_cls * (max_cls - 1) // 2
    check_budget(f"up to {pair_ops} support containment tests", pair_ops, budget)
    supports = np.empty((max_cls, -(-n // 8)), dtype=np.uint8)
    at = 0
    for words in blocks:
        supports[at:at + len(words)] = np.packbits(words != 0, axis=1)
        at += len(words)
    del words
    classes, inverse = _unique_rows(supports)
    del supports
    mult = np.bincount(inverse) * (q - 1)
    bits = np.unpackbits(classes, axis=1, count=n)
    sizes = bits.sum(axis=1, dtype=np.int64)
    order = np.argsort(sizes, kind="stable")
    sizes, mult = sizes[order], mult[order]
    inside = first_inside(bits[order])
    non_min_words = 0
    non_min_weights: dict = {}
    witnesses = []
    for j in np.flatnonzero(inside >= 0):
        w = int(sizes[j])
        non_min_words += int(mult[j])
        non_min_weights[w] = non_min_weights.get(w, 0) + int(mult[j])
        witnesses.append({"weight": w, "contains_weight": int(sizes[inside[j]])})
    return MinimalityReport(non_min_words == 0, n_words - 1, len(classes),
                            non_min_words, non_min_weights, witnesses)


def minimality_summary(v: Variety, budget: int | None = None) -> dict:
    """All three minimality views of the code on v, cross-checked."""
    dist = weights_from_sections(v, budget)
    ab = ab_condition(dist)
    cut = cutting_blocking_check(v, budget)
    out = {"variety": v.meta(), "weights": dist.as_dict(),
           "ab": ab.as_dict(), "cutting": cut.as_dict()}
    # a refused cross-check is skipped, not a reason to drop the answers
    bf = bruteforce_or_skip(v, minimality_bruteforce, budget)
    skipped = isinstance(bf, dict)
    out["bruteforce"] = bf if skipped else bf.as_dict()
    out["agree"] = None if skipped else bool(cut.ok == bf.ok)
    return out
