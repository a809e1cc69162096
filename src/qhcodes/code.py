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
holds there are none.  The brute force builds each block of codewords
from one table of scalar multiples per row of the generator matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .budget import BudgetError, check_budget
from .geom import _digit_matrix, dot_rows, span_rank
from .gf import FiniteField
from .variety import Variety, hyperplane_section_sizes, subspace_section_sizes

WORDS_HARD_CAP = 2 ** 24
WORD_BLOCK = 4096


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
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.cols.shape[0])

    @property
    def k(self) -> int:
        return int(self.cols.shape[1])

    def codeword(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64)
        if u.shape != (self.k,):
            raise CodeError(f"message must have length {self.k}")
        if not u.any():
            return np.zeros(self.n, dtype=np.int64)
        return dot_rows(self.ctx, u, self.cols)

    def weight(self, u) -> int:
        return int(np.count_nonzero(self.codeword(u)))

    def message_block(self, lo: int, hi: int) -> np.ndarray:
        """Messages lo .. hi-1 as base-q digit rows, most significant first."""
        return _digit_matrix(self.ctx.order, self.k, hi - lo, lo)

    @cached_property
    def row_tables(self) -> tuple:
        """Table i holds a times row i of the generator matrix in row a,
        in the narrowest unsigned dtype that holds q - 1."""
        scalars = np.arange(self.ctx.order)[:, None]
        dtype = np.min_scalar_type(self.ctx.order - 1)
        return tuple(self.ctx.vmul(scalars, self.cols[None, :, i]).astype(dtype)
                     for i in range(self.k))

    def codeword_block(self, msgs: np.ndarray) -> np.ndarray:
        """Codewords of a block of messages, one row per message: k row
        gathers from the tables and k - 1 field additions."""
        tables = self.row_tables
        words = tables[0][msgs[:, 0]]
        for i in range(1, self.k):
            words = self.ctx.vadd(words, tables[i][msgs[:, i]])
        return words

    def word_blocks(self, budget: int | None = None):
        """Every codeword in message order, WORD_BLOCK rows at a time.
        The budget and the hard cap refuse here, before any block."""
        n_words = self.ctx.order ** self.k
        check_budget(f"enumerating {n_words} codewords", n_words, budget)
        if n_words > WORDS_HARD_CAP:
            raise CodeError(f"codeword enumeration of {n_words} words exceeds "
                            f"the hard cap {WORDS_HARD_CAP}")
        return (self.codeword_block(
                    self.message_block(lo, min(lo + WORD_BLOCK, n_words)))
                for lo in range(0, n_words, WORD_BLOCK))


def code_from_variety(v: Variety, p0: int | None = None) -> LinearCode:
    """Code whose columns are the points of v in canonical order.

    p0, a position into that order, moves the chosen point to column 0
    (used by the secret sharing layer).  Refuses point sets that do not
    span, since then some coordinates of the message are invisible.
    """
    cols = v.coords.copy()
    if p0 is not None:
        if not 0 <= p0 < len(cols):
            raise CodeError(f"p0 = {p0} out of range 0 .. {len(cols) - 1}")
        order = np.concatenate(([p0], np.delete(np.arange(len(cols)), p0)))
        cols = cols[order]
    rank = span_rank(v.ctx, cols).rank
    if rank != v.r + 1:
        raise CodeError(
            f"point set spans a proper subspace: rank {rank} < {v.r + 1}")
    return LinearCode(v.ctx, cols, {"variety": v.meta(), "p0": p0})


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
            "weights": [{"w": int(w), "count": int(c)}
                        for w, c in sorted(self.weights.items())],
        }


def weights_from_sections(v: Variety, engine: str = "auto",
                          budget: int | None = None) -> WeightDistribution:
    """Weight distribution via hyperplane sections: each hyperplane of
    section size s accounts for q-1 words of weight n - s."""
    sizes = hyperplane_section_sizes(v, engine, budget)
    q = v.ctx.order
    vals, cnts = np.unique(sizes, return_counts=True)
    weights = {int(v.n - s): int(c) * (q - 1) for s, c in zip(vals, cnts)}
    dist = WeightDistribution(q, v.n, v.r + 1, weights, "hyperplane-sections")
    dist.check_complete()
    return dist


def weights_bruteforce(code: LinearCode,
                       budget: int | None = None) -> WeightDistribution:
    """Weight distribution by enumerating every codeword."""
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for words in code.word_blocks(budget):
        counts += np.bincount((words != 0).sum(axis=1), minlength=code.n + 1)
    counts[0] -= 1      # the zero message
    hist = {w: int(c) for w, c in enumerate(counts) if c}
    dist = WeightDistribution(code.ctx.order, code.n, code.k, hist, "exhaustive")
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
                "offenders": [{"w": int(w), "count": int(c)}
                              for w, c in sorted(self.offenders.items())]}


def divisibility_report(dist: WeightDistribution, divisor: int) -> DivisibilityReport:
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


def higher_weight(v: Variety, k: int, engine: str = "auto",
                  budget: int | None = None) -> HigherWeightReport:
    """Generalized Hamming weight d_k = n - max |V meet codim-k subspace|."""
    r = v.r
    if not 1 <= k <= r:
        raise CodeError(f"k = {k} out of range 1 .. {r}")
    if k == r:
        return HigherWeightReport(k, v.n - 1, 1, v.space.n_points)
    if k == 1:
        sizes = hyperplane_section_sizes(v, engine, budget)
    else:
        sizes = subspace_section_sizes(v, r + 1 - k, budget)
    best = int(sizes.max())
    return HigherWeightReport(k, v.n - best, best, len(sizes))


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


def cutting_blocking_check(v: Variety, budget: int | None = None, *,
                           engine: str = "auto") -> CuttingReport:
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
    sizes = hyperplane_section_sizes(v, engine, budget)
    cand = np.flatnonzero((q - 1) * sizes <= q * int(sizes.max()) - v.n)
    check_budget(f"row-reducing {len(cand)} candidate hyperplane sections of "
                 f"{v.n} points", len(cand) * v.n, budget)
    for i in cand:
        h = space.points[i]
        rank = span_rank(ctx, v.coords[dot_rows(ctx, h, v.coords) == 0]).rank
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
            "non_minimal_weights": [{"w": int(w), "count": int(c)}
                                    for w, c in sorted(self.non_minimal_weights.items())],
            "witnesses": self.witnesses[:8],
        }


def _unique_rows(rows: np.ndarray) -> tuple:
    """np.unique(rows, axis=0, return_inverse=True) for 2-D uint8 rows,
    sorted as byte strings through a 1-D void view: the same order."""
    width = rows.shape[1]
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, width))).ravel()
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq.view(np.uint8).reshape(-1, width), inverse


def minimality_bruteforce(code: LinearCode,
                          budget: int | None = None) -> MinimalityReport:
    """Exhaustive minimality check by support containment.

    Enumerates every nonzero codeword, collapses the scalar classes
    (equal supports), and tests proper containment between classes of
    different support sizes.  A word is non-minimal exactly when some
    class has support strictly inside its own.
    """
    q = code.ctx.order
    n_words = q ** code.k
    blocks = code.word_blocks(budget)
    # at most one support class per scalar class of nonzero words
    max_cls = (n_words - 1) // (q - 1)
    pair_ops = max_cls * (max_cls - 1) // 2
    check_budget(f"up to {pair_ops} support containment tests", pair_ops, budget)
    supports = np.concatenate([np.packbits(words != 0, axis=1) for words in blocks])
    classes, inverse = _unique_rows(supports[1:])     # drop the zero message
    mult = np.bincount(inverse)
    sizes = np.unpackbits(classes, axis=1).sum(axis=1).astype(np.int64)
    n_cls = len(classes)
    order = np.argsort(sizes, kind="stable")
    classes = classes[order]
    sizes = sizes[order]
    mult = mult[order]
    non_min_words = 0
    non_min_weights: dict = {}
    witnesses = []
    for j in range(n_cls):
        smaller = np.searchsorted(sizes, sizes[j], side="left")
        if smaller == 0:
            continue
        cand = classes[:smaller]
        outside = (cand & ~classes[j]).any(axis=1)
        if not outside.all():
            i = int(np.nonzero(~outside)[0][0])
            non_min_words += int(mult[j])
            w = int(sizes[j])
            non_min_weights[w] = non_min_weights.get(w, 0) + int(mult[j])
            witnesses.append({"weight": w, "contains_weight": int(sizes[i])})
    return MinimalityReport(non_min_words == 0, n_words - 1, n_cls,
                            non_min_words, non_min_weights, witnesses)


def minimality_summary(v: Variety, engine: str = "auto",
                       budget: int | None = None) -> dict:
    """All three minimality views of the code on v, cross-checked."""
    dist = weights_from_sections(v, engine, budget)
    ab = ab_condition(dist)
    cut = cutting_blocking_check(v, budget, engine=engine)
    out = {"variety": v.meta(), "weights": dist.as_dict(),
           "ab": ab.as_dict(), "cutting": cut.as_dict()}
    n_words = v.ctx.order ** (v.r + 1)
    if n_words <= WORDS_HARD_CAP:
        # an over-budget cross-check is skipped, not a reason to drop
        # the answers above
        try:
            bf = minimality_bruteforce(code_from_variety(v), budget)
        except BudgetError as e:
            out["bruteforce"] = {"status": "SKIP", "reason": str(e)}
            out["agree"] = None
        else:
            out["bruteforce"] = bf.as_dict()
            out["agree"] = bool(cut.ok == bf.ok)
    return out
