"""Secret sharing on the dual of a projective code.

The points P_0, .., P_m of a spanning set V are the columns of the code
C: P_0 is the secret point, P_1 .. P_m are the participants.  The share
vectors are the words s of C^perp, sum_j s_j P_j = 0, with s_0 the
secret.  A set A recovers it iff some functional h vanishes off {0} and
A with h(P_0) != 0; then h(P_0) s_0 = -sum over A of h(P_j) s_j.

For a spanning point set V whose code is minimal, the minimal access
sets of the dual-code scheme are in bijection with the hyperplanes
avoiding the secret point P0: the access set collects the participants
off the hyperplane.  That geometric family (its cardinality q^r, the
per-participant membership counts, antichain property) is what
access_structure and democracy_report compute and what development
under a permutation group reproduces from starter sets, each family
held as one boolean matrix of sets by participant labels.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

from .budget import check_budget
from .code import (LinearCode, _unique_rows, code_from_variety,
                   cutting_blocking_check, first_inside)
from .geom import row_reduce
from .variety import Variety, count_rows

CLOSURE_CAP = 10 ** 6


class SSSError(ValueError):
    pass


class NotQualifiedError(SSSError):
    pass


class InconsistentSharesError(SSSError):
    pass


@dataclass
class Scheme:
    code: LinearCode
    variety: Variety | None = field(default=None, repr=False)
    p0: int = 0

    @property
    def q(self) -> int:
        return self.code.ctx.order

    @property
    def k(self) -> int:
        return self.code.k

    @property
    def m(self) -> int:
        """Number of participants."""
        return self.code.n - 1

    @cached_property
    def solver(self) -> tuple:
        """(B, R): R is the k x n table of the points reduced with P_0's
        column last, then put back in order, so its pivots B are
        participants: s is in C^perp iff s[B] = -R t, t being s with t[B] = 0."""
        ctx, k, m = self.code.ctx, self.k, self.m
        rank, red = row_reduce(ctx, self.code.cols[np.r_[1:m + 1, 0]].T)
        ids = np.argmax(red != 0, axis=1) + 1
        if rank < k or ids[-1] > m:
            raise SSSError(f"the participants' points do not span PG({k - 1}, {self.q})")
        return ids, red[:, np.r_[m, :m]]

    @classmethod
    def from_variety(cls, v: Variety, p0: int = 0) -> "Scheme":
        return cls(code_from_variety(v, p0), v, p0)

    def meta(self) -> dict:
        out = {"q": self.q, "k": self.k, "participants": self.m, "p0": self.p0}
        if self.variety is not None:
            out["variety"] = self.variety.meta()
        return out


def consistent_secrets(ctx, words: np.ndarray, ids: list, values) -> np.ndarray:
    """Mask of the secrets x with w_0 x + sum_j w_j values_j = 0 for
    every word w, the sum over the participants ids."""
    rhs = combine(ctx, values, words[:, ids].T)
    xs = np.arange(ctx.order)[:, None]
    return ~ctx.vadd(ctx.vmul(words[:, 0], xs), rhs).any(axis=1)


def combine(ctx, coeffs, rows: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] rows[j] over the field, halving the terms with
    one vadd per round; sum() then adds at most one row to zero."""
    terms = ctx.vmul(np.asarray(coeffs, dtype=np.int64)[:, None], rows)
    while len(terms) > 1:
        half = len(terms) // 2
        terms = np.concatenate((ctx.vadd(terms[:half], terms[half:2 * half]),
                                terms[2 * half:]))
    return terms.sum(axis=0)


@dataclass
class DealReport:
    secret: int
    seed: int
    shares: dict

    def as_dict(self):
        return {"secret": self.secret, "seed": self.seed,
                "shares": count_rows(self.shares, "participant", "value")}


def deal(scheme: Scheme, secret: int, seed: int) -> DealReport:
    """Seeded dealing, uniform on the words of C^perp with s_0 = secret:
    every participant outside the solver's pivots B draws a uniform
    share and B's shares follow, a bijection, at O(n k) operations."""
    ctx, q = scheme.code.ctx, scheme.q
    if not 0 <= secret < q:
        raise SSSError(f"secret must be a field encoding in 0 .. {q - 1}")
    ids, red = scheme.solver
    rng = random.Random(seed)
    s = np.array([secret] + [rng.randrange(q) for _ in range(scheme.m)],
                 dtype=np.int64)
    s[ids] = 0
    s[ids] = ctx.vneg(combine(ctx, s, red.T))
    return DealReport(secret, seed, {i: int(s[i]) for i in range(1, scheme.code.n)})


def _participant_ids(scheme: Scheme, subset) -> list:
    """The distinct participant ids of subset, sorted, each in 1 .. m."""
    ids = sorted(set(int(i) for i in subset))
    if ids and not 1 <= ids[0] <= ids[-1] <= scheme.m:
        raise SSSError(f"participant ids must lie in 1 .. {scheme.m}")
    return ids


def recover(scheme: Scheme, subset, shares: dict) -> int:
    """Recover the secret from the shares of `subset`.

    One row reduction of the points outside {0} and the subset gives
    the space N of functionals h vanishing there, and codeword_block
    their values h(P_j).  The subset qualifies iff some h(P_0) != 0
    (NotQualifiedError, checked first); the shares are consistent iff
    consistent_secrets finds a secret (InconsistentSharesError), and
    then it finds exactly one.
    """
    ctx, code = scheme.code.ctx, scheme.code
    q, k = scheme.q, scheme.k
    ids = _participant_ids(scheme, subset)
    missing = [i for i in ids if i not in shares]
    if missing:
        raise SSSError(f"missing shares for participants {missing[:5]}")
    values = [int(shares[i]) for i in ids]
    if any(not 0 <= v < q for v in values):
        raise SSSError(f"share values must be field encodings in 0 .. {q - 1}")
    # E [R^T | I] = [E R^T | E]: the rows of E that E R^T zeroes span N
    pts = np.delete(code.cols, [0] + ids, axis=0)
    _, red = row_reduce(ctx, np.hstack((pts.T, np.eye(k, dtype=np.int64))))
    words = code.codeword_block(red[~red[:, :len(pts)].any(axis=1), len(pts):])
    if not words[:, 0].any():
        raise NotQualifiedError(
            "subset does not qualify: every functional vanishing off it "
            "vanishes at P0")
    ok = consistent_secrets(ctx, words, ids, values)
    if not ok.any():
        raise InconsistentSharesError(
            "shares are not the restriction of any dual codeword")
    return int(np.flatnonzero(ok)[0])


# ---------------------------------------------------------------------------
# access structures

@dataclass
class AccessStructure:
    """Sets of participants as one boolean matrix: row i is set i, and
    column j marks label j + 1.  Every statistic reduces that matrix."""
    participants: tuple
    matrix: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.matrix)

    def sets(self) -> list:
        return [tuple((np.flatnonzero(row) + 1).tolist()) for row in self.matrix]

    def sorted_sets(self) -> list:
        return sorted(self.sets(), key=lambda s: (len(s), s))

    def size_profile(self) -> dict:
        return dict(Counter(self.matrix.sum(axis=1).tolist()))

    def is_antichain(self) -> bool:
        """No set inside another.  A repeated row lies inside its twin;
        otherwise, with the rows sorted by size, first_inside finds any
        row holding a strictly smaller one."""
        rows = self.matrix
        if len(rows) < 2:
            return True
        packed = np.packbits(rows, axis=1)
        # rows of width 0 are all the empty set
        if not packed.shape[1] or len(_unique_rows(packed)[0]) < len(rows):
            return False
        order = np.argsort(rows.sum(axis=1), kind="stable")
        return not (first_inside(rows[order]) >= 0).any()

    def is_qualified(self, subset) -> bool:
        """Does the subset contain some minimal access set?"""
        mask = label_rows([subset], self.matrix.shape[1])[0]
        return bool((~self.matrix[:, ~mask].any(axis=1)).any())

    def membership_counts(self) -> dict:
        counts = self.matrix.sum(axis=0)
        return {p: int(counts[p - 1]) for p in self.participants}

    def as_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "count": self.count,
            "size_profile": count_rows(self.size_profile(), "size", "count"),
            "sets": [list(s) for s in self.sorted_sets()],
        }


def label_rows(sets, width: int) -> np.ndarray:
    """Matrix rows of sets of labels, each in 1 .. width."""
    rows = np.zeros((len(sets), width), dtype=bool)
    for row, s in zip(rows, sets):
        cols = [int(i) - 1 for i in s]
        if any(not 0 <= c < width for c in cols):
            raise SSSError(f"label out of range 1 .. {width}")
        row[cols] = True
    return rows


def access_structure(v: Variety, p0: int = 0,
                     budget: int | None = None) -> AccessStructure:
    """Minimal access sets of the dual-code scheme with secret point the
    p0-th point of v: one set per hyperplane avoiding that point,
    collecting the participants off the hyperplane.  The codeword of
    the message h holds h.P for every point P, and the normalized
    messages are the hyperplanes, so each block of class_blocks gives
    the rows with column 0 nonzero, in hyperplane order, after the
    Q^r x (n - 1) matrix is metered.

    The hyperplane correspondence needs the code on v, which only a
    spanning v has, to be minimal: other point sets are refused.
    """
    code = code_from_variety(v, p0)
    cut = cutting_blocking_check(v, budget)
    if not cut.ok:
        raise SSSError(
            "access structure undefined: the code is not minimal "
            f"(hyperplane {cut.witness_coords} meets the point set in a "
            f"rank-{cut.witness_rank} section)")
    entries = v.ctx.order ** v.r * (code.n - 1)
    check_budget(f"an access matrix of {entries} entries", entries, budget)
    matrix = np.concatenate([w[w[:, 0] != 0, 1:] != 0
                             for w in code.class_blocks(budget)])
    return AccessStructure(tuple(range(1, code.n)), matrix,
                           {"source": "hyperplanes", "variety": v.meta(), "p0": p0})


@dataclass
class DemocracyReport:
    sets: int
    participants: int
    per_participant: dict
    is_democratic: bool
    uniform_count: int | None
    dictators: list

    def as_dict(self):
        hist = Counter(self.per_participant.values())
        return {"sets": self.sets, "participants": self.participants,
                "count_histogram": count_rows(hist, "memberships", "participants"),
                "is_democratic": self.is_democratic,
                "uniform_count": self.uniform_count,
                "dictators": self.dictators}


def democracy_report(a: AccessStructure) -> DemocracyReport:
    counts = a.membership_counts()
    values = set(counts.values())
    uniform = len(values) == 1
    dictators = [p for p, c in counts.items() if c == a.count and a.count > 0]
    return DemocracyReport(a.count, len(a.participants), counts, uniform,
                           values.pop() if uniform else None, dictators)


@dataclass
class PerfectnessReport:
    subset: tuple
    consistent: int
    secret_counts: dict
    verdict: str             # "qualified" | "uniform" | "biased"

    def as_dict(self):
        return {"subset": list(self.subset), "consistent": self.consistent,
                "secret_counts": count_rows(self.secret_counts, "secret", "count"),
                "verdict": self.verdict}


def perfectness_check(scheme: Scheme, subset, secret: int = 0, seed: int = 0,
                      budget: int | None = None) -> PerfectnessReport:
    """Deal, restrict the shares to `subset`, and count the share
    vectors that agree there by the secret they carry, the exhaustive
    route to recover's verdict: a qualified subset pins one secret, an
    unqualified one sees each equally often.  class_blocks refuses by
    budget or WORDS_HARD_CAP before the deal, then enumerates C's q^k
    words; the q^d - 1 nonzero ones supported on {0} and the subset give
    the equations of consistent_secrets, and each consistent secret
    stands for q^(n - k - (|subset| + 1 - d)) share vectors."""
    ids = _participant_ids(scheme, subset)
    q, code = scheme.q, scheme.code
    blocks = code.class_blocks(budget)
    dealt = deal(scheme, secret, seed).shares
    kept = np.concatenate([w[~np.delete(w, [0] + ids, axis=1).any(axis=1)]
                           for w in blocks])
    ok = consistent_secrets(code.ctx, kept, ids, [dealt[i] for i in ids])
    d = round(math.log(len(kept) * (q - 1) + 1, q))
    per = q ** (code.n - code.k - (len(ids) + 1 - d))
    counts = {int(x): per for x in np.flatnonzero(ok)}
    verdict = {1: "qualified", q: "uniform"}.get(len(counts), "biased")
    return PerfectnessReport(tuple(ids), sum(counts.values()), counts,
                             verdict)


# ---------------------------------------------------------------------------
# permutation groups and development

@dataclass(frozen=True)
class PermGroup:
    """A permutation group with all its elements, as group_closure
    builds it."""
    degree: int
    generators: tuple
    elements: tuple = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)


def _closure(gens, degree, budget=None) -> tuple:
    # every element is metered against the budget and CLOSURE_CAP as it
    # joins, the identity first: the group's order is budget enough
    check_budget("group closure", 1, budget, CLOSURE_CAP)
    ident = tuple(range(degree))
    seen, todo = {ident}, [ident]
    while todo:
        p = todo.pop()
        for g in gens:
            img = tuple(g[x] for x in p)
            if img not in seen:
                check_budget("group closure", len(seen) + 1, budget, CLOSURE_CAP)
                seen.add(img)
                todo.append(img)
    return tuple(sorted(seen))


def group_closure(gens, degree: int, budget: int | None = None) -> PermGroup:
    """Materialized group generated by the given permutations, each a
    one-line tuple of length `degree` or a cycle-notation string."""
    parsed = []
    for g in gens:
        if isinstance(g, str):
            parsed.append(parse_cycles(g, degree))
        else:
            t = tuple(int(x) for x in g)
            if sorted(t) != list(range(degree)):
                raise SSSError("not a permutation in one-line notation")
            parsed.append(t)
    return PermGroup(degree, tuple(parsed), _closure(parsed, degree, budget))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> tuple:
    """Cycle notation with 1-based labels to a 0-based one-line tuple."""
    stripped = re.sub(r"\s+", "", text)
    if not re.fullmatch(r"(\([^()]*\))*", stripped):
        raise SSSError(f"malformed cycle notation: {text!r}")
    perm = list(range(degree))
    moved = set()
    for body in _CYCLE_RE.findall(stripped):
        if not body:
            continue
        try:
            labels = [int(x) for x in body.split(",")]
        except ValueError:
            raise SSSError(f"malformed cycle {body!r}") from None
        if any(not 1 <= v <= degree for v in labels):
            raise SSSError(f"cycle label out of range 1 .. {degree}: {body!r}")
        if len(set(labels)) != len(labels) or moved & set(labels):
            raise SSSError(f"repeated label in cycles: {body!r}")
        moved |= set(labels)
        for a, b in zip(labels, labels[1:] + labels[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


def permute_rows(perm: tuple, rows: np.ndarray) -> np.ndarray:
    """Images of matrix rows under a 0-based one-line permutation."""
    return rows[:, np.argsort(perm)]


def _unique_bool_rows(rows: np.ndarray) -> np.ndarray:
    """np.unique(rows, axis=0) for boolean rows, which would import
    numpy.ma at run time."""
    return _unique_rows(rows.view(np.uint8))[0].view(bool)


def develop(starters, group: PermGroup, budget: int | None = None) -> AccessStructure:
    """All images of the starter sets under the full group, one row per
    distinct image, ordered as binary numbers with label i worth 2^(i-1)."""
    work = group.order * len(starters)
    check_budget(f"developing {work} set images", work, budget)
    starts = label_rows(starters, group.degree)
    images = np.concatenate([permute_rows(g, starts) for g in group.elements])
    # unique sorts from the first column: reversed, the highest label leads
    matrix = _unique_bool_rows(images[:, ::-1])[:, ::-1]
    return AccessStructure(tuple((np.flatnonzero(matrix.any(axis=0)) + 1).tolist()),
                           matrix,
                           {"source": "development", "degree": group.degree,
                            "group_order": group.order,
                            "starters": [sorted(int(i) for i in s)
                                         for s in starters]})


# ---------------------------------------------------------------------------
# shipped example data

@dataclass
class Fixture:
    degree: int
    fixed: int | None
    generator_cycles: list
    starters: list


def load_fixture(name: str = "hermitian_surface_q2") -> Fixture:
    text = (resources.files("qhcodes.data") / f"{name}.txt").read_text()
    degree = None
    fixed = None
    gens = []
    starters = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "degree":
            degree = int(rest)
        elif key == "fixed":
            fixed = int(rest)
        elif key == "generator":
            gens.append(rest)
        elif key == "set":
            starters.append([int(x) for x in rest.split(",")])
        else:
            raise SSSError(f"unknown fixture line {key!r}")
    if degree is None or not gens or not starters:
        raise SSSError(f"fixture {name!r} is incomplete")
    return Fixture(degree, fixed, gens, starters)


def verify_example(budget: int | None = None) -> dict:
    """Label-free facts about the shipped point-stabilizer example:
    group order, development count, size profile, antichain and
    stabilization of the developed structure by every generator."""
    fx = load_fixture()
    group = group_closure(fx.generator_cycles, fx.degree, budget)
    dev = develop(fx.starters, group, budget)
    fixed_ok = (fx.fixed is None
                or all(g[fx.fixed - 1] == fx.fixed - 1 for g in group.generators))
    rows = _unique_bool_rows(dev.matrix)
    auto_ok = all(np.array_equal(_unique_bool_rows(permute_rows(g, rows)), rows)
                  for g in group.generators)
    return {
        "degree": fx.degree,
        "group_order": group.order,
        "n_sets": dev.count,
        "size_profile": dev.size_profile(),
        "is_antichain": dev.is_antichain(),
        "starters_included": all((rows == row).all(axis=1).any()
                                 for row in label_rows(fx.starters, fx.degree)),
        "fixed_point_ok": fixed_ok,
        "automorphism_ok": auto_ok,
    }
