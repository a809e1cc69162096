"""Linear secret sharing from projective codes.

A scheme wraps a code whose column 0 is the secret position g0; the
dealer draws a uniformly random message u with u.g0 = secret and hands
participant i the codeword symbol u.g_i.  A subset recovers the secret
exactly when g0 lies in the span of its columns, and the secret is then
the same combination of the shares.  recover finds both with one row
reduction of the subset's table of rows (g_i | share_i): a combination
of those rows that equals (g0 | x) gives the secret x.

For a spanning point set V whose code is minimal, the minimal access
sets of the dual-code scheme are in bijection with the hyperplanes
avoiding the secret point P0: the access set collects the participants
off the hyperplane.  That geometric family (its cardinality q^r, the
per-participant membership counts, antichain property) is what
access_structure and democracy_report compute and what development
under a permutation group reproduces from starter sets.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .budget import check_budget
from .code import LinearCode, code_from_variety, cutting_blocking_check
from .geom import dot_rows, row_reduce
from .variety import Variety

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

    @property
    def g0(self) -> np.ndarray:
        return self.code.cols[0]

    @classmethod
    def from_variety(cls, v: Variety, p0: int = 0) -> "Scheme":
        return cls(code_from_variety(v, p0), v, p0)

    def meta(self) -> dict:
        out = {"q": self.q, "k": self.k, "participants": self.m, "p0": self.p0}
        if self.variety is not None:
            out["variety"] = self.variety.meta()
        return out


@dataclass
class DealReport:
    secret: int
    seed: int
    shares: dict

    def as_dict(self):
        return {"secret": self.secret, "seed": self.seed,
                "shares": [{"participant": int(i), "value": int(v)}
                           for i, v in sorted(self.shares.items())]}


def deal(scheme: Scheme, secret: int, seed: int) -> DealReport:
    """Seeded dealing: draw the free message coordinates uniformly and
    solve the remaining one against g0, so u is uniform among the
    q^(k-1) messages consistent with the secret."""
    ctx = scheme.code.ctx
    q, k = scheme.q, scheme.k
    if not 0 <= secret < q:
        raise SSSError(f"secret must be a field encoding in 0 .. {q - 1}")
    g0 = scheme.g0
    piv = int(np.nonzero(g0)[0][0])
    rng = random.Random(seed)
    u = np.zeros(k, dtype=np.int64)
    for i in range(k):
        if i != piv:
            u[i] = rng.randrange(q)
    acc = 0
    for i in range(k):
        if i != piv and u[i]:
            acc = ctx.add(acc, ctx.mul(int(u[i]), int(g0[i])))
    u[piv] = ctx.div(ctx.sub(secret, acc), int(g0[piv]))
    word = scheme.code.codeword(u)
    shares = {i: int(word[i]) for i in range(1, scheme.code.n)}
    return DealReport(secret, seed, shares)


def recover(scheme: Scheme, subset, shares: dict) -> int:
    """Recover the secret from the shares of `subset`.

    One row reduction of the table with rows (g_i | share_i) decides
    everything.  Reducing (g0 | 0) against its reduced rows leaves a
    residual: if its first k entries are not all zero, g0 is outside the
    span of the columns and the subset does not qualify
    (NotQualifiedError, checked first).  Otherwise a pivot in the share
    column means no codeword restricts to the shares
    (InconsistentSharesError).  Otherwise the residual is
    (0 | -sum x_i share_i) for some g0 = sum x_i g_i, so the secret is
    its negated last entry.
    """
    ctx = scheme.code.ctx
    q, k = scheme.q, scheme.k
    ids = sorted(set(int(i) for i in subset))
    if any(not 1 <= i <= scheme.m for i in ids):
        raise SSSError(f"participant ids must lie in 1 .. {scheme.m}")
    missing = [i for i in ids if i not in shares]
    if missing:
        raise SSSError(f"missing shares for participants {missing[:5]}")
    values = [int(shares[i]) for i in ids]
    if any(not 0 <= v < q for v in values):
        raise SSSError(f"share values must be field encodings in 0 .. {q - 1}")
    if not ids:
        raise NotQualifiedError("the empty subset holds no information")
    table = np.zeros((len(ids), k + 1), dtype=np.int64)
    table[:, :k] = scheme.code.cols[ids]
    table[:, k] = values
    _, red = row_reduce(ctx, table)
    res = np.zeros(k + 1, dtype=np.int64)
    res[:k] = scheme.g0
    for row in red:
        c = int(np.nonzero(row)[0][0])
        if res[c]:
            res = ctx.vadd(res, ctx.vneg(ctx.scalar_mul_row(int(res[c]))[row]))
    if res[:k].any():
        raise NotQualifiedError(
            "subset does not qualify: g0 is outside the span of its columns")
    if not red[-1, :k].any():
        raise InconsistentSharesError(
            "shares are not the restriction of any codeword")
    return int(ctx.neg(int(res[k])))


# ---------------------------------------------------------------------------
# access structures

@dataclass
class AccessStructure:
    participants: tuple
    sets_bits: list
    provenance: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.sets_bits)

    def sets(self) -> list:
        return [tuple(i + 1 for i in _bit_positions(b)) for b in self.sets_bits]

    def sorted_sets(self) -> list:
        return sorted(self.sets(), key=lambda s: (len(s), s))

    def size_profile(self) -> dict:
        return dict(Counter(int(b).bit_count() for b in self.sets_bits))

    def is_antichain(self) -> bool:
        bits = self.sets_bits
        for i in range(len(bits)):
            for j in range(len(bits)):
                if i != j and bits[i] & ~bits[j] == 0:
                    return False
        return True

    def is_qualified(self, subset) -> bool:
        """Does the subset contain some minimal access set?"""
        mask = 0
        for i in subset:
            mask |= 1 << (int(i) - 1)
        return any(b & ~mask == 0 for b in self.sets_bits)

    def membership_counts(self) -> dict:
        counts = {p: 0 for p in self.participants}
        for b in self.sets_bits:
            for i in _bit_positions(b):
                counts[i + 1] += 1
        return counts

    def as_dict(self) -> dict:
        prof = self.size_profile()
        return {
            "provenance": self.provenance,
            "count": self.count,
            "size_profile": [{"size": int(s), "count": int(c)}
                             for s, c in sorted(prof.items())],
            "sets": [list(s) for s in self.sorted_sets()],
        }


def _bit_positions(b: int):
    while b:
        low = b & -b
        yield low.bit_length() - 1
        b ^= low


def access_structure(v: Variety, p0: int = 0,
                     budget: int | None = None) -> AccessStructure:
    """Minimal access sets of the dual-code scheme with secret point the
    p0-th point of v: one set per hyperplane avoiding that point,
    collecting the participants off the hyperplane.

    The hyperplane correspondence needs every nonzero codeword of the
    code on v to be minimal, so non-cutting point sets are refused.
    """
    cut = cutting_blocking_check(v, budget)
    if not cut.ok:
        raise SSSError(
            "access structure undefined: the code is not minimal "
            f"(hyperplane {cut.witness_coords} meets the point set in a "
            f"rank-{cut.witness_rank} section)")
    code = code_from_variety(v, p0)
    ctx, space = v.ctx, v.space
    n_h = space.n_points
    check_budget(f"scanning {n_h} hyperplanes", n_h, budget)
    part_cols = code.cols[1:]
    g0 = code.cols[0]
    bits = []
    hyp = space.points
    for i in range(n_h):
        if int(dot_rows(ctx, hyp[i], g0[None, :])[0]) == 0:
            continue
        off = dot_rows(ctx, hyp[i], part_cols) != 0
        bits.append(int.from_bytes(
            np.packbits(off, bitorder="little").tobytes(), "little"))
    return AccessStructure(
        tuple(range(1, code.n)), bits,
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
                "count_histogram": [{"memberships": int(k), "participants": int(v)}
                                    for k, v in sorted(hist.items())],
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
                "secret_counts": [{"secret": int(s), "count": int(c)}
                                  for s, c in sorted(self.secret_counts.items())],
                "verdict": self.verdict}


def perfectness_check(scheme: Scheme, subset, secret: int = 0, seed: int = 0,
                      budget: int | None = None) -> PerfectnessReport:
    """Deal, restrict the shares to `subset`, then enumerate every
    message consistent with those restricted shares and tally the
    secrets they imply.  A qualified subset pins a single secret; an
    unqualified one must see every secret equally often.  The q^k
    messages are the codewords of the code on g0 and the subset's
    columns, so word_blocks refuses by budget and hard cap before the
    deal."""
    ids = sorted(set(int(i) for i in subset))
    if any(not 1 <= i <= scheme.m for i in ids):
        raise SSSError(f"participant ids must lie in 1 .. {scheme.m}")
    probe = LinearCode(scheme.code.ctx, scheme.code.cols[[0] + ids])
    blocks = probe.word_blocks(budget)
    dealt = deal(scheme, secret, seed).shares
    target = np.array([dealt[i] for i in ids], dtype=np.int64)
    counts: Counter = Counter()
    for block in blocks:
        ok = (block[:, 1:] == target).all(axis=1)
        vals, cnts = np.unique(block[ok, 0], return_counts=True)
        for s_val, c in zip(vals, cnts):
            counts[int(s_val)] += int(c)
    if len(counts) == 1:
        verdict = "qualified"
    elif len(counts) == scheme.q and len(set(counts.values())) == 1:
        verdict = "uniform"
    else:
        verdict = "biased"
    return PerfectnessReport(tuple(ids), sum(counts.values()), dict(counts),
                             verdict)


# ---------------------------------------------------------------------------
# permutation groups and development

@dataclass
class PermGroup:
    degree: int
    generators: tuple
    _elements: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements())

    def elements(self, budget: int | None = None) -> tuple:
        if self._elements is None:
            self._elements = _closure(self.generators, self.degree, budget)
        return self._elements


def _closure(gens, degree, budget=None) -> tuple:
    cap = min(budget, CLOSURE_CAP) if budget is not None else CLOSURE_CAP
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                img = tuple(g[x] for x in p)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        if len(seen) > cap:
            check_budget("group closure", len(seen), cap)
        frontier = nxt
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
    group = PermGroup(degree, tuple(parsed))
    group.elements(budget)
    return group


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


def apply_to_set(perm: tuple, labels) -> frozenset:
    return frozenset(perm[i - 1] + 1 for i in labels)


def develop(starters, group: PermGroup, budget: int | None = None) -> AccessStructure:
    """All images of the starter sets under the full group."""
    elements = group.elements(budget)
    work = len(elements) * len(starters)
    check_budget(f"developing {work} set images", work, budget)
    universe = set()
    images = set()
    for s in starters:
        fs = frozenset(int(i) for i in s)
        if any(not 1 <= i <= group.degree for i in fs):
            raise SSSError(f"starter label out of range 1 .. {group.degree}")
        for g in elements:
            img = apply_to_set(g, fs)
            images.add(img)
            universe |= img
    bits = sorted(sum(1 << (i - 1) for i in img) for img in images)
    return AccessStructure(tuple(sorted(universe)), bits,
                           {"source": "development", "degree": group.degree,
                            "group_order": len(elements),
                            "starters": [sorted(int(i) for i in s)
                                         for s in starters]})


def structures_equal(a: AccessStructure, b: AccessStructure) -> bool:
    return set(a.sets_bits) == set(b.sets_bits)


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
    sets = {frozenset(s) for s in dev.sets()}
    auto_ok = all(
        {frozenset(apply_to_set(g, s)) for s in sets} == sets
        for g in group.generators)
    return {
        "degree": fx.degree,
        "group_order": group.order,
        "n_sets": dev.count,
        "size_profile": dev.size_profile(),
        "is_antichain": dev.is_antichain(),
        "starters_included": all(frozenset(s) in sets for s in fx.starters),
        "fixed_point_ok": fixed_ok,
        "automorphism_ok": auto_ok,
    }
