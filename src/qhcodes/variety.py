"""Point sets in PG(r, q^2): Hermitian varieties, a twisted Hermitian
hypersurface family, and the quasi-Hermitian varieties obtained by gluing
the twisted affine part to a Hermitian cone at infinity.

The twisted hypersurface with parameters alpha in GF(q^2)* and
beta in GF(q^2) \\ GF(q) is the projective closure of the affine set

    x_r^q - x_r + alpha^q (x_1^{2q} + ... + x_{r-1}^{2q})
                - alpha   (x_1^2    + ... + x_{r-1}^2)
        = (beta^q - beta) (x_1^{q+1} + ... + x_{r-1}^{q+1}).

Its section at infinity (X_0 = 0) degenerates to the quadric
sum x_i^2 = 0 for odd q and to the hyperplane sum x_i = 0 for even q,
with i running over 1 .. r-1.  Replacing that section by the Hermitian
cone F: sum_{i=1}^{r-1} X_i^{q+1} = 0 inside X_0 = 0 yields a
quasi-Hermitian variety: same size and same two hyperplane intersection
numbers as the nondegenerate Hermitian variety of PG(r, q^2).

Every equation here is a sum of one-coordinate terms.  L(t) = t^q - t
is additive, so the affine equation is L(alpha s2 + x_r) = (beta^q - beta) sN
with s2 = sum x_i^2, sN = sum x_i^{q+1}, and reads

    h(x_1) + ... + h(x_{r-1}) + L(x_r) = 0,
    h(x) = L(alpha x^2) - (beta^q - beta) x^{q+1};

the Hermitian, cone and infinity equations sum x^{q+1}, x^2 or x.  The
builders tabulate one term per coordinate over GF(q^2) and sum those
tables over each chart of PG(r, q^2) (_build), expanding no point.

Parameter admissibility depends on the parities of q and r; see
validate_params for the exact clauses.

The twisted and quasi-Hermitian sets meet X_0 = 0 in the cone with
vertex P0 = (0, .., 0, 1) over S_inf: sum_{i=1}^{r-1} g(X_i) = 0 in
PG(r-2, Q), Q = q^2, g = x^2 (twisted, odd q), x (twisted, even q) or
x^{q+1} (quasi-Hermitian).  With n_inf = |S_inf|, eps = (-1)^(r-1),
D0 = q^(2r-3) + eps (q-1) q^(r-2) and Dc = q^(2r-3) - eps q^(r-2), a
hyperplane a . X with a_r != 0 meets one in n_inf + D0 points
(q^(2r-1) times) or n_inf + Dc ((q-1) q^(2r-1) times): its affine
points solve sum h(x_i) = lambda, lambda uniform on {t : t^q = -t}.
With a_r = 0 it meets one in q^(2r-3) + 1 + Q s points (Q c_s times)
if (a_1 .. a_(r-1)) meets S_inf in s points (c_s hyperplanes of
PG(r-2, Q) do), and X_0 = 0 in 1 + Q n_inf.  N = q^(2r-1) + 1 + Q n_inf.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import isqrt

import numpy as np

from .budget import BudgetError, check_budget
from .geom import (SUBSPACE_BLOCK, ProjectiveSpace, dot_rows, gaussian_binomial, num_points,
                   pg_space, product_table, subspace_counts)
from .gf import FiniteField, _is_prime, factor_prime_power, quadratic_field

POINT_ORDER_VERSION = "lex-v1"


class ParamsError(ValueError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class TwistedParams:
    """q, r and the field encodings of alpha, beta."""
    q: int
    r: int
    alpha: int
    beta: int
    ctx: FiniteField = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ctx = quadratic_field(self.q)

    def as_dict(self):
        return {"q": self.q, "r": self.r, "alpha": self.alpha, "beta": self.beta}


@dataclass(frozen=True)
class Clause:
    name: str
    ok: bool
    detail: str


@dataclass
class ValidationReport:
    ok: bool
    clauses: list

    def failures(self):
        return [c for c in self.clauses if not c.ok]


def _qr_clauses(q: int, r: int) -> list:
    """The clauses on q and r alone: if one fails, no (alpha, beta) is valid."""
    base_ok, dim_ok = q >= 3, r >= 3
    return [Clause("base-field", base_ok,
                   f"q = {q} must be at least 3 (even q > 2 required)" if not base_ok
                   else f"q = {q} acceptable"),
            Clause("dimension", dim_ok,
                   f"r = {r} acceptable" if dim_ok else f"r = {r} must be at least 3")]


def validate_params(params: TwistedParams) -> ValidationReport:
    """Check the admissibility clauses for the twisted hypersurface.

    Odd q: the discriminant 4 alpha^{q+1} + (beta^q - beta)^2, an element
    of GF(q), must be nonzero when r is odd and a nonsquare when r is
    even.  Even q (> 2): r odd needs nothing extra; r even requires the
    absolute trace (down to GF(2)) of alpha^{q+1} / (beta^q + beta)^2 to
    vanish.
    """
    q, r = params.q, params.r
    ctx = params.ctx
    clauses = _qr_clauses(q, r)
    p = ctx.p
    alpha, beta = params.alpha, params.beta
    # an encoding outside 0 .. Q-1 names no element at all
    a_in, b_in = (0 <= x < ctx.order for x in (alpha, beta))
    foreign = f"encodes no element of GF({ctx.order}), whose encodings are 0 .. {ctx.order - 1}"
    a_ok, b_ok = a_in and alpha != 0, b_in and ctx.frobenius_q(beta) != beta
    clauses.append(Clause(
        "alpha-nonzero", a_ok, "alpha is a nonzero element" if a_ok
        else f"alpha = {alpha} " + ("must be nonzero" if a_in else foreign)))
    clauses.append(Clause(
        "beta-outside-subfield", b_ok, "beta lies outside GF(q)" if b_ok
        else f"beta = {beta} " + ("is fixed by x -> x^q, so it lies in GF(q)" if b_in
                                  else foreign)))

    if all(c.ok for c in clauses):
        sub = ctx.subfield
        norm_a = ctx.mul(alpha, ctx.frobenius_q(alpha))
        if p != 2:
            bqb = ctx.sub(ctx.frobenius_q(beta), beta)
            four = 4 % p
            disc = ctx.add(ctx.mul(four, norm_a), ctx.mul(bqb, bqb))
            d = ctx.to_subfield(disc)
            if r % 2 == 1:
                ok = d != 0
                clauses.append(Clause(
                    "discriminant-nonzero", ok,
                    f"4*N(alpha) + (beta^q - beta)^2 = {d} in GF({q})"
                    + ("" if ok else " vanishes")))
            else:
                ok = not sub.is_square(d)
                clauses.append(Clause(
                    "discriminant-nonsquare", ok,
                    f"4*N(alpha) + (beta^q - beta)^2 = {d} in GF({q}) is "
                    + ("a nonsquare" if ok else "a square")))
        else:
            if r % 2 == 1:
                clauses.append(Clause(
                    "even-q-odd-r", True, "no additional constraint"))
            else:
                t = ctx.add(ctx.frobenius_q(beta), beta)
                ratio = ctx.div(norm_a, ctx.mul(t, t))
                d = ctx.to_subfield(ratio)
                tr = sub.trace_to_prime(d)
                ok = tr == 0
                clauses.append(Clause(
                    "trace-zero", ok,
                    f"absolute trace of N(alpha)/T(beta)^2 = {tr}"
                    + ("" if ok else ", must vanish")))

    return ValidationReport(all(c.ok for c in clauses), clauses)


def require_valid(params: TwistedParams) -> None:
    rep = validate_params(params)
    if not rep.ok:
        msgs = "; ".join(c.detail for c in rep.failures())
        raise ParamsError(f"invalid parameters for q={params.q}, r={params.r}: {msgs}",
                          report=rep)


def default_params(q: int, r: int) -> TwistedParams:
    """First valid (alpha, beta) in encoding order, a deterministic fixture.

    Scans alpha ascending then beta ascending and returns on the first
    admissible pair.  A q or r that no pair can mend is refused before
    the scan, naming its clause.  If the exhaustive scan finds none (as
    happens for q = 3 with even r, where the discriminant only reaches
    squares), the refusal says so.
    """
    factor_prime_power(q)  # a q that is no prime power is the first refusal
    clauses = _qr_clauses(q, r)
    if not all(c.ok for c in clauses):
        rep = ValidationReport(False, clauses)
        msgs = "; ".join(c.detail for c in rep.failures())
        raise ParamsError(f"no (alpha, beta) is valid for q={q}, r={r}: {msgs}",
                          report=rep)
    last = None
    for alpha in range(1, q * q):
        for beta in range(q * q):
            params = TwistedParams(q, r, alpha, beta)
            rep = validate_params(params)
            if rep.ok:
                return params
            last = rep
    msgs = "; ".join(c.detail for c in last.failures()) if last else "empty field"
    raise ParamsError(
        f"exhaustive scan over all (alpha, beta) found no valid parameters "
        f"for q={q}, r={r}; last failure: {msgs}", report=last)


# ---------------------------------------------------------------------------
# builders

@dataclass
class Variety:
    """A point set of PG(r, Q) as the canonical indices of its points,
    strictly increasing; space.rows(indices) gives their coordinates."""
    kind: str
    ctx: FiniteField
    r: int
    space: ProjectiveSpace = field(repr=False)
    indices: np.ndarray = field(repr=False)
    params: TwistedParams | None = None
    _hyp_sizes: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return int(self.indices.size)

    @property
    def label(self) -> str:
        q = self.base_order
        extra = ""
        if self.params is not None:
            extra = f",alpha={self.params.alpha},beta={self.params.beta}"
        return f"{self.kind}(q={q},r={self.r}{extra})"

    @property
    def base_order(self) -> int:
        return self.ctx.sub_order if self.ctx.subfield is not None else self.ctx.order

    def membership(self) -> np.ndarray:
        mask = np.zeros(self.space.n_points, dtype=bool)
        mask[self.indices] = True
        return mask

    def affine_count(self) -> int:
        # the affine chart X_0 = 1 holds the indices from theta_(r-1) on
        at = np.searchsorted(self.indices, self.space.starts[self.r])
        return self.n - int(at)

    def meta(self) -> dict:
        return {
            "kind": self.kind,
            "r": self.r,
            "q": self.base_order,
            "field": self.ctx.serialize(),
            "n": self.n,
            "params": self.params.as_dict() if self.params else None,
            "point_order": POINT_ORDER_VERSION,
        }


def _build(kind, ctx, r, budget, affine, infinity, params=None) -> Variety:
    """The points of PG(r, Q) whose coordinates x satisfy
    sum_c g_c(x_c) = 0, for g_0, g_1 = .. = g_(r-1) and g_r the three
    tables of `affine` on the chart X_0 = 1 and of `infinity` off it
    (None: no point there).  The points with lead 1 at column l,
    (0, .., 0, 1, a_1 .. a_w) with w = r - l, hold the indices
    theta_(w-1) .. theta_w - 1 in the base-Q order of (a_1 .. a_w): a
    product set, on which _chart_zeros sums
    g_l(1) + g_(l+1)(a_1) + ... + g_r(a_w).  The budget refuses the scan
    before any chart is summed."""
    q = ctx.order
    n = num_points(r, q)
    check_budget(f"scanning {n} points", n, budget)
    space = pg_space(ctx, r)
    dtype = np.min_scalar_type(q - 1)
    charts = []
    for w in range(r + 1):
        part = affine if w == r else infinity
        if part is not None:
            first, middle, last = (t.astype(dtype) for t in part)
            g = ([first] + [middle] * (r - 1) + [last])[r - w:]
            charts.append((space.starts[w], g[0][1], g[1:]))
    return Variety(kind, ctx, r, space, _chart_zeros(ctx, charts), params)


def _chart_zeros(ctx: FiniteField, charts) -> np.ndarray:
    """The indices of the zeros of lead + sum_c g_c(a_c) over the charts
    (start, lead, [g_1 .. g_w]): the point start + i, for i the base-Q
    number a_1 .. a_w, with the tables in the narrowest dtype of GF(Q).

    The sums over the trailing columns, at most SUBSPACE_BLOCK of them,
    form the tail and those over the leading ones, with lead, the head,
    each built by one broadcast field addition per column; no point's
    row is expanded.  A point is a zero iff its tail sum is minus its
    head sum: SUBSPACE_BLOCK comparisons at a time write their offsets
    into one array, sized beforehand from the tails' value counts.
    """
    q = ctx.order
    sums = []
    for start, lead, tables in charts:
        t = len(tables)
        while q ** t > SUBSPACE_BLOCK:
            t -= 1
        head, tail = np.array([lead]), np.zeros(1, dtype=lead.dtype)
        for g in tables[:len(tables) - t]:
            head = ctx.vadd(head[:, None], g).reshape(-1)
        for g in tables[len(tables) - t:]:
            tail = ctx.vadd(tail[:, None], g).reshape(-1)
        sums.append((start, ctx.vneg(head).astype(lead.dtype), tail))
    out = np.empty(sum(int(np.bincount(tail, minlength=q)[need].sum())
                       for _, need, tail in sums), dtype=np.int64)
    at = 0
    for start, need, tail in sums:
        step = max(1, SUBSPACE_BLOCK // tail.size)
        for h in range(0, need.size, step):
            hit = np.flatnonzero(tail == need[h:h + step, None])
            np.add(hit, start + h * tail.size, out=out[at:at + hit.size])
            at += hit.size
    assert at == out.size
    return out


def _norms(ctx: FiniteField) -> np.ndarray:
    return ctx.pow_row(ctx.sub_order + 1)


def _off_chart(ctx: FiniteField, middle: np.ndarray) -> tuple:
    """Tables for X_0 = 0: the section equations sum middle over the
    columns 1 .. r-1 and leave X_r free."""
    zero = np.zeros(ctx.order, dtype=np.int64)
    return zero, middle, zero


def _twisted_infinity(ctx: FiniteField) -> tuple:
    # the quadric sum x_i^2 = 0 for odd q, the hyperplane sum x_i = 0 for even q
    return _off_chart(ctx, ctx.pow_row(1 if ctx.p == 2 else 2))


def _twisted_affine(params: TwistedParams) -> tuple:
    """Tables (0, h, L) of the affine equation on X_0 = 1, with
    L(t) = t^q - t and h(x) = L(alpha x^2) - (beta^q - beta) x^{q+1}."""
    ctx = params.ctx
    e = np.arange(ctx.order)
    lin = ctx.vadd(ctx.pow_row(ctx.sub_order), ctx.vneg(e))
    bqb = ctx.sub(ctx.frobenius_q(params.beta), params.beta)
    h = ctx.vadd(lin[ctx.scalar_mul_row(params.alpha)[ctx.pow_row(2)]],
                 ctx.vneg(ctx.scalar_mul_row(bqb)[_norms(ctx)]))
    return np.zeros_like(e), h, lin


def build_twisted(params: TwistedParams, budget: int | None = None) -> Variety:
    """The twisted Hermitian hypersurface for admissible (alpha, beta).
    L(t) = t^q - t is additive, so its affine equation reads
    sum_{i<r} h(x_i) + L(x_r) = 0, h(x) = L(alpha x^2) - (beta^q - beta) x^{q+1}."""
    require_valid(params)
    return _build("twisted", params.ctx, params.r, budget, _twisted_affine(params),
                  _twisted_infinity(params.ctx), params)


def build_twisted_at_infinity(ctx: FiniteField, r: int,
                              budget: int | None = None) -> Variety:
    """Section of the twisted hypersurface by the hyperplane X_0 = 0."""
    ctx._require_subfield()
    return _build("twisted-infinity", ctx, r, budget, None, _twisted_infinity(ctx))


def build_cone(ctx: FiniteField, r: int, budget: int | None = None) -> Variety:
    """Hermitian cone F: X_0 = 0 and sum_{i=1}^{r-1} X_i^{q+1} = 0."""
    ctx._require_subfield()
    return _build("cone", ctx, r, budget, None, _off_chart(ctx, _norms(ctx)))


def build_hermitian(ctx: FiniteField, r: int, budget: int | None = None) -> Variety:
    """Nondegenerate Hermitian variety sum X_i^{q+1} = 0 of PG(r, q^2)."""
    ctx._require_subfield()
    norms = (_norms(ctx),) * 3
    return _build("hermitian", ctx, r, budget, norms, norms)


def build_quasi_hermitian(params: TwistedParams, budget: int | None = None) -> Variety:
    """Affine part of the twisted hypersurface, sum_{i<r} h(x_i) + L(x_r) = 0
    with L(t) = t^q - t additive (build_twisted), glued to the cone F."""
    require_valid(params)
    return _build("quasi-hermitian", params.ctx, params.r, budget, _twisted_affine(params),
                  _off_chart(params.ctx, _norms(params.ctx)), params)


BUILDERS_WITH_PARAMS = {"twisted": build_twisted, "quasi-hermitian": build_quasi_hermitian}
BUILDERS_PLAIN = {"hermitian": build_hermitian, "cone": build_cone,
                  "twisted-infinity": build_twisted_at_infinity}


def build_variety(kind: str, q: int, r: int, alpha: int | None = None,
                  beta: int | None = None, budget: int | None = None) -> Variety:
    """Uniform entry point used by the command line."""
    if r < 1:
        raise ParamsError(f"r = {r} must be at least 1")
    if kind in BUILDERS_WITH_PARAMS:
        if alpha is None or beta is None:
            params = default_params(q, r)
        else:
            params = TwistedParams(q, r, alpha, beta)
        return BUILDERS_WITH_PARAMS[kind](params, budget)
    if kind in BUILDERS_PLAIN:
        return BUILDERS_PLAIN[kind](quadratic_field(q), r, budget)
    raise ParamsError(f"unknown variety kind {kind!r}")


# ---------------------------------------------------------------------------
# hyperplane spectra

@dataclass
class SpectrumReport:
    variety: dict
    axis: str                  # "hyperplane" or "line"
    counts: dict               # intersection size -> number of subspaces
    engine: str

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.counts))

    def as_dict(self) -> dict:
        return {
            "variety": self.variety,
            "axis": self.axis,
            "spectrum": count_rows(self.counts, "size", "count"),
            "total": int(self.total),
            "engine": self.engine,
        }


def _sizes_direct(ctx: FiniteField, space: ProjectiveSpace,
                  indices: np.ndarray) -> np.ndarray:
    """The reference for the transform: |H meet V| for every hyperplane
    H, as n minus the points of V off H, by one dot_rows per H, in int64.
    The rows of the hyperplanes are derived SUBSPACE_BLOCK at a time, so
    no table of PG(r, Q) is held.  Nothing in the package calls it; the
    tests compare the transform against it."""
    total = space.n_points
    out = np.empty(total, dtype=np.int64)
    n, vcoords = len(indices), space.rows(indices)
    for lo in range(0, total, SUBSPACE_BLOCK):
        hyps = space.rows(np.arange(lo, min(lo + SUBSPACE_BLOCK, total)))
        for i, h in enumerate(hyps, lo):
            out[i] = n - int(np.count_nonzero(dot_rows(ctx, h, vcoords)))
    return out


# Characters of GF(p)^D: a radix-p pass per digit, or radix p^2 per two.
# Characteristic 2 transforms exactly in integers; odd p transforms
# modulo a prime M with M = 1 (mod p), so zeta, a p-th root of unity mod
# M, stands in for exp(2 pi i / p), in float64 matrix products (BLAS
# dgemm) that stay exact.  Blocks of at most SUBSPACE_BLOCK entries
# bound every temporary, so no full-size copy, and no float64 array
# beyond four such blocks, is made.


def _transform_modulus(p: int, bound: int) -> tuple:
    """(M, zeta): the least prime M = 1 (mod p) above 2 * bound, and a
    primitive p-th root of unity zeta modulo M.

    Integers of absolute value at most bound are then determined by
    their residues mod M, read in (-M/2, M/2].
    """
    M = 2 * bound + 1
    M += (1 - M) % p
    while not _is_prime(M):
        M += p
    g = 2
    while pow(g, (M - 1) // p, M) == 1:
        g += 1
    return M, pow(g, (M - 1) // p, M)


def _transform_limit(p: int) -> int:
    """Largest modulus the transform carries exactly (for p = 2, the
    largest absolute value): entries are int32, and for odd p also
    p M^2 < 2^63, a range the float64 passes carry in at most two limbs
    for every p of the field table (_limbs)."""
    return min(2 ** 31 - 1, isqrt((2 ** 63 - 1) // p))


def _transform_range(p: int, q: int, n: int) -> tuple:
    """(M, zeta) for the transform of n points over GF(q), (0, 0) for
    p = 2, or a BudgetError if its integer arithmetic cannot carry the
    sums exactly: p = 2 carries partial sums up to q n in int32, and odd
    p needs a modulus M above 2 (q - 1) n (_transform_modulus)."""
    bound = q * n if p == 2 else (q - 1) * n
    M, zeta = (0, 0) if p == 2 else _transform_modulus(p, bound)
    need, limit = bound if p == 2 else M, _transform_limit(p)
    if need > limit:
        raise BudgetError(f"a character transform with sums up to {bound}", need, limit,
                          f"that needs {need}, beyond the transform's exact range "
                          f"of {limit}, whatever the budget")
    return M, zeta


def _limbs(M: int, radix: int) -> tuple:
    """(limbs, s): the odd-p passes at modulus M multiply residues x,
    |x| <= M, by a radix x radix character matrix of entries
    |w| <= M // 2, split into limbs of s bits, high limb first:
    x = sum_j x_j 2^(s j), 0 <= x_j < 2^s below the top limb and
    |top| <= 2^s (one limb: x itself, s = 0).  Horner's rule reduces,
    limb by limb, a residue so far, |r| <= M, times 2^s plus a limb's
    products, at most
        2^s M + radix (M // 2) top
    in absolute value.  The least number of limbs keeps that below
    2^52.  One limb holds while radix M^2 stays below 2^53, and two up
    to _transform_limit(p) for every odd p below 2^19 - 1."""
    limbs, s, top = 1, 0, M
    while (M << s) + radix * (M // 2) * top >= 2 ** 52:
        limbs += 1
        s = -(-M.bit_length() // limbs)
        top = 1 << s
    return limbs, s


def _widest_radix(p: int) -> int:
    """The radix of the transform's passes where the digits left allow
    it: p <= 7 takes two digits a pass, a larger p one.  A two-digit
    pass costs p^2 products per entry against 2 p for two one-digit
    passes, but reads the block once: at p = 7 it was the faster (a
    7^8 chart in 97 ms against 112 ms, best of 7 on 2 shared vCPUs),
    at p = 11 the slower (11^6: 31 ms against 27 ms)."""
    return p * p if p <= 7 else p


@lru_cache(maxsize=8)
def _character_matrix(p: int, M: int, zeta: int, radix: int) -> np.ndarray:
    """The character matrix of one or two base-p digits (radix p or
    p^2) in float64: entry (a, b) is zeta^(a . b) over their digits,
    mod M in (-M/2, M/2).  Filled one power of zeta at a time, so that
    no index array of radix^2 entries is made; digit products stay
    below 2^15 in int16 for p < 182, every p of the field table.  Kept
    read-only and cached: every transform of a spectrum asks for the
    same matrices."""
    assert p < 182
    a = np.arange(radix, dtype=np.int16)
    e = (a % p)[:, None] * (a % p)
    e += (a // p)[:, None] * (a // p)
    e %= p
    w = np.empty(e.shape)
    for k in range(p):
        z = pow(zeta, k, M)
        np.copyto(w, z - M if z > M // 2 else z, where=e == k)
    w.flags.writeable = False
    return w


def _residue_pass(blk: np.ndarray, w: np.ndarray, M: int, split: tuple,
                  bufs: np.ndarray, last: bool) -> None:
    """In place, blk[l, j, t] -> sum_i w[j, i] blk[l, i, t] mod M for a
    block (lead, radix, trail) of residues |x| <= M and a symmetric
    float64 w of entries |w| <= M // 2, with split the (limbs, s) that
    _limbs gives at M and radix, through the float64 rows of bufs
    (min(limbs, 3) + 1 rows of at least blk.size entries).

    The block is widened into bufs as one (radix, lead * trail) matrix
    and multiplied by w in one BLAS dgemm.  Products and sums are
    integers below 2^52 in absolute value (_limbs), so every one is
    exact, and y (1/M) computed in float64 is off from y / M by less
    than 1/M: its ceiling c is ceil(y / M) or, when M divides y, one
    more.  The remainder y - c M, also exact, is thus in [-M, 0], a
    residue that the next pass may read as it is; the last pass fixes
    it up, adding M to the negative ones, so that the stored results
    are in [0, M).
    """
    nl, radix, nt = blk.shape
    limbs, s = split
    rows = [b[:blk.size] for b in bufs]
    x, y, t, a = rows + [None] * (4 - len(rows))
    np.copyto(x.reshape(radix, nl, nt).transpose(1, 0, 2), blk)
    # Horner's rule over the limbs, high first: y holds the residue so
    # far, x what is left of the block's residues
    for j in range(limbs - 1, -1, -1):
        top = j == limbs - 1
        limb, prod = (t if j else x), (y if top else a if j else t)
        if j:
            # limb j, floor(x / 2^(s j)), into t, and x less that limb
            np.multiply(x, 2.0 ** -(s * j), out=t)
            np.floor(t, out=t)
            np.multiply(t, 2.0 ** (s * j), out=prod)
            np.subtract(x, prod, out=x)
        if not top:
            np.multiply(y, 2.0 ** s, out=y)
        np.matmul(w, limb.reshape(radix, -1), out=prod.reshape(radix, -1))
        if not top:
            np.add(y, prod, out=y)
        np.multiply(y, 1.0 / M, out=limb)
        np.ceil(limb, out=limb)
        np.multiply(limb, M, out=limb)
        np.subtract(y, limb, out=y)
    if last:
        np.add(y, M, out=y, where=y < 0)
    np.copyto(blk, y.reshape(radix, nl, nt).transpose(1, 0, 2), casting="unsafe")


def _radix_p_transform(f: np.ndarray, p: int, M: int, zeta: int,
                       cols: int = 1) -> None:
    """In place, f(z) -> sum_y f(y) zeta^(z . y) over the base-p digit
    vectors z, y of the row indices of f read as (f.size / cols, cols),
    each column alone; zeta = -1 exactly when p = 2, else mod M, with f
    and the result int32 residues in [0, M) (_residue_pass).  A pass
    takes two digits (_widest_radix: p <= 7) where the digits left
    allow it, else one.  The columns run along the contiguous axis of
    every pass."""
    n = f.size // cols
    # p = 2 on short rows: the high digits over rows of low * cols
    # entries, then the low ones on a transposed copy, so that no pass
    # works on rows of a few entries, whose short inner loops would
    # dominate a chart; odd p copies each block into one matrix for its
    # product anyway
    low = 1 << (n.bit_length() - 1) // 4 * 2 if p == 2 else 1
    if cols < low:
        _radix_p_transform(f, p, M, zeta, cols * low)
        view = f.reshape(n // low, low, cols)
        t = view.transpose(1, 0, 2).copy()
        _radix_p_transform(t, p, M, zeta, cols * (n // low))
        view[...] = t.transpose(1, 0, 2)
        return
    wide = _widest_radix(p)
    if p > 2:
        assert M <= _transform_limit(p)
        # (limbs, s) at each radix the passes take; the wider needs more
        split = {radix: _limbs(M, radix) for radix in {p, wide}}
        rows = min(split[wide][0], 3) + 1
        bufs = np.empty((rows, min(f.size, max(SUBSPACE_BLOCK, wide))), dtype=np.float64)
    lead, trail = 1, n
    while trail > 1:
        radix = wide if trail % wide == 0 else p
        trail //= radix
        view = f.reshape(lead, radix, trail * cols)
        tstep = min(trail * cols, max(1, SUBSPACE_BLOCK // radix))
        lstep = max(1, SUBSPACE_BLOCK // (radix * tstep))
        for l0 in range(0, lead, lstep):
            for t0 in range(0, trail * cols, tstep):
                blk = view[l0:l0 + lstep, :, t0:t0 + tstep]
                if radix == 4:
                    # the two digits' 2x2 butterflies in one: a, b, c, d
                    # at digits 00, 01, 10, 11
                    a, b, c, d = (blk[:, i] for i in range(4))
                    s0, d0, s1, d1 = a + b, a - b, c + d, c - d
                    np.add(s0, s1, out=a)
                    np.add(d0, d1, out=b)
                    np.subtract(s0, s1, out=c)
                    np.subtract(d0, d1, out=d)
                elif radix == 2:
                    # in place: 3-5 times faster than a contraction
                    # with [[1, 1], [1, -1]]
                    x = blk[:, 0].copy()
                    np.add(x, blk[:, 1], out=blk[:, 0])
                    np.subtract(x, blk[:, 1], out=blk[:, 1])
                else:
                    _residue_pass(blk, _character_matrix(p, M, zeta, radix), M,
                                  split[radix], bufs, trail == 1)
        lead *= radix


def _scaled_tables(ctx: FiniteField, trd: np.ndarray, r: int):
    """For k = 1 .. r, yield level k's tables (idx, key) as blocks of
    columns, one (2, Q, columns) array per block of at most SUBSPACE_BLOCK
    entries, or of one hyperplane: for c in GF(Q) and the hyperplanes u of PG(k-1), in the
    order of their first theta_(k-1) rows,
        key[c, u] = sum_i (c u_i) Q^(k-1-i),
        idx[c, u] = sum_i trd[c u_i] Q^(k-1-i),
    the same at every level for the same row.  Chart w holds the rows
    (1, d, x), for (1, d) those of chart w-1 and x in GF(Q), and
        key[c, (1, d, x)] = Q key[c, (1, d)] + c x,
    idx alike with trd[c x]: each chart is Q times the chart below plus
    one (2, Q, Q) table of (trd[c x], c x), from GF(Q)'s product table.
    Levels below r write their chart into one held (2, Q, theta_(r-2))
    array; the last level yields the held columns, then its own chart a
    block at a time, into one array that every block reuses, so none of
    its Q^(r-1) columns is held.  A block's rows run along u, so a
    transform over the digits of c works on long contiguous rows.
    """
    q = ctx.order
    # starts[w] = theta_(w-1)
    starts = pg_space(ctx, r).starts.tolist()
    dtype = np.int32 if q ** r < 2 ** 31 else np.int64
    # a block also stays below theta_r / 2 entries, so that its
    # temporaries stay a small part of the sizes in small spaces too
    step = max(1, min(SUBSPACE_BLOCK, starts[r + 1] >> 1) // q)
    tabs = np.empty((2, q, max(1, starts[r - 1])), dtype=dtype)
    tabs[:, :, 0] = trd, np.arange(q)  # chart 0, the row (1)

    def cut(n, count):
        # range(n) in count runs, or n if fewer, as even as may be
        count = min(n, count)
        return [(n * b // count, n * (b + 1) // count) for b in range(count)]

    def held(hi):
        return (tabs[:, :, u0:u1] for u0, u1 in cut(hi, -(-hi // step)))

    def chart(lo, mid, hi):
        # blocks of whole runs of x, as many as the level's hi columns
        # take at step each (wider blocks transform slower), or of parts
        # of one run
        buf = np.empty(2 * q * step, dtype=dtype)
        for d0, d1 in cut(mid - lo, max(-(-hi // step), -(-(mid - lo) // max(1, step // q)))):
            for x0, x1 in cut(q, -(-q // step)):
                out = buf[:2 * q * (d1 - d0) * (x1 - x0)].reshape(2, q, d1 - d0, x1 - x0)
                np.multiply(tabs[:, :, lo + d0:lo + d1, None], q, out=out)
                out += cx[:, :, None, x0:x1]
                yield out.reshape(2, q, -1)
    yield held(1)
    if r == 1:
        return
    cx = np.empty((2, q, q), dtype=dtype)
    cx[1] = product_table(ctx, dtype)
    np.take(trd, cx[1], out=cx[0])
    for k in range(2, r + 1):
        lo, mid, hi = starts[k - 2:k + 1]
        if k == r:
            yield chain(held(mid), chart(lo, mid, hi))
        else:
            new = tabs[:, :, mid:hi].reshape(2, q, mid - lo, q)
            np.multiply(tabs[:, :, lo:mid, None], q, out=new)
            new += cx[:, :, None]
            yield held(hi)


def _sizes_wht(ctx: FiniteField, space: ProjectiveSpace,
               indices: np.ndarray) -> np.ndarray:
    """Exact hyperplane section sizes from additive character transforms
    of affine charts (Lidl & Niederreiter, Finite Fields, ch. 5).

    PG(k), k = 0 .. r, sits on the last k+1 coordinates: its points, and
    its hyperplanes in the same order, are those columns of the rows of
    PG(r) of index below theta_k.  V_k, the part of V there, splits into
    the affine chart A_k = {(1, a)} and V_{k-1} at infinity.  With
    T[u, s] = #{a in A_k : u . a = s} for a hyperplane u of PG(k-1),
        |(0, u) meet V_k|   = |u meet V_{k-1}| + T[u, 0],
        |(1, 0) meet V_k|   = |V_{k-1}|,
        |(1, d u) meet V_k| = |u meet V_{k-1}| + T[u, -1/d],  d != 0.
    The transform f^ of A_k's indicator on GF(p)^(mk), read at the
    digit vector of a -> Tr(c u . a), is g_u(c) = sum_s T[u, s]
    zeta^Tr(cs).  A second transform over the digits of c gives
    q T[u, s] at the digit vector of -(x -> Tr(sx)), so T[u, -1/d]
    sits at c = trd[1/d] (p = 2 would hide the sign).  The tables of
    c u over the hyperplanes u of PG(k-1) grow chart by chart, each Q
    times the chart below plus one table of c x (_scaled_tables).
    Each chart has q^k entries, not the q^(r+1) of the cone over all of
    V; p = 2 transforms two digits per pass.

    The second transform acts on each hyperplane u alone, so it runs on
    the tables' blocks of hyperplanes: each block is gathered from f^
    as g[c, u], transformed along c, checked (its sums over c, and q
    dividing every entry), divided by q and scattered into the sizes,
    and only the chart f^ and the sizes span a whole level.  For p = 2,
    g is int32: every partial sum of the second transform is at most
    q n in absolute value, and _transform_range bounds q n below 2^31;
    q = 2^m divides by a shift.  For odd p, g holds int32 residues, which
    the transform widens to float64 a block at a time, and every
    q T <= q n < M is read from its residue.
    Sizes are int32: the range check bounds (q - 1) n below 2^31 in
    every characteristic, so products such as (q - 1) |H meet V| stay
    exact too.  V comes as strictly increasing indices: A_k is their
    range theta_(k-1) .. theta_k - 1, and index - theta_(k-1) is a
    point's offset in A_k's transform.
    """
    p, m, q, r = ctx.p, ctx.m, ctx.order, space.r
    nv = len(indices)
    assert np.all(indices[1:] > indices[:-1]), "indices must be strictly increasing"
    M, zeta = _transform_range(p, q, nv)
    assert p == 2 or M % p == 1 and M > 2 * (q - 1) * nv
    # trd[e] packs Tr(e x^b), b < m, as base-p digits: the coefficient
    # basis 1, x, ..., x^(m-1) is the digit basis of the encoding; the
    # absolute traces Tr(e) = e + e^p + ... + e^(p^(m-1)) form one row
    tr, y, frob = np.zeros(q, dtype=np.int64), np.arange(q), ctx.pow_row(p)
    for _ in range(m):
        tr, y = ctx.vadd(tr, y), frob[y]
    assert not np.any(tr >= p)
    trd = sum(tr[ctx.scalar_mul_row(p ** b)] * p ** b for b in range(m))
    # column of T[u, -1/d] for d = 1 .. q-1
    inv_cols = trd[ctx.exp[-ctx.log[1:] % (q - 1)]]
    # at[k]: how many points of V have index below theta_(k-1), k = 0 .. r+1
    starts = space.starts
    at = np.searchsorted(indices, starts)
    sizes = np.zeros(1, dtype=np.int32)
    for k, blocks in enumerate(_scaled_tables(ctx, trd, r), 1):
        # int32 holds p = 2 values up to n, odd p residues below M
        f = np.zeros(q ** k, dtype=np.int32)
        f[indices[at[k]:at[k + 1]] - starts[k]] = 1
        _radix_p_transform(f, p, M, zeta)
        out = np.empty(sizes.size + q ** k, dtype=np.int32)
        out[sizes.size] = at[k]
        u0 = 0
        for idx, key in blocks:
            u = slice(u0, u0 + idx.shape[1])
            # g[c, u] = f^ at the trace digits of c u; key[c, u] = c u itself
            g = f[idx]
            _radix_p_transform(g, p, M, zeta, cols=g.shape[1])
            assert np.all(g.sum(axis=0, dtype=np.int64) == q * (at[k + 1] - at[k]))
            if p == 2:
                low = np.bitwise_or.reduce(g, axis=None) & (q - 1)
                assert not low, "character sums must be divisible by the field order"
                g >>= m
            else:
                assert not np.any(g % q), "character sums must be divisible by the field order"
                g //= q
            out[u] = sizes[u] + g[0]
            g = g[inv_cols]
            g += sizes[u]
            out[sizes.size:][key[1:]] = g
            u0 = u.stop
        sizes = out
    return sizes


def hyperplane_section_sizes(v: Variety,
                             budget: int | None = None) -> np.ndarray:
    """|Sigma meet v| for every hyperplane Sigma, in canonical order, by
    the character transform, in int32.

    The hyperplane count theta_r bounds every array the transform
    allocates: the int32 sizes hold theta_r entries, a chart Q^k <
    theta_r, the tables of the levels below r (Q, theta_(r-2)) <
    theta_(r-1), a block of the last level's hyperplanes at most 2^16,
    and GF(Q)'s product table and the table of c x, for r > 1, Q^2 <
    theta_2 each.  A set outside the transform's range is refused
    before the transform starts.  The result is kept on v and reused
    after the budget check.
    """
    ctx, space = v.ctx, v.space
    check_budget(f"scanning {space.n_points} hyperplanes", space.n_points, budget)
    if v._hyp_sizes is None:
        _transform_range(ctx.p, ctx.order, v.n)
        v._hyp_sizes = _sizes_wht(ctx, space, v.indices)
    return v._hyp_sizes


def hyperplane_spectrum(v: Variety, budget: int | None = None) -> SpectrumReport:
    sizes = hyperplane_section_sizes(v, budget)
    return SpectrumReport(v.meta(), "hyperplane", size_counts(sizes), "wht")


def size_counts(sizes: np.ndarray) -> dict:
    """{s: how many entries of sizes equal s}, in increasing s.  One
    bincount over the range of sizes per block of at least
    SUBSPACE_BLOCK entries: bincount widens its input to intp, and a
    block as long as the range keeps the counting linear."""
    lo = int(sizes.min())
    width = int(sizes.max()) - lo + 1
    step = max(SUBSPACE_BLOCK, width)
    cnts = sum(np.bincount(sizes[at:at + step] - lo, minlength=width)
               for at in range(0, len(sizes), step))
    return {lo + int(s): int(cnts[s]) for s in np.flatnonzero(cnts)}


def count_rows(mapping: dict, key: str, value: str) -> list:
    """A count table as the payloads print it: {key: k, value: v} for
    each entry, by increasing k."""
    return [{key: int(k), value: int(v)} for k, v in sorted(mapping.items())]


# ---------------------------------------------------------------------------
# line spectra

def line_section_sizes(v: Variety, budget: int | None = None) -> np.ndarray:
    """|ell meet v| over all lines, in the order of geom.rref_bases, as
    geom.subspace_counts gives them: np.min_scalar_type(q^2 + 1), so
    uint8 up to q = 15: the full pass, the pencil's reference."""
    return subspace_counts(v.space, v.indices, 2, budget)


def _siegel_hermitian(ctx: FiniteField, r: int, budget: int | None = None) -> Variety:
    """X_0^q X_r + X_0 X_r^q + sum_{i=1}^{r-1} X_i^{q+1} = 0, the Siegel
    form of build_hermitian's variety (Bose & Chakravarti, Canad. J.
    Math. 18, 1966): sum N(x_i) + Tr(x_r) = 0, Tr(t) = t + t^q, on
    X_0 = 1 and the cone F off it."""
    norms = _norms(ctx)
    trace = ctx.vadd(ctx.pow_row(ctx.sub_order), np.arange(ctx.order))
    return _build("hermitian", ctx, r, budget, (np.zeros_like(norms), norms, trace),
                  _off_chart(ctx, norms))


def _cone_line_counts(v: Variety, budget: int | None = None) -> Counter:
    """{size: lines} over the lines at infinity (X_0 = 0) of a v that
    meets X_0 = 0 in the cone with vertex P0 = (0, .., 0, 1), index 0,
    over S_inf (pencil_line_counts): the lines of PG(r-1, Q), whose
    indices are those of PG(r) below theta_(r-1).  S_inf is read from
    v's points with X_0 = X_r = 0 as points of PG(r-2, Q) on
    X_1 .. X_(r-1).  A line through P0 holds Q + 1 points of v if its
    point of PG(r-2, Q) lies in S_inf, else 1.  The plane P0 v l' over
    a line l' of PG(r-2, Q) holds Q^2 lines off P0, each meeting the
    cone in |l' meet S_inf| points.  So the one pass is
    geom.subspace_counts over the lines of PG(r-2, Q) (Hirschfeld,
    Projective Geometries over Finite Fields: cones)."""
    Q, r = v.ctx.order, v.r
    inf, base = pg_space(v.ctx, r - 1), pg_space(v.ctx, r - 2)
    at = int(np.searchsorted(v.indices, inf.n_points))
    pts = inf.rows(v.indices[:at])
    s_inf = base.index_array(pts[pts[:, -1] == 0, :-1])
    assert v.indices[0] == 0 and at == 1 + Q * len(s_inf)
    counts = Counter({Q + 1: len(s_inf), 1: base.n_points - len(s_inf)})
    for size, lines in size_counts(subspace_counts(base, s_inf, 2, budget)).items():
        counts[size] += Q * Q * lines
    return counts


def pencil_line_counts(v: Variety, budget: int | None = None) -> dict:
    """{size: lines} of a v, r >= 3, that meets X_0 = 0 in a cone
    P0 v S_inf and whose affine part is empty or G's orbit of the affine
    origin O = (1, 0, .., 0), from the lines through O.

    On the twisted and quasi-Hermitian kinds the collineations
    (X_0, X_i, X_r) -> (X_0, X_i + y_i X_0, X_r + sum_i mu_i X_i + c X_0),
    mu_i = -(2 alpha y_i + B y_i^q) with B = beta^q - beta and
    L(c) = -sum_i h(y_i), form a group G of order q^(2r-1) that
    preserves v and X_0 = 0 and acts regularly on the q^(2r-1) affine
    points of v.  On the Hermitian Siegel form (_siegel_hermitian) G is
    x_i -> x_i + y_i, x_r -> x_r - sum_i y_i^q x_i + c, Tr(c) =
    -sum_i N(y_i); the cone and twisted-infinity kinds have no affine
    point.  For a direction d of PG(r-1, Q), let a(d) count v's affine
    points on O + <d>, O included, and b(d) = [(0, d) in v].  Then:
    - affine lines with a >= 1 affine points of v and b at infinity
      number q^(2r-1) #{d : a(d) = a, b(d) = b} / a, by double counting
      the pairs (P, l) over G's orbit of O;
    - the other affine lines, of size b, are the Q^(r-1) affine lines
      through each infinity point of class b, less those above;
    - the lines at infinity are those of the cone P0 v S_inf, counted
      from its vertex (_cone_line_counts) by one pass over the lines of
      PG(r-2, Q).
    Any other affine part raises ValueError.  Then one budget check
    meters the affine points read, the points at infinity and the lines
    of PG(r-2, Q), before any row is read or any line counted.
    """
    ctx, r, Q = v.ctx, v.r, v.ctx.order
    inf = pg_space(ctx, r - 1)
    at = int(np.searchsorted(v.indices, inf.n_points))
    n_aff, base_lines = v.n - at, gaussian_binomial(r - 1, 2, Q)
    # no affine point, or G's orbit of O, whose index is theta_(r-1)
    orbit = v.base_order ** (2 * r - 1)
    if (n_aff, v.indices[at:at + 1].tolist()) not in ((0, []), (orbit, [inf.n_points])):
        raise ValueError(f"no pencil count for {v.label}: {n_aff} affine points")
    check_budget(f"counting lines from {n_aff} affine points, {inf.n_points} points at "
                 f"infinity and {base_lines} line{'s' * (base_lines != 1)} of "
                 f"PG({r - 2},{Q})", n_aff + inf.n_points + base_lines, budget)
    a = np.ones(inf.n_points, dtype=np.int64)
    # GF(Q)'s product table scales each direction to lead 1 in one gather
    prod = product_table(ctx, np.min_scalar_type(Q - 1))
    for lo in range(at + 1, v.n, SUBSPACE_BLOCK):
        x = v.space.rows(v.indices[lo:lo + SUBSPACE_BLOCK])[:, 1:]
        lead = x[np.arange(len(x)), np.argmax(x != 0, axis=1)]
        inv = ctx.exp[-ctx.log[lead] % (Q - 1)]
        a += np.bincount(inf.index_array(prod[inv[:, None], x]), minlength=inf.n_points)
    b = np.zeros(inf.n_points, dtype=np.int64)
    b[v.indices[:at]] = 1
    pencil = np.bincount(2 * a + b, minlength=2 * (Q + 1)).reshape(Q + 1, 2)
    counts = _cone_line_counts(v, budget)
    for cls, points in ((0, inf.n_points - at), (1, at)):
        missing = points * Q ** (r - 1)
        for size in range(1, Q + 1):
            lines, rest = divmod(n_aff * int(pencil[size, cls]), size)
            assert not rest, "each line's affine points must share its orbit count"
            counts[size + cls] += lines
            missing -= lines
        assert missing >= 0
        counts[cls] += missing
    assert counts.total() == gaussian_binomial(r + 1, 2, Q)
    return {s: c for s, c in sorted(counts.items()) if c}


def section_counts(v: Variety, nrows: int, budget: int | None = None) -> tuple:
    """({size: count}, engine) of |S meet v| over the subspaces S of
    vector dimension nrows, 1 <= nrows <= r + 1 (`variety lines` at r = 1
    asks for nrows = 2): the points in closed form; the lines at r >= 3
    from the pencil through O (pencil_line_counts), the Hermitian kind
    in its Siegel form, which has the same line spectrum and whose build
    repeats v's scan check; every other case, lines at r <= 2 included,
    by the full pass over PG(r, Q), geom.subspace_counts.  Each route
    makes its own budget check first."""
    if nrows == 1:
        return {s: c for s, c in ((0, v.space.n_points - v.n), (1, v.n)) if c}, "closed-form"
    if nrows == 2 < v.r:
        twin = _siegel_hermitian(v.ctx, v.r, budget) if v.kind == "hermitian" else v
        return pencil_line_counts(twin, budget), "pencil"
    return size_counts(subspace_counts(v.space, v.indices, nrows, budget)), "batched"


def line_spectrum(v: Variety, budget: int | None = None) -> SpectrumReport:
    """The line spectrum, counted by section_counts: from the pencil
    through O at r >= 3, by the full pass at r <= 2."""
    return SpectrumReport(v.meta(), "line", *section_counts(v, 2, budget))


# ---------------------------------------------------------------------------
# predicted values

def hermitian_size(r: int, q: int) -> int:
    s = (-1) ** r
    num = (q ** (r + 1) + s) * (q ** r - s)
    assert num % (q * q - 1) == 0
    return num // (q * q - 1)


def cone_size(r: int, q: int) -> int:
    # the vertex (0, .., 0, 1) and q^2 more points on its line to each
    # point of the Hermitian variety of PG(r - 2, q^2); none for r < 2
    return 1 + q * q * hermitian_size(r - 2, q) if r >= 2 else 1


def _hermitian_sections(r: int, q: int) -> tuple:
    """(N, {size: count}) of H(r, q^2), r >= 1: the N tangent hyperplanes
    meet it in a cone over H(r - 2, q^2), the others in H(r - 1, q^2)."""
    n = hermitian_size(r, q)
    return n, {cone_size(r, q): n, hermitian_size(r - 1, q): num_points(r, q * q) - n}


def _quadric_size(k: int, eta: int, Q: int) -> int:
    """Points of a nondegenerate quadric in k variables over GF(Q):
    parabolic (eta = 0) for odd k, hyperbolic (1) or elliptic (-1)."""
    return num_points(k - 2, Q) + eta * Q ** (k // 2) // Q if k else 0


def _quadric_sections(k: int, Q: int) -> tuple:
    """(N, {size: count}) of sum X_i^2 = 0 in k >= 2 variables over
    GF(Q), where -1 is a square (Q an odd square): hyperbolic for even
    k, parabolic for odd k.  The N tangent hyperplanes meet it in a cone
    over the same form in k - 2 variables, the others in a parabolic
    section for even k, and for k = 2m + 1 in a hyperbolic or elliptic
    one, Q^m (Q^m +- 1) / 2 times."""
    eta, m = 1 - k % 2, Q ** (k // 2)
    n = _quadric_size(k, eta, Q)
    out = {1 + Q * _quadric_size(k - 2, eta, Q): n}
    if eta:
        out[_quadric_size(k - 1, 0, Q)] = num_points(k - 1, Q) - n
    else:
        out.update({_quadric_size(k - 1, e, Q): m * (m + e) // 2 for e in (1, -1)})
    return n, out


@dataclass
class Predicted:
    kind: str
    N: int
    counts: dict

    @property
    def sizes(self) -> tuple:
        return tuple(sorted(self.counts))

    def as_dict(self):
        return {"kind": self.kind, "N": self.N, "sizes": list(self.sizes),
                "counts": {int(k): int(v) for k, v in sorted(self.counts.items())}}


def predicted_spectrum(q: int, r: int, kind: str) -> Predicted:
    """N and the hyperplane spectrum, sizes and counts, in closed form:
    Hermitian by _hermitian_sections, the others by the module
    docstring's decomposition.  D0 and Dc count the values of
    sum h(x_i), a GF(q)-form in 2(r-1) variables, hyperbolic if eps = 1,
    elliptic if -1 (Lidl & Niederreiter, ch. 6).  The tests check the
    assumptions at every valid pair of small q: z -> 2 alpha z +
    (beta^q - beta) z^q is a bijection (each section completes the
    square), h is nondegenerate, and elliptic at even r.  At odd r
    (where h may vanish off 0) r - 1 copies of h are hyperbolic anyway.
    """
    if r < 3:
        raise ParamsError(f"r = {r} must be at least 3")
    if kind == "hermitian":
        n, counts = _hermitian_sections(r, q)
        return Predicted(kind, n, counts)
    Q = q * q
    if kind == "quasi-hermitian":
        n_inf, at_inf = _hermitian_sections(r - 2, q)
    elif kind != "twisted":
        raise ParamsError(f"no predictions for kind {kind!r}")
    elif q == 2:
        raise ParamsError("the twisted construction needs q > 2")
    elif q % 2:
        n_inf, at_inf = _quadric_sections(r - 1, Q)
    else:
        n_inf = num_points(r - 3, Q)
        at_inf = {n_inf: 1, num_points(r - 4, Q): num_points(r - 2, Q) - 1}
    eps, top, counts = (-1) ** (r - 1), q ** (2 * r - 3), {}
    sections = [(n_inf + top + eps * (q - 1) * q ** (r - 2), q ** (2 * r - 1)),
                (n_inf + top - eps * q ** (r - 2), (q - 1) * q ** (2 * r - 1)),
                (1 + Q * n_inf, 1)] + [(top + 1 + Q * s, Q * c) for s, c in at_inf.items()]
    for size, count in sections:
        counts[size] = counts.get(size, 0) + count
    return Predicted(kind, q ** (2 * r - 1) + 1 + Q * n_inf, counts)


def predicted_line_sizes(q: int) -> tuple:
    """Possible line intersection sizes with the twisted hypersurface."""
    return tuple(sorted({0, 1, 2, q - 1, q, q + 1, q + 2,
                         2 * q - 1, 2 * q, q * q + 1}))


def surgery_check(params: TwistedParams, budget: int | None = None) -> dict:
    """Consistency of the glue: per hyperplane,
    |S meet twisted| - |S meet quasi| + |S meet cone| - |S meet infinity
    section| must vanish, and the sets themselves must satisfy
    twisted = (quasi minus cone) union infinity-section."""
    tw = build_twisted(params, budget)
    qh = build_quasi_hermitian(params, budget)
    cn = build_cone(params.ctx, params.r, budget)
    binf = build_twisted_at_infinity(params.ctx, params.r, budget)
    composed = (qh.membership() & ~cn.membership()) | binf.membership()
    set_ok = np.array_equal(composed, tw.membership())
    s_tw = hyperplane_section_sizes(tw, budget=budget)
    s_qh = hyperplane_section_sizes(qh, budget=budget)
    s_cn = hyperplane_section_sizes(cn, budget=budget)
    s_bi = hyperplane_section_sizes(binf, budget=budget)
    residual = s_tw - (s_qh - s_cn + s_bi)
    return {
        "sets_match": bool(set_ok),
        "per_hyperplane_ok": bool(np.all(residual == 0)),
        "hyperplanes": int(len(residual)),
        "max_abs_residual": int(np.max(np.abs(residual))),
    }
