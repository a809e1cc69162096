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

Parameter admissibility depends on the parities of q and r; see
validate_params for the exact clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .budget import BudgetError, check_budget
from .geom import (SUBSPACE_BLOCK, ProjectiveSpace, dot_rows, gaussian_binomial,
                   num_points, pg_space, subspace_keys)
from .gf import FiniteField, _is_prime, factor_prime_power, make_field

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
        p, e = factor_prime_power(self.q)
        self.ctx = make_field(p, 2 * e)

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
    trace_kind: str | None = None

    def failures(self):
        return [c for c in self.clauses if not c.ok]

    def as_dict(self):
        return {
            "ok": self.ok,
            "trace_kind": self.trace_kind,
            "clauses": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                        for c in self.clauses],
        }


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
    clauses = []
    trace_kind = None

    p, _ = factor_prime_power(q)
    base_ok = q >= 3
    clauses.append(Clause(
        "base-field",
        base_ok,
        f"q = {q} must be at least 3 (even q > 2 required)" if not base_ok
        else f"q = {q} acceptable"))
    dim_ok = r >= 3
    clauses.append(Clause(
        "dimension", dim_ok,
        f"r = {r} acceptable" if dim_ok else f"r = {r} must be at least 3"))

    alpha, beta = params.alpha, params.beta
    a_ok = 0 < alpha < ctx.order
    clauses.append(Clause(
        "alpha-nonzero", a_ok,
        "alpha is a nonzero element" if a_ok else f"alpha = {alpha} must be nonzero"))
    b_ok = 0 <= beta < ctx.order and ctx.frobenius_q(beta) != beta
    clauses.append(Clause(
        "beta-outside-subfield", b_ok,
        "beta lies outside GF(q)" if b_ok
        else f"beta = {beta} is fixed by x -> x^q, so it lies in GF(q)"))

    if base_ok and dim_ok and a_ok and b_ok:
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
                trace_kind = "absolute trace GF(q) -> GF(2)"
                t = ctx.add(ctx.frobenius_q(beta), beta)
                ratio = ctx.div(norm_a, ctx.mul(t, t))
                d = ctx.to_subfield(ratio)
                tr = sub.trace_to_prime(d)
                ok = tr == 0
                clauses.append(Clause(
                    "trace-zero", ok,
                    f"absolute trace of N(alpha)/T(beta)^2 = {tr}"
                    + ("" if ok else ", must vanish")))

    return ValidationReport(all(c.ok for c in clauses), clauses, trace_kind)


def require_valid(params: TwistedParams) -> None:
    rep = validate_params(params)
    if not rep.ok:
        msgs = "; ".join(c.detail for c in rep.failures())
        raise ParamsError(f"invalid parameters for q={params.q}, r={params.r}: {msgs}",
                          report=rep)


def default_params(q: int, r: int) -> TwistedParams:
    """First valid (alpha, beta) in encoding order, a deterministic fixture.

    Scans alpha ascending then beta ascending and returns on the first
    admissible pair.  If the exhaustive scan finds none (as happens for
    q = 3 with even r, where the discriminant only reaches squares), the
    refusal says so.
    """
    p, e = factor_prime_power(q)
    order = p ** (2 * e)
    last = None
    for alpha in range(1, order):
        for beta in range(order):
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
    kind: str
    ctx: FiniteField
    r: int
    space: ProjectiveSpace = field(repr=False)
    indices: np.ndarray = field(repr=False)
    coords: np.ndarray = field(repr=False)
    params: TwistedParams | None = None
    _hyp_sizes: np.ndarray | None = field(default=None, repr=False, compare=False)
    _hyp_engine: str | None = field(default=None, repr=False, compare=False)

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
        return int(np.count_nonzero(self.coords[:, 0] == 1))

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


def _variety_from_mask(kind, ctx, r, space, mask, params=None) -> Variety:
    idx = np.nonzero(mask)[0]
    return Variety(kind, ctx, r, space, idx, space.points[idx].copy(), params)


def _build(kind, ctx, r, budget, mask_of, params=None) -> Variety:
    """The points of PG(r, Q) whose rows mask_of marks.  The budget
    refuses the scan before any point is built."""
    n = num_points(r, ctx.order)
    check_budget(f"scanning {n} points", n, budget)
    space = pg_space(ctx, r)
    return _variety_from_mask(kind, ctx, r, space, mask_of(space.points), params)


def _power_sum(ctx: FiniteField, pts: np.ndarray, k: int, cols) -> np.ndarray:
    """sum of x_i^k over the columns i in cols, for every row of pts."""
    row = ctx.pow_row(k)
    acc = np.zeros(len(pts), dtype=np.int64)
    for i in cols:
        acc = ctx.vadd(acc, row[pts[:, i]])
    return acc


def _twisted_affine_mask(params: TwistedParams, pts: np.ndarray) -> np.ndarray:
    """Rows with X_0 = 1 satisfying the defining affine equation.

    Uses (alpha s2 + x_r)^q - (alpha s2 + x_r) = (beta^q - beta) sN with
    s2 = sum x_i^2 and sN = sum x_i^{q+1}, i = 1 .. r-1, since raising a
    sum to the q-th power Frobenius-commutes coordinatewise.
    """
    ctx = params.ctx
    q = ctx.sub_order
    r = params.r
    s2 = _power_sum(ctx, pts, 2, range(1, r))
    sN = _power_sum(ctx, pts, q + 1, range(1, r))
    t = ctx.vadd(ctx.scalar_mul_row(params.alpha)[s2], pts[:, r])
    lhs = ctx.vadd(ctx.pow_row(q)[t], ctx.vneg(t))
    bqb = ctx.sub(ctx.frobenius_q(params.beta), params.beta)
    rhs = ctx.scalar_mul_row(bqb)[sN]
    return (pts[:, 0] == 1) & (lhs == rhs)


def _twisted_infinity_mask(ctx: FiniteField, r: int, pts: np.ndarray) -> np.ndarray:
    # the quadric sum x_i^2 = 0 for odd q, the hyperplane sum x_i = 0 for even q
    k = 1 if ctx.p == 2 else 2
    return (pts[:, 0] == 0) & (_power_sum(ctx, pts, k, range(1, r)) == 0)


def _cone_mask(ctx: FiniteField, r: int, pts: np.ndarray) -> np.ndarray:
    nrm = _power_sum(ctx, pts, ctx.sub_order + 1, range(1, r))
    return (pts[:, 0] == 0) & (nrm == 0)


def build_twisted(params: TwistedParams, budget: int | None = None) -> Variety:
    """The twisted Hermitian hypersurface for admissible (alpha, beta)."""
    require_valid(params)
    ctx, r = params.ctx, params.r
    return _build("twisted", ctx, r, budget, lambda pts: (
        _twisted_affine_mask(params, pts) | _twisted_infinity_mask(ctx, r, pts)),
        params)


def build_twisted_at_infinity(ctx: FiniteField, r: int,
                              budget: int | None = None) -> Variety:
    """Section of the twisted hypersurface by the hyperplane X_0 = 0."""
    ctx._require_subfield()
    return _build("twisted-infinity", ctx, r, budget,
                  lambda pts: _twisted_infinity_mask(ctx, r, pts))


def build_cone(ctx: FiniteField, r: int, budget: int | None = None) -> Variety:
    """Hermitian cone F: X_0 = 0 and sum_{i=1}^{r-1} X_i^{q+1} = 0."""
    ctx._require_subfield()
    return _build("cone", ctx, r, budget, lambda pts: _cone_mask(ctx, r, pts))


def build_hermitian(ctx: FiniteField, r: int, budget: int | None = None) -> Variety:
    """Nondegenerate Hermitian variety sum X_i^{q+1} = 0 of PG(r, q^2)."""
    ctx._require_subfield()
    return _build("hermitian", ctx, r, budget, lambda pts: (
        _power_sum(ctx, pts, ctx.sub_order + 1, range(r + 1)) == 0))


def build_quasi_hermitian(params: TwistedParams, budget: int | None = None) -> Variety:
    """Affine part of the twisted hypersurface glued to the cone F."""
    require_valid(params)
    ctx, r = params.ctx, params.r
    return _build("quasi-hermitian", ctx, r, budget, lambda pts: (
        _twisted_affine_mask(params, pts) | _cone_mask(ctx, r, pts)), params)


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
        p, e = factor_prime_power(q)
        ctx = make_field(p, 2 * e)
        return BUILDERS_PLAIN[kind](ctx, r, budget)
    raise ParamsError(f"unknown variety kind {kind!r}")


# ---------------------------------------------------------------------------
# hyperplane spectra

@dataclass
class SpectrumReport:
    variety: dict
    axis: str                  # "hyperplane" or "line"
    counts: dict               # intersection size -> number of subspaces
    total: int
    engine: str

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.counts))

    def as_dict(self) -> dict:
        return {
            "variety": self.variety,
            "axis": self.axis,
            "spectrum": [{"size": int(s), "count": int(c)}
                         for s, c in sorted(self.counts.items())],
            "total": int(self.total),
            "engine": self.engine,
        }


def _sizes_direct(ctx: FiniteField, space: ProjectiveSpace,
                  vcoords: np.ndarray) -> np.ndarray:
    out = np.empty(space.n_points, dtype=np.int64)
    n = len(vcoords)
    for i, h in enumerate(space.points):
        out[i] = n - int(np.count_nonzero(dot_rows(ctx, h, vcoords)))
    return out


# Characters of GF(p)^D: a radix-p pass per digit.  Characteristic 2
# transforms exactly in integers; odd p transforms modulo a prime M with
# M = 1 (mod p), so zeta, a p-th root of unity mod M, stands in for
# exp(2 pi i / p).  Blocks of at most _PASS_BLOCK entries bound every
# temporary, so no full-size int64 copy is made.
_PASS_BLOCK = 1 << 16


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
    largest absolute value): entries are int32, and for odd p a row of
    the character matrix sums p products of residues in int64."""
    return min(2 ** 31 - 1, isqrt((2 ** 63 - 1) // p))


def _check_transform_range(p: int, bound: int) -> None:
    """Refuse a transform whose values, up to bound in absolute value,
    its integer arithmetic cannot carry exactly."""
    need = bound if p == 2 else _transform_modulus(p, bound)[0]
    if need > _transform_limit(p):
        raise BudgetError(f"a character transform with sums up to {bound}",
                          need, _transform_limit(p))


def _radix_p_transform(f: np.ndarray, p: int, M: int, zeta: int,
                       rows: int = 1) -> None:
    """In place, f(z) -> sum_y f(y) zeta^(z . y) over the base-p digit
    vectors of the indices within each of the rows leading rows of f;
    zeta = -1 exactly when p = 2, else mod M."""
    if p > 2:
        assert M <= _transform_limit(p)
        w = np.array([[pow(zeta, i * j, M) for j in range(p)]
                      for i in range(p)], dtype=np.int64)
    lead, trail = rows, f.size // (rows * p)
    while trail >= 1:
        view = f.reshape(lead, p, trail)
        tstep = min(trail, max(1, _PASS_BLOCK // p))
        lstep = max(1, _PASS_BLOCK // (p * tstep))
        for l0 in range(0, lead, lstep):
            for t0 in range(0, trail, tstep):
                blk = view[l0:l0 + lstep, :, t0:t0 + tstep]
                if p == 2:
                    # in place: 3-5 times faster than the int64
                    # contraction with [[1, 1], [1, -1]]
                    x = blk[:, 0].copy()
                    np.add(x, blk[:, 1], out=blk[:, 0])
                    np.subtract(x, blk[:, 1], out=blk[:, 1])
                else:
                    # (p, p) @ (lead, p, trail): one contraction per block
                    y = w @ blk.astype(np.int64)
                    np.remainder(y, M, out=y)
                    blk[...] = y
        lead, trail = lead * p, trail // p


def _sizes_wht(ctx: FiniteField, space: ProjectiveSpace,
               vcoords: np.ndarray) -> np.ndarray:
    """Exact hyperplane section sizes from additive character transforms
    of affine charts (Lidl & Niederreiter, Finite Fields, ch. 5).

    PG(k), k = 0 .. r, sits on the last k+1 coordinates: its points, and
    its hyperplanes in the same order, are the first theta_k rows of
    space.points[:, r-k:].  V_k, the part of V there, splits into the
    affine chart A_k = {(1, a)} and V_{k-1} at infinity.  With
    T[u, s] = #{a in A_k : u . a = s} for a hyperplane u of PG(k-1),
        |(0, u) meet V_k|   = |u meet V_{k-1}| + T[u, 0],
        |(1, 0) meet V_k|   = |V_{k-1}|,
        |(1, d u) meet V_k| = |u meet V_{k-1}| + T[u, -1/d],  d != 0.
    The transform f^ of A_k's indicator on GF(p)^(mk), read at the
    digit vector of a -> Tr(c u . a), is g_u(c) = sum_s T[u, s]
    zeta^Tr(cs).  A second transform over the digits of c gives
    q T[u, s] at the digit vector of -(x -> Tr(sx)), so T[u, -1/d]
    sits in column trd[1/d] (p = 2 would hide the sign).  Each chart
    has q^k entries, not the q^(r+1) of the cone over all of V.  Every
    q T is a non-negative integer of at most q n < M; the row-sum and
    divisibility asserts would catch any packing mistake.
    """
    p, m, q, r = ctx.p, ctx.m, ctx.order, space.r
    nv = len(vcoords)
    M = zeta = 0
    if p > 2:
        M, zeta = _transform_modulus(p, (q - 1) * nv)
        assert M % p == 1 and M > 2 * (q - 1) * nv
    # trd[e] packs Tr(e x^b), b < m, as base-p digits: the coefficient
    # basis 1, x, ..., x^(m-1) is the digit basis of the encoding
    frob = ctx.pow_row(p)
    trd = np.zeros(q, dtype=np.int64)
    for b in range(m):
        y = ctx.scalar_mul_row(p ** b)
        tr = np.zeros(q, dtype=np.int64)
        for _ in range(m):
            tr = ctx.vadd(tr, y)
            y = frob[y]
        assert not np.any(tr >= p)
        trd += tr * p ** b
    elems = np.arange(q, dtype=np.int64)
    # column of T[u, -1/d] for d = 1 .. q-1
    inv_cols = trd[[ctx.inv(d) for d in range(1, q)]]
    # the point's chart: PG(r - lead) holds it in its affine part
    lead = np.argmax(vcoords != 0, axis=1)
    sizes = np.zeros(1, dtype=np.int64)
    for k in range(1, r + 1):
        hyp = space.points[:sizes.size, r - k + 1:]
        weights = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
        aff = vcoords[lead == r - k, r - k + 1:]
        # int32 holds p = 2 values up to n, odd p residues below M
        f = np.zeros(q ** k, dtype=np.int32)
        f[aff @ weights] = 1
        _radix_p_transform(f, p, M, zeta)
        # g[u, c] = f^ at the trace digits of c u; key[u, c] = c u itself
        idx = np.zeros((len(hyp), q), dtype=np.int64)
        key = np.zeros((len(hyp), q), dtype=np.int64)
        for i in range(k):
            cu = ctx.vmul(hyp[:, i, None], elems)
            idx += trd[cu] * weights[i]
            key += cu * weights[i]
        g = f[idx].astype(np.int64)
        del f, idx
        _radix_p_transform(g, p, M, zeta, rows=len(hyp))
        assert np.all(g.sum(axis=1) == q * len(aff))
        assert not np.any(g % q), "character sums must be divisible by the field order"
        g //= q
        out = np.empty(sizes.size + q ** k, dtype=np.int64)
        out[:sizes.size] = sizes + g[:, 0]
        out[sizes.size] = np.count_nonzero(lead > r - k)
        out[sizes.size + key[:, 1:]] = sizes[:, None] + g[:, inv_cols]
        sizes = out
    return sizes


def hyperplane_section_sizes(v: Variety, engine: str = "auto",
                             budget: int | None = None) -> np.ndarray:
    """|Sigma meet v| for every hyperplane Sigma, in canonical order.

    auto is the transform; direct evaluation stays as its reference.
    The hyperplane count theta_r bounds every array the transform
    allocates: a chart holds Q^k < theta_r entries, and the
    (theta_(k-1), Q) tables theta_k - 1.  The last result is kept on v
    and reused only for the same engine, after the budget check.
    """
    ctx, space = v.ctx, v.space
    check_budget(f"scanning {space.n_points} hyperplanes", space.n_points, budget)
    if engine == "auto":
        engine = "wht"
    if engine == "wht":
        _check_transform_range(ctx.p, (ctx.order - 1) * v.n)
    if v._hyp_sizes is not None and v._hyp_engine == engine:
        return v._hyp_sizes
    if engine == "wht":
        sizes = _sizes_wht(ctx, space, v.coords)
    elif engine == "direct":
        sizes = _sizes_direct(ctx, space, v.coords)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    v._hyp_sizes, v._hyp_engine = sizes, engine
    return sizes


def hyperplane_spectrum(v: Variety, engine: str = "auto",
                        budget: int | None = None) -> SpectrumReport:
    sizes = hyperplane_section_sizes(v, engine, budget)
    vals, cnts = np.unique(sizes, return_counts=True)
    counts = {int(a): int(b) for a, b in zip(vals, cnts)}
    return SpectrumReport(v.meta(), "hyperplane", counts, int(cnts.sum()),
                          v._hyp_engine)


# ---------------------------------------------------------------------------
# line spectra

def subspace_section_sizes(v: Variety, nrows: int,
                           budget: int | None = None) -> np.ndarray:
    """|S meet v| for every subspace S of vector dimension nrows, in the
    order of geom.rref_bases.

    The sizes come in np.min_scalar_type(theta), theta = (Q^nrows - 1) /
    (Q - 1) the number of points of one S, Q = q^2: uint8 for the lines
    of every q up to 15.  Each block's points arrive as keys
    (geom.subspace_keys) and are counted in a boolean mask over all
    2 Q^r keys, one coefficient pattern at a time.
    """
    Q = v.ctx.order
    blocks = subspace_keys(v.ctx, v.r, nrows, budget)
    mask = np.zeros(2 * Q ** v.r, dtype=bool)
    mask[v.space.keys[v.indices]] = True
    sizes = np.zeros(gaussian_binomial(v.r + 1, nrows, Q),
                     dtype=np.min_scalar_type(num_points(nrows - 1, Q)))
    at = 0
    for count, keys in blocks:
        cnt = sizes[at:at + count]
        for k in keys:
            cnt += mask[k]
        at += count
    return sizes


def line_section_sizes(v: Variety, budget: int | None = None) -> np.ndarray:
    """|ell meet v| over all lines, as subspace_section_sizes(v, 2) gives
    them: np.min_scalar_type(q^2 + 1), so uint8 up to q = 15."""
    return subspace_section_sizes(v, 2, budget)


def line_spectrum(v: Variety, budget: int | None = None) -> SpectrumReport:
    sizes = line_section_sizes(v, budget)
    # bincount widens its input to intp, so it takes one block at a time
    cnts = sum(np.bincount(sizes[at:at + SUBSPACE_BLOCK], minlength=v.ctx.order + 2)
               for at in range(0, len(sizes), SUBSPACE_BLOCK))
    counts = {int(a): int(b) for a, b in enumerate(cnts) if b}
    return SpectrumReport(v.meta(), "line", counts, int(cnts.sum()), "batched")


# ---------------------------------------------------------------------------
# predicted values

def hermitian_size(r: int, q: int) -> int:
    s = (-1) ** r
    num = (q ** (r + 1) + s) * (q ** r - s)
    assert num % (q * q - 1) == 0
    return num // (q * q - 1)


def cone_size(r: int, q: int) -> int:
    return 1 + q * q * hermitian_size(r - 2, q)


@dataclass
class Predicted:
    kind: str
    N: int
    sizes: tuple
    counts: dict | None = None

    def as_dict(self):
        return {"kind": self.kind, "N": self.N, "sizes": list(self.sizes),
                "counts": None if self.counts is None
                else {int(k): int(v) for k, v in sorted(self.counts.items())}}


def predicted_spectrum(q: int, r: int, kind: str) -> Predicted:
    """Closed-form size and hyperplane intersection sizes.

    For the twisted hypersurface the five intersection sizes depend on
    the parities of q and r; full per-size counts are available in the
    r = 3, odd q case.  Hermitian and quasi-Hermitian varieties have two
    intersection sizes whose counts follow from double counting.
    """
    if r < 3:
        raise ParamsError(f"r = {r} must be at least 3")
    q2 = q * q
    if kind in ("hermitian", "quasi-hermitian"):
        N = hermitian_size(r, q)
        m1 = (q ** r + (-1) ** (r - 1)) * (q ** (r - 1) - (-1) ** (r - 1)) // (q2 - 1)
        m2 = m1 + (-1) ** (r - 1) * q ** (r - 1)
        total = num_points(r, q2)
        through = num_points(r - 1, q2)
        y, rem = divmod(N * through - m1 * total, m2 - m1)
        assert rem == 0
        counts = {m1: total - y, m2: y}
        return Predicted(kind, N, tuple(sorted((m1, m2))), counts)
    if kind != "twisted":
        raise ParamsError(f"no predictions for kind {kind!r}")
    if q == 2:
        raise ParamsError("the twisted construction needs q > 2")
    base = (q ** (2 * (r - 2)) - 1) // (q2 - 1)
    basep = (q ** (2 * (r - 2)) - q2) // (q2 - 1)
    if q % 2 == 1:
        if r % 2 == 1:
            N = q ** (2 * r - 1) + q ** (r - 1) + (q ** (2 * (r - 1)) - q2) // (q2 - 1) + 1
            sizes = (
                q2 * base + q ** (r - 1) + 1,
                q ** (2 * r - 3) - q ** (r - 2) + q ** (r - 3) + base,
                q ** (2 * r - 3) + basep + 1,
                q ** (2 * r - 3) + q ** (r - 1) - q ** (r - 2) + q ** (r - 3) + base,
                q ** (2 * r - 3) + q ** (r - 1) + basep + 1,
            )
        else:
            N = q ** (2 * r - 1) + (q ** (2 * (r - 1)) - q2) // (q2 - 1) + 1
            sizes = (
                q2 * base + 1,
                q ** (2 * r - 3) - q ** (r - 1) + q ** (r - 2) + base,
                q ** (2 * r - 3) + basep - q ** (r - 2) + 1,
                q ** (2 * r - 3) + basep + 1,
                q ** (2 * r - 3) + basep + q ** (r - 2) + 1,
            )
    else:
        N = q ** (2 * r - 1) + (q ** (2 * (r - 1)) - q2) // (q2 - 1) + 1
        n1 = (q ** (2 * (r - 1)) - 1) // (q2 - 1)
        if r % 2 == 1:
            sizes = (
                n1,
                q ** (2 * r - 3) - q ** (r - 2) + base,
                q ** (2 * r - 3) + base,
                q ** (2 * r - 3) + q ** (r - 1) - q ** (r - 2) + base,
                q ** (2 * r - 3) + n1,
            )
        else:
            sizes = (
                n1,
                q ** (2 * r - 3) - q ** (r - 1) + q ** (r - 2) + base,
                q ** (2 * r - 3) + base,
                q ** (2 * r - 3) + q ** (r - 2) + base,
                q ** (2 * r - 3) + n1,
            )
    counts = None
    if r == 3 and q % 2 == 1:
        # Counts are forced by double counting: with the five sizes above
        # and the unique smallest section, incidence moments pin the two
        # generic classes at q^6 - q^5 and q^5.
        counts = {
            sizes[0]: 1,
            sizes[1]: q ** 6 - q ** 5,
            sizes[2]: q ** 4 - q2,
            sizes[3]: q ** 5,
            sizes[4]: 2 * q2,
        }
    return Predicted(kind, N, tuple(sorted(sizes)), counts)


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
