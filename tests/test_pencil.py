"""The line spectra of the twisted and quasi-Hermitian kinds from the
lines through one affine point (variety.pencil_line_counts).

The count rests on a group G of order q^(2r-1) that preserves both kinds
and acts regularly on their affine points.  Its elements are indexed by
y in GF(Q)^(r-1) and c in GF(Q) with L(c) = -sum_i h(y_i):

    (X_0, X_i, X_r) -> (X_0, X_i + y_i X_0, X_r + sum_i mu_i X_i + c X_0),
    mu_i = -(2 alpha y_i + B y_i^q),  B = beta^q - beta.

The affine equation sum_i h(x_i) + L(x_r) = 0 is preserved because
h(x + y) - h(x) - h(y) = -L(mu x) (B^q = -B) and L is additive, and the
cone at infinity is, because X_r is free there.  The tests below check
G on the built index arrays, then compare the count with the full pass
over every line and, beyond the full pass's reach, with the line count,
the pair count and the third moment of test_moments.py.
"""

from collections import Counter
from math import comb

import numpy as np
import pytest

from qhcodes import budget as budget_mod
from qhcodes import variety as variety_mod
from qhcodes.budget import BudgetError
from qhcodes.code import higher_weight
from qhcodes.geom import gaussian_binomial, num_points, pg_space, subspace_counts
from qhcodes.variety import (TwistedParams, _cone_line_counts, build_quasi_hermitian,
                             build_twisted, build_variety, default_params, line_section_sizes,
                             line_spectrum, pencil_line_counts, predicted_spectrum,
                             size_counts, validate_params)

BUILDERS = (build_twisted, build_quasi_hermitian)
# the configurations the full pass was first compared at
CROSS_CASES = [("twisted", 3, 3), ("twisted", 4, 3), ("twisted", 5, 3), ("twisted", 8, 3),
               ("twisted", 4, 4), ("quasi-hermitian", 3, 3), ("quasi-hermitian", 5, 3)]
# the (5,4) spectrum the full pass gives
SPECTRUM_54 = {0: 3937500, 1: 16107500, 2: 1765625, 4: 93750000, 5: 39375000,
               6: 66328125, 7: 6250000, 9: 23437500, 10: 3750000, 26: 18776}


def _valid_params(q, r):
    order = q * q
    for alpha in range(1, order):
        for beta in range(order):
            params = TwistedParams(q, r, alpha, beta)
            if validate_params(params).ok:
                yield params


def _kernel_basis(ctx, lin):
    """A GF(p)-basis of the kernel GF(q) of L, whose table is lin."""
    basis, span = [], {0}
    for c in np.flatnonzero(lin == 0).tolist():
        if c not in span:
            basis.append(c)
            span = {ctx.add(s, ctx.mul(k, c)) for s in span for k in range(ctx.p)}
    return basis


def generators(params):
    """G's generators as (y, c, mu): y one GF(p)-basis element of GF(Q)
    in one coordinate, with a c that solves L(c) = -h(y), and y = 0 with
    c in a GF(p)-basis of the kernel GF(q) of L."""
    ctx, q, r = params.ctx, params.q, params.r
    _, h, lin = variety_mod._twisted_affine(params)
    B = ctx.sub(ctx.frobenius_q(params.beta), params.beta)
    two_alpha = ctx.add(params.alpha, params.alpha)
    gens = []
    for i in range(r - 1):
        for j in range(ctx.m):
            e = ctx.p ** j
            y = [0] * (r - 1)
            y[i] = e
            c = int(np.flatnonzero(lin == ctx.neg(int(h[e])))[0])
            gens.append((y, c))
    gens += [([0] * (r - 1), c) for c in _kernel_basis(ctx, lin)]
    assert len(gens) == (r - 1) * ctx.m + ctx.m // 2
    return [(y, c, [ctx.neg(ctx.add(ctx.mul(two_alpha, yi), ctx.mul(B, ctx.pow(yi, q))))
                    for yi in y]) for y, c in gens]


def apply(ctx, element, rows):
    """The images of the point rows under one element (y, c, mu); X_0 and
    the lead of every row stay put, so the images are normalized."""
    y, c, mu = element
    x0, out = rows[:, 0], rows.copy()
    last = ctx.vadd(rows[:, -1], ctx.scalar_mul_row(c)[x0])
    for i, (yi, mi) in enumerate(zip(y, mu), 1):
        out[:, i] = ctx.vadd(rows[:, i], ctx.scalar_mul_row(yi)[x0])
        last = ctx.vadd(last, ctx.scalar_mul_row(mi)[rows[:, i]])
    out[:, -1] = last
    return out


def _images(v, gens, idx):
    rows = v.space.rows(idx)
    return [v.space.index_array(apply(v.ctx, g, rows)) for g in gens]


@pytest.mark.parametrize("q, r", [(3, 3), (4, 3), (5, 3)])
def test_generators_preserve_both_kinds_at_every_valid_pair(q, r):
    pairs = 0
    for params in _valid_params(q, r):
        gens = generators(params)
        for build in BUILDERS:
            v = build(params)
            for image in _images(v, gens, v.indices):
                assert np.array_equal(np.sort(image), v.indices), (params, build)
        pairs += 1
    assert pairs


@pytest.mark.parametrize("q, r", [(3, 3), (4, 3), (5, 3), (4, 4)])
def test_the_orbit_of_the_origin_is_the_affine_part(q, r):
    """Both kinds at the default pair, and (4,4) also preserved: the
    generators map v onto itself and O's orbit under them is all
    q^(2r-1) affine points, so G acts on them regularly."""
    params = default_params(q, r)
    gens = generators(params)
    for build in BUILDERS:
        v = build(params)
        for image in _images(v, gens, v.indices):
            assert np.array_equal(np.sort(image), v.indices)
        origin = v.space.starts[r]
        seen = np.zeros(v.space.n_points, dtype=bool)
        seen[origin] = True
        frontier = np.array([origin])
        while frontier.size:
            new = np.unique(np.concatenate(_images(v, gens, frontier)))
            frontier = new[~seen[new]]
            seen[frontier] = True
        orbit = np.flatnonzero(seen)
        assert orbit.size == q ** (2 * r - 1)
        assert np.array_equal(orbit, v.indices[v.indices >= origin])


@pytest.mark.parametrize("kind, q, r", CROSS_CASES)
def test_pencil_equals_the_full_pass(kind, q, r):
    v = build_variety(kind, q, r)
    sp = line_spectrum(v)
    assert sp.engine == "pencil"
    assert sp.counts == size_counts(line_section_sizes(v))
    assert sp.total == gaussian_binomial(r + 1, 2, q * q)


@pytest.mark.parametrize("q", [3, 4])
def test_pencil_equals_the_full_pass_at_every_valid_pair(q):
    pairs = 0
    for params in _valid_params(q, 3):
        for build in BUILDERS:
            v = build(params)
            assert pencil_line_counts(v) == size_counts(line_section_sizes(v)), params
        pairs += 1
    assert pairs == {3: 24, 4: 180}[q]


def test_twisted_54_lines():
    assert line_spectrum(build_variety("twisted", 5, 4)).counts == SPECTRUM_54


def _choose(counts, k):
    return sum(comb(s, k) * c for s, c in counts.items())


@pytest.mark.parametrize("kind, q, r", [("twisted", 7, 4), ("twisted", 4, 5),
                                        ("quasi-hermitian", 7, 4)])
def test_line_identities_beyond_the_full_pass(kind, q, r):
    """The line count, the points on each line (sum s c = n theta_(r-1)),
    the pairs (every pair of points spans one line) and the third moment
    against the derived hyperplane spectrum (test_moments.py)."""
    Q = q * q
    v = build_variety(kind, q, r)
    counts = line_spectrum(v).counts
    assert sum(counts.values()) == gaussian_binomial(r + 1, 2, Q)
    assert _choose(counts, 1) == v.n * num_points(r - 1, Q)
    assert _choose(counts, 2) == comb(v.n, 2)
    collinear = _choose(counts, 3)
    rhs = collinear * num_points(r - 2, Q) + (comb(v.n, 3) - collinear) * num_points(r - 3, Q)
    assert _choose(predicted_spectrum(q, r, kind).counts, 3) == rhs


def test_higher_weight_on_lines_reads_the_pencil():
    """d_(r-1) at twisted (5,4) from the largest line, 26 = Q + 1 points."""
    v = build_variety("twisted", 5, 4)
    rep = higher_weight(v, 3)
    assert (rep.d, rep.max_section) == (v.n - 26, 26)
    assert rep.subspaces == sum(SPECTRUM_54.values())


@pytest.mark.parametrize("kind, q, r", [("twisted", 4, 4), ("twisted", 5, 4), ("twisted", 3, 5),
                                        ("quasi-hermitian", 4, 4), ("quasi-hermitian", 7, 4)])
def test_vertex_count_equals_the_pass_at_infinity(kind, q, r):
    """The lines at infinity from the cone's vertex equal the full pass
    over the lines of PG(r-1, Q) it replaces."""
    v = build_variety(kind, q, r)
    inf = pg_space(v.ctx, r - 1)
    at = np.searchsorted(v.indices, inf.n_points)
    assert _cone_line_counts(v) == Counter(size_counts(subspace_counts(inf, v.indices[:at], 2)))


@pytest.mark.parametrize("kind, q, r", [("twisted", 3, 3), ("twisted", 4, 4),
                                        ("quasi-hermitian", 5, 3), ("twisted", 3, 5)])
def test_pencil_passes_one_dimension_down(kind, q, r, monkeypatch):
    """The only subspace pass of the pencil runs over PG(r-2, Q), never
    over the lines of PG(r-1, Q) at infinity."""
    v = build_variety(kind, q, r)
    want = size_counts(line_section_sizes(v))
    dims = []
    monkeypatch.setattr(variety_mod, "subspace_counts",
                        lambda space, *a: dims.append(space.r) or subspace_counts(space, *a))
    assert pencil_line_counts(v) == want
    assert dims == [r - 2]


def test_pencil_budget_refuses_first(monkeypatch):
    """One check meters the affine points, the points at infinity and
    the lines of PG(r-2, Q), before any row is read or any line at
    infinity is counted."""
    v = build_variety("twisted", 3, 3)
    need = 3 ** 5 + num_points(2, 9) + gaussian_binomial(2, 2, 9)
    assert pencil_line_counts(v, need) == size_counts(line_section_sizes(v))

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the budget check")
    monkeypatch.setattr(variety_mod, "subspace_counts", forbidden)
    monkeypatch.setattr(v.space, "rows", forbidden)
    checks = []
    monkeypatch.setattr(variety_mod, "check_budget",
                        lambda *a: checks.append(a) or budget_mod.check_budget(*a))
    with pytest.raises(BudgetError, match=r"counting lines from 243 affine points, 91 points "
                                          r"at infinity and 1 line of PG\(1,9\): "
                                          f"needs {need} units"):
        line_spectrum(v, need - 1)
    assert len(checks) == 1
