"""The hyperplane spectrum gives the line spectrum a second route:
through the third power moment, and line by line.

Count the triples of a set V of n points of PG(r, Q) by the hyperplanes
through them.  A collinear triple lies in theta_{r-2} hyperplanes, any
other triple in theta_{r-3}, where theta_j = (Q^(j+1) - 1) / (Q - 1) is
the number of points of PG(j, Q).  So

    sum_H C(|H meet V|, 3) = T theta_{r-2} + (C(n, 3) - T) theta_{r-3},

with T = sum_l C(|l meet V|, 3) the number of collinear triples.  The
hyperplane sizes come from the hyperplane engines and the line sizes
from the subspace key pass; neither reads the other.

In PG(3, Q) each point of V off a line l lies in exactly one of the
Q + 1 planes through l, so |l meet V| = (sum_{H > l} |H meet V| - n) / Q.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcodes.geom import num_points, pg_space, rref_bases, subspace_counts
from qhcodes.gf import field_for_order
from qhcodes.variety import (_sizes_direct, build_variety, hyperplane_section_sizes,
                             line_section_sizes, line_spectrum)


def _triples(sizes) -> int:
    s = sizes.astype(np.int64)
    return int((s * (s - 1) * (s - 2) // 6).sum())


def third_moment_sides(n, Q, r, hyperplane_sizes, line_sizes):
    collinear = _triples(line_sizes)
    rhs = (collinear * num_points(r - 2, Q)
           + (comb(n, 3) - collinear) * num_points(r - 3, Q))
    return _triples(hyperplane_sizes), rhs


@pytest.mark.parametrize("kind,q,r", [
    ("twisted", 3, 3), ("twisted", 4, 3), ("twisted", 5, 3),
    ("hermitian", 2, 3), ("hermitian", 3, 3), ("hermitian", 2, 4),
    ("quasi-hermitian", 3, 3), ("cone", 3, 3)])
def test_third_moment_on_varieties(kind, q, r):
    v = build_variety(kind, q, r)
    lhs, rhs = third_moment_sides(v.n, q * q, r, hyperplane_section_sizes(v),
                                  line_section_sizes(v))
    assert lhs == rhs


# (Q, r) with r >= 2, small enough for direct hyperplane evaluation
SPACES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2),
          (5, 3), (7, 2), (8, 2), (9, 2)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPACES), st.data())
def test_third_moment_on_random_point_sets(qr, data):
    Q, r = qr
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    chosen = np.array(sorted(data.draw(st.sets(st.integers(0, space.n_points - 1)))),
                      dtype=np.int64)
    lhs, rhs = third_moment_sides(len(chosen), Q, r,
                                  _sizes_direct(ctx, space, chosen),
                                  subspace_counts(space, chosen, 2))
    assert lhs == rhs


def _normalized(ctx, vecs):
    """Rows scaled so that their first nonzero entry is 1."""
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    inv = ctx.exp[(-ctx.log[lead]) % (ctx.order - 1)]
    return ctx.vmul(vecs, inv[:, None])


def sizes_through_planes(ctx, n, plane_sizes):
    """|l meet V| for every line l of PG(3, Q) in rref_bases order, from
    the Q + 1 planes through l: the points of the dual line, spanned by
    the null space of l's basis."""
    Q = ctx.order
    space = pg_space(ctx, 3)
    out = []
    for r0, r1 in rref_bases(ctx, 3, 2):
        p0, p1 = int(np.argmax(r0[0] != 0)), int(np.argmax(r1[0] != 0))
        null = []
        for f in sorted(set(range(4)) - {p0, p1}):
            h = np.zeros_like(r0)
            h[:, f] = 1
            h[:, p0] = ctx.vneg(r0[:, f])
            h[:, p1] = ctx.vneg(r1[:, f])
            null.append(h)
        planes = [null[1]] + [ctx.vadd(null[0], ctx.scalar_mul_row(c)[null[1]])
                              for c in range(Q)]
        total = sum(plane_sizes[space.index_array(_normalized(ctx, h))].astype(np.int64)
                    for h in planes)
        assert np.all((total - n) % Q == 0)
        out.append((total - n) // Q)
    return np.concatenate(out)


@pytest.mark.parametrize("kind,q", [("twisted", 3), ("twisted", 4),
                                    ("hermitian", 2), ("hermitian", 3)])
def test_line_sizes_from_the_planes_through_each_line(kind, q):
    v = build_variety(kind, q, 3)
    want = sizes_through_planes(v.ctx, v.n, hyperplane_section_sizes(v))
    assert np.array_equal(line_section_sizes(v), want)


@pytest.mark.parametrize("Q", [9, 25])
def test_line_sizes_from_the_planes_on_random_point_sets(Q):
    ctx = field_for_order(Q)
    space = pg_space(ctx, 3)
    chosen = np.flatnonzero(np.random.default_rng(Q).random(space.n_points) < 1 / 3)
    want = sizes_through_planes(ctx, len(chosen),
                                _sizes_direct(ctx, space, chosen))
    assert np.array_equal(subspace_counts(space, chosen, 2), want)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_hermitian_line_spectrum_closed_form(q):
    """A line of PG(3, q^2) is a tangent, a secant in q + 1 points or a
    generator of H(3, q^2); none misses it.  At q = 7 the table of sums
    holds 49^4 entries."""
    n = (q ** 3 + 1) * (q ** 2 + 1)
    want = {1: n * (q * q - q), q + 1: n * q ** 4 // (q + 1),
            q * q + 1: (q + 1) * (q ** 3 + 1)}
    assert line_spectrum(build_variety("hermitian", q, 3)).counts == want
