"""The third power moment ties the hyperplane spectrum to the line
spectrum, a second route for both.

Count the triples of a set V of n points of PG(r, Q) by the hyperplanes
through them.  A collinear triple lies in theta_{r-2} hyperplanes, any
other triple in theta_{r-3}, where theta_j = (Q^(j+1) - 1) / (Q - 1) is
the number of points of PG(j, Q).  So

    sum_H C(|H meet V|, 3) = T theta_{r-2} + (C(n, 3) - T) theta_{r-3},

with T = sum_l C(|l meet V|, 3) the number of collinear triples.  The
hyperplane sizes come from the hyperplane engines and the line sizes
from the subspace key pass; neither reads the other.
"""

from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcodes.geom import num_points, pg_space
from qhcodes.gf import field_for_order
from qhcodes.variety import (_sizes_direct, build_variety, hyperplane_section_sizes,
                             line_section_sizes, subspace_section_sizes)


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
    v = SimpleNamespace(ctx=ctx, r=r, space=space, indices=chosen)
    lhs, rhs = third_moment_sides(len(chosen), Q, r,
                                  _sizes_direct(ctx, space, space.points[chosen]),
                                  subspace_section_sizes(v, 2))
    assert lhs == rhs
