"""The character-transform engine against direct evaluation.

_sizes_wht counts hyperplane sections through one additive character
transform over GF(p)^(m(r+1)); _sizes_direct evaluates every
hyperplane on every point.  They must agree element for element on any
point set, not only on the varieties.
"""

from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhcodes.variety as variety_mod
from qhcodes.budget import BudgetError
from qhcodes.geom import num_points, pg_space
from qhcodes.gf import field_for_order
from qhcodes.variety import (WHT_CUTOFF, _check_transform_range, _sizes_direct,
                             _sizes_wht, _transform_limit, _transform_modulus,
                             build_variety, hermitian_size,
                             hyperplane_section_sizes, resolve_engine)

# (Q, r) with PG(r, Q) small enough for the direct engine
SPACES = [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3),
          (7, 1), (7, 2), (8, 2), (9, 1), (9, 2)]


def _prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _both_engines(ctx, space, coords):
    """Sizes from both engines, and the (p, bound, M, zeta) of every
    modulus the transform chose."""
    moduli = []

    def spy(p, bound):
        M, zeta = _transform_modulus(p, bound)
        moduli.append((p, bound, M, zeta))
        return M, zeta
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variety_mod, "_transform_modulus", spy)
        wht = _sizes_wht(ctx, space, coords)
    direct = _sizes_direct(ctx, space, coords)
    return wht, direct, moduli


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPACES), st.sampled_from([5, 7, 36, 1 << 16]),
       st.data())
def test_transform_equals_direct_on_random_point_sets(qr, block, data):
    Q, r = qr
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    chosen = sorted(data.draw(st.sets(st.integers(0, space.n_points - 1))))
    coords = space.points[np.array(chosen, dtype=np.int64)]
    # small pass blocks split and offset both the lead and trail axes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variety_mod, "_PASS_BLOCK", block)
        wht, direct, moduli = _both_engines(ctx, space, coords)
    assert np.array_equal(wht, direct)
    if ctx.p == 2:
        assert moduli == []
    else:
        [(p, bound, M, zeta)] = moduli
        assert p == ctx.p and bound == (Q - 1) * len(chosen)
        assert _prime(M) and M % p == 1 and M > 2 * (Q - 1) * len(chosen)
        assert zeta != 1 and pow(zeta, p, M) == 1


@pytest.mark.parametrize("kind, q, r", [
    ("twisted", 3, 3), ("quasi-hermitian", 3, 3), ("hermitian", 3, 3),
    ("cone", 3, 3), ("twisted-infinity", 3, 3), ("twisted", 4, 3),
    ("quasi-hermitian", 4, 3), ("hermitian", 2, 3), ("hermitian", 2, 4),
])
def test_transform_equals_direct_on_varieties(kind, q, r):
    v = build_variety(kind, q, r)
    wht, direct, _ = _both_engines(v.ctx, v.space, v.coords)
    assert np.array_equal(wht, direct)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(0, 2 ** 26))
def test_transform_modulus(p, bound):
    M, zeta = _transform_modulus(p, bound)
    assert _prime(M) and M % p == 1 and M > 2 * bound
    assert zeta != 1 and pow(zeta, p, M) == 1
    # least such prime
    assert not any(_prime(c) for c in range(M - p, 2 * bound, -p))


def test_auto_engine_is_the_cheaper_one_up_to_the_cutoff():
    def herm(q, r):
        return SimpleNamespace(ctx=field_for_order(q * q), r=r,
                               n=hermitian_size(r, q))
    # odd and even characteristic alike, the benchmark's cases included
    for q, r in ((3, 3), (5, 3), (7, 3), (8, 3), (4, 4), (2, 4), (11, 2),
                 (13, 2)):
        assert resolve_engine(herm(q, r)) == "wht"
    # above the cutoff
    for q, r in ((9, 3), (7, 4), (8, 4), (3, 8)):
        assert (q * q) ** (r + 1) > WHT_CUTOFF
        assert resolve_engine(herm(q, r)) == "direct"
    # under it, but a few hyperplanes on a few points: the transform of
    # hermitian(61,1) is 13.8 million entries of radix 61
    for q, r in ((16, 1), (31, 1), (61, 1), (64, 1)):
        assert (q * q) ** (r + 1) <= WHT_CUTOFF
        assert resolve_engine(herm(q, r)) == "direct"
    assert resolve_engine(herm(7, 4), "wht") == "wht"
    assert resolve_engine(herm(3, 3), "direct") == "direct"


def test_transform_range():
    assert _transform_limit(2) == 2 ** 31 - 1
    _check_transform_range(2, 2 ** 31 - 1)
    with pytest.raises(BudgetError):
        _check_transform_range(2, 2 ** 31)
    for p in (3, 5, 61):
        L = _transform_limit(p)
        assert L < 2 ** 31 and p * L * L < 2 ** 63
        _check_transform_range(p, 10 ** 6)
        with pytest.raises(BudgetError):
            _check_transform_range(p, L // 2 + 1)


@pytest.mark.parametrize("Q, r", [(64, 5), (27, 6)])
def test_transform_range_refuses_before_allocating(Q, r, monkeypatch):
    # a stand-in for 2^26 points, whose character sums outgrow int32
    # (p = 2) or the int64 products modulo M (odd p)
    v = SimpleNamespace(ctx=field_for_order(Q), r=r, n=2 ** 26,
                        space=SimpleNamespace(n_points=num_points(r, Q)),
                        coords=None, _hyp_sizes=None, _hyp_engine=None)

    def spy(*args):
        raise AssertionError("the transform must not start")
    monkeypatch.setattr(variety_mod, "_sizes_wht", spy)
    with pytest.raises(BudgetError, match="character transform with sums"):
        hyperplane_section_sizes(v, "wht", budget=2 ** 40)
