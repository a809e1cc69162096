import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import qhcodes.variety as variety_mod
from qhcodes.budget import BudgetError
from qhcodes.code import (CodeError, CuttingReport, LinearCode, ab_condition,
                          code_from_variety, cutting_blocking_check,
                          divisibility_report, higher_weight,
                          minimality_bruteforce, minimality_summary,
                          weights_bruteforce, weights_from_sections)
from qhcodes.geom import dot_rows, line_count, pg_space, span_rank
from qhcodes.gf import field_for_order
from qhcodes.variety import _variety_from_mask, build_variety
from qhcodes.verify import get_variety


def test_code_shape(tw33):
    code = code_from_variety(tw33)
    assert (code.n, code.k) == (262, 4)
    word = code.codeword(np.array([1, 0, 0, 0]))
    assert len(word) == 262


def test_degenerate_point_set_refused(tw33):
    from qhcodes.code import LinearCode
    flat = tw33.coords.copy()
    flat[:, 3] = 0
    from qhcodes.variety import Variety
    v = Variety("twisted", tw33.ctx, 3, tw33.space, tw33.indices, flat)
    with pytest.raises(CodeError, match="proper subspace"):
        code_from_variety(v)


def test_weight_distribution_33(tw33):
    dist = weights_from_sections(tw33)
    assert dist.weights == {225: 144, 227: 1944, 234: 576, 236: 3888, 243: 8}
    assert sum(dist.weights.values()) == 9 ** 4 - 1


def test_sections_equal_bruteforce(tw33, herm23):
    for v in (tw33, herm23):
        a = weights_from_sections(v)
        b = weights_bruteforce(code_from_variety(v))
        assert a.weights == b.weights


def test_message_blocks_cover_all_words(herm23):
    code = code_from_variety(herm23)
    msgs = code.message_block(0, 4 ** 4)
    assert msgs.shape == (256, 4)
    assert len({tuple(row) for row in msgs}) == 256


def test_divisibility():
    d43 = weights_from_sections(get_variety("twisted", 4, 3))
    assert divisibility_report(d43, 4).all_divisible
    d33 = weights_from_sections(get_variety("twisted", 3, 3))
    rep = divisibility_report(d33, 3)
    assert not rep.all_divisible
    assert {o["w"] for o in rep.as_dict()["offenders"]} == {227, 236}


def test_higher_weights_33(tw33):
    assert higher_weight(tw33, 1).d == 225
    assert higher_weight(tw33, 2).d == 252
    assert higher_weight(tw33, 3).d == 261


def test_dk_bounds(tw33):
    with pytest.raises(CodeError):
        higher_weight(tw33, 0)
    with pytest.raises(CodeError):
        higher_weight(tw33, 4)


def test_ab_condition_33(tw33):
    rep = ab_condition(weights_from_sections(tw33))
    assert rep.lhs == 9 * 225 and rep.rhs == 8 * 243
    assert rep.passes


def test_ab_condition_exact_tie_fails():
    v = get_variety("twisted", 4, 3)
    rep = ab_condition(weights_from_sections(v))
    # the two sides agree exactly, so the strict inequality fails
    assert rep.lhs == rep.rhs == 15360
    assert not rep.passes


def test_cutting_blocking(tw33):
    assert cutting_blocking_check(tw33).ok
    rep = cutting_blocking_check(get_variety("twisted", 4, 3))
    assert not rep.ok
    assert rep.witness_coords == (1, 0, 0, 0)
    assert rep.witness_rank == 2


def _cutting_by_ranks(v):
    """The cutting check one hyperplane at a time: row-reduce every
    section and stop at the first that does not span its hyperplane."""
    ctx, space = v.ctx, v.space
    for i, h in enumerate(space.points):
        mask = dot_rows(ctx, h, v.coords) == 0
        rank = span_rank(ctx, v.coords[mask]).rank if mask.any() else 0
        if rank != v.r:
            return CuttingReport(False, space.n_points, i,
                                 tuple(int(x) for x in h), rank)
    return CuttingReport(True, space.n_points)


CUTTING_FIXTURES = [
    ("twisted", 3, 3), ("twisted", 4, 3), ("twisted", 5, 3),
    ("hermitian", 2, 3), ("hermitian", 3, 3), ("hermitian", 2, 4),
    ("hermitian", 3, 1), ("hermitian", 2, 2), ("hermitian", 3, 2),
    ("quasi-hermitian", 3, 3),
    ("cone", 3, 3), ("cone", 3, 2), ("cone", 2, 4),
    ("twisted-infinity", 3, 3), ("twisted-infinity", 2, 4),
]


@pytest.mark.parametrize("kind,q,r", CUTTING_FIXTURES)
def test_pencils_agree_with_ranks_on_varieties(kind, q, r):
    v = build_variety(kind, q, r)
    assert cutting_blocking_check(v) == _cutting_by_ranks(v)


@pytest.mark.parametrize("Q,r", [(4, 1), (4, 2), (9, 2), (4, 3), (9, 3), (4, 4)])
@settings(max_examples=15, deadline=None)
@given(dense=st.booleans(), data=st.data())
def test_pencils_agree_with_ranks_on_random_point_sets(Q, r, dense, data):
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    # a set drawn point by point rarely cuts; the complement of a few
    # points usually does
    drawn = data.draw(st.sets(st.integers(0, space.n_points - 1),
                              max_size=space.n_points // 3))
    mask = np.full(space.n_points, dense)
    mask[sorted(drawn)] = not dense
    v = _variety_from_mask("subset", ctx, r, space, mask)
    rep = cutting_blocking_check(v)
    event(f"Q={Q} r={r} cutting={rep.ok}")
    assert rep == _cutting_by_ranks(v)


def _spy_on_engines(monkeypatch):
    calls = []
    for name in ("_sizes_wht", "_sizes_direct"):
        real = getattr(variety_mod, name)
        monkeypatch.setattr(variety_mod, name,
                            lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    return calls


def test_cutting_budget_refuses_before_any_spectrum(monkeypatch):
    v = build_variety("twisted", 3, 3)
    calls = _spy_on_engines(monkeypatch)
    pencils = line_count(v.ctx, v.r)
    with pytest.raises(BudgetError, match="pencils"):
        cutting_blocking_check(v, budget=pencils - 1)
    assert calls == []
    assert cutting_blocking_check(v, budget=pencils).ok
    assert len(calls) == 1


def test_minimality_summary_keeps_its_engine(monkeypatch):
    v = build_variety("hermitian", 2, 3)
    calls = _spy_on_engines(monkeypatch)
    out = minimality_summary(v, engine="direct")
    assert out["cutting"]["ok"] and out["agree"]
    assert calls == ["_sizes_direct"]


def test_bruteforce_minimality_finds_the_15_words():
    v = get_variety("twisted", 4, 3)
    rep = minimality_bruteforce(code_from_variety(v))
    assert not rep.ok
    assert rep.non_minimal_words == 15
    assert rep.non_minimal_weights == {1024: 15}


def test_bruteforce_minimality_refuses_before_enumerating(monkeypatch):
    code = code_from_variety(get_variety("twisted", 4, 3))
    calls = []
    real = LinearCode.codeword_block
    monkeypatch.setattr(LinearCode, "codeword_block",
                        lambda self, msgs: calls.append(1) or real(self, msgs))
    with pytest.raises(BudgetError):
        minimality_bruteforce(code, budget=10 ** 6)
    assert calls == []


def test_minimality_summary_views_agree(herm23):
    out = minimality_summary(herm23)
    assert out["cutting"]["ok"]
    assert out["bruteforce"]["ok"]
    assert out["agree"]


def test_hermitian_q2_weights(herm23):
    dist = weights_from_sections(herm23)
    assert dist.weights == {32: 135, 36: 120}
    assert ab_condition(dist).passes
