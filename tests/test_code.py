import numpy as np
import pytest

from qhcodes.budget import BudgetError
from qhcodes.code import (CodeError, LinearCode, ab_condition,
                          code_from_variety, cutting_blocking_check,
                          divisibility_report, higher_weight,
                          minimality_bruteforce, minimality_summary,
                          weights_bruteforce, weights_from_sections)
from qhcodes.gf import make_field
from qhcodes.variety import build_hermitian
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
