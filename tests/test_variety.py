import numpy as np
import pytest

import qhcodes.variety as variety_mod
from qhcodes.budget import BudgetError
from qhcodes.gf import make_field
from qhcodes.variety import (ParamsError, TwistedParams, build_cone,
                             build_hermitian, build_twisted,
                             build_twisted_at_infinity, build_variety,
                             cone_size, default_params, hermitian_size,
                             hyperplane_section_sizes, hyperplane_spectrum,
                             line_spectrum, predicted_line_sizes,
                             predicted_spectrum, surgery_check,
                             validate_params)
from qhcodes.verify import get_variety


def test_validation_clauses_fail_individually():
    rep = validate_params(TwistedParams(3, 3, 0, 3))
    assert not rep.ok
    assert [c.name for c in rep.failures()] == ["alpha-nonzero"]
    rep = validate_params(TwistedParams(3, 3, 1, 1))
    assert [c.name for c in rep.failures()] == ["beta-outside-subfield"]
    rep = validate_params(TwistedParams(2, 3, 1, 2))
    assert "base-field" in [c.name for c in rep.failures()]
    rep = validate_params(TwistedParams(3, 2, 1, 3))
    assert "dimension" in [c.name for c in rep.failures()]


def test_discriminant_branch_odd_r():
    rep = validate_params(default_params(3, 3))
    assert rep.ok
    names = [c.name for c in rep.clauses]
    assert "discriminant-nonzero" in names


def test_discriminant_branch_even_r_needs_nonsquare():
    rep = validate_params(default_params(5, 4))
    assert rep.ok
    assert "discriminant-nonsquare" in [c.name for c in rep.clauses]


def test_even_q_even_r_trace_clause():
    rep = validate_params(default_params(4, 4))
    assert rep.ok
    assert rep.trace_kind == "absolute trace GF(q) -> GF(2)"
    assert "trace-zero" in [c.name for c in rep.clauses]


def test_q3_even_r_is_unsatisfiable():
    with pytest.raises(ParamsError, match="exhaustive scan"):
        default_params(3, 4)


def test_default_params_deterministic():
    a = default_params(3, 3)
    b = default_params(3, 3)
    assert (a.alpha, a.beta) == (b.alpha, b.beta)


def test_sizes_match_closed_forms():
    for q, r in ((3, 3), (4, 3), (4, 4), (5, 3)):
        v = get_variety("twisted", q, r)
        assert v.n == predicted_spectrum(q, r, "twisted").N


def test_affine_plus_infinity_partition(tw33):
    assert tw33.affine_count() == 243
    assert tw33.n - tw33.affine_count() == 19


def test_hermitian_sizes():
    assert hermitian_size(2, 2) == 9
    assert hermitian_size(3, 2) == 45
    assert hermitian_size(3, 3) == 280
    v = build_hermitian(make_field(2, 2), 3)
    assert v.n == 45


def test_cone_and_infinity_pieces():
    ctx = make_field(3, 2)
    cn = build_cone(ctx, 3)
    assert cn.n == cone_size(3, 3) == 37
    binf = build_twisted_at_infinity(ctx, 3)
    assert binf.n == 19
    # both live in the hyperplane X0 = 0
    assert bool(np.all(cn.coords[:, 0] == 0))
    assert bool(np.all(binf.coords[:, 0] == 0))


def test_quasi_hermitian_is_twisted_surgery(qh33, tw33):
    ctx = tw33.ctx
    cn = build_cone(ctx, 3)
    binf = build_twisted_at_infinity(ctx, 3)
    assert (qh33.bitset() & ~cn.bitset()) | binf.bitset() == tw33.bitset()
    assert qh33.n == 280


def test_unknown_kind_refused():
    with pytest.raises(ParamsError):
        build_variety("parabolic", 3, 3)


def test_spectrum_engines_agree():
    # both characteristics; fresh objects so cached sizes cannot leak
    # between engines
    for q in (4, 3):
        v1 = build_variety("twisted", q, 3)
        direct = hyperplane_spectrum(v1, engine="direct")
        v2 = build_variety("twisted", q, 3)
        wht = hyperplane_spectrum(v2, engine="wht")
        assert direct.counts == wht.counts
        assert direct.engine == "direct" and wht.engine == "wht"


def test_cached_sizes_still_meet_the_budget():
    v = build_variety("hermitian", 2, 3)
    hyperplane_section_sizes(v)
    with pytest.raises(BudgetError):
        hyperplane_section_sizes(v, budget=0)


def test_cached_sizes_keep_their_engine(monkeypatch):
    v = build_variety("hermitian", 2, 3)
    direct = hyperplane_spectrum(v, engine="direct")
    calls = []
    real = variety_mod._sizes_wht
    monkeypatch.setattr(variety_mod, "_sizes_wht",
                        lambda *a: calls.append(1) or real(*a))
    wht = hyperplane_spectrum(v, engine="wht")
    assert calls, "the wht report must come from the wht engine"
    assert wht.engine == "wht" and wht.counts == direct.counts


def test_spectrum_33_exact(tw33):
    sp = hyperplane_spectrum(tw33)
    assert sp.counts == {19: 1, 26: 486, 28: 72, 35: 243, 37: 18}
    assert sp.total == 820


def test_spectrum_counts_satisfy_incidence_moments(tw33):
    """Sanity identities every hyperplane multiset must satisfy."""
    sp = hyperplane_spectrum(tw33)
    n, total = tw33.n, 820
    through_point = 91      # hyperplanes through a fixed point of PG(3, 9)
    through_pair = 10       # through a fixed pair
    assert sum(s * c for s, c in sp.counts.items()) == n * through_point
    assert sum(s * (s - 1) * c for s, c in sp.counts.items()) \
        == n * (n - 1) * through_pair


def test_predicted_counts_match_measured_at_53():
    v = get_variety("twisted", 5, 3)
    sp = hyperplane_spectrum(v)
    pred = predicted_spectrum(5, 3, "twisted")
    assert sp.counts == pred.counts


def test_hermitian_spectrum_two_sizes():
    v = build_hermitian(make_field(2, 2), 3)
    sp = hyperplane_spectrum(v)
    assert sp.counts == {9: 40, 13: 45}
    pred = predicted_spectrum(2, 3, "hermitian")
    assert sp.counts == pred.counts


def test_line_spectrum_33(tw33):
    sp = line_spectrum(tw33)
    assert sp.total == 7462
    assert set(sp.support) <= set(predicted_line_sizes(3))
    assert sum(sp.counts.values()) == 7462
    # every point lies on (q^2 + ... ) lines; first moment over lines
    lines_through_point = 91
    assert sum(s * c for s, c in sp.counts.items()) \
        == tw33.n * lines_through_point


def test_surgery_identity_exact():
    rep = surgery_check(default_params(3, 3))
    assert rep["sets_match"]
    assert rep["per_hyperplane_ok"]
    assert rep["max_abs_residual"] == 0


def test_meta_carries_provenance(tw33):
    meta = tw33.meta()
    assert meta["point_order"] == "lex-v1"
    assert meta["field"]["p"] == 3 and meta["field"]["m"] == 2
    assert meta["n"] == 262
