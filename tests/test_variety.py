import random
import time
import tracemalloc

import numpy as np
import pytest

import qhcodes.geom as geom_mod
import qhcodes.variety as variety_mod
from qhcodes.budget import DEFAULT_BUDGET, BudgetError
from qhcodes.code import (cutting_blocking_check, higher_weight, minimality_summary,
                          weights_from_sections)
from qhcodes.geom import SUBSPACE_BLOCK, ProjectiveSpace, num_points, subspace_counts
from qhcodes.gf import FieldError, factor_prime_power, make_field
from qhcodes.sss import access_structure, democracy_report
from qhcodes.variety import (ParamsError, TwistedParams, build_cone,
                             build_hermitian, build_twisted,
                             build_twisted_at_infinity, build_variety,
                             cone_size, default_params, hermitian_size,
                             hyperplane_section_sizes, hyperplane_spectrum,
                             line_spectrum, predicted_line_sizes,
                             predicted_spectrum, section_counts, size_counts,
                             surgery_check, validate_params)
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


def test_out_of_range_encodings_are_refused_as_such():
    # 99 and -1 encode no element of GF(9): neither is zero, nor fixed by
    # x -> x^q, and the clauses say that they are no element at all
    for alpha, beta in ((99, 99), (-1, -3), (9, 9)):
        rep = validate_params(TwistedParams(3, 3, alpha, beta))
        assert [c.name for c in rep.failures()] == ["alpha-nonzero", "beta-outside-subfield"]
        for c, x in zip(rep.failures(), (alpha, beta)):
            assert f"= {x} encodes no element of GF(9), whose encodings are 0 .. 8" in c.detail
            assert "must be nonzero" not in c.detail and "GF(q)" not in c.detail
    rep = validate_params(TwistedParams(3, 3, 1, 99))
    assert [c.name for c in rep.failures()] == ["beta-outside-subfield"]


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
    assert "trace-zero" in [c.name for c in rep.clauses]


def test_q3_even_r_is_unsatisfiable():
    with pytest.raises(ParamsError, match="exhaustive scan"):
        default_params(3, 4)


@pytest.mark.parametrize("q,r,clause", [(64, 2, "dimension"), (2, 3, "base-field")])
def test_a_q_or_r_no_pair_can_meet_is_refused_before_the_scan(q, r, clause):
    t0 = time.perf_counter()
    with pytest.raises(ParamsError) as err:
        default_params(q, r)
    assert time.perf_counter() - t0 < 1
    [failed] = err.value.report.failures()
    assert failed.name == clause and failed.detail in str(err.value)


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
    assert bool(np.all(cn.space.rows(cn.indices)[:, 0] == 0))
    assert bool(np.all(binf.space.rows(binf.indices)[:, 0] == 0))


def test_quasi_hermitian_is_twisted_surgery(qh33, tw33):
    ctx = tw33.ctx
    cn = build_cone(ctx, 3)
    binf = build_twisted_at_infinity(ctx, 3)
    composed = (qh33.membership() & ~cn.membership()) | binf.membership()
    assert np.array_equal(composed, tw33.membership())
    assert qh33.n == 280


def test_unknown_kind_refused():
    with pytest.raises(ParamsError):
        build_variety("parabolic", 3, 3)


def test_spectrum_engines_agree():
    # both characteristics: the transform's spectrum against direct
    # evaluation, its reference
    for q in (4, 3):
        v = build_variety("twisted", q, 3)
        sizes = variety_mod._sizes_direct(v.ctx, v.space, v.indices)
        wht = hyperplane_spectrum(v)
        assert wht.counts == variety_mod.size_counts(sizes)
        assert wht.engine == "wht"


def test_cached_sizes_still_meet_the_budget():
    v = build_variety("hermitian", 2, 3)
    hyperplane_section_sizes(v)
    with pytest.raises(BudgetError):
        hyperplane_section_sizes(v, budget=0)


def test_cached_sizes_keep_their_engine(monkeypatch):
    # every reader of the hyperplane sizes shares one transform
    v = build_variety("hermitian", 2, 3)
    calls = []
    real = variety_mod._sizes_wht
    monkeypatch.setattr(variety_mod, "_sizes_wht",
                        lambda *a: calls.append(1) or real(*a))
    first, second = hyperplane_spectrum(v), hyperplane_spectrum(v)
    weights_from_sections(v)
    cutting_blocking_check(v)
    assert len(calls) == 1
    assert first.engine == second.engine == "wht"
    assert first.counts == second.counts


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


# each under 0.2 s; (7,4) and (9,4) agree too but take 0.6 s and 5 s
DERIVED_VS_MEASURED = (
    [("twisted", q, r) for q, r in ((3, 3), (4, 3), (5, 3), (7, 3), (8, 3), (11, 3),
                                    (4, 4), (5, 4), (3, 5), (4, 5))]
    + [("quasi-hermitian", q, r) for q, r in ((3, 3), (4, 3), (5, 3), (4, 4), (5, 4))])


@pytest.mark.parametrize("kind, q, r", DERIVED_VS_MEASURED, ids=str)
def test_predicted_counts_match_measured(kind, q, r):
    sp = hyperplane_spectrum(get_variety(kind, q, r))
    assert sp.counts == predicted_spectrum(q, r, kind).counts


def _prime_powers(lo, hi):
    for q in range(lo, hi + 1):
        try:
            factor_prime_power(q)
        except FieldError:
            continue
        yield q


@pytest.mark.parametrize("q", list(_prime_powers(3, 32)))
def test_derived_spectra_obey_the_incidence_identities(q):
    """No transform: every derived spectrum covers PG(r, q^2) once and
    meets the two incidence moments of its N points; the twisted one has
    at most 5 sizes, and the quasi-Hermitian one is the Hermitian one."""
    Q = q * q
    for r in range(3, 9):
        tw, qh = predicted_spectrum(q, r, "twisted"), predicted_spectrum(q, r, "quasi-hermitian")
        for pred in tw, qh:
            n, counts = pred.N, pred.counts
            assert sum(counts.values()) == num_points(r, Q)
            assert sum(s * c for s, c in counts.items()) == n * num_points(r - 1, Q)
            assert sum(s * (s - 1) * c for s, c in counts.items()) \
                == n * (n - 1) * num_points(r - 2, Q)
        assert len(tw.counts) <= 5
        assert qh.as_dict() == {**predicted_spectrum(q, r, "hermitian").as_dict(),
                                "kind": "quasi-hermitian"}


@pytest.mark.parametrize("q, r", [(3, 3), (4, 3), (5, 3), (4, 4)])
def test_derivation_assumptions_hold_for_every_valid_pair(q, r):
    """For every valid (alpha, beta): z -> 2 alpha z + (beta^q - beta) z^q
    is a bijection of GF(q^2), h(x) = L(alpha x^2) - (beta^q - beta) x^(q+1)
    is a nondegenerate form over GF(q) (its polar form h(x + y) - h(x) -
    h(y) has no radical), h is elliptic (vanishes only at 0) at even r,
    and both kinds' measured spectra are the derived ones.  At odd r h
    may vanish off 0; the derivation does not need it there."""
    p, e = factor_prime_power(q)
    ctx = make_field(p, 2 * e)
    elems, frob = np.arange(ctx.order), ctx.pow_row(q)
    add = ctx.vadd(elems[:, None], elems)
    pred = {kind: predicted_spectrum(q, r, kind).counts for kind in ("twisted", "quasi-hermitian")}
    valid = 0
    for alpha in range(1, ctx.order):
        for beta in range(ctx.order):
            params = TwistedParams(q, r, alpha, beta)
            if not validate_params(params).ok:
                continue
            valid += 1
            delta = ctx.sub(ctx.frobenius_q(beta), beta)
            phi = ctx.vadd(ctx.scalar_mul_row(ctx.add(alpha, alpha)),
                           ctx.scalar_mul_row(delta)[frob])
            assert np.unique(phi).size == ctx.order, (alpha, beta)
            h = variety_mod._twisted_affine(params)[1]
            polar = ctx.vadd(h[add], ctx.vneg(ctx.vadd(h[:, None], h[None, :])))
            assert np.all(polar[1:].any(axis=1)), (alpha, beta)
            if r % 2 == 0:
                assert np.all(h[1:] != 0), (alpha, beta)
            for kind, build in (("twisted", build_twisted),
                                ("quasi-hermitian", variety_mod.build_quasi_hermitian)):
                assert hyperplane_spectrum(build(params)).counts == pred[kind], (alpha, beta)
    assert valid


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


SECTION_CASES = [("twisted", 3, 3), ("twisted", 4, 3), ("quasi-hermitian", 3, 3),
                 ("hermitian", 2, 3), ("hermitian", 2, 4), ("hermitian", 3, 4), ("cone", 3, 3),
                 ("twisted-infinity", 3, 3)]


@pytest.mark.parametrize("kind, q, r", SECTION_CASES, ids=str)
def test_section_counts_match_the_full_pass(kind, q, r):
    """Every route section_counts picks, for points, lines and every
    subspace up to the hyperplanes, against the full pass; only the lines
    at r >= 3, of every kind, come from the pencil."""
    v = get_variety(kind, q, r)
    for nrows in range(1, r + 1):
        counts, engine = section_counts(v, nrows)
        assert counts == size_counts(subspace_counts(v.space, v.indices, nrows))
        assert (engine == "pencil") == (nrows == 2 < r)


def test_surgery_identity_exact():
    rep = surgery_check(default_params(3, 3))
    assert rep["sets_match"]
    assert rep["per_hyperplane_ok"]
    assert rep["max_abs_residual"] == 0


def test_surgery_check_sees_a_residual_of_minus_one(monkeypatch):
    # one twisted section one point short: the signed sizes give a
    # residual of -1 there, not an unsigned wrap-around
    real = variety_mod.hyperplane_section_sizes

    def planted(v, *args, **kwargs):
        sizes = real(v, *args, **kwargs)
        if v.kind == "twisted":
            sizes = sizes.copy()
            sizes[7] -= 1
        return sizes
    monkeypatch.setattr(variety_mod, "hyperplane_section_sizes", planted)
    rep = surgery_check(default_params(3, 3))
    assert rep["sets_match"]
    assert not rep["per_hyperplane_ok"]
    assert rep["max_abs_residual"] == 1


def test_meta_carries_provenance(tw33):
    meta = tw33.meta()
    assert meta["point_order"] == "lex-v1"
    assert meta["field"]["p"] == 3 and meta["field"]["m"] == 2
    assert meta["n"] == 262


# Reference masks: one coordinate loop per variety, as first written,
# against which the builders' shared power sums are checked.

def _ref_twisted_affine(params, pts):
    ctx, r = params.ctx, params.r
    q = ctx.sub_order
    sq, nrm, frob = ctx.pow_row(2), ctx.pow_row(q + 1), ctx.pow_row(q)
    s2 = np.zeros(len(pts), dtype=np.int64)
    sN = np.zeros(len(pts), dtype=np.int64)
    for i in range(1, r):
        s2 = ctx.vadd(s2, sq[pts[:, i]])
        sN = ctx.vadd(sN, nrm[pts[:, i]])
    t = ctx.vadd(ctx.scalar_mul_row(params.alpha)[s2], pts[:, r])
    lhs = ctx.vadd(frob[t], ctx.vneg(t))
    bqb = ctx.sub(ctx.frobenius_q(params.beta), params.beta)
    rhs = ctx.scalar_mul_row(bqb)[sN]
    return (pts[:, 0] == 1) & (lhs == rhs)


def _ref_twisted_infinity(ctx, r, pts):
    acc = np.zeros(len(pts), dtype=np.int64)
    if ctx.p != 2:
        sq = ctx.pow_row(2)
        for i in range(1, r):
            acc = ctx.vadd(acc, sq[pts[:, i]])
    else:
        for i in range(1, r):
            acc = ctx.vadd(acc, pts[:, i])
    return (pts[:, 0] == 0) & (acc == 0)


def _ref_cone(ctx, r, pts):
    nrm = ctx.pow_row(ctx.sub_order + 1)
    acc = np.zeros(len(pts), dtype=np.int64)
    for i in range(1, r):
        acc = ctx.vadd(acc, nrm[pts[:, i]])
    return (pts[:, 0] == 0) & (acc == 0)


def _ref_hermitian(ctx, r, pts):
    nrm = ctx.pow_row(ctx.sub_order + 1)
    acc = np.zeros(len(pts), dtype=np.int64)
    for i in range(r + 1):
        acc = ctx.vadd(acc, nrm[pts[:, i]])
    return acc == 0


REFERENCE_MASKS = {
    "twisted": lambda p, ctx, r, pts: (_ref_twisted_affine(p, pts)
                                       | _ref_twisted_infinity(ctx, r, pts)),
    "quasi-hermitian": lambda p, ctx, r, pts: (_ref_twisted_affine(p, pts)
                                               | _ref_cone(ctx, r, pts)),
    "twisted-infinity": lambda p, ctx, r, pts: _ref_twisted_infinity(ctx, r, pts),
    "cone": lambda p, ctx, r, pts: _ref_cone(ctx, r, pts),
    "hermitian": lambda p, ctx, r, pts: _ref_hermitian(ctx, r, pts),
}
PLAIN_KINDS = ("twisted-infinity", "cone", "hermitian")
# twisted and quasi-hermitian have no parameters at (3, 4) or q = 2;
# hermitian (37, 2) is over GF(1369), where vadd adds digit by digit
BUILD_CASES = [(kind, q, r) for kind in REFERENCE_MASKS
               for q in (3, 4, 5) for r in (3, 4)
               if (q, r) != (3, 4) or kind in PLAIN_KINDS] + \
              [(kind, 2, r) for kind in PLAIN_KINDS for r in (3, 4)] + \
              [(kind, q, r) for kind in PLAIN_KINDS for q in (2, 3, 4) for r in (1, 2)] + \
              [("hermitian", 37, 2)]


def _parameters(kind, q, r):
    """(alpha, beta) to build kind at (q, r) with: the default pair, and
    for twisted and quasi-hermitian at r = 3 every valid pair at q = 3
    and 4 and a seeded sample of twelve at q = 5."""
    if kind in PLAIN_KINDS or (q, r) not in ((3, 3), (4, 3), (5, 3)):
        return [(None, None)]
    order = q * q
    valid = [(a, b) for a in range(1, order) for b in range(order)
             if validate_params(TwistedParams(q, r, a, b)).ok]
    return valid if q < 5 else random.Random(q).sample(valid, 12)


@pytest.mark.parametrize("kind,q,r", BUILD_CASES)
def test_builders_match_reference_masks(kind, q, r):
    pts = None
    for alpha, beta in _parameters(kind, q, r):
        v = build_variety(kind, q, r, alpha, beta)
        if pts is None:
            pts = v.space.rows(np.arange(v.space.n_points))
        ref = np.nonzero(REFERENCE_MASKS[kind](v.params, v.ctx, r, pts))[0]
        assert np.array_equal(v.indices, ref), (alpha, beta)


@pytest.mark.parametrize("kind", sorted(REFERENCE_MASKS))
def test_points_budget_refuses_before_enumerating(kind, monkeypatch):
    n = num_points(3, 9)
    real = variety_mod.pg_space
    calls = []
    monkeypatch.setattr(variety_mod, "pg_space",
                        lambda ctx, r: calls.append(r) or real(ctx, r))
    with pytest.raises(BudgetError, match=f"scanning {n} points"):
        build_variety(kind, 3, 3, budget=n - 1)
    assert calls == []
    assert build_variety(kind, 3, 3, budget=n).space.n_points == n
    assert calls == [3]


def test_points_budget_is_the_only_bound(monkeypatch):
    # PG(4, 121) has 216 million points: stand in a chart kernel that
    # finds no point, so only the budget check is under test
    n = num_points(4, 121)
    assert n > DEFAULT_BUDGET
    monkeypatch.setattr(variety_mod, "_chart_zeros",
                        lambda ctx, charts: np.zeros(0, dtype=np.int64))
    with pytest.raises(BudgetError, match=f"scanning {n} points"):
        build_variety("hermitian", 11, 4)
    assert build_variety("hermitian", 11, 4, budget=n).n == 0
    # nor does the enumeration itself consult the default budget
    monkeypatch.setattr(geom_mod, "check_budget", lambda *a: pytest.fail(
        "ProjectiveSpace must not check a budget of its own"))
    assert ProjectiveSpace(make_field(2, 2), 2).n_points == 21


def test_no_path_reads_the_point_table():
    """Builders, spectra, direct evaluation, minimality and the access
    structure derive the rows and keys they need: a space has no full
    table to read."""
    assert not hasattr(ProjectiveSpace, "points")
    assert not hasattr(ProjectiveSpace, "keys")
    for kind in REFERENCE_MASKS:
        assert build_variety(kind, 3, 3).n > 0
    for kind, q, r in [("twisted", 3, 3), ("twisted", 4, 3),
                       ("hermitian", 2, 3), ("hermitian", 2, 4)]:
        v = build_variety(kind, q, r)
        variety_mod._sizes_direct(v.ctx, v.space, v.indices)
        hyperplane_spectrum(v)
        line_spectrum(v)
        higher_weight(v, 2)
        cutting_blocking_check(v)
        minimality_summary(v)
    democracy_report(access_structure(build_variety("hermitian", 2, 3)))
    democracy_report(access_structure(build_variety("hermitian", 2, 4)))


def test_build_peaks_below_one_point_table():
    ctx = make_field(2, 6)
    theta = num_points(3, 64)
    tracemalloc.start()
    try:
        v = build_hermitian(ctx, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.n == hermitian_size(3, 8)
    # the indices and a few blocks of sums take 0.48 MB; int64 rows of
    # the points, 2^16 at a time, would peak at 3.87 MB
    assert peak < 8 * v.n + 8 * SUBSPACE_BLOCK < 8 * 4 * theta / 10


def test_direct_engine_peaks_below_one_point_table(monkeypatch):
    """The reference engine walks the hyperplanes a block at a time, on
    a fresh space, below the 8 (r+1) theta_r bytes of a point table."""
    v = build_variety("hermitian", 4, 3)
    want = hyperplane_section_sizes(v)
    space = ProjectiveSpace(v.ctx, 3)
    monkeypatch.setattr(variety_mod, "SUBSPACE_BLOCK", 64)
    tracemalloc.start()
    try:
        sizes = variety_mod._sizes_direct(v.ctx, space, v.indices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(sizes, want)
    assert peak < 8 * 4 * num_points(3, 16) == 139808


def test_a_built_variety_holds_only_its_indices():
    ctx = make_field(2, 6)
    tracemalloc.start()
    try:
        v = build_hermitian(ctx, 3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert v.n == hermitian_size(3, 8) == 33345
    assert np.all(np.diff(v.indices) > 0)
    assert held < 8 * v.n + 64 * 1024


@pytest.mark.parametrize("block", [1, 7, 64])
def test_builds_do_not_depend_on_the_chunk(block, monkeypatch):
    # at r = 4 every block splits the last chart, of 9^4 or 16^4 points
    cases = [(kind, q, 3) for kind in REFERENCE_MASKS for q in (3, 4)] + \
            [(kind, 2, 3) for kind in PLAIN_KINDS] + \
            [(kind, 3, 4) for kind in PLAIN_KINDS] + \
            [(kind, 4, 4) for kind in ("twisted", "quasi-hermitian")]
    want = {case: build_variety(*case) for case in cases}
    monkeypatch.setattr(variety_mod, "SUBSPACE_BLOCK", block)
    for case, ref in want.items():
        v = build_variety(*case)
        assert np.array_equal(v.indices, ref.indices)
