import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import qhcodes.code as code_mod
import qhcodes.geom as geom_mod
import qhcodes.sss as sss_mod
import qhcodes.variety as variety_mod
from qhcodes import budget as budget_mod
from qhcodes.budget import BudgetError
from qhcodes.code import (CodeError, CuttingReport, LinearCode,
                          MinimalityReport, WeightDistribution, _unique_rows,
                          ab_condition, code_from_variety,
                          cutting_blocking_check, divisibility_report,
                          higher_weight, minimality_bruteforce,
                          minimality_summary, weights_bruteforce,
                          weights_from_sections)
from qhcodes.geom import (SUBSPACE_BLOCK, _digit_matrix, dot_rows, gaussian_binomial,
                          num_points, pg_space, rref_bases, span_rank, subspace_counts,
                          subspace_points)
from qhcodes.gf import field_for_order, make_field
from qhcodes.sss import access_structure, group_closure, perfectness_check
from qhcodes.variety import Variety, build_variety, hyperplane_section_sizes
from qhcodes.verify import CROSS_FIXTURES, get_code, get_scheme, get_variety


def test_code_shape(tw33):
    code = code_from_variety(tw33)
    assert (code.n, code.k) == (262, 4)
    word = code.codeword_block(np.array([[1, 0, 0, 0]]))[0]
    assert len(word) == 262


def test_degenerate_point_set_refused(tw33):
    # V's section by the plane X_0 = 0: the indices below theta_2
    plane = tw33.indices[tw33.indices < num_points(2, 9)]
    assert 0 < len(plane) < tw33.n
    assert not tw33.space.rows(plane)[:, 0].any()
    v = Variety("subset", tw33.ctx, 3, tw33.space, plane)
    with pytest.raises(CodeError, match="proper subspace: rank 3 < 4"):
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


def _row_sorted(rows):
    return rows[np.lexsort(rows.T[::-1])]


def _with_multiples(ctx, words):
    """The zero word and the q - 1 nonzero multiples of every word."""
    scalars = np.arange(1, ctx.order)[:, None, None]
    return np.concatenate([np.zeros((1, words.shape[1]), dtype=np.int64),
                           ctx.vmul(scalars, words[None]).reshape(-1, words.shape[1])])


def test_message_blocks_cover_all_words(herm23):
    """class_blocks yields the words of the 85 normalized messages; with
    the zero word and their multiples, those of all 256 messages."""
    code = code_from_variety(herm23)
    words = np.concatenate(list(code.class_blocks()))
    assert words.shape == (85, code.n)
    every = code.codeword_block(_digit_matrix(4, 4, np.arange(4 ** 4)))
    assert np.array_equal(_row_sorted(_with_multiples(code.ctx, words)),
                          _row_sorted(every))


def test_divisibility():
    d43 = weights_from_sections(get_variety("twisted", 4, 3))
    assert divisibility_report(d43, 4).all_divisible
    d33 = weights_from_sections(get_variety("twisted", 3, 3))
    rep = divisibility_report(d33, 3)
    assert not rep.all_divisible
    assert {o["w"] for o in rep.as_dict()["offenders"]} == {227, 236}


@pytest.mark.parametrize("kind", ["cone", "twisted-infinity"])
def test_no_weights_for_a_point_set_inside_a_hyperplane(kind, monkeypatch):
    # both lie in X_0 = 0, whose section holds all n points: a weight 0
    # or any d_k would describe no code.  The rank of the points says so
    # before the transform runs, for the weights and for every k
    v = build_variety(kind, 3, 3)
    calls, wht = [], variety_mod._sizes_wht
    monkeypatch.setattr(variety_mod, "_sizes_wht", lambda *a: calls.append(a) or wht(*a))
    with pytest.raises(CodeError, match="spans a proper subspace: rank 3 < 4"):
        weights_from_sections(v)
    for k in (1, 2, 3):
        with pytest.raises(CodeError, match="spans a proper subspace: rank 3 < 4"):
            higher_weight(v, k)
    assert calls == []
    assert int(hyperplane_section_sizes(v).max()) == v.n
    assert len(calls) == 1


def _spy_reductions(monkeypatch):
    """[(rows, rank)] of each row reduction code.py makes from now on."""
    reduced, real = [], code_mod.row_reduce

    def spy(ctx, mat):
        rank, basis = real(ctx, mat)
        reduced.append((len(mat), rank))
        return rank, basis
    monkeypatch.setattr(code_mod, "row_reduce", spy)
    return reduced


def test_span_is_read_block_by_block(monkeypatch):
    # blocks of 256, 1024 and 4096 rows, the first with the last point:
    # the cone lies in X_0 = 0, so all 3151 points are read before the
    # refusal; the last point of the space, appended, lies off X_0 = 0
    # and spans in the first block
    cone = build_variety("cone", 5, 4)
    assert cone.n == 3151
    reduced = _spy_reductions(monkeypatch)
    with pytest.raises(CodeError, match="spans a proper subspace: rank 4 < 5"):
        code_mod._require_span(cone)
    ranks = [0] + [rank for _, rank in reduced]
    assert [rows - ranks[i] for i, (rows, _) in enumerate(reduced)] == [257, 1024, 1871]
    reduced.clear()
    idx = np.append(cone.indices, cone.space.n_points - 1)
    code_mod._require_span(Variety("subset", cone.ctx, 4, cone.space, idx))
    assert reduced == [(257, 5)]


@pytest.mark.parametrize("kind", ["twisted", "quasi-hermitian"])
def test_span_of_a_pencil_kind_is_one_block(kind, monkeypatch):
    # the points at infinity come first, 651 (twisted) or 3151
    # (quasi-Hermitian) at (5,4), all in X_0 = 0: without the last,
    # affine point no block before the third could reach rank 5
    v = build_variety(kind, 5, 4)
    assert np.searchsorted(v.indices, v.space.starts[4]) > 256
    reduced = _spy_reductions(monkeypatch)
    code_mod._require_span(v)
    assert reduced == [(257, 5)]


def test_higher_weights_33(tw33):
    assert higher_weight(tw33, 1).d == 225
    assert higher_weight(tw33, 2).d == 252
    assert higher_weight(tw33, 3).d == 261


def test_higher_weights_beyond_the_transform_range(tw33, monkeypatch):
    # for k >= 2 spanning is read from the points' rank, not from the
    # hyperplane transform, so its exact range refuses only d_1
    v = Variety(tw33.kind, tw33.ctx, 3, tw33.space, tw33.indices)
    monkeypatch.setattr(variety_mod, "_transform_limit", lambda p: 0)
    assert higher_weight(v, 3).d == 261
    assert higher_weight(v, 2).d == 252
    with pytest.raises(BudgetError, match="exact range"):
        higher_weight(v, 1)


@pytest.mark.parametrize("kind, q, r", [("twisted", 3, 3), ("quasi-hermitian", 3, 3),
                                        ("hermitian", 2, 4)], ids=str)
def test_higher_weights_match_the_full_pass(kind, q, r):
    v = get_variety(kind, q, r)
    for k in range(2, r + 1):
        best = int(subspace_counts(v.space, v.indices, r + 1 - k).max())
        rep = higher_weight(v, k)
        assert (rep.d, rep.max_section) == (v.n - best, best)
        assert rep.subspaces == gaussian_binomial(r + 1, r + 1 - k, v.ctx.order)


def test_hermitian_24_higher_weights():
    v = get_variety("hermitian", 2, 4)
    reps = [higher_weight(v, k) for k in (2, 3, 4)]
    assert [(rep.d, rep.subspaces) for rep in reps] == [(152, 5797), (160, 5797), (164, 341)]


@pytest.mark.parametrize("kind, q, r, k, refusal", [
    ("twisted", 3, 3, 2, "counting lines from 243 affine points, 91 points at infinity "
                         "and 1 line of PG(1,9)"),
    ("hermitian", 2, 4, 2, "enumerating 5797 subspaces of PG(4,4)"),
    ("hermitian", 2, 4, 3, "scanning 341 points")], ids=str)
def test_dk_budget_refuses_with_one_check(kind, q, r, k, refusal, monkeypatch):
    checks = []
    for mod in (code_mod, variety_mod, geom_mod):
        monkeypatch.setattr(mod, "check_budget",
                            lambda *a: checks.append(a) or budget_mod.check_budget(*a))
    with pytest.raises(BudgetError, match=re.escape(refusal)):
        higher_weight(get_variety(kind, q, r), k, budget=0)
    assert len(checks) == 1


def test_dk_at_k_r_needs_no_budget(tw33):
    # the points are counted in closed form
    assert higher_weight(tw33, 3, budget=0).d == 261


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
    pts = space.rows(v.indices)
    for i, h in enumerate(space.rows(np.arange(space.n_points))):
        mask = dot_rows(ctx, h, pts) == 0
        rank = span_rank(ctx, pts[mask]) if mask.any() else 0
        if rank != v.r:
            return CuttingReport(False, space.n_points, i,
                                 tuple(int(x) for x in h), rank)
    return CuttingReport(True, space.n_points)


def _cutting_by_pencils(v):
    """The cutting check by pencils of hyperplanes, the lines of the dual
    space.  The q+1 hyperplanes H through a codimension-2 subspace S
    satisfy sum_H |H meet v| = n + q |S meet v|, and H meet v fails to
    span H exactly when |H meet v| = |S meet v| for some S inside H.
    Only the witness is row-reduced."""
    ctx, space, q = v.ctx, v.space, v.ctx.order
    sizes = hyperplane_section_sizes(v)
    witness = space.n_points
    for rows in rref_bases(ctx, v.r, 2):
        total = np.zeros(len(rows[0]), dtype=np.int64)
        smallest = np.full(len(rows[0]), v.n, dtype=np.int64)
        for hyps in subspace_points(ctx, rows):
            s = sizes[space.index_array(hyps)]
            total += s
            np.minimum(smallest, s, out=smallest)
        sec, rem = np.divmod(total - v.n, q)
        assert not rem.any(), "pencil sums must be n plus q times the axis section"
        bad = smallest == sec
        if bad.any():
            # only the bad pencils, again, to name their failing hyperplanes
            rows, sec = tuple(row[bad] for row in rows), sec[bad]
            for hyps in subspace_points(ctx, rows):
                idx = space.index_array(hyps)
                fail = idx[sizes[idx] == sec]
                if fail.size:
                    witness = min(witness, int(fail.min()))
    if witness == space.n_points:
        return CuttingReport(True, space.n_points)
    h, pts = space.rows([witness])[0], space.rows(v.indices)
    mask = dot_rows(ctx, h, pts) == 0
    rank = span_rank(ctx, pts[mask]) if mask.any() else 0
    return CuttingReport(False, space.n_points, witness, tuple(int(x) for x in h), rank)


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
    """The check, the pencil pass and the rank pass give the same report."""
    v = build_variety(kind, q, r)
    rep = cutting_blocking_check(v)
    assert rep == _cutting_by_ranks(v)
    assert rep == _cutting_by_pencils(v)


def _ab_passes(v):
    """The weight ratio condition's verdict, or None where no code is
    defined: no point, or every point in one hyperplane."""
    try:
        return ab_condition(weights_from_sections(v)).passes
    except CodeError:
        return None


# unions of three hyperplanes, by index, whose codes are minimal although
# the weight ratio condition fails (from a scan of small unions)
RATIO_MISSES = {(4, 2): (0, 1, 5), (9, 2): (0, 2, 10), (4, 3): (0, 2, 6),
                (9, 3): (0, 20, 40), (4, 4): (0, 8, 16)}


@pytest.mark.parametrize("Q,r", [(4, 1), (4, 2), (9, 2), (4, 3), (9, 3), (4, 4)])
def test_pencils_agree_with_ranks_on_random_point_sets(Q, r):
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    pts = space.rows(np.arange(space.n_points))

    def union(hyps):
        mask = np.zeros(space.n_points, dtype=bool)
        for h in hyps:
            mask |= dot_rows(ctx, pts[h], pts) == 0
        return mask

    def verdicts(mask):
        # (weight ratio passes, or None on no point; cutting), with the
        # pencil and rank passes checked against the cutting check
        v = Variety("subset", ctx, r, space, np.flatnonzero(mask))
        rep = cutting_blocking_check(v)
        assert rep == _cutting_by_ranks(v)
        assert rep == _cutting_by_pencils(v)
        return _ab_passes(v), rep.ok

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(["sparse", "dense", "hyperplanes"]),
           data=st.data())
    def check(shape, data):
        # a set drawn point by point rarely cuts; the complement of a
        # few points usually does, and so, often without the weight
        # ratio condition, does a union of a few hyperplanes
        if shape == "hyperplanes":
            mask = union(data.draw(st.sets(st.integers(0, space.n_points - 1),
                                           min_size=2, max_size=r + 2)))
        else:
            drawn = data.draw(st.sets(st.integers(0, space.n_points - 1),
                                      max_size=space.n_points // 3))
            mask = np.full(space.n_points, shape == "dense")
            mask[sorted(drawn)] = shape != "dense"
        ab, ok = verdicts(mask)
        event(f"Q={Q} r={r} {shape} cutting={ok}")

    check()
    # the drawn examples move with this function's source and with the
    # modules loaded, whose constants hypothesis also draws, so pinned
    # sets carry the coverage: the whole space cuts, one hyperplane does
    # not, and from r = 2 on a union of three is a minimal code that the
    # weight ratio condition misses, so that the candidate ranks are
    # exercised
    assert verdicts(np.ones(space.n_points, dtype=bool))[1]
    assert not verdicts(union([0]))[1]
    if r >= 2:
        assert verdicts(union(RATIO_MISSES[Q, r])) == (False, True)


def test_cutting_where_the_ratio_condition_fails_on_a_minimal_code():
    """The sides of the coordinate triangle of PG(2, 4), 12 points.  Every
    line meets them in at least two points, so the code is minimal, but
    q w_min = 4 * 7 does not exceed (q-1) w_max = 3 * 10."""
    ctx = field_for_order(4)
    space = pg_space(ctx, 2)
    sides = (space.rows(np.arange(space.n_points)) == 0).any(axis=1)
    v = Variety("subset", ctx, 2, space, np.flatnonzero(sides))
    dist = weights_from_sections(v)
    assert (v.n, dist.w_min, dist.w_max) == (12, 7, 10)
    assert not ab_condition(dist).passes
    rep = cutting_blocking_check(v)
    assert rep.ok
    assert rep == _cutting_by_ranks(v) == _cutting_by_pencils(v)
    assert minimality_bruteforce(code_from_variety(v)).ok


def test_cutting_witness_at_twisted_44():
    v = get_variety("twisted", 4, 4)
    rep = cutting_blocking_check(v)
    assert rep == _cutting_by_ranks(v)
    assert (rep.witness_index, rep.witness_coords, rep.witness_rank) == (
        4369, (1, 0, 0, 0, 0), 3)


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
    with pytest.raises(BudgetError, match="hyperplanes"):
        cutting_blocking_check(v, budget=v.space.n_points - 1)
    assert calls == []
    # enough for the spectrum; the weight ratio condition holds, so no
    # candidate is left to row-reduce
    assert cutting_blocking_check(v, budget=v.ctx.order ** (v.r + 1)).ok
    assert len(calls) == 1


def test_cutting_budget_refuses_candidates_before_any_rank(monkeypatch):
    v = build_variety("cone", 3, 3)
    sizes = hyperplane_section_sizes(v)
    q = v.ctx.order
    units = int(((q - 1) * sizes <= q * sizes.max() - v.n).sum()) * v.n
    # the budget covers the spectrum but not the candidates
    assert units - 1 >= max(v.space.n_points, q ** (v.r + 1))
    ranks = []
    real = code_mod.span_rank
    monkeypatch.setattr(code_mod, "span_rank",
                        lambda *a: ranks.append(1) or real(*a))
    with pytest.raises(BudgetError, match="candidate"):
        cutting_blocking_check(v, budget=units - 1)
    assert ranks == []
    assert cutting_blocking_check(v, budget=units) == _cutting_by_ranks(v)
    assert ranks


def test_minimality_summary_keeps_its_engine(monkeypatch):
    v = build_variety("hermitian", 2, 3)
    calls = _spy_on_engines(monkeypatch)
    out = minimality_summary(v)
    assert out["cutting"]["ok"] and out["agree"]
    assert calls == ["_sizes_wht"]


def test_minimality_summary_reads_spanning_once(monkeypatch):
    v = build_variety("twisted", 3, 3)
    calls, real = [], code_mod._require_span
    monkeypatch.setattr(code_mod, "_require_span", lambda w: calls.append(w) or real(w))
    # "agree" is set only when the brute force ran
    assert minimality_summary(v)["agree"] is not None
    assert calls == [v]


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


@pytest.mark.parametrize("brute", [weights_bruteforce, minimality_bruteforce])
def test_bruteforce_hard_cap_refuses_before_enumerating(brute, monkeypatch):
    # 64^5 = 2^30 words: within a budget of 2^40, above WORDS_HARD_CAP
    code = LinearCode(field_for_order(64), np.eye(5, dtype=np.int64))
    calls = []
    real = LinearCode.codeword_block
    monkeypatch.setattr(LinearCode, "codeword_block",
                        lambda self, msgs: calls.append(1) or real(self, msgs))
    with pytest.raises(BudgetError, match="beyond the fixed ceiling of 16777216, "
                                          "whatever the budget"):
        brute(code, budget=2 ** 40)
    with pytest.raises(BudgetError, match="codewords"):
        brute(code, budget=0)
    assert calls == []


H23 = ("hermitian", 2, 3)     # a code of 4^4 = 256 words

# each exhaustive route with its fixed ceiling lowered: (module, ceiling
# name, ceiling, first count past it, run at a budget); S_4 has 24
# elements, so the closure passes a ceiling of 10 at its eleventh
CEILING_STAGES = {
    "weights_bruteforce": (code_mod, "WORDS_HARD_CAP", 100, 256,
                           lambda b: weights_bruteforce(get_code(*H23), b)),
    "minimality_bruteforce": (code_mod, "WORDS_HARD_CAP", 100, 256,
                              lambda b: minimality_bruteforce(get_code(*H23), b)),
    "perfectness_check": (code_mod, "WORDS_HARD_CAP", 100, 256,
                          lambda b: perfectness_check(get_scheme(*H23), (1, 2), budget=b)),
    "access_structure": (code_mod, "WORDS_HARD_CAP", 100, 256,
                         lambda b: access_structure(get_variety(*H23), budget=b)),
    "group_closure": (sss_mod, "CLOSURE_CAP", 10, 11,
                      lambda b: group_closure(["(1,2)", "(1,2,3,4)"], 4, b)),
}


@pytest.mark.parametrize("stage", sorted(CEILING_STAGES))
def test_a_fixed_ceiling_refuses_like_the_budget(stage, monkeypatch):
    """The smaller of budget and ceiling binds, through one check_budget
    call, before any codeword is built or the closure passes its limit."""
    module, name, ceiling, first_past, run = CEILING_STAGES[stage]
    monkeypatch.setattr(module, name, ceiling)
    calls = []
    real = LinearCode.codeword_block
    monkeypatch.setattr(LinearCode, "codeword_block",
                        lambda self, msgs: calls.append(1) or real(self, msgs))
    with pytest.raises(BudgetError, match=re.escape(
            f"needs {first_past} units, beyond the fixed ceiling of {ceiling}, "
            "whatever the budget")) as err:
        run(10 ** 9)
    assert (err.value.needed, err.value.cap) == (first_past, ceiling)
    # below the ceiling the budget binds, with the budget's text
    with pytest.raises(BudgetError, match=rf"needs \d+ units, budget is {ceiling // 2}$"):
        run(ceiling // 2)
    assert calls == []


def _codeword_block_by_columns(code, msgs):
    """Codewords one column at a time: symbol j is the sum over i of
    msgs[:, i] * cols[j, i], on int64 arrays."""
    ctx = code.ctx
    out = np.zeros((len(msgs), code.n), dtype=np.int64)
    for j in range(code.n):
        acc = np.zeros(len(msgs), dtype=np.int64)
        for i in range(code.k):
            c = int(code.cols[j, i])
            if c:
                acc = ctx.vadd(acc, ctx.scalar_mul_row(c)[msgs[:, i]])
        out[:, j] = acc
    return out


def _blocks(code, chunk=4096):
    """All q^k messages as base-q digit rows, most significant first,
    chunk rows at a time."""
    n_words = code.ctx.order ** code.k
    for lo in range(0, n_words, chunk):
        yield _digit_matrix(code.ctx.order, code.k, np.arange(lo, min(lo + chunk, n_words)))


@pytest.mark.parametrize("kind,q,r", [("twisted", 3, 3), ("twisted", 4, 3),
                                      ("hermitian", 2, 3), ("hermitian", 3, 3)])
def test_codeword_block_matches_the_column_loop(kind, q, r):
    code = code_from_variety(get_variety(kind, q, r))
    for msgs in _blocks(code):
        words = code.codeword_block(msgs)
        assert words.shape == (len(msgs), code.n)
        # narrow in every characteristic, not int64 words from uint8 rows
        assert words.dtype == code.row_tables[0].dtype
        assert np.array_equal(words, _codeword_block_by_columns(code, msgs))


@settings(max_examples=60, deadline=None)
@given(Q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25]),
       k=st.integers(1, 4), n=st.integers(1, 12), data=st.data())
def test_codeword_block_matches_the_column_loop_on_random_columns(Q, k, n, data):
    ctx = field_for_order(Q)
    entries = st.lists(st.integers(0, Q - 1), min_size=k, max_size=k)
    cols = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)),
                    dtype=np.int64)
    msgs = np.array(data.draw(st.lists(entries, min_size=1, max_size=40)),
                    dtype=np.int64)
    code = LinearCode(ctx, cols)
    assert np.array_equal(code.codeword_block(msgs),
                          _codeword_block_by_columns(code, msgs))


def _code_over_units(ctx, k, n, seed):
    """A code whose first k columns are the unit vectors, then n random
    ones: the first k symbols of a word are its message."""
    rest = np.random.default_rng(seed).integers(0, ctx.order, size=(n, k))
    return LinearCode(ctx, np.concatenate([np.eye(k, dtype=np.int64), rest]))


def _assert_canonical(q, k, msgs):
    """msgs are the (q^k - 1) / (q - 1) normalized vectors, each once,
    in lexicographic order."""
    assert len(msgs) == (q ** k - 1) // (q - 1)
    lead = msgs[np.arange(len(msgs)), (msgs != 0).argmax(axis=1)]
    assert (lead == 1).all()
    keys = msgs.astype(np.int64) @ q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    assert (np.diff(keys) > 0).all()


@pytest.mark.parametrize("Q,k", [(2, 3), (2, 14), (3, 8), (4, 6), (5, 6), (7, 5),
                                 (8, 5), (9, 3), (9, 4), (16, 2), (16, 4),
                                 (25, 2), (25, 3), (3721, 1)])
def test_word_blocks_equal_one_block_of_every_message(Q, k):
    """class_blocks' blocks, of SUBSPACE_BLOCK // n + 1 rows but the
    last, hold the words of the normalized messages, each once and in
    canonical order, in the row tables' dtype; with the zero word and the
    q - 1 multiples of each, they are the words of all q^k messages.
    Q = 3721 is GF(61^2), which adds digit by digit, on the one point of
    PG(0, Q)."""
    ctx = make_field(61, 2) if Q == 3721 else field_for_order(Q)
    code = _code_over_units(ctx, k, 5, seed=Q * k)
    blocks = list(code.class_blocks())
    step = SUBSPACE_BLOCK // code.n + 1
    assert {len(b) for b in blocks[:-1]} <= {step} and 0 < len(blocks[-1]) <= step
    words = np.concatenate(blocks)
    assert words.dtype == code.row_tables[0].dtype
    _assert_canonical(Q, k, words[:, :k])
    every = code.codeword_block(_digit_matrix(Q, k, np.arange(Q ** k)))
    assert np.array_equal(_row_sorted(_with_multiples(ctx, words)), _row_sorted(every))


def test_word_blocks_over_gf_61_squared():
    """Two-digit messages over GF(61^2): 3722 classes, each word a
    digit-by-digit vadd of uint16 rows; the messages are canonical and
    the words those of the column loop."""
    ctx = make_field(61, 2)
    code = _code_over_units(ctx, 2, 4, seed=61)
    words = np.concatenate(list(code.class_blocks()))
    assert words.dtype == code.row_tables[0].dtype == np.uint16
    _assert_canonical(ctx.order, 2, words[:, :2])
    assert np.array_equal(words, _codeword_block_by_columns(code, words[:, :2]))


def test_codeword_block_above_the_addition_table_cutoff():
    """GF(61^2) has no addition table: its vadd adds digit by digit on
    the uint16 row tables."""
    ctx = make_field(61, 2)
    rng = np.random.default_rng(3721)
    code = LinearCode(ctx, rng.integers(0, ctx.order, size=(30, 3)))
    assert code.row_tables[0].dtype == ctx.dtype == np.uint16
    msgs = rng.integers(0, ctx.order, size=(500, 3))
    assert np.array_equal(code.codeword_block(msgs),
                          _codeword_block_by_columns(code, msgs))


def _weights_by_words(code):
    """The weight distribution from the words of all q^k messages, the
    zero message included and then taken off weight 0."""
    counts = np.zeros(code.n + 1, dtype=np.int64)
    wdt = np.min_scalar_type(code.n)
    for msgs in _blocks(code):
        weights = (code.codeword_block(msgs) != 0).view(np.uint8).sum(axis=1, dtype=wdt)
        counts += np.bincount(weights, minlength=code.n + 1)
    counts[0] -= 1
    hist = {w: int(c) for w, c in enumerate(counts) if c}
    return WeightDistribution(code.ctx.order, code.n, code.k, hist, "exhaustive")


@st.composite
def _random_codes(draw):
    """(Q, columns): random, repeated, zero or non-spanning columns."""
    Q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    k = draw(st.integers(1, {2: 7, 3: 5, 4: 4, 5: 4}.get(Q, 3)))
    entries = st.lists(st.integers(0, Q - 1), min_size=k, max_size=k)
    cols = draw(st.lists(entries, min_size=1, max_size=12))
    shape = draw(st.sampled_from(["random", "repeated", "zero", "non-spanning"]))
    if shape == "repeated":
        cols = [c for c in cols[:4] for _ in range(draw(st.integers(1, 4)))]
    elif shape == "zero":
        cols = cols + [[0] * k] * draw(st.integers(1, 3))
    elif shape == "non-spanning":
        cols = [[0] + c[1:] for c in cols]
    return Q, cols


@settings(max_examples=80, deadline=None)
@given(code=_random_codes())
# pinned, since the drawn examples move with the modules loaded: repeated
# columns, a zero column, columns in x_0 = 0 (so words of weight 0), and
# one of each remaining Q
@example(code=(3, [[1, 0], [1, 0], [0, 1], [1, 2], [1, 2], [1, 2]]))
@example(code=(4, [[0, 0, 0], [1, 2, 3], [0, 1, 1], [1, 1, 1]]))
@example(code=(9, [[0, 1, 5], [0, 3, 2], [0, 0, 1], [0, 1, 1]]))
@example(code=(2, [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 1], [0, 0, 0, 1]]))
@example(code=(5, [[1, 2], [3, 4], [0, 0]]))
@example(code=(7, [[0, 1, 6], [0, 2, 5]]))
@example(code=(8, [[1, 7, 3], [2, 0, 5], [6, 6, 6], [0, 0, 1]]))
def test_bruteforce_weights_match_every_word_on_random_codes(code):
    Q, cols = code
    code = LinearCode(field_for_order(Q), np.array(cols, dtype=np.int64))
    assert weights_bruteforce(code) == _weights_by_words(code)


def _minimality_by_pairs(code):
    """Exhaustive minimality one class at a time: enumerate the words
    block by block, collapse equal supports, and test each class against
    every class of smaller support size; the first class inside it, in
    size order, is its witness."""
    n_words = code.ctx.order ** code.k
    supports = np.concatenate([np.packbits(code.codeword_block(m) != 0, axis=1)
                               for m in _blocks(code)])
    classes, inverse = np.unique(supports[1:], axis=0, return_inverse=True)
    mult = np.bincount(inverse.ravel())
    sizes = np.unpackbits(classes, axis=1).sum(axis=1).astype(np.int64)
    order = np.argsort(sizes, kind="stable")
    classes, sizes, mult = classes[order], sizes[order], mult[order]
    non_min_words = 0
    non_min_weights = {}
    witnesses = []
    for j in range(len(classes)):
        smaller = np.searchsorted(sizes, sizes[j], side="left")
        if smaller == 0:
            continue
        outside = (classes[:smaller] & ~classes[j]).any(axis=1)
        if not outside.all():
            i = int(np.nonzero(~outside)[0][0])
            non_min_words += int(mult[j])
            w = int(sizes[j])
            non_min_weights[w] = non_min_weights.get(w, 0) + int(mult[j])
            witnesses.append({"weight": w, "contains_weight": int(sizes[i])})
    return MinimalityReport(non_min_words == 0, n_words - 1, len(classes),
                            non_min_words, non_min_weights, witnesses)


@pytest.mark.parametrize("kind,q,r", CROSS_FIXTURES)
def test_bruteforce_minimality_matches_the_pair_loop(kind, q, r):
    code = code_from_variety(get_variety(kind, q, r))
    rep = minimality_bruteforce(code)
    ref = _minimality_by_pairs(code)
    # every field, the whole witness list and not only as_dict's first 8
    assert rep == ref
    assert rep.witnesses == ref.witnesses
    assert (rep.ok, rep.non_minimal_words) == ((kind, q) != ("twisted", 4), 15 * (q == 4))


def test_bruteforce_minimality_finds_a_witness_beyond_the_first_word():
    """The binary simplex code of dimension 7 (127 classes of weight 64)
    beside two blocks of 70 equal columns.  The class of weight 140 holds
    only the two of weight 70, classes 127 and 128 in size order, so its
    witness lies in the second uint64 word of the class bitsets."""
    simplex = [[(j >> i) & 1 for i in range(7)] + [0, 0] for j in range(1, 128)]
    blocks = [[0] * 7 + [1, 0]] * 70 + [[0] * 7 + [0, 1]] * 70
    code = LinearCode(field_for_order(2), np.array(simplex + blocks))
    rep = minimality_bruteforce(code)
    assert rep == _minimality_by_pairs(code)
    assert rep.classes == 511 and rep.non_minimal_weights[140] == 1
    assert {"weight": 140, "contains_weight": 70} in rep.witnesses


def test_bruteforce_minimality_matches_the_pair_loop_on_random_codes():
    def verdict(Q, cols):
        code = LinearCode(field_for_order(Q), np.array(cols, dtype=np.int64))
        rep = minimality_bruteforce(code)
        assert rep == _minimality_by_pairs(code)
        return rep.ok, rep.classes > 64

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(Q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
           shape=st.sampled_from(["random", "repeated", "hyperplane", "wide"]),
           data=st.data())
    def check(Q, shape, data):
        # "wide" codes have up to 156 classes, so the class bitsets span
        # two or three words
        k_max = {2: 7, 3: 5, 4: 4, 5: 4}.get(Q, 3)
        k = k_max if shape == "wide" else data.draw(st.integers(1, k_max))
        entries = st.lists(st.integers(0, Q - 1), min_size=k, max_size=k)
        cols = data.draw(st.lists(entries, min_size=12 if shape == "wide" else 1,
                                  max_size=16))
        if shape == "repeated":
            # a few columns, each repeated
            cols = [c for c in cols[:4] for _ in range(data.draw(st.integers(1, 4)))]
        elif shape == "hyperplane" and k > 1:
            # all but at most two columns inside the hyperplane x_0 = 0
            keep = data.draw(st.integers(0, 2))
            cols = cols[:keep] + [[0] + c[1:] for c in cols[keep:]]
        event(f"{shape} minimal={verdict(Q, cols)[0]}")

    check()
    # the drawn examples move with the modules loaded, whose constants
    # hypothesis also draws, so pinned codes carry the coverage: the
    # binary simplex code of dimension 3 is minimal, and GF(2)^7, all
    # supports, is not, on 127 classes whose bitsets span two words
    simplex = [[(j >> i) & 1 for i in range(3)] for j in range(1, 8)]
    assert verdict(2, simplex) == (True, False)
    assert verdict(2, np.eye(7)) == (False, True)


@pytest.mark.parametrize("kind,q,r", [("twisted", 4, 3), ("twisted", 3, 3),
                                      ("hermitian", 2, 3)])
def test_support_dedup_matches_unique_rows(kind, q, r):
    code = code_from_variety(get_variety(kind, q, r))
    supports = np.concatenate([np.packbits(code.codeword_block(m) != 0, axis=1)
                               for m in _blocks(code)])[1:]
    classes, inverse = _unique_rows(supports)
    ref_classes, ref_inverse = np.unique(supports, axis=0, return_inverse=True)
    assert np.array_equal(classes, ref_classes)
    assert np.array_equal(inverse, ref_inverse.ravel())


@pytest.mark.parametrize("width", [1, 3, 8])
def test_unique_rows_of_no_rows(width):
    classes, inverse = _unique_rows(np.zeros((0, width), dtype=np.uint8))
    assert classes.shape == (0, width) and inverse.shape == (0,)


def test_perfectness_keeps_its_verdicts(monkeypatch, scheme_h2, access_h2):
    first = access_h2.sorted_sets()[0]
    subsets = [(1,), (1, 2), first, first[:-1]]
    new = [perfectness_check(scheme_h2, s).as_dict() for s in subsets]
    monkeypatch.setattr(LinearCode, "codeword_block", _codeword_block_by_columns)
    old = [perfectness_check(scheme_h2, s).as_dict() for s in subsets]
    assert new == old
    assert {d["verdict"] for d in new} == {"uniform", "qualified"}


def test_minimality_summary_views_agree(herm23):
    out = minimality_summary(herm23)
    assert out["cutting"]["ok"]
    assert out["bruteforce"]["ok"]
    assert out["agree"]


def test_hermitian_q2_weights(herm23):
    dist = weights_from_sections(herm23)
    assert dist.weights == {32: 135, 36: 120}
    assert ab_condition(dist).passes
