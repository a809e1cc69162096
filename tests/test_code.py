import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import qhcodes.code as code_mod
import qhcodes.variety as variety_mod
from qhcodes.budget import BudgetError
from qhcodes.code import (CodeError, CuttingReport, LinearCode, _unique_rows,
                          ab_condition, code_from_variety,
                          cutting_blocking_check, divisibility_report,
                          higher_weight, minimality_bruteforce,
                          minimality_summary, weights_bruteforce,
                          weights_from_sections)
from qhcodes.geom import (dot_rows, pg_space, rref_bases, span_rank,
                          subspace_points)
from qhcodes.gf import field_for_order, make_field
from qhcodes.sss import perfectness_check
from qhcodes.variety import (_variety_from_mask, build_variety,
                             hyperplane_section_sizes)
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
    h = space.points[witness]
    mask = dot_rows(ctx, h, v.coords) == 0
    rank = span_rank(ctx, v.coords[mask]).rank if mask.any() else 0
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
    return ab_condition(weights_from_sections(v)).passes


@pytest.mark.parametrize("Q,r", [(4, 1), (4, 2), (9, 2), (4, 3), (9, 3), (4, 4)])
def test_pencils_agree_with_ranks_on_random_point_sets(Q, r):
    ctx = field_for_order(Q)
    space = pg_space(ctx, r)
    seen = set()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(["sparse", "dense", "hyperplanes"]),
           data=st.data())
    def check(shape, data):
        # a set drawn point by point rarely cuts; the complement of a
        # few points usually does, and so, often without the weight
        # ratio condition, does a union of a few hyperplanes
        if shape == "hyperplanes":
            hyps = data.draw(st.sets(st.integers(0, space.n_points - 1),
                                     min_size=2, max_size=r + 2))
            mask = np.zeros(space.n_points, dtype=bool)
            for h in hyps:
                mask |= dot_rows(ctx, space.points[h], space.points) == 0
        else:
            drawn = data.draw(st.sets(st.integers(0, space.n_points - 1),
                                      max_size=space.n_points // 3))
            mask = np.full(space.n_points, shape == "dense")
            mask[sorted(drawn)] = shape != "dense"
        v = _variety_from_mask("subset", ctx, r, space, mask)
        rep = cutting_blocking_check(v)
        event(f"Q={Q} r={r} {shape} cutting={rep.ok}")
        assert rep == _cutting_by_ranks(v)
        assert rep == _cutting_by_pencils(v)
        if v.n:
            seen.add((_ab_passes(v), rep.ok))

    check()
    # both verdicts, and from r = 2 on a minimal code that the weight
    # ratio condition misses, so the candidate ranks are exercised
    assert {ok for _, ok in seen} == {True, False}
    if r >= 2:
        assert (False, True) in seen


def test_cutting_where_the_ratio_condition_fails_on_a_minimal_code():
    """The sides of the coordinate triangle of PG(2, 4), 12 points.  Every
    line meets them in at least two points, so the code is minimal, but
    q w_min = 4 * 7 does not exceed (q-1) w_max = 3 * 10."""
    ctx = field_for_order(4)
    space = pg_space(ctx, 2)
    v = _variety_from_mask("subset", ctx, 2, space, (space.points == 0).any(axis=1))
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


@pytest.mark.parametrize("brute", [weights_bruteforce, minimality_bruteforce])
def test_bruteforce_hard_cap_refuses_before_enumerating(brute, monkeypatch):
    # 64^5 = 2^30 words: within a budget of 2^40, above WORDS_HARD_CAP
    code = LinearCode(field_for_order(64), np.eye(5, dtype=np.int64))
    calls = []
    real = LinearCode.codeword_block
    monkeypatch.setattr(LinearCode, "codeword_block",
                        lambda self, msgs: calls.append(1) or real(self, msgs))
    with pytest.raises(CodeError, match="hard cap"):
        brute(code, budget=2 ** 40)
    with pytest.raises(BudgetError, match="codewords"):
        brute(code, budget=0)
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
    n_words = code.ctx.order ** code.k
    for lo in range(0, n_words, chunk):
        yield code.message_block(lo, min(lo + chunk, n_words))


@pytest.mark.parametrize("kind,q,r", [("twisted", 3, 3), ("twisted", 4, 3),
                                      ("hermitian", 2, 3), ("hermitian", 3, 3)])
def test_codeword_block_matches_the_column_loop(kind, q, r):
    code = code_from_variety(get_variety(kind, q, r))
    for msgs in _blocks(code):
        words = code.codeword_block(msgs)
        assert words.shape == (len(msgs), code.n)
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


def test_codeword_block_above_the_addition_table_cutoff():
    """GF(61^2) has no addition table: its vadd adds digit by digit on
    the uint16 row tables."""
    ctx = make_field(61, 2)
    rng = np.random.default_rng(3721)
    code = LinearCode(ctx, rng.integers(0, ctx.order, size=(30, 3)))
    assert code.row_tables[0].dtype == np.uint16
    msgs = rng.integers(0, ctx.order, size=(500, 3))
    assert np.array_equal(code.codeword_block(msgs),
                          _codeword_block_by_columns(code, msgs))


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
