import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import qhcodes.sss as sss_mod
from qhcodes.budget import BudgetError
from qhcodes.code import CodeError, LinearCode
from qhcodes.geom import dot_rows, row_reduce
from qhcodes.sss import (AccessStructure, InconsistentSharesError,
                         NotQualifiedError, Scheme, SSSError,
                         access_structure, deal, democracy_report, develop,
                         group_closure, label_rows, load_fixture,
                         parse_cycles, perfectness_check, permute_rows,
                         recover, verify_example)
from qhcodes.variety import build_variety, hyperplane_section_sizes
from qhcodes.verify import get_access, get_scheme, get_variety


def test_scheme_shape(scheme33):
    assert scheme33.q == 9
    assert scheme33.k == 4
    assert scheme33.m == 261


def test_deal_is_seed_deterministic(scheme_h2):
    a = deal(scheme_h2, 3, 11)
    b = deal(scheme_h2, 3, 11)
    c = deal(scheme_h2, 3, 12)
    assert a.shares == b.shares
    assert a.shares != c.shares


def test_deal_rejects_bad_secret(scheme_h2):
    with pytest.raises(SSSError):
        deal(scheme_h2, 4, 0)


def test_roundtrip_on_access_sets(scheme33, access33):
    rng = random.Random(7)
    sets = access33.sorted_sets()
    for _ in range(10):
        subset = sets[rng.randrange(len(sets))]
        secret = rng.randrange(9)
        rep = deal(scheme33, secret, rng.randrange(10 ** 6))
        assert recover(scheme33, subset, rep.shares) == secret


def test_recover_rejects_non_qualified(scheme_h2, access_h2):
    rep = deal(scheme_h2, 1, 5)
    with pytest.raises(NotQualifiedError):
        recover(scheme_h2, (), rep.shares)
    # single participants never qualify here: every set is larger
    with pytest.raises(NotQualifiedError):
        recover(scheme_h2, (1,), rep.shares)


def test_minimal_access_sets_less_one_member_do_not_qualify(scheme_h2, access_h2):
    rep = deal(scheme_h2, secret=1, seed=7)
    for aset in access_h2.sorted_sets():
        for drop in aset:
            with pytest.raises(NotQualifiedError):
                recover(scheme_h2, [i for i in aset if i != drop], rep.shares)


def test_twisted_33_access_sets_less_one_member_do_not_qualify(scheme33, access33):
    rng = random.Random(33)
    rep = deal(scheme33, secret=4, seed=rng.randrange(2 ** 30))
    for aset in rng.sample(access33.sets(), 8):
        assert recover(scheme33, aset, rep.shares) == 4
        for drop in aset:
            with pytest.raises(NotQualifiedError):
                recover(scheme33, [i for i in aset if i != drop], rep.shares)


@pytest.mark.parametrize("kind,q,r", [("twisted", 3, 3), ("hermitian", 2, 3),
                                      ("hermitian", 3, 3)])
def test_dealt_vectors_are_dual_codewords(kind, q, r):
    """sum_j s_j P_j = 0 coordinate by coordinate in scalar field
    arithmetic, with s_0 the secret."""
    scheme = get_scheme(kind, q, r)
    ctx, cols = scheme.code.ctx, scheme.code.cols.tolist()
    rng = random.Random(kind)
    for _ in range(5):
        secret = rng.randrange(scheme.q)
        shares = deal(scheme, secret, rng.randrange(2 ** 30)).shares
        assert sorted(shares) == list(range(1, scheme.m + 1))
        s = [secret] + [shares[i] for i in range(1, scheme.m + 1)]
        for c in range(scheme.k):
            total = 0
            for j, point in enumerate(cols):
                total = ctx.add(total, ctx.mul(s[j], point[c]))
            assert total == 0


def test_deal_refuses_participants_that_do_not_span(scheme_h2):
    # the participants' points all in the plane X_3 = 0, with P_0 in it
    # (rank 3) or off it (P_0 takes the last pivot)
    participants = [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]]
    for p0 in ([1, 0, 0, 0], [0, 0, 0, 1]):
        cols = np.array([p0] + participants)
        scheme = Scheme(LinearCode(scheme_h2.code.ctx, cols))
        with pytest.raises(SSSError, match=r"do not span PG\(3, 4\)"):
            deal(scheme, 1, 0)


def test_recover_flags_inconsistent_shares(scheme_h2):
    # every participant: each functional gives one equation on the shares
    rep = deal(scheme_h2, 1, 5)
    subset = list(range(1, scheme_h2.m + 1))
    assert recover(scheme_h2, subset, rep.shares) == 1
    shares = dict(rep.shares)
    shares[subset[0]] ^= 1
    with pytest.raises(InconsistentSharesError):
        recover(scheme_h2, subset, shares)


def test_recover_validates_input(scheme_h2):
    rep = deal(scheme_h2, 1, 5)
    with pytest.raises(SSSError, match="participant ids"):
        recover(scheme_h2, (0, 1), rep.shares)
    with pytest.raises(SSSError, match="missing"):
        recover(scheme_h2, (1, 2), {1: 0})
    for bad in (4, 7, -1):
        with pytest.raises(SSSError, match="share values") as info:
            recover(scheme_h2, (1, 2), {**rep.shares, 2: bad})
        assert type(info.value) is SSSError


def _recover_by_class_blocks(scheme, subset, shares):
    """Reference recovery on C^perp: enumerate every word of C and keep
    those vanishing off {0} and the subset.  The subset qualifies iff a
    kept word has c_0 != 0, and each kept word c gives the equation
    c_0 x + sum over the subset of c_j s_j = 0 for the secret x, summed
    here in scalar field arithmetic."""
    ctx = scheme.code.ctx
    ids = sorted(set(int(i) for i in subset))
    if any(not 1 <= i <= scheme.m for i in ids):
        raise SSSError(f"participant ids must lie in 1 .. {scheme.m}")
    missing = [i for i in ids if i not in shares]
    if missing:
        raise SSSError(f"missing shares for participants {missing[:5]}")
    words = np.concatenate(list(scheme.code.class_blocks()))
    outside = np.ones(scheme.code.n, dtype=bool)
    outside[[0] + ids] = False
    kept = words[~words[:, outside].any(axis=1)].tolist()
    if not any(c[0] for c in kept):
        raise NotQualifiedError(
            "subset does not qualify: every functional vanishing off it "
            "vanishes at P0")
    sums = []
    for c in kept:
        total = 0
        for i in ids:
            total = ctx.add(total, ctx.mul(c[i], int(shares[i])))
        sums.append(total)
    lead = next(t for t, c in enumerate(kept) if c[0])
    secret = ctx.neg(ctx.div(sums[lead], kept[lead][0]))
    if any(ctx.add(ctx.mul(c[0], secret), t) for c, t in zip(kept, sums)):
        raise InconsistentSharesError(
            "shares are not the restriction of any dual codeword")
    return secret


def _outcome(fn, scheme, subset, shares):
    try:
        return ("secret", fn(scheme, subset, shares))
    except SSSError as e:
        return (type(e).__name__, str(e))


def _altered(scheme, shares, subset, rng):
    i = subset[rng.randrange(len(subset))]
    return {**shares, i: (shares[i] + 1 + rng.randrange(scheme.q - 1)) % scheme.q}


def _recover_cases(scheme, access, rng):
    """Seeded (subset, shares) pairs: access sets, access sets minus one
    member, random small and large subsets, shares altered in one
    coordinate, hyperplane sections off P0 (the complements of access
    sets) with an altered share, unqualified, and every participant
    with an altered share, inconsistent."""
    sets = access.sets()
    everyone = range(1, scheme.m + 1)
    for _ in range(4):
        shares = deal(scheme, rng.randrange(scheme.q), rng.randrange(2 ** 30)).shares
        aset = sets[rng.randrange(len(sets))]
        section = sorted(set(everyone) - set(aset))
        small = rng.sample(everyone, rng.randint(1, scheme.k + 1))
        large = rng.sample(everyone, rng.randint(scheme.m // 2, scheme.m))
        yield aset, shares
        yield [i for i in aset if i != aset[rng.randrange(len(aset))]], shares
        yield small, shares
        yield large, shares
        yield aset, _altered(scheme, shares, aset, rng)
        yield large, _altered(scheme, shares, large, rng)
        yield section, _altered(scheme, shares, section, rng)
        yield list(everyone), _altered(scheme, shares, list(everyone), rng)


@pytest.mark.parametrize("kind,q,r", [("twisted", 3, 3), ("hermitian", 2, 3),
                                      ("hermitian", 3, 3)])
def test_recover_matches_class_blocks(kind, q, r, monkeypatch):
    scheme, access = get_scheme(kind, q, r), get_access(kind, q, r)
    shapes = []
    monkeypatch.setattr(sss_mod, "row_reduce",
                        lambda ctx, mat: shapes.append(mat.shape) or row_reduce(ctx, mat))
    kinds = set()
    for subset, shares in _recover_cases(scheme, access,
                                         random.Random(f"{kind}{q}{r}")):
        want = _outcome(_recover_by_class_blocks, scheme, subset, shares)
        shapes.clear()
        assert _outcome(recover, scheme, subset, shares) == want, subset
        # one reduction, of the points outside {0} and the subset beside I
        assert shapes == [(scheme.k, scheme.m - len(set(subset)) + scheme.k)]
        assert access.is_qualified(subset) is (want[0] != "NotQualifiedError")
        kinds.add(want[0])
    assert kinds == {"secret", "NotQualifiedError", "InconsistentSharesError"}


def test_recover_unqualified_and_inconsistent_is_not_qualified(scheme_h2, access_h2):
    """The participants on a hyperplane off P0 do not qualify: the
    points off it span, so only the zero functional vanishes there.
    With the participants off it too they qualify, and one altered share
    is inconsistent: qualification is reported first."""
    aset = access_h2.sorted_sets()[0]
    section = sorted(set(range(1, scheme_h2.m + 1)) - set(aset))
    shares = dict(deal(scheme_h2, 2, 3).shares)
    shares[section[0]] ^= 1
    for fn in (recover, _recover_by_class_blocks):
        with pytest.raises(NotQualifiedError):
            fn(scheme_h2, section, shares)
    with pytest.raises(InconsistentSharesError):
        recover(scheme_h2, section + list(aset), shares)


def test_access_structure_33(access33):
    assert access33.count == 729
    assert access33.is_antichain()
    profile = access33.size_profile()
    # total memberships counted by sets and by participants must agree
    assert sum(s * c for s, c in profile.items()) == 261 * 648


def test_access_structure_refused_for_non_minimal():
    v = get_variety("twisted", 4, 3)
    with pytest.raises(SSSError, match="not minimal"):
        access_structure(v)


@pytest.mark.parametrize("kind", ["cone", "twisted-infinity"])
def test_access_structure_refused_for_a_point_set_that_does_not_span(kind):
    # both lie in X_0 = 0, so no code is defined, minimal or not
    with pytest.raises(CodeError, match="spans a proper subspace"):
        access_structure(build_variety(kind, 3, 3))


def test_democracy_33(access33):
    rep = democracy_report(access33)
    assert rep.is_democratic
    assert rep.uniform_count == 648
    assert rep.dictators == []


def test_democracy_h2(access_h2):
    rep = democracy_report(access_h2)
    assert rep.sets == 64
    assert rep.uniform_count == 48
    assert access_h2.size_profile() == {31: 32, 35: 32}


def test_qualified_subsets(access_h2):
    s = access_h2.sorted_sets()[0]
    assert access_h2.is_qualified(s)
    assert access_h2.is_qualified(tuple(s) + (9,))
    assert not access_h2.is_qualified(s[:-1])


def test_perfectness_uniform_on_singleton(scheme_h2):
    rep = perfectness_check(scheme_h2, (1,))
    assert rep.verdict == "uniform"
    # no nonzero word of C vanishes on the other 43 points, which span,
    # so d = 0: each secret stands for q^(n - k - 2) = 4^39 share vectors
    assert rep.consistent == 4 * 4 ** 39
    assert all(e["count"] == 4 ** 39 for e in rep.as_dict()["secret_counts"])


def test_perfectness_counts_all_but_one_participant(scheme_h2):
    # the words of C vanishing at P_1 are the q^(k-1) functionals through
    # it, so d = 3 and q^(45 - 4 - (44 - 3)) = 1 share vector is consistent
    rep = perfectness_check(scheme_h2, range(2, scheme_h2.m + 1))
    assert rep.verdict == "qualified"
    assert rep.consistent == 1 and rep.secret_counts == {0: 1}


def test_perfectness_qualified_on_access_set(scheme_h2, access_h2):
    rep = perfectness_check(scheme_h2, access_h2.sorted_sets()[0])
    assert rep.verdict == "qualified"


def test_perfectness_budget_refuses_before_dealing(scheme_h2, access_h2, monkeypatch):
    # q^k = 4^4 = 256 codewords of C
    calls = []
    real = LinearCode.codeword_block
    monkeypatch.setattr(LinearCode, "codeword_block",
                        lambda self, msgs: calls.append(1) or real(self, msgs))
    monkeypatch.setattr(sss_mod, "deal",
                        lambda *a: calls.append("deal") or deal(*a))
    with pytest.raises(BudgetError, match="256 codewords"):
        perfectness_check(scheme_h2, (1,), budget=255)
    assert calls == []
    assert perfectness_check(scheme_h2, (1,), budget=256).verdict == "uniform"
    aset = access_h2.sorted_sets()[0]
    assert perfectness_check(scheme_h2, aset, budget=256).verdict == "qualified"


def test_group_closure_s3():
    group = group_closure(["(1,2)", "(1,2,3)"], 3)
    assert group.order == 6
    # a budget equal to the group's order suffices
    assert group_closure(["(1,2)", "(1,2,3)"], 3, budget=6).order == 6


def test_group_closure_refuses_before_expanding_a_level():
    reads = []

    class Perm(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)
    gens = (Perm((1, 2, 0, 3, 4)), Perm((1, 0, 2, 3, 4)))
    # the identity is metered before level 0 reads any generator
    with pytest.raises(BudgetError, match="group closure: needs 1 units, budget is 0"):
        sss_mod._closure(gens, 5, budget=0)
    assert reads == []
    # each new element is metered as it joins: the third exceeds 2
    with pytest.raises(BudgetError, match="group closure: needs 3 units, budget is 2"):
        sss_mod._closure(gens, 5, budget=2)
    assert len(sss_mod._closure(gens, 5, budget=6)) == 6
    # the fixture's group has order 576
    fx = load_fixture()
    with pytest.raises(BudgetError, match="needs 1 units, budget is 0"):
        group_closure(fx.generator_cycles, fx.degree, 0)
    with pytest.raises(BudgetError, match="needs 11 units, budget is 10"):
        group_closure(fx.generator_cycles, fx.degree, 10)
    with pytest.raises(BudgetError, match="needs 576 units, budget is 575"):
        group_closure(fx.generator_cycles, fx.degree, 575)
    assert group_closure(fx.generator_cycles, fx.degree, 576).order == 576


@pytest.mark.parametrize("budget", [None, 10 ** 9])
def test_group_closure_ceiling_binds_whatever_the_budget(budget, monkeypatch):
    # S_4 has 24 elements; a ceiling of 10 refuses the eleventh, and the
    # refusal names the ceiling, not the caller's budget
    monkeypatch.setattr(sss_mod, "CLOSURE_CAP", 10)
    with pytest.raises(BudgetError, match=r"group closure: needs 11 elements, beyond the "
                                          r"closure's ceiling of 10, whatever the budget"):
        group_closure(["(1,2)", "(1,2,3,4)"], 4, budget=budget)
    with pytest.raises(BudgetError, match="group closure: needs 11 units, budget is 10"):
        group_closure(["(1,2)", "(1,2,3,4)"], 4, budget=10)


def test_parse_cycles_rejects_garbage():
    with pytest.raises(SSSError):
        parse_cycles("(1,2", 4)
    with pytest.raises(SSSError):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(SSSError):
        parse_cycles("(1,9)", 4)


def test_permute_rows():
    perm = parse_cycles("(1,2,3)", 4)
    rows = label_rows([{1, 4}], 4)
    assert permute_rows(perm, rows).tolist() == label_rows([{2, 4}], 4).tolist()


def test_develop_orbit_of_one_set():
    group = group_closure(["(1,2,3,4)"], 4)
    acc = develop([[1, 2]], group)
    assert acc.count == 4
    assert acc.size_profile() == {2: 4}


def test_develop_dedupes_across_starters():
    group = group_closure(["(1,2)"], 3)
    acc = develop([[1], [2]], group)
    assert acc.count == 2


def test_develop_of_no_starters_is_empty():
    acc = develop([], group_closure(["(1,2)"], 3))
    assert acc.count == 0 and acc.matrix.shape == (0, 3)
    assert acc.participants == () and acc.sets() == []


def test_fixture_loads():
    fx = load_fixture()
    assert fx.degree == 45
    assert fx.fixed == 1
    assert len(fx.generator_cycles) == 3
    assert sorted(len(s) for s in fx.starters) == [31, 35]


def test_verify_example_facts():
    facts = verify_example()
    assert facts["group_order"] == 576
    assert facts["n_sets"] == 64
    assert facts["size_profile"] == {31: 32, 35: 32}
    assert facts["is_antichain"]
    assert facts["starters_included"]
    assert facts["fixed_point_ok"]
    assert facts["automorphism_ok"]


def test_developed_matches_geometric_profile(access_h2):
    """The developed structure and the hyperplane structure agree on
    every label-free statistic checked here."""
    facts = verify_example()
    assert facts["n_sets"] == access_h2.count
    assert facts["size_profile"] == access_h2.size_profile()


# ---------------------------------------------------------------------------
# the matrix against the bitset representation it replaced: each set as
# an int with bit i - 1 for label i, walked in Python

def _bits(acc):
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in acc.matrix]


def _bit_positions(b):
    while b:
        low = b & -b
        yield low.bit_length() - 1
        b ^= low


def _ref_size_profile(bits):
    return dict(Counter(b.bit_count() for b in bits))


def _ref_is_antichain(bits):
    for i in range(len(bits)):
        for j in range(len(bits)):
            if i != j and bits[i] & ~bits[j] == 0:
                return False
    return True


def _ref_is_qualified(bits, subset):
    mask = 0
    for i in subset:
        mask |= 1 << (int(i) - 1)
    return any(b & ~mask == 0 for b in bits)


def _ref_membership_counts(participants, bits):
    counts = {p: 0 for p in participants}
    for b in bits:
        for i in _bit_positions(b):
            counts[i + 1] += 1
    return counts


def _ref_develop_bits(starters, group):
    images = set()
    for s in starters:
        fs = frozenset(int(i) for i in s)
        for g in group.elements:
            images.add(frozenset(g[i - 1] + 1 for i in fs))
    return sorted(sum(1 << (i - 1) for i in img) for img in images)


def _developed_fixture():
    fx = load_fixture()
    group = group_closure(fx.generator_cycles, fx.degree)
    return develop(fx.starters, group), fx.starters, group


@pytest.mark.parametrize("name", ["access33", "access_h2", "developed"])
def test_matrix_matches_bitset_reference(name, request):
    acc = _developed_fixture()[0] if name == "developed" else request.getfixturevalue(name)
    bits = _bits(acc)
    assert acc.sets() == [tuple(i + 1 for i in _bit_positions(b)) for b in bits]
    assert list(acc.size_profile().items()) == list(_ref_size_profile(bits).items())
    assert acc.membership_counts() == _ref_membership_counts(acc.participants, bits)
    assert acc.is_antichain() is _ref_is_antichain(bits) is True
    rng = random.Random(name)
    width = acc.matrix.shape[1]
    sets = acc.sets()
    for _ in range(40):
        aset = sets[rng.randrange(len(sets))]
        for subset in (aset, aset[1:], aset + tuple(rng.sample(range(1, width + 1), 3)),
                       rng.sample(range(1, width + 1), rng.randint(0, width))):
            assert acc.is_qualified(subset) is _ref_is_qualified(bits, subset)


def test_develop_matches_bitset_reference():
    acc, starters, group = _developed_fixture()
    assert _bits(acc) == _ref_develop_bits(starters, group)
    for cycles, degree, starters in ((["(1,2,3,4)"], 4, [[1, 2]]),
                                     (["(1,2)"], 3, [[1], [2]]),
                                     (["(1,2)", "(1,2,3,4,5)"], 5, [[1, 3], [2], [4, 5]])):
        group = group_closure(cycles, degree)
        assert _bits(develop(starters, group)) == _ref_develop_bits(starters, group)


def test_family_that_is_not_an_antichain():
    # {1} lies inside {1,2}, and {2} inside {1,2}
    acc = develop([[1], [1, 2]], group_closure(["(1,2)"], 3))
    assert acc.sets() == [(1,), (2,), (1, 2)]
    assert acc.is_antichain() is _ref_is_antichain(_bits(acc)) is False
    # a repeated set lies inside its twin
    twins = AccessStructure((1, 2, 3), label_rows([[1, 2], [2, 3], [1, 2]], 3))
    assert twins.is_antichain() is _ref_is_antichain(_bits(twins)) is False
    assert AccessStructure((1, 2, 3), twins.matrix[:2]).is_antichain()


def test_is_antichain_matches_bitset_reference_on_random_families():
    seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n_rows=st.integers(0, 200), n_cols=st.integers(0, 70),
           density=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32 - 1),
           extra=st.sampled_from(["none", "empty", "full", "repeated", "subset"]))
    # the drawn examples move with the modules loaded, whose constants
    # hypothesis also draws, so these carry the four verdicts below
    @example(n_rows=100, n_cols=70, density=0.5, seed=0, extra="none")
    @example(n_rows=100, n_cols=70, density=0.5, seed=0, extra="subset")
    @example(n_rows=10, n_cols=20, density=0.5, seed=0, extra="none")
    @example(n_rows=10, n_cols=20, density=0.5, seed=0, extra="subset")
    def check(n_rows, n_cols, density, seed, extra):
        # one density for all rows: wide families spread over several
        # sizes yet rarely nest, narrow ones nest or repeat
        rng = np.random.default_rng(seed)
        rows = rng.random((n_rows, n_cols)) < density
        row = None
        if extra == "empty":
            row = np.zeros(n_cols, dtype=bool)
        elif extra == "full":
            row = np.ones(n_cols, dtype=bool)
        elif extra == "repeated" and n_rows:
            row = rows[rng.integers(n_rows)]
        elif extra == "subset" and rows.any():
            # one to three points short of the largest set, so that it
            # follows most rows in size order
            row = rows[rows.sum(axis=1).argmax()].copy()
            on = np.flatnonzero(row)
            row[rng.choice(on, min(len(on), rng.integers(1, 4)), replace=False)] = False
        if row is not None:
            rows = np.insert(rows, rng.integers(len(rows) + 1), row, axis=0)
        acc = AccessStructure(tuple(range(1, n_cols + 1)), rows)
        verdict = acc.is_antichain()
        event(f"{extra} antichain={verdict}")
        assert verdict is _ref_is_antichain(_bits(acc))
        seen.add((verdict, len(rows) > 64))

    check()
    # both verdicts, each also on families whose smaller rows span
    # more than one uint64 word
    assert seen >= {(True, True), (False, True), (True, False), (False, False)}


def test_is_qualified_refuses_labels_out_of_range(access_h2):
    with pytest.raises(SSSError, match="label out of range"):
        access_h2.is_qualified((0, 1))
    with pytest.raises(SSSError, match="label out of range"):
        access_h2.is_qualified((access_h2.matrix.shape[1] + 1,))


@pytest.mark.parametrize("kind,q,r", [("twisted", 5, 3), ("hermitian", 3, 4)])
def test_democracy_closed_form(kind, q, r):
    """Q^r minimal sets, one per hyperplane off P0; each participant in
    Q^r - Q^(r-1) of them; the set of a hyperplane meeting V in s
    points has n - 1 - s members, s taken from the section sizes."""
    v = get_variety(kind, q, r)
    acc = access_structure(v)
    big_q = v.ctx.order
    assert acc.count == big_q ** r
    rep = democracy_report(acc)
    assert rep.is_democratic
    assert rep.uniform_count == big_q ** r - big_q ** (r - 1)
    sizes = hyperplane_section_sizes(v)
    hyps = v.space.rows(np.arange(v.space.n_points))
    off_p0 = dot_rows(v.ctx, v.space.rows(v.indices[:1])[0], hyps) != 0
    assert acc.size_profile() == dict(Counter((v.n - 1 - sizes[off_p0]).tolist()))


def test_access_matrix_budget_refuses_before_any_block(monkeypatch):
    # 16^4 hyperplanes off P0 times 17,424 participants
    v = get_variety("hermitian", 4, 4)
    calls = []
    monkeypatch.setattr(LinearCode, "codeword_block",
                        lambda self, msgs: calls.append(1))
    with pytest.raises(BudgetError, match="access matrix of 1141899264 entries"):
        access_structure(v)
    assert calls == []
    assert 16 ** 4 * (v.n - 1) == 65536 * 17424 == 1141899264
