import random

import numpy as np
import pytest

import qhcodes.sss as sss_mod
from qhcodes.budget import BudgetError
from qhcodes.code import LinearCode
from qhcodes.geom import row_reduce
from qhcodes.sss import (AccessStructure, InconsistentSharesError,
                         NotQualifiedError, Scheme, SSSError,
                         access_structure, apply_to_set, deal,
                         democracy_report, develop, group_closure,
                         load_fixture, parse_cycles, perfectness_check,
                         recover, structures_equal, verify_example)
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


def test_recover_flags_inconsistent_shares(scheme_h2, access_h2):
    rep = deal(scheme_h2, 1, 5)
    subset = access_h2.sorted_sets()[0]
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


def _recover_by_two_eliminations(scheme, subset, shares):
    """Reference recovery: solve g0 = sum x_j g_{i_j} by reducing the
    s x (k+s) matrix (rows | identity), then test the shares against
    the row space of the k x s transpose by a second reduction."""
    ctx = scheme.code.ctx
    k = scheme.k
    ids = sorted(set(int(i) for i in subset))
    if any(not 1 <= i <= scheme.m for i in ids):
        raise SSSError(f"participant ids must lie in 1 .. {scheme.m}")
    missing = [i for i in ids if i not in shares]
    if missing:
        raise SSSError(f"missing shares for participants {missing[:5]}")
    if not ids:
        raise NotQualifiedError("the empty subset holds no information")
    rows = scheme.code.cols[ids]
    s = len(ids)
    aug = np.zeros((s, k + s), dtype=np.int64)
    aug[:, :k] = rows
    aug[np.arange(s), k + np.arange(s)] = 1
    rank, red = row_reduce(ctx, aug)
    res = scheme.g0.astype(np.int64).copy()
    coeffs = np.zeros(s, dtype=np.int64)
    for row in red:
        piv_cols = np.nonzero(row[:k])[0]
        if piv_cols.size == 0:
            continue
        c = int(piv_cols[0])
        f = int(res[c])
        if f:
            res = ctx.vadd(res, ctx.vneg(ctx.scalar_mul_row(f)[row[:k]]))
            coeffs = ctx.vadd(coeffs, ctx.scalar_mul_row(f)[row[k:]])
    if res.any():
        raise NotQualifiedError(
            "subset does not qualify: g0 is outside the span of its columns")
    tvec = np.array([int(shares[i]) for i in ids], dtype=np.int64)
    _, sred = row_reduce(ctx, rows.T)
    rem = tvec.copy()
    for row in sred:
        piv_cols = np.nonzero(row)[0]
        if piv_cols.size == 0:
            continue
        c = int(piv_cols[0])
        f = int(rem[c])
        if f:
            rem = ctx.vadd(rem, ctx.vneg(ctx.scalar_mul_row(f)[row]))
    if rem.any():
        raise InconsistentSharesError(
            "shares are not the restriction of any codeword")
    secret = 0
    for j, i in enumerate(ids):
        if coeffs[j]:
            secret = ctx.add(secret, ctx.mul(int(coeffs[j]), int(shares[i])))
    return int(secret)


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
    coordinate, and hyperplane sections off P0 (the complements of
    access sets) with an altered share, unqualified and inconsistent."""
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


@pytest.mark.parametrize("kind,q,r", [("twisted", 3, 3), ("hermitian", 2, 3),
                                      ("hermitian", 3, 3)])
def test_recover_matches_two_eliminations(kind, q, r, monkeypatch):
    scheme, access = get_scheme(kind, q, r), get_access(kind, q, r)
    shapes = []
    monkeypatch.setattr(sss_mod, "row_reduce",
                        lambda ctx, mat: shapes.append(mat.shape) or row_reduce(ctx, mat))
    kinds = set()
    for subset, shares in _recover_cases(scheme, access,
                                         random.Random(f"{kind}{q}{r}")):
        want = _outcome(_recover_by_two_eliminations, scheme, subset, shares)
        shapes.clear()
        assert _outcome(recover, scheme, subset, shares) == want, subset
        assert shapes == [(len(set(subset)), scheme.k + 1)]
        kinds.add(want[0])
    assert kinds == {"secret", "NotQualifiedError", "InconsistentSharesError"}


def test_recover_unqualified_and_inconsistent_is_not_qualified(scheme_h2, access_h2):
    """The participants on a hyperplane off P0 span that hyperplane, so
    they do not qualify, and there are more of them than k, so one
    altered share is inconsistent: qualification is reported first."""
    aset = access_h2.sorted_sets()[0]
    section = sorted(set(range(1, scheme_h2.m + 1)) - set(aset))
    shares = dict(deal(scheme_h2, 2, 3).shares)
    shares[section[0]] ^= 1
    for fn in (recover, _recover_by_two_eliminations):
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
    # 64 consistent messages, split evenly over the four secrets
    assert rep.consistent == 64
    assert all(e["count"] == 16 for e in rep.as_dict()["secret_counts"])


def test_perfectness_qualified_on_access_set(scheme_h2, access_h2):
    rep = perfectness_check(scheme_h2, access_h2.sorted_sets()[0])
    assert rep.verdict == "qualified"


def test_perfectness_budget_refuses_before_dealing(scheme_h2, access_h2, monkeypatch):
    # q^k = 4^4 = 256 codewords of the code on g0 and the subset
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


def test_parse_cycles_rejects_garbage():
    with pytest.raises(SSSError):
        parse_cycles("(1,2", 4)
    with pytest.raises(SSSError):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(SSSError):
        parse_cycles("(1,9)", 4)


def test_apply_to_set():
    perm = parse_cycles("(1,2,3)", 4)
    assert apply_to_set(perm, {1, 4}) == frozenset({2, 4})


def test_develop_orbit_of_one_set():
    group = group_closure(["(1,2,3,4)"], 4)
    acc = develop([[1, 2]], group)
    assert acc.count == 4
    assert acc.size_profile() == {2: 4}


def test_develop_dedupes_across_starters():
    group = group_closure(["(1,2)"], 3)
    acc = develop([[1], [2]], group)
    assert acc.count == 2


def test_structures_equal():
    group = group_closure(["(1,2,3,4)"], 4)
    a = develop([[1, 2]], group)
    b = develop([[2, 3]], group)
    assert structures_equal(a, b)
    c = develop([[1, 3]], group)
    assert not structures_equal(a, c)


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
