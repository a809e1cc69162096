"""End-to-end verification suite: ten numbered checks covering sizes,
spectra, codes, and secret sharing, shared by the command line
(verify-all) and the acceptance test suite.

Two checks pin externally supplied reference tables that are provably
unrealizable: the (q=3, r=3) hyperplane count table and the matching
weight enumerator violate the incidence double-count identities (see
each check's detail string for the arithmetic).  Those checks report
the discrepancy and fail; the self-consistency halves of the same
computations are verified separately and pass.

Each check_NN returns (failures, pass_detail); run_all alone makes the
CheckResult rows, named from CHECK_NAMES, and reports a budget refusal
as SKIP.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice

from . import code as code_mod
from . import sss as sss_mod
from . import variety as var_mod
from .budget import BudgetError

# Externally pinned reference tables for checks 2 and 4.  Both are
# impossible: with 262 points, support {19, 26, 28, 35, 37} and the
# other three counts fixed, double counting point-hyperplane flags
# forces counts 486 and 243 where these tables say 513 and 216.
REFERENCE_SPECTRUM_COUNTS_33 = {19: 1, 26: 513, 28: 72, 35: 216, 37: 18}
REFERENCE_WEIGHT_TABLE_33 = {243: 8, 236: 4104, 234: 576, 227: 1728, 225: 144}

EXPECTED_SIZES = {(3, 3): 262, (4, 3): 1041, (4, 4): 16657}
SPECTRUM_CASES = ((3, 3), (5, 3), (4, 3), (4, 4))
EXAMPLE_FACTS = {"group_order": 576, "n_sets": 64,
                 "size_profile": {31: 32, 35: 32}}


@dataclass
class CheckResult:
    cid: str
    name: str
    status: str          # "PASS" | "FAIL" | "SKIP"
    detail: str
    elapsed: float = 0.0

    def as_dict(self):
        return {"id": self.cid, "name": self.name, "status": self.status,
                "detail": self.detail}


@lru_cache(maxsize=None)
def get_variety(kind: str, q: int, r: int, budget=None):
    return var_mod.build_variety(kind, q, r, budget=budget)


@lru_cache(maxsize=None)
def get_access(kind: str, q: int, r: int, budget=None):
    return sss_mod.access_structure(get_variety(kind, q, r, budget), budget=budget)


@lru_cache(maxsize=None)
def get_code(kind: str, q: int, r: int, budget=None):
    return code_mod.code_from_variety(get_variety(kind, q, r, budget))


@lru_cache(maxsize=None)
def get_minimality(kind: str, q: int, r: int, budget=None):
    return code_mod.minimality_bruteforce(get_code(kind, q, r, budget), budget)


@lru_cache(maxsize=None)
def get_scheme(kind: str, q: int, r: int, budget=None):
    return sss_mod.Scheme.from_variety(get_variety(kind, q, r, budget))


def check_01_sizes(budget=None) -> tuple:
    """Sizes of the twisted hypersurface and the one-refusal case."""
    bad = []
    for (q, r), expect in EXPECTED_SIZES.items():
        v = var_mod.build_twisted(var_mod.default_params(q, r), budget)
        if v.n != expect:
            bad.append(f"|({q},{r})| = {v.n} != {expect}")
    try:
        var_mod.default_params(3, 4)
        bad.append("(3,4) parameters unexpectedly found")
    except var_mod.ParamsError as e:
        if "exhaustive scan" not in str(e):
            bad.append(f"(3,4) refusal lacks scan diagnostic: {e}")
    return bad, "262 / 1041 / 16657; (3,4) refused after exhaustive scan"


def check_02_spectra(budget=None) -> tuple:
    """Hyperplane spectra against the derived ones, and the pinned (3,3) counts."""
    bad = []
    for q, r in SPECTRUM_CASES:
        v = get_variety("twisted", q, r, budget)
        sp = var_mod.hyperplane_spectrum(v, budget=budget)
        pred = var_mod.predicted_spectrum(q, r, "twisted")
        if sp.counts != pred.counts:
            bad.append(f"spectrum ({q},{r}) {sp.counts} != derived {pred.counts}")
    v33 = get_variety("twisted", 3, 3, budget)
    sp33 = var_mod.hyperplane_spectrum(v33, budget=budget)
    if sp33.counts != REFERENCE_SPECTRUM_COUNTS_33:
        moment = sum(s * c for s, c in REFERENCE_SPECTRUM_COUNTS_33.items())
        bad.append(
            f"(3,3) counts measured {sp33.counts} != pinned "
            f"{REFERENCE_SPECTRUM_COUNTS_33}; the pinned table is impossible: "
            f"sum size*count = {moment}, but every 262-point set gives "
            f"262*91 = {262 * 91}")
    return bad, "derived spectra at (3,3),(5,3),(4,3),(4,4); pinned counts match"


def check_03_lines(budget=None) -> tuple:
    """The pencil's line spectra of twisted (3,3) and, by its Siegel form,
    hermitian (2,3) against the full pass; (3,3)'s against its sizes."""
    v = get_variety("twisted", 3, 3, budget)
    sp = var_mod.line_spectrum(v, budget)
    herm = get_variety("hermitian", 2, 3, budget)
    allowed = set(var_mod.predicted_line_sizes(3))
    bad = []
    for w, s in ((v, sp), (herm, var_mod.line_spectrum(herm, budget))):
        full = var_mod.size_counts(var_mod.line_section_sizes(w, budget))
        if s.counts != full:
            bad.append(f"{w.label} {s.engine} line spectrum {s.counts} != full pass {full}")
    if sp.total != 7462:
        bad.append(f"line count {sp.total} != 7462")
    extra = set(sp.counts) - allowed
    if extra:
        bad.append(f"line sizes outside prediction: {sorted(extra)}")
    return bad, f"7462 lines, sizes {sorted(sp.counts)} all allowed; both match the full pass"


def check_04_weights(budget=None) -> tuple:
    """Weight enumerator of the (3,3) code against the pinned table and
    against independent exhaustive enumeration."""
    v = get_variety("twisted", 3, 3, budget)
    dist = code_mod.weights_from_sections(v, budget=budget)
    bf = code_mod.weights_bruteforce(get_code("twisted", 3, 3, budget), budget)
    bad = []
    if dist.weights != bf.weights:
        bad.append("hyperplane-derived and exhaustive enumerations disagree")
    if dist.weights != REFERENCE_WEIGHT_TABLE_33:
        moment = sum(w * c for w, c in REFERENCE_WEIGHT_TABLE_33.items())
        expect = 262 * (9 ** 4 - 9 ** 3)
        bad.append(
            f"measured {dict(sorted(dist.weights.items()))} != pinned "
            f"{REFERENCE_WEIGHT_TABLE_33}; the pinned table is impossible: "
            f"sum w*A_w = {moment}, but a full-support length-262 code over "
            f"GF(9) with k=4 forces {expect}")
    return bad, "table matches and is confirmed by full enumeration"


def check_05_divisibility(budget=None) -> tuple:
    bad = []
    for q, r in ((4, 3), (4, 4)):
        v = get_variety("twisted", q, r, budget)
        dist = code_mod.weights_from_sections(v, budget=budget)
        rep = code_mod.divisibility_report(dist, 4)
        if not rep.all_divisible:
            bad.append(f"({q},{r}) weights not all divisible by 4: {rep.offenders}")
    v33 = get_variety("twisted", 3, 3, budget)
    rep33 = code_mod.divisibility_report(
        code_mod.weights_from_sections(v33, budget=budget), 3)
    if rep33.all_divisible:
        bad.append("(3,3) weights unexpectedly all divisible by 3")
    return bad, "q=4 codes are 4-divisible; the (3,3) code is not 3-divisible"


MINIMAL_FIXTURES = (("hermitian", 2, 3), ("hermitian", 3, 3),
                    ("quasi-hermitian", 3, 3), ("twisted", 3, 3))


def check_06_minimality(budget=None) -> tuple:
    bad = []
    for kind, q, r in MINIMAL_FIXTURES:
        cut = code_mod.cutting_blocking_check(get_variety(kind, q, r, budget), budget)
        if not cut.ok:
            bad.append(f"{kind}({q},{r}) unexpectedly fails cutting check")
    v43 = get_variety("twisted", 4, 3, budget)
    cut43 = code_mod.cutting_blocking_check(v43, budget)
    if cut43.ok:
        bad.append("(4,3) unexpectedly passes cutting check")
    elif cut43.witness_coords != (1, 0, 0, 0):
        bad.append(f"(4,3) witness {cut43.witness_coords} != (1, 0, 0, 0)")
    bf43 = get_minimality("twisted", 4, 3, budget)
    if bf43.non_minimal_words != 15 or set(bf43.non_minimal_weights) != {1024}:
        bad.append(f"(4,3) non-minimal words {bf43.non_minimal_words} "
                   f"(weights {bf43.non_minimal_weights}) != 15 of weight 1024")
    return bad, ("four minimal fixtures; (4,3) fails with witness "
                 "(1,0,0,0) and exactly 15 non-minimal words of weight 1024")


def check_07_democracy(budget=None) -> tuple:
    bad = []
    a33 = get_access("twisted", 3, 3, budget)
    d33 = sss_mod.democracy_report(a33)
    if a33.count != 729:
        bad.append(f"(3,3) access sets {a33.count} != 729")
    if not d33.is_democratic or d33.uniform_count != 648:
        bad.append(f"(3,3) democracy {d33.uniform_count} != 648")
    a2 = get_access("hermitian", 2, 3, budget)
    d2 = sss_mod.democracy_report(a2)
    if a2.count != 64:
        bad.append(f"hermitian q=2 access sets {a2.count} != 64")
    if not d2.is_democratic or d2.uniform_count != 48:
        bad.append(f"hermitian q=2 democracy {d2.uniform_count} != 48")
    if a2.size_profile() != {31: 32, 35: 32}:
        bad.append(f"hermitian q=2 profile {a2.size_profile()} != {{31:32, 35:32}}")
    return bad, ("729 sets / 648 each at (3,3); 64 sets / 48 each, "
                 "sizes {31x32, 35x32} at hermitian q=2")


def check_08_sss_roundtrip(budget=None) -> tuple:
    bad = []
    rng = random.Random(20260819)
    cases = (("twisted", 3, 3), ("hermitian", 2, 3))
    for kind, q, r in cases:
        scheme = get_scheme(kind, q, r, budget)
        sets = get_access(kind, q, r, budget).sets()
        for t in range(50):
            aset = sets[rng.randrange(len(sets))]
            secret = rng.randrange(scheme.q)
            shares = sss_mod.deal(scheme, secret, seed=rng.randrange(2 ** 30)).shares
            got = sss_mod.recover(scheme, aset, shares)
            if got != secret:
                bad.append(f"{kind}({q},{r}) trial {t}: {got} != {secret}")
                break
            drop = aset[rng.randrange(len(aset))]
            try:
                sss_mod.recover(scheme, [i for i in aset if i != drop], shares)
            except sss_mod.NotQualifiedError:
                continue
            bad.append(f"{kind}({q},{r}) trial {t}: recovered without {drop}")
            break
    scheme2 = get_scheme("hermitian", 2, 3, budget)
    # no pair qualifies: every access set has 31 or 35 members
    subsets = ([()] + [(i,) for i in range(1, scheme2.m + 1)]
               + list(islice(combinations(range(1, scheme2.m + 1), 2), 20)))
    for sub in subsets:
        rep = sss_mod.perfectness_check(scheme2, sub, secret=1, seed=11,
                                        budget=budget)
        if rep.verdict != "uniform":
            bad.append(f"non-qualified subset {sub} verdict {rep.verdict}")
            break
    return bad, (f"100 deal/recover roundtrips, none after dropping one member; "
                 f"uniform secret distribution on {len(subsets)} non-qualified "
                 f"subsets by full 256-codeword enumeration")


def example_checks(facts: dict) -> dict:
    """Name -> pass for the shipped example's facts: the pinned values
    of EXAMPLE_FACTS, and the properties that must simply hold."""
    checks = {key: facts[key] == expect for key, expect in EXAMPLE_FACTS.items()}
    for key in ("is_antichain", "starters_included", "fixed_point_ok",
                "automorphism_ok"):
        checks[key] = facts[key]
    return checks


def check_09_example(budget=None) -> tuple:
    facts = sss_mod.verify_example(budget)
    bad = [f"{key} = {facts[key]} != {EXAMPLE_FACTS[key]}" if key in EXAMPLE_FACTS
           else f"{key} is false"
           for key, ok in example_checks(facts).items() if not ok]
    return bad, ("group order 576; 64 sets sized {31x32, 35x32}; "
                 "antichain; generators stabilize the structure")


CROSS_FIXTURES = (("twisted", 3, 3), ("twisted", 4, 3), ("hermitian", 2, 3),
                  ("hermitian", 3, 3), ("quasi-hermitian", 3, 3))


def check_10_cross(budget=None) -> tuple:
    bad = []
    for kind, q, r in CROSS_FIXTURES:
        v = get_variety(kind, q, r, budget)
        tag = f"{kind}({q},{r})"
        dist = code_mod.weights_from_sections(v, budget=budget)
        bf_dist = code_mod.weights_bruteforce(get_code(kind, q, r, budget), budget)
        if dist.weights != bf_dist.weights:
            bad.append(f"{tag}: section and exhaustive weights differ")
        ab = code_mod.ab_condition(dist)
        cut = code_mod.cutting_blocking_check(v, budget)
        bf = get_minimality(kind, q, r, budget)
        if ab.passes and not bf.ok:
            bad.append(f"{tag}: weight-ratio condition passed but a "
                       f"non-minimal word exists")
        if cut.ok != bf.ok:
            bad.append(f"{tag}: cutting verdict {cut.ok} != exhaustive {bf.ok}")
    surgery = var_mod.surgery_check(var_mod.default_params(3, 3), budget)
    if not (surgery["sets_match"] and surgery["per_hyperplane_ok"]):
        bad.append(f"surgery identity fails: {surgery}")
    return bad, ("ratio=>exhaustive, cutting<=>exhaustive, section==exhaustive "
                 "weights on five fixtures; surgery identity exact at (3,3)")


# the one place each check's name is written
CHECK_NAMES = {"01": "sizes", "02": "hyperplane spectra", "03": "line spectrum",
               "04": "weight enumerator", "05": "divisibility", "06": "minimality",
               "07": "democracy", "08": "sss roundtrip and perfectness",
               "09": "shipped example", "10": "cross-checks"}

ALL_CHECKS = (check_01_sizes, check_02_spectra, check_03_lines,
              check_04_weights, check_05_divisibility, check_06_minimality,
              check_07_democracy, check_08_sss_roundtrip, check_09_example,
              check_10_cross)


# parallel is accepted and ignored; perfbench/spans.py still passes it
def run_all(budget=None, parallel=1, checks=ALL_CHECKS) -> list:
    """One timed CheckResult per check: FAIL with its failures joined,
    PASS with its pass detail, or SKIP with the refusal."""
    results = []
    for fn in checks:
        cid = fn.__name__.split("_")[1]
        t0 = time.perf_counter()
        try:
            bad, detail = fn(budget=budget)
            status, detail = ("FAIL", "; ".join(bad)) if bad else ("PASS", detail)
        except BudgetError as e:
            status, detail = "SKIP", f"refused: {e}"
        results.append(CheckResult(cid, CHECK_NAMES[cid], status, detail,
                                   time.perf_counter() - t0))
    return results


def negative_control_corrupt_modulus() -> CheckResult:
    """Give the field construction a reducible polynomial in place of the
    table's modulus and require it to reject it."""
    from .gf import FieldError, FiniteField
    # x^2 + 2x + 1 = (x + 1)^2 is reducible over GF(3)
    try:
        FiniteField(3, 2, modulus=(1, 2, 1))
    except FieldError as e:
        return CheckResult("NC", "corrupted modulus control", "PASS",
                           f"construction rejected the bad table entry: {e}")
    return CheckResult("NC", "corrupted modulus control", "FAIL",
                       "construction accepted a reducible modulus")
