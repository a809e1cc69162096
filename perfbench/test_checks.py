"""The benchmark's own tests: negative controls for its correctness
checks, and consistency of BENCHMARK.json with what the runner reports.

    python3 -m pytest -q perfbench
"""

import json
from itertools import product
from pathlib import Path

import checks
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def brute_spectrum(p: int, r: int, points) -> dict:
    """Hyperplane section sizes over the prime field GF(p), by brute force."""
    counts = {}
    for h in product(range(p), repeat=r + 1):
        nz = [c for c in h if c]
        if not nz or nz[0] != 1:
            continue
        s = sum(1 for pt in points if sum(a * b for a, b in zip(pt, h)) % p == 0)
        counts[s] = counts.get(s, 0) + 1
    return counts


def some_points(p: int, r: int) -> list:
    """Normalized points of PG(r, p) with x0^2 + x1 x2 = 0: a cone, so the
    spectrum has several sizes."""
    pts = []
    for v in product(range(p), repeat=r + 1):
        nz = [c for c in v if c]
        if nz and nz[0] == 1 and (v[0] * v[0] + v[1] * v[2]) % p == 0:
            pts.append(v)
    return pts


def test_spectrum_check_accepts_a_brute_force_spectrum():
    pts = some_points(3, 3)
    counts = brute_spectrum(3, 3, pts)
    assert len(counts) > 1
    assert checks.hyperplane_spectrum_problems(counts, len(pts), 3, 3) == []


def test_spectrum_with_one_count_moved_fails():
    pts = some_points(3, 3)
    counts = brute_spectrum(3, 3, pts)
    small, large = sorted(counts)[:2]
    moved = dict(counts)
    moved[small] -= 1
    moved[large] += 1
    assert checks.hyperplane_spectrum_problems(moved, len(pts), 3, 3)
    data = {"counts": moved, "n": len(pts), "Q": 3, "r": 3, "predicted": None}
    assert workloads.library_problems(["hyperplane_spectrum", "x", 3, 3], data)


def test_predicted_support_mismatch_fails():
    pts = some_points(3, 3)
    counts = brute_spectrum(3, 3, pts)
    pred = {"N": len(pts), "sizes": sorted(counts)[:-1] + [10 ** 6], "counts": None}
    assert checks.hyperplane_spectrum_problems(counts, len(pts), 3, 3, pred)


def test_line_spectrum_with_one_count_moved_fails():
    pts = some_points(3, 3)
    # lines of PG(3, 3) by brute force: every pair of points spans one
    lines = set()
    allpts = [v for v in product(range(3), repeat=4)
              if any(v) and [c for c in v if c][0] == 1]
    for i, u in enumerate(allpts):
        for w in allpts[i + 1:]:
            line = set()
            for s, t in product(range(3), repeat=2):
                v = tuple((s * x + t * y) % 3 for x, y in zip(u, w))
                if any(v):
                    lead = [c for c in v if c][0]
                    line.add(tuple((c * lead) % 3 for c in v))  # lead^-1 = lead mod 3
            lines.add(frozenset(line))
    ptset = set(pts)
    counts = {}
    for line in lines:
        s = len(line & ptset)
        counts[s] = counts.get(s, 0) + 1
    assert checks.line_spectrum_problems(counts, len(pts), 3, 3) == []
    small, large = sorted(counts)[:2]
    counts[small] -= 1
    counts[large] += 1
    assert checks.line_spectrum_problems(counts, len(pts), 3, 3)


def test_recovered_secret_off_by_one_fails():
    acc = workloads.Acceptance(seed=7, workdir="unused")
    good = {"report": {"status": "RECOVERED", "secret": acc.secret}}
    assert acc.problems("sss-recover", good) == []
    bad = {"report": {"status": "RECOVERED", "secret": (acc.secret + 1) % 4}}
    assert acc.problems("sss-recover", bad)


def seed_criteria():
    return [{"id": cid, "status": st} for cid, st in checks.VERIFY_ALL_EXPECTED.items()]


def test_verify_all_seed_statuses_pass():
    acc = workloads.Acceptance(seed=0, workdir="unused")
    assert acc.problems("verify-all", {"report": {"criteria": seed_criteria()}}) == []


def test_verify_all_any_flipped_status_fails():
    acc = workloads.Acceptance(seed=0, workdir="unused")
    for i in range(10):
        crit = seed_criteria()
        crit[i]["status"] = "PASS" if crit[i]["status"] == "FAIL" else "FAIL"
        assert acc.problems("verify-all", {"report": {"criteria": crit}}), crit[i]


def test_refusal_is_not_a_failure():
    acc = workloads.Acceptance(seed=0, workdir="unused")
    assert acc.is_refusal("code-minimality-budget", 3, None)
    assert acc.problems("code-minimality-budget", None) == []
    skip = {"report": {"bruteforce": {"status": "SKIP"}}}
    assert acc.is_refusal("code-minimality-budget", 0, skip)
    assert not acc.is_refusal("code-minimality-budget", 2, None)


def test_dk_monotonicity_violation_fails():
    d1 = checks.hermitian_d1(4, 2)
    n_planes = checks.gaussian_binomial(5, 3, 4)
    assert checks.dk_problems(2, d1 + 1, n_planes, 4, 4, d1) == []
    assert checks.dk_problems(2, d1, n_planes, 4, 4, d1)
    assert checks.dk_problems(2, d1 + 1, n_planes - 1, 4, 4, d1)


def test_self_times_add_up():
    tr = spans.Tracer()
    outer = tr.begin("a")
    inner = tr.begin("b")
    tr.end(inner)
    tr.end(outer)
    root = tr.begin("c")
    tr.end(root)
    s = tr.summary(wall_s=tr.spans[-1][2] - tr.spans[0][1])
    assert abs(s["self_sum_s"] - s["covered_s"]) < 1e-9
    assert s["self_s"]["a"] >= 0 and s["covered_s"] <= s["wall_s"] + 1e-9


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert layers == {name: run.layer_unit(name) for name in run.LAYER_SOURCES}
