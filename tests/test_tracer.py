"""The benchmark's tracer wraps qhcodes functions by name from outside
(perfbench/spans.py), so a renamed or removed function would silently
drop its metric.  Installing it here fails on any name it cannot find,
and the library jobs (perfbench/job.py) run here on small varieties.
"""

import json
import sys
import time
from pathlib import Path

import qhcodes.cli  # noqa: F401  the tracer wraps only imported layers
import qhcodes.verify  # noqa: F401
from qhcodes import sss, variety
from qhcodes.geom import gaussian_binomial

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import job  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tracer_wraps_every_layer():
    tr = spans.Tracer()
    try:
        spans.install(tr, [time.perf_counter()])
        v = variety.build_variety("hermitian", 2, 3)
        acc = sss.access_structure(v)
        rep = sss.democracy_report(acc)
        fx = sss.load_fixture()
        dev = sss.develop(fx.starters, sss.group_closure(fx.generator_cycles, fx.degree))
    finally:
        tr.restore()
    assert acc.count == dev.count == 64
    assert rep.uniform_count == 48
    names = {span[0] for span in tr.spans}
    assert {"variety.build", "sss.access", "sss.develop", "code.cutting"} <= names
    assert tr.counters["budget.checks"] > 0


def test_tracer_times_the_line_pass():
    """The full pass over every line, which the tracer wraps; line
    spectra at r >= 3 count from one point's pencil instead."""
    tr = spans.Tracer()
    try:
        spans.install(tr, [time.perf_counter()])
        v = variety.build_variety("hermitian", 3, 3)
        sizes = variety.line_section_sizes(v)
    finally:
        tr.restore()
    assert "variety.lines" in {span[0] for span in tr.spans}
    assert tr.counters["variety.lines.count"] == len(sizes) == gaussian_binomial(4, 2, 9)


def test_tracer_counts_direct_incidences():
    """variety.sizes.direct.incidences reads the point set, the third
    argument of _sizes_direct, as one entry per point."""
    tr = spans.Tracer()
    try:
        spans.install(tr, [time.perf_counter()])
        v = variety.build_variety("hermitian", 2, 3)
        variety._sizes_direct(v.ctx, v.space, v.indices)
    finally:
        tr.restore()
    assert v.n == 45
    assert tr.counters["variety.sizes.direct.incidences"] == v.space.n_points * v.n


def test_library_jobs_run_and_pass_their_checks(tmp_path):
    builds = [["hermitian", 2, 3], ["twisted", 3, 3]]
    calls = [[fn, *b] for b in builds for fn in job.LIBRARY_CALLS]
    spec = {"builds": builds, "calls": calls, "result": str(tmp_path / "result.json")}
    assert job.run_library(qhcodes, spec, None, [None]) == 0
    results = json.loads((tmp_path / "result.json").read_text())["results"]
    assert [res["call"] for res in results] == calls
    for res in results:
        assert "error" not in res, res.get("error")
        assert workloads.library_problems(res["call"], res["data"]) == []
