#!/usr/bin/env python3
"""Cold-process benchmark of qhcodes.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout and imports qhcodes from its
``src``.  Every job runs in a fresh interpreter, because the library
memoises fields, projective spaces and varieties, and every command a
user runs pays that cost cold.  Without --workload all workloads run.

A run repeats whole passes of the workload while another pass still
fits in --seconds (always at least one) and reports medians.  Set-up
time is the median of SETUP_REPEATS set-up interpreters timed before
the passes and as many after them, so that host drift during the run
is sampled on both sides.  Every job's answer is checked (checks.py);
the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 1 runs one untraced and one traced pass, without set-up
timing, and reports the per-layer metrics instead; spans go to
.perfbench/trace/ as JSON lines.
Every run appends its run record to .perfbench/runs.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
ENTRY = "import sys; from qhcodes.cli import main; sys.exit(main())"

SETUP_REPEATS = 6         # set-up interpreters before and again after the passes
RUN_LIMIT_S = 160          # a run must finish well within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (source, *args), summed over the traced pass's jobs:
# self time of a span name, a counter, a maximum, counter / span time,
# a percentile of sss.recover call times, or a run-level figure
LAYER_SOURCES = {
    "gf.make_field.s": ("self", "gf.make_field"),
    "gf.make_field.calls": ("count", "gf.make_field.calls"),
    "geom.pg_space.s": ("self", "geom.pg_space"),
    "geom.points": ("count", "geom.points"),
    "geom.dot_rows.s": ("self", "geom.dot_rows"),
    "geom.dot_rows.calls": ("count", "geom.dot_rows.calls"),
    "geom.row_reduce.s": ("self", "geom.row_reduce"),
    "geom.row_reduce.calls": ("count", "geom.row_reduce.calls"),
    "geom.subspaces": ("count", "geom.subspaces"),
    "geom.subspace_points.s": ("self", "geom.subspace_points"),
    "variety.default_params.s": ("self", "variety.default_params"),
    "variety.validate_params.calls": ("count", "variety.validate_params.calls"),
    "variety.build.s": ("self", "variety.build"),
    "variety.sizes.direct.s": ("self", "variety.sizes.direct"),
    "variety.sizes.direct.incidences": ("count", "variety.sizes.direct.incidences"),
    "variety.sizes.direct.incidences_per_s": ("rate", "variety.sizes.direct.incidences",
                                              "variety.sizes.direct"),
    "variety.sizes.wht.s": ("self", "variety.sizes.wht"),
    "variety.sizes.wht.array_bytes": ("max", "variety.sizes.wht.array_bytes"),
    "variety.sizes.cache_hits": ("count", "variety.sizes.cache_hits"),
    "variety.lines.s": ("self", "variety.lines"),
    "variety.lines.count": ("count", "variety.lines.count"),
    "code.cutting.s": ("self", "code.cutting"),
    "code.cutting.hyperplanes": ("count", "code.cutting.hyperplanes"),
    "code.cutting.rank_calls": ("count", "code.cutting.rank_calls"),
    "code.bruteforce.s": ("self", "code.bruteforce"),
    "code.bruteforce.words": ("count", "code.bruteforce.words"),
    "code.bruteforce.words_per_s": ("rate", "code.bruteforce.words", "code.bruteforce"),
    "code.bruteforce.pairs": ("count", "code.bruteforce.pairs"),
    "code.dk.s": ("self", "code.dk"),
    "code.dk.subspaces": ("count", "code.dk.subspaces"),
    "sss.recover.calls": ("count", "sss.recover.calls"),
    "sss.recover.p50_ms": ("pct", 50),
    "sss.recover.p90_ms": ("pct", 90),
    "sss.recover.not_qualified": ("count", "sss.recover.not_qualified"),
    "sss.perfectness.s": ("self", "sss.perfectness"),
    "sss.perfectness.messages": ("count", "sss.perfectness.messages"),
    "sss.access.s": ("self", "sss.access"),
    "sss.develop.s": ("self", "sss.develop"),
    **{f"verify.check_{i:02d}.s": ("self", f"verify.check_{i:02d}") for i in range(1, 11)},
    "cli.import_s": ("self", "cli.import"),
    "cli.emit.s": ("self", "cli.emit"),
    "cli.payload_bytes": ("count", "cli.payload_bytes"),
    "budget.checks": ("count", "budget.checks"),
    "budget.refusals": ("count", "budget.refusals"),
    "budget.s_before_refusal": ("count", "budget.s_before_refusal"),
    "trace.overhead_s": ("run", "overhead_s"),
    "trace.unspanned_s": ("run", "unspanned_s"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")) or ".s_" in name:
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "B"
    return "count"


class Proc(NamedTuple):
    """One finished child process with its own resource usage."""
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_path: Path
    err_text: str


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.t_start = time.monotonic()
        self.dir = OUT / "work" / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.jobs = []          # one record per job: name, status, problems
        self.n_spawned = 0

    def left_s(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.t_start)

    def spawn(self, argv: list, tag: str) -> Proc:
        """Run argv to completion; kill it if the run's time is up."""
        self.n_spawned += 1
        out_path = self.dir / f"{self.n_spawned:03d}-{tag}.out"
        err_path = self.dir / f"{self.n_spawned:03d}-{tag}.err"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=self.dir, env=self.env)
            timer = threading.Timer(max(self.left_s(), 1.0), p.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
        return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
                    out_path, err_path.read_text(errors="replace"))

    def job_file(self, name: str) -> str:
        return str(self.dir / name)

    def record(self, name: str, proc: Proc | None, problems: list,
               refused: bool = False) -> None:
        if proc is not None and "Traceback" in proc.err_text:
            problems = problems + ["traceback: " + proc.err_text.strip()[-400:]]
        status = "failed" if problems else ("refused" if refused else "ok")
        self.jobs.append({"name": name, "status": status, "problems": problems,
                          "wall_s": None if proc is None else proc.wall_s})

    def job_script(self, spec: dict, tag: str) -> list:
        path = self.job_file(f"{tag}.spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return [sys.executable, str(HERE / "job.py"), path]


# ---------------------------------------------------------------------------
# passes

def setup_builds(workload: str) -> list:
    if workload in workloads.SPECTRA:
        return workloads.SPECTRA[workload]["builds"]
    return workloads.ACCEPTANCE_BUILDS


def measure_setup(run: Run) -> list:
    walls = []
    spec = {"mode": "setup", "builds": setup_builds(run.workload)}
    for _ in range(SETUP_REPEATS):
        proc = run.spawn(run.job_script(spec, "setup"), "setup")
        run.record("setup", proc, [] if proc.rc == 0 else [f"set-up exited {proc.rc}"])
        walls.append(proc.wall_s)
    return walls


def trace_spec(run: Run, tag: str, traced: bool) -> dict:
    if not traced:
        return {}
    tdir = OUT / "trace" / run.workload
    tdir.mkdir(parents=True, exist_ok=True)
    return {"trace": str(tdir / f"{tag}.jsonl"), "summary": run.job_file(f"{tag}.summary.json")}


def library_pass(run: Run, traced: bool) -> dict:
    work = workloads.SPECTRA[run.workload]
    tag = "library-traced" if traced else "library"
    spec = {"mode": "library", "builds": work["builds"], "calls": work["calls"],
            "result": run.job_file(f"{tag}.result.json"), **trace_spec(run, tag, traced)}
    proc = run.spawn(run.job_script(spec, tag), tag)
    try:
        with open(spec["result"]) as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        for call in work["calls"]:
            run.record("/".join(map(str, call)), proc, [f"job exited {proc.rc} without a result"])
        return {"wall_s": proc.wall_s, "cpu_s": proc.cpu_s, "peak_rss_mb": proc.rss_mb,
                "summaries": []}
    for item in res["results"]:
        name = "/".join(map(str, item["call"]))
        if "error" in item:
            run.record(name, None, [item["error"].strip().splitlines()[-1]])
        else:
            run.record(name, proc, workloads.library_problems(item["call"], item["data"]))
    return {"wall_s": res["wall_s"], "cpu_s": res["cpu_s"], "peak_rss_mb": proc.rss_mb,
            "summaries": read_summaries(run, [spec])}


def acceptance_pass(run: Run, traced: bool) -> dict:
    acc = workloads.Acceptance(run.seed, str(run.dir))
    wall = cpu = rss = 0.0
    verify_all_s = None
    specs = []
    commands = acc.commands()
    while True:
        try:
            name, argv, exits = next(commands)
        except StopIteration:
            break
        except (KeyError, TypeError, IndexError) as e:
            run.record("inputs", None, [f"could not build the next command: {e!r}"])
            break
        tag = f"{name}-traced" if traced else name
        if traced:
            spec = {"mode": "cli", "argv": argv, **trace_spec(run, tag, True)}
            specs.append(spec)
            proc = run.spawn(run.job_script(spec, tag), tag)
        else:
            proc = run.spawn([sys.executable, "-c", ENTRY, *argv], tag)
        wall += proc.wall_s
        cpu += proc.cpu_s
        rss = max(rss, proc.rss_mb)
        if name == "verify-all":
            verify_all_s = proc.wall_s
        payload = read_payload(proc, argv)
        try:
            problems = acc.problems(name, payload)
        except (KeyError, TypeError, ValueError) as e:
            problems = [f"malformed payload: {e!r}"]
        if proc.rc not in exits or proc.rc == 2:
            problems = [f"exit code {proc.rc}, expected {exits}"] + problems
        run.record(name, proc, problems, acc.is_refusal(name, proc.rc, payload))
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "verify_all_s": verify_all_s, "summaries": read_summaries(run, specs)}


def read_payload(proc: Proc, argv: list):
    path = argv[argv.index("--out") + 1] if "--out" in argv else proc.out_path
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def read_summaries(run: Run, specs: list) -> list:
    out = []
    for spec in specs:
        if "summary" not in spec:
            continue
        try:
            with open(spec["summary"]) as fh:
                out.append(json.load(fh))
        except (OSError, ValueError):
            run.record("trace", None, [f"no trace summary at {spec['summary']}"])
    return out


def one_pass(run: Run, traced: bool) -> dict:
    if run.workload in workloads.SPECTRA:
        return library_pass(run, traced)
    return acceptance_pass(run, traced)


# ---------------------------------------------------------------------------
# metrics

def layer_metrics(run: Run, plain: dict, traced: dict) -> dict:
    selfs, totals, counts, maxima, recover_ms = {}, {}, {}, {}, []
    unspanned = 0.0
    for s in traced["summaries"]:
        for k, v in s["self_s"].items():
            selfs[k] = selfs.get(k, 0.0) + v
        for k, v in s["total_s"].items():
            totals[k] = totals.get(k, 0.0) + v
        for k, v in s["counters"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in s["maxima"].items():
            maxima[k] = max(maxima.get(k, 0), v)
        recover_ms += s["recover_ms"]
        unspanned += s["wall_s"] - s["covered_s"]
        if abs(s["self_sum_s"] - s["covered_s"]) > 1e-6 * max(1.0, s["covered_s"]):
            run.record("trace", None, [f"self times sum to {s['self_sum_s']}, root "
                                       f"spans cover {s['covered_s']}"])
    run_level = {"overhead_s": traced["wall_s"] - plain["wall_s"], "unspanned_s": unspanned}
    out = {}
    for name, (source, *keys) in LAYER_SOURCES.items():
        if source == "self":
            value = selfs.get(keys[0], 0.0)
        elif source == "count":
            value = counts.get(keys[0], 0)
        elif source == "max":
            value = maxima.get(keys[0], 0)
        elif source == "rate":
            t = totals.get(keys[1], 0.0)
            value = counts.get(keys[0], 0) / t if t > 0 else 0.0
        elif source == "pct":
            value = percentile(recover_ms, keys[0])
        else:
            value = run_level[keys[0]]
        out[name] = {"value": value, "unit": layer_unit(name)}
    return out


def percentile(values: list, pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def calibrate() -> float:
    """A fixed numpy gather kernel, timed to diagnose host drift only;
    it never rescales a metric."""
    import numpy as np
    rng = np.random.default_rng(0)
    table = rng.integers(0, 1 << 16, size=1 << 16)
    idx = rng.integers(0, 1 << 16, size=1 << 20)
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        acc = table[idx]
        acc = table[acc & 0xFFFF] ^ acc
        int(acc.sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_record(run: Run, passes: int, calib: list) -> dict:
    import numpy as np
    return {"workload": run.workload, "seed": run.seed, "trace": int(run.trace),
            "seconds": run.seconds, "passes": passes,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(), "python": platform.python_version(),
            "numpy": np.__version__, "calibration_s": calib,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "jobs": run.jobs}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(workload, seed, seconds, trace)
    calib = [calibrate()]
    passes = []
    if trace:
        # per-layer metrics only; set-up is timed by untraced runs
        passes.append(one_pass(run, traced=False))
        traced = one_pass(run, traced=True)
    else:
        setups = measure_setup(run)
        t0 = time.monotonic()
        while True:
            passes.append(one_pass(run, traced=False))
            spent = time.monotonic() - t0
            per_pass = spent / len(passes)
            if spent + per_pass > seconds or per_pass * 1.5 > run.left_s():
                break
        setups += measure_setup(run)
    calib.append(calibrate())

    if trace:
        metrics = layer_metrics(run, passes[0], traced)
    else:
        med = {k: statistics.median(p[k] for p in passes)
               for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        med["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": med[k], "unit": u} for k, u in END_TO_END.items()}
    samples = len(passes)
    attempted = len(run.jobs)
    failed = sum(j["status"] == "failed" for j in run.jobs)
    refused = sum(j["status"] == "refused" for j in run.jobs)

    record = run_record(run, len(passes) + int(trace), calib)
    record.update({"failed_frac": failed / attempted, "refusals": refused,
                   "jobs_attempted": attempted})
    verify_all = [p["verify_all_s"] for p in passes if p.get("verify_all_s") is not None]
    if verify_all and not trace:
        record["verify_all_s"] = statistics.median(verify_all)
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    shutil.rmtree(run.dir, ignore_errors=True)

    for name, m in metrics.items():
        how = ("one traced pass" if trace else
               f"median of {len(setups) if name == 'setup_s' else samples}")
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']} ({how})")
    print(f"{workload} failed_frac = {record['failed_frac']:.6g} "
          f"({failed} of {attempted} jobs; {refused} refusals)")
    if "verify_all_s" in record:
        print(f"{workload} verify_all_s = {record['verify_all_s']:.6g} s "
              f"(median of {samples})")
    for job in (j for j in run.jobs if j["status"] == "failed"):
        print(f"{workload} FAILED {job['name']}: {'; '.join(job['problems'])}")
    print("record " + json.dumps({k: v for k, v in record.items()
                                  if k not in ("metrics", "jobs")}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20,
                    help="measure whole passes while another fits in this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qhcodes" / "__init__.py").is_file():
        print(f"perfbench: no qhcodes sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": m for n, r in results.items()
                              for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
