"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py SPEC.json

SPEC holds "mode" and its inputs:

- "setup": import qhcodes and build the listed varieties, nothing else.
- "library": build the listed varieties (set-up), then time the listed
  library calls and write what the checks need to "result".
- "cli": run ``qhcodes.cli.main(argv)`` and exit with its code.

With "trace" set to a path, the layers are wrapped from the outside,
spans go to that path as JSON lines and a per-layer summary to
"summary".  The untraced benchmark runs CLI commands through the plain
console entry point instead of this file.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def build_all(qh, builds) -> dict:
    return {tuple(b): qh.build_variety(*b) for b in builds}


LIBRARY_CALLS = ("hyperplane_spectrum", "line_spectrum", "cutting_blocking_check")


def call_library(qh, varieties, call):
    fn, kind, q, r = call
    if fn not in LIBRARY_CALLS:
        raise ValueError(f"unknown library call {fn!r}")
    return getattr(qh, fn)(varieties[(kind, q, r)])


def describe(qh, varieties, call, rep) -> dict:
    """Untimed: turn a call's result into what the checks compare."""
    fn, kind, q, r = call
    v = varieties[(kind, q, r)]
    if fn == "hyperplane_spectrum":
        try:
            pred = qh.predicted_spectrum(q, r, kind).as_dict()
        except qh.ParamsError:
            pred = None
        return {"counts": {str(s): c for s, c in rep.counts.items()}, "n": v.n,
                "Q": v.ctx.order, "r": r, "predicted": pred}
    if fn == "line_spectrum":
        allowed = qh.predicted_line_sizes(q) if kind == "twisted" else None
        return {"counts": {str(s): c for s, c in rep.counts.items()}, "n": v.n,
                "Q": v.ctx.order, "r": r,
                "allowed": None if allowed is None else list(allowed)}
    sizes = qh.hyperplane_spectrum(v).counts
    return {"ok": rep.ok, "checked": (rep.hyperplanes if rep.ok
                                      else rep.witness_index + 1),
            "sizes": [int(s) for s in sizes], "n": v.n, "Q": v.ctx.order, "r": r}


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    tracer = None
    t_main = [T0]
    if spec.get("trace"):
        import spans
        tracer = spans.Tracer()
        imp = tracer.begin("cli.import")
    import qhcodes as qh
    if spec["mode"] == "cli":
        import qhcodes.cli
    if tracer is not None:
        tracer.end(imp)
        spans.install(tracer, t_main)

    rc = 0
    t_done = [None]
    try:
        if spec["mode"] == "setup":
            build_all(qh, spec["builds"])
        elif spec["mode"] == "library":
            rc = run_library(qh, spec, tracer, t_done)
        elif spec["mode"] == "cli":
            t_main[0] = time.perf_counter()
            rc = qhcodes.cli.main(spec["argv"])
        else:
            raise ValueError(f"unknown mode {spec['mode']!r}")
    finally:
        if tracer is not None:
            wall = (t_done[0] or time.perf_counter()) - T0
            tracer.restore()
            tracer.write_jsonl(spec["trace"])
            with open(spec["summary"], "w") as fh:
                json.dump(tracer.summary(wall), fh)
    return rc


def run_library(qh, spec, tracer, t_done) -> int:
    varieties = build_all(qh, spec["builds"])
    t_setup = time.perf_counter()
    cpu0 = cpu_now()
    outs = []
    for call in spec["calls"]:
        try:
            outs.append((call_library(qh, varieties, call), None))
        except Exception:
            outs.append((None, traceback.format_exc()))
    t_end = t_done[0] = time.perf_counter()
    cpu1 = cpu_now()
    if tracer is not None:
        tracer.restore()
    results = []
    for call, (rep, error) in zip(spec["calls"], outs):
        if error is not None:
            results.append({"call": call, "error": error})
        else:
            results.append({"call": call, "data": describe(qh, varieties, call, rep)})
    with open(spec["result"], "w") as fh:
        json.dump({"setup_s": t_setup - T0, "wall_s": t_end - t_setup,
                   "cpu_s": cpu1 - cpu0, "results": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
