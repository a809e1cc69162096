"""Outside-in tracing of qhcodes' layers.

A Tracer keeps every span (name, start, end, parent) in memory until
the job ends.  install() wraps public functions of each layer from the
outside: the modules bind names with ``from .x import y``, so a wrapper
replaces the function in every ``qhcodes.*`` namespace (and module-level
dispatch dict) that holds it, and restore() puts the originals back.

Layer metrics are self times (span time minus child spans) and exact
counts; byte figures are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, attrs]
        self.stack = []        # indices of open spans
        self.counters = {}
        self.maxima = {}
        self._restore = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = attrs
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- wrapping ---------------------------------------------------------

    def spanned(self, name, fn, after=None):
        """fn inside a span; after(args, kwargs, result) counts, outside it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(idx, {"error": type(exc).__name__})
                raise
            self.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def patch(self, module: str, attr: str, make_wrapper) -> None:
        """Wrap module.attr everywhere; a layer the job never imported
        (verify and cli for library jobs) is left alone."""
        if module not in sys.modules:
            return
        orig = getattr(sys.modules[module], attr)
        wrapper = make_wrapper(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qhcodes" or name.startswith("qhcodes.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((vars(mod), key, orig))
                elif type(val) is dict:
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            val[k2] = wrapper
                            self._restore.append((val, k2, orig))

    def restore(self) -> None:
        for container, key, orig in reversed(self._restore):
            container[key] = orig
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": t0, "end": t1,
                       "parent": parent if parent >= 0 else None}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")

    def summary(self, wall_s: float) -> dict:
        """Self time per span name, counts, and the coverage identity:
        sum of self times equals the time covered by root spans, and
        covered plus unspanned time equals the job's wall time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = {}
        durations = {}
        covered = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            durations.setdefault(name, []).append(t1 - t0)
            if parent < 0:
                covered += t1 - t0
        return {"self_s": self_s,
                "total_s": {k: sum(v) for k, v in durations.items()},
                "counters": dict(self.counters),
                "maxima": dict(self.maxima),
                "recover_ms": [d * 1e3 for d in durations.get("sss.recover", [])],
                "covered_s": covered, "self_sum_s": sum(self_s.values()),
                "wall_s": wall_s, "spans": len(self.spans)}


def install(tr: Tracer, t_main: list) -> None:
    """Wrap the layers of an imported qhcodes.  t_main[0] holds the
    start of the job's work, for the time spent before a refusal."""
    from qhcodes.budget import BudgetError
    from qhcodes.sss import NotQualifiedError

    def plain(name, after=None):
        return lambda fn: tr.spanned(name, fn, after)

    def counted(name):
        """Count calls without a span; the time stays with the caller."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tr.count(name)
                return fn(*args, **kwargs)
            return wrapper
        return make

    # gf
    tr.patch("qhcodes.gf", "make_field",
             plain("gf.make_field", lambda a, k, r: tr.count("gf.make_field.calls")))

    # geom
    def pg_space(fn):
        def after(args, kwargs, space):
            if fn.cache_info().misses != seen[0]:
                seen[0] = fn.cache_info().misses
                tr.count("geom.points", space.n_points)
        seen = [fn.cache_info().misses]
        return tr.spanned("geom.pg_space", fn, after)
    tr.patch("qhcodes.geom", "pg_space", pg_space)
    tr.patch("qhcodes.geom", "dot_rows",
             plain("geom.dot_rows", lambda a, k, r: tr.count("geom.dot_rows.calls")))

    def row_reduce_after(args, kwargs, result):
        tr.count("geom.row_reduce.calls")
        if tr.inside("code.cutting"):
            tr.count("code.cutting.rank_calls")
    tr.patch("qhcodes.geom", "row_reduce", plain("geom.row_reduce", row_reduce_after))

    def rref_bases(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for basis in fn(*args, **kwargs):
                tr.count("geom.subspaces")
                yield basis
        return wrapper
    tr.patch("qhcodes.geom", "rref_bases", rref_bases)
    tr.patch("qhcodes.geom", "subspace_points", plain("geom.subspace_points"))

    # variety
    tr.patch("qhcodes.variety", "default_params", plain("variety.default_params"))
    tr.patch("qhcodes.variety", "validate_params", counted("variety.validate_params.calls"))
    for builder in ("build_variety", "build_twisted", "build_hermitian",
                    "build_quasi_hermitian", "build_cone", "build_twisted_at_infinity"):
        tr.patch("qhcodes.variety", builder, plain("variety.build"))

    def direct_after(args, kwargs, sizes):
        tr.count("variety.sizes.direct.incidences", len(sizes) * len(args[2]))
    tr.patch("qhcodes.variety", "_sizes_direct", plain("variety.sizes.direct", direct_after))

    def wht_after(args, kwargs, sizes):
        ctx, space = args[0], args[1]
        # the transform's array holds Q^(r+1) int64 entries
        tr.peak("variety.sizes.wht.array_bytes", 8 * ctx.order ** (space.r + 1))
    tr.patch("qhcodes.variety", "_sizes_wht", plain("variety.sizes.wht", wht_after))

    def section_sizes(fn):
        @functools.wraps(fn)
        def wrapper(v, *args, **kwargs):
            if v._hyp_sizes is not None:
                tr.count("variety.sizes.cache_hits")
            return fn(v, *args, **kwargs)
        return wrapper
    tr.patch("qhcodes.variety", "hyperplane_section_sizes", section_sizes)
    tr.patch("qhcodes.variety", "line_section_sizes",
             plain("variety.lines",
                   lambda a, k, sizes: tr.count("variety.lines.count", len(sizes))))

    # code
    def cutting_after(args, kwargs, rep):
        done = rep.hyperplanes if rep.ok else rep.witness_index + 1
        tr.count("code.cutting.hyperplanes", done)
    tr.patch("qhcodes.code", "cutting_blocking_check", plain("code.cutting", cutting_after))

    def words(args, kwargs, result):
        code = args[0]
        tr.count("code.bruteforce.words", code.ctx.order ** code.k)
        if hasattr(result, "classes"):
            tr.count("code.bruteforce.pairs", result.classes * (result.classes - 1) // 2)
    for fn in ("weights_bruteforce", "minimality_bruteforce"):
        tr.patch("qhcodes.code", fn, plain("code.bruteforce", words))
    tr.patch("qhcodes.code", "higher_weight",
             plain("code.dk", lambda a, k, rep: tr.count("code.dk.subspaces", rep.subspaces)))

    # sss
    def recover(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.count("sss.recover.calls")
            try:
                return fn(*args, **kwargs)
            except NotQualifiedError:
                tr.count("sss.recover.not_qualified")
                raise
        return tr.spanned("sss.recover", wrapper)
    tr.patch("qhcodes.sss", "recover", recover)

    def messages(args, kwargs, rep):
        scheme = args[0]
        tr.count("sss.perfectness.messages", scheme.q ** scheme.k)
    tr.patch("qhcodes.sss", "perfectness_check", plain("sss.perfectness", messages))
    tr.patch("qhcodes.sss", "access_structure", plain("sss.access"))
    tr.patch("qhcodes.sss", "develop", plain("sss.develop"))

    # verify: run_all takes its checks as a default argument, so wrap
    # them on the way in
    def run_all(fn):
        import qhcodes.verify as verify_mod

        @functools.wraps(fn)
        def wrapper(budget=None, parallel=1, checks=None):
            checks = verify_mod.ALL_CHECKS if checks is None else checks
            wrapped = tuple(
                tr.spanned("verify.check_" + c.__name__.split("_")[1], c)
                for c in checks)
            return fn(budget=budget, parallel=parallel, checks=wrapped)
        return wrapper
    tr.patch("qhcodes.verify", "run_all", run_all)

    # cli: the payload goes to stdout (a file the runner owns) or --out
    def emit(fn):
        @functools.wraps(fn)
        def wrapper(args, *rest, **kwargs):
            sys.stdout.flush()
            before = os.fstat(sys.stdout.fileno()).st_size
            result = fn(args, *rest, **kwargs)
            sys.stdout.flush()
            written = os.fstat(sys.stdout.fileno()).st_size - before
            if args.out:
                written += os.path.getsize(args.out)
            tr.count("cli.payload_bytes", written)
            return result
        return tr.spanned("cli.emit", wrapper)
    tr.patch("qhcodes.cli", "emit", emit)

    # budget
    def check_budget(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.count("budget.checks")
            try:
                return fn(*args, **kwargs)
            except BudgetError:
                tr.count("budget.refusals")
                tr.count("budget.s_before_refusal", time.perf_counter() - t_main[0])
                raise
        return wrapper
    tr.patch("qhcodes.budget", "check_budget", check_budget)
