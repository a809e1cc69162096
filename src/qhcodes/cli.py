"""Batch command line front end.

Subcommand groups:

    variety build|spectrum|lines
    code weights|minimality|divisibility|dk
    sss access|deal|recover|democracy|develop|verify-example
    verify-all

Reports are JSON (default) or CSV, written to stdout or --out.  Every
payload carries "schema": 1 and the resolved run configuration (field
characteristic, extension degree and modulus, point-order version,
seed), and is byte-identical across reruns with the same configuration;
progress and timing lines go to stderr only.

Exit codes: 0 pass, 1 verification failure, 2 usage or configuration
error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .budget import BudgetError
from .code import (CodeError, code_from_variety, divisibility_report,
                   higher_weight, minimality_summary, weights_bruteforce,
                   weights_from_sections)
from .gf import FieldError, factor_prime_power, make_field
from .sss import (InconsistentSharesError, NotQualifiedError, Scheme,
                  SSSError, access_structure, deal, democracy_report,
                  develop, group_closure, load_fixture, profile_rows,
                  recover, verify_example)
from .variety import (BUILDERS_PLAIN, BUILDERS_WITH_PARAMS, ParamsError,
                      POINT_ORDER_VERSION, build_variety, cone_size,
                      hyperplane_spectrum, line_spectrum,
                      predicted_line_sizes, predicted_spectrum)
from . import verify as verify_mod

KINDS = tuple(sorted(BUILDERS_WITH_PARAMS) + sorted(BUILDERS_PLAIN))

PASS, FAIL = "PASS", "FAIL"


# ---------------------------------------------------------------------------
# payload plumbing

def _field_dict(q: int) -> dict:
    p, e = factor_prime_power(q)
    return make_field(p, 2 * e).serialize()


def run_config(args, variety=None) -> dict:
    """Resolved configuration echoed into every report."""
    cfg = {
        "format": args.format,
        "budget": getattr(args, "budget", None),
        "point_order": POINT_ORDER_VERSION,
        "seed": getattr(args, "seed", None),
    }
    for name in ("q", "r", "p0", "secret", "k", "divisor", "engine",
                 "fixture", "subset"):
        if hasattr(args, name):
            cfg[name] = getattr(args, name)
    if variety is not None:
        cfg["variety"] = variety.kind
        cfg["field"] = variety.ctx.serialize()
        pp = variety.params
        cfg["alpha"] = pp.alpha if pp is not None else None
        cfg["beta"] = pp.beta if pp is not None else None
    else:
        cfg["variety"] = getattr(args, "variety", None)
        cfg["field"] = _field_dict(args.q) if getattr(args, "q", None) else None
        cfg["alpha"] = getattr(args, "alpha", None)
        cfg["beta"] = getattr(args, "beta", None)
    return cfg


def _flatten_config(cfg: dict) -> list:
    out = []
    for key in sorted(cfg):
        val = cfg[key]
        if key == "field":
            if val is None:
                out.append(("field", ""))
            else:
                out.append(("field.p", val["p"]))
                out.append(("field.m", val["m"]))
                out.append(("field.modulus", " ".join(str(c) for c in val["modulus"])))
        elif isinstance(val, (list, tuple)):
            out.append((key, " ".join(str(x) for x in val)))
        else:
            out.append((key, "" if val is None else val))
    return out


def emit(args, command: str, config: dict, report: dict, verdict,
         csv_header=None, csv_rows=None) -> None:
    """Write the payload in the chosen format, stable byte for byte."""
    if args.format == "json":
        payload = {"schema": 1, "command": command, "config": config,
                   "report": report, "verdict": verdict}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        if csv_header is None:
            raise CodeError(f"no CSV layout for {command!r}")
        buf = io.StringIO()
        buf.write("# schema=1\n")
        buf.write(f"# command={command}\n")
        for key, val in _flatten_config(config):
            buf.write(f"# {key}={val}\n")
        buf.write(f"# verdict={'' if verdict is None else verdict}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# shared argument handling

def make_variety(args):
    if args.auto_params and (args.alpha is not None or args.beta is not None):
        raise ParamsError("--auto-params conflicts with explicit --alpha/--beta")
    if (args.alpha is None) != (args.beta is None):
        raise ParamsError("pass both --alpha and --beta, or neither")
    return build_variety(args.variety, args.q, args.r,
                         args.alpha, args.beta, args.budget)


def _predicted(kind: str, q: int, r: int):
    try:
        return predicted_spectrum(q, r, kind)
    except ParamsError:
        return None


def make_scheme(args) -> Scheme:
    return Scheme.from_variety(make_variety(args), args.p0)


# ---------------------------------------------------------------------------
# variety group

def cmd_variety_build(args) -> int:
    v = make_variety(args)
    pred = _predicted(v.kind, args.q, args.r)
    predicted_n = pred.N if pred is not None else (
        cone_size(args.r, args.q) if v.kind == "cone" else None)
    verdict = None if predicted_n is None else (
        PASS if v.n == predicted_n else FAIL)
    report = {"variety": v.meta(), "measured_n": v.n,
              "affine_points": v.affine_count(), "predicted_n": predicted_n}
    emit(args, "variety build", run_config(args, v), report, verdict,
         ["kind", "q", "r", "n", "affine_points", "predicted_n", "verdict"],
         [[v.kind, args.q, args.r, v.n, v.affine_count(),
           "" if predicted_n is None else predicted_n, verdict or ""]])
    return 0 if verdict != FAIL else 1


def cmd_variety_spectrum(args) -> int:
    v = make_variety(args)
    sp = hyperplane_spectrum(v, engine=args.engine, budget=args.budget)
    pred = _predicted(v.kind, args.q, args.r)
    support_match = counts_match = None
    if pred is not None:
        support_match = sp.support == pred.sizes
        if pred.counts is not None:
            counts_match = dict(sp.counts) == dict(pred.counts)
    verdict = None
    if support_match is not None:
        verdict = PASS if support_match and counts_match in (None, True) else FAIL
    report = sp.as_dict()
    report["predicted"] = pred.as_dict() if pred is not None else None
    report["support_match"] = support_match
    report["counts_match"] = counts_match
    emit(args, "variety spectrum", run_config(args, v), report, verdict,
         ["size", "count"],
         [[s, c] for s, c in sorted(sp.counts.items())])
    return 0 if verdict != FAIL else 1


def cmd_variety_lines(args) -> int:
    v = make_variety(args)
    sp = line_spectrum(v, budget=args.budget)
    allowed = predicted_line_sizes(args.q) if v.kind == "twisted" else None
    verdict = None
    extraneous = []
    if allowed is not None:
        extraneous = sorted(set(sp.support) - set(allowed))
        verdict = PASS if not extraneous else FAIL
    report = sp.as_dict()
    report["allowed_sizes"] = None if allowed is None else list(allowed)
    report["extraneous_sizes"] = extraneous
    emit(args, "variety lines", run_config(args, v), report, verdict,
         ["size", "count"],
         [[s, c] for s, c in sorted(sp.counts.items())])
    return 0 if verdict != FAIL else 1


# ---------------------------------------------------------------------------
# code group

def cmd_code_weights(args) -> int:
    v = make_variety(args)
    dist = weights_from_sections(v, engine=args.engine, budget=args.budget)
    verdict = None
    cross = None
    if args.cross_check:
        bf = weights_bruteforce(code_from_variety(v), args.budget)
        cross = {"source": bf.source, "match": bf.weights == dist.weights}
        verdict = PASS if cross["match"] else FAIL
    report = {"variety": v.meta(), "distribution": dist.as_dict(),
              "d_min": dist.w_min, "cross_check": cross}
    emit(args, "code weights", run_config(args, v), report, verdict,
         ["weight", "count"],
         [[w, c] for w, c in sorted(dist.weights.items())])
    return 0 if verdict != FAIL else 1


def cmd_code_minimality(args) -> int:
    v = make_variety(args)
    summary = minimality_summary(v, engine=args.engine, budget=args.budget)
    ab_ok = summary["ab"]["passes"]
    cut_ok = summary["cutting"]["ok"]
    agree = summary.get("agree")
    # AB is sufficient, so AB pass with a cutting failure is a real bug
    consistent = ((not ab_ok) or cut_ok) and agree is not False
    verdict = PASS if consistent else FAIL
    summary["minimal"] = cut_ok
    rows = [["ab", ab_ok], ["cutting", cut_ok]]
    bf = summary.get("bruteforce")
    if bf is not None:
        rows.append(["bruteforce", bf.get("ok", bf.get("status"))])
        if "status" in bf:
            _status(f"brute-force cross-check skipped: {bf['reason']}")
    rows.append(["minimal", cut_ok])
    emit(args, "code minimality", run_config(args, v), summary, verdict,
         ["criterion", "result"], rows)
    if not cut_ok:
        wit = summary["cutting"]
        _status(f"not minimal: hyperplane {wit['witness_coords']} section has "
                f"rank {wit['witness_rank']}")
    return 0 if verdict == PASS else 1


def cmd_code_divisibility(args) -> int:
    v = make_variety(args)
    dist = weights_from_sections(v, engine=args.engine, budget=args.budget)
    divisor = args.divisor if args.divisor is not None else args.q
    rep = divisibility_report(dist, divisor)
    report = {"variety": v.meta(), "divisibility": rep.as_dict(),
              "weights": dist.as_dict()["weights"]}
    emit(args, "code divisibility", run_config(args, v), report, None,
         ["weight", "count", "divisible"],
         [[w, c, w % divisor == 0] for w, c in sorted(dist.weights.items())])
    return 0


def cmd_code_dk(args) -> int:
    v = make_variety(args)
    rep = higher_weight(v, args.k, engine=args.engine, budget=args.budget)
    report = {"variety": v.meta(), "higher_weight": rep.as_dict()}
    emit(args, "code dk", run_config(args, v), report, None,
         ["k", "d", "max_section", "subspaces"],
         [[rep.k, rep.d, rep.max_section, rep.subspaces]])
    return 0


# ---------------------------------------------------------------------------
# sss group

def _set_rows(sets):
    """CSV rows of access sets, from the sorted sets of the payload,
    made only if the CSV is written."""
    return ([i, len(s), " ".join(str(x) for x in s)] for i, s in enumerate(sets))


def cmd_sss_access(args) -> int:
    v = make_variety(args)
    report = access_structure(v, args.p0, args.budget).as_dict()
    emit(args, "sss access", run_config(args, v), report, None,
         ["set_index", "size", "members"], _set_rows(report["sets"]))
    return 0


def cmd_sss_deal(args) -> int:
    scheme = make_scheme(args)
    rep = deal(scheme, args.secret, args.seed)
    report = {"scheme": scheme.meta(), **rep.as_dict()}
    emit(args, "sss deal", run_config(args, scheme.variety), report, None,
         ["participant", "value"],
         [[i, rep.shares[i]] for i in sorted(rep.shares)])
    return 0


def _json_int(x) -> int:
    """A JSON integer; int() would truncate 1.5 and read true as 1."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{x!r} is not an integer")
    return x


def _load_shares(path: str) -> dict:
    """Share table from a deal payload or a bare mapping."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise SSSError(f"shares file {path!r} is not valid JSON: {e}") from None
    node = doc
    if isinstance(node, dict) and "report" in node:
        node = node["report"]
    if isinstance(node, dict) and "shares" in node:
        node = node["shares"]
    try:
        if isinstance(node, list):
            return {_json_int(e["participant"]): _json_int(e["value"])
                    for e in node}
        if isinstance(node, dict):
            # JSON object keys are strings
            return {int(i): _json_int(v) for i, v in node.items()}
    except (KeyError, TypeError, ValueError):
        raise SSSError(f"malformed share table in {path!r}") from None
    raise SSSError(f"no share table found in {path!r}")


def cmd_sss_recover(args) -> int:
    scheme = make_scheme(args)
    shares = _load_shares(args.shares)
    subset = args.subset if args.subset else sorted(shares)
    config = run_config(args, scheme.variety)
    config["subset"] = list(subset)
    try:
        secret = recover(scheme, subset, shares)
        status, detail, rc = "RECOVERED", "", 0
    except NotQualifiedError as e:
        secret, status, detail, rc = None, "NOT_QUALIFIED", str(e), 1
    except InconsistentSharesError as e:
        secret, status, detail, rc = None, "INCONSISTENT_SHARES", str(e), 1
    report = {"scheme": scheme.meta(), "subset": list(subset),
              "status": status, "secret": secret, "detail": detail}
    verdict = PASS if rc == 0 else FAIL
    emit(args, "sss recover", config, report, verdict,
         ["status", "secret", "detail"],
         [[status, "" if secret is None else secret, detail]])
    return rc


def cmd_sss_democracy(args) -> int:
    v = make_variety(args)
    acc = access_structure(v, args.p0, args.budget)
    rep = democracy_report(acc)
    report = {"access": {"provenance": acc.provenance,
                         "count": acc.count,
                         "size_profile": profile_rows(acc.size_profile())},
              "democracy": rep.as_dict()}
    rows = [[p, c] for p, c in sorted(rep.per_participant.items())]
    emit(args, "sss democracy", run_config(args, v), report, None,
         ["participant", "memberships"], rows)
    return 0


def cmd_sss_develop(args) -> int:
    fx = load_fixture(args.fixture)
    group = group_closure(fx.generator_cycles, fx.degree, args.budget)
    acc = develop(fx.starters, group, args.budget)
    report = {"fixture": args.fixture, "degree": fx.degree,
              "group_order": group.order, **acc.as_dict()}
    emit(args, "sss develop", run_config(args), report, None,
         ["set_index", "size", "members"], _set_rows(report["sets"]))
    return 0


def cmd_sss_verify_example(args) -> int:
    facts = verify_example(args.budget)
    checks = verify_mod.example_checks(facts)
    verdict = PASS if all(checks.values()) else FAIL
    facts_out = dict(facts)
    facts_out["size_profile"] = profile_rows(facts["size_profile"])
    report = {"facts": facts_out, "checks": checks}
    emit(args, "sss verify-example", run_config(args), report, verdict,
         ["check", "ok"], [[name, ok] for name, ok in sorted(checks.items())])
    return 0 if verdict == PASS else 1


# ---------------------------------------------------------------------------
# acceptance suite

def cmd_verify_all(args) -> int:
    if args.corrupt_modulus:
        res = verify_mod.negative_control_corrupt_modulus()
        _status(f"{res.cid} {res.status} ({res.elapsed:.1f}s) {res.name}: {res.detail}")
        verdict = PASS if res.status == "PASS" else FAIL
        emit(args, "verify-all", run_config(args),
             {"criteria": [res.as_dict()]}, verdict,
             ["id", "status", "name", "detail"],
             [[res.cid, res.status, res.name, res.detail]])
        return 0 if verdict == PASS else 1
    results = verify_mod.run_all(budget=args.budget)
    for res in results:
        _status(f"{res.cid} {res.status} ({res.elapsed:.1f}s) {res.name}: {res.detail}")
    statuses = [res.status for res in results]
    verdict = FAIL if FAIL in statuses else ("SKIP" if "SKIP" in statuses else PASS)
    report = {"criteria": [res.as_dict() for res in results],
              "n_pass": statuses.count(PASS),
              "n_fail": statuses.count(FAIL),
              "n_skip": statuses.count("SKIP")}
    emit(args, "verify-all", run_config(args), report, verdict,
         ["id", "status", "name", "detail"],
         [[res.cid, res.status, res.name, res.detail] for res in results])
    if verdict == FAIL:
        return 1
    if verdict == "SKIP":
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser

def _subset_arg(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad participant list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json",
                     help="report format (default json)")
    fmt.add_argument("--out", metavar="FILE", help="write the report here")
    fmt.add_argument("--budget", type=int, default=None, metavar="N",
                     help="work cap; 0 refuses everything nontrivial")

    var = argparse.ArgumentParser(add_help=False)
    var.add_argument("--q", type=int, required=True, help="base field size")
    var.add_argument("--r", type=int, required=True,
                     help="projective dimension over GF(q^2)")
    var.add_argument("--variety", choices=KINDS, default="twisted",
                     help="point set to build (default twisted)")
    var.add_argument("--alpha", type=int, default=None, metavar="ENC",
                     help="alpha as an integer field encoding")
    var.add_argument("--beta", type=int, default=None, metavar="ENC",
                     help="beta as an integer field encoding")
    var.add_argument("--auto-params", action="store_true",
                     help="first valid (alpha, beta) in encoding order")

    eng = argparse.ArgumentParser(add_help=False)
    eng.add_argument("--engine", choices=("auto", "direct", "wht"),
                     default="auto",
                     help="spectrum engine: wht, the exact p-ary "
                          "Walsh-Hadamard transform for every characteristic, "
                          "or direct evaluation, its reference; auto runs wht "
                          "(default auto)")

    p0p = argparse.ArgumentParser(add_help=False)
    p0p.add_argument("--p0", type=int, default=0, metavar="I",
                     help="index of the secret point (default 0)")

    top = argparse.ArgumentParser(
        prog="qhcodes",
        description="Point sets over GF(q^2), their intersection spectra, "
                    "the codes they span, and secret sharing on top.")
    groups = top.add_subparsers(dest="group", required=True, metavar="GROUP")

    pv = groups.add_parser("variety", help="build point sets and spectra")
    pv_sub = pv.add_subparsers(dest="action", required=True, metavar="ACTION")
    sp = pv_sub.add_parser("build", parents=[var, fmt],
                           help="point counts against the closed forms")
    sp.set_defaults(func=cmd_variety_build)
    sp = pv_sub.add_parser("spectrum", parents=[var, eng, fmt],
                           help="hyperplane intersection spectrum")
    sp.set_defaults(func=cmd_variety_spectrum)
    sp = pv_sub.add_parser("lines", parents=[var, fmt],
                           help="line intersection spectrum")
    sp.set_defaults(func=cmd_variety_lines)

    pc = groups.add_parser("code", help="projective code reports")
    pc_sub = pc.add_subparsers(dest="action", required=True, metavar="ACTION")
    sp = pc_sub.add_parser("weights", parents=[var, eng, fmt],
                           help="weight distribution")
    sp.add_argument("--cross-check", action="store_true",
                    help="confirm by full codeword enumeration")
    sp.set_defaults(func=cmd_code_weights)
    sp = pc_sub.add_parser("minimality", parents=[var, eng, fmt],
                           help="all applicable minimality criteria")
    sp.set_defaults(func=cmd_code_minimality)
    sp = pc_sub.add_parser("divisibility", parents=[var, eng, fmt],
                           help="weight divisibility")
    sp.add_argument("--divisor", type=int, default=None,
                    help="candidate divisor (default q)")
    sp.set_defaults(func=cmd_code_divisibility)
    sp = pc_sub.add_parser("dk", parents=[var, eng, fmt],
                           help="generalized Hamming weight d_k")
    sp.add_argument("--k", type=int, required=True, help="which d_k")
    sp.set_defaults(func=cmd_code_dk)

    ps = groups.add_parser("sss", help="secret sharing on the dual code")
    ps_sub = ps.add_subparsers(dest="action", required=True, metavar="ACTION")
    sp = ps_sub.add_parser("access", parents=[var, p0p, fmt],
                           help="minimal access sets")
    sp.set_defaults(func=cmd_sss_access)
    sp = ps_sub.add_parser("deal", parents=[var, p0p, fmt],
                           help="deal shares for a secret")
    sp.add_argument("--secret", type=int, required=True,
                    help="secret as an integer field encoding")
    sp.add_argument("--seed", type=int, default=0, help="dealing seed")
    sp.set_defaults(func=cmd_sss_deal)
    sp = ps_sub.add_parser("recover", parents=[var, p0p, fmt],
                           help="recover the secret from shares")
    sp.add_argument("--subset", type=_subset_arg, default=(),
                    metavar="I,J,...", help="participants (default: all in the file)")
    sp.add_argument("--shares", required=True, metavar="FILE",
                    help="JSON share table or deal payload; - for stdin")
    sp.set_defaults(func=cmd_sss_recover)
    sp = ps_sub.add_parser("democracy", parents=[var, p0p, fmt],
                           help="per-participant membership counts")
    sp.set_defaults(func=cmd_sss_democracy)
    sp = ps_sub.add_parser("develop", parents=[fmt],
                           help="orbit of starter sets under a permutation group")
    sp.add_argument("--fixture", default="hermitian_surface_q2",
                    help="packaged fixture name")
    sp.set_defaults(func=cmd_sss_develop)
    sp = ps_sub.add_parser("verify-example", parents=[fmt],
                           help="label-free checks on the packaged fixture")
    sp.set_defaults(func=cmd_sss_verify_example)

    sp = groups.add_parser("verify-all", parents=[fmt],
                           help="run the full acceptance suite")
    sp.add_argument("--corrupt-modulus", action="store_true",
                    help="negative control: run only the bad-modulus check")
    sp.set_defaults(func=cmd_verify_all)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except ParamsError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        if e.report is not None:
            for cl in e.report.failures():
                print(f"  clause {cl.name}: {cl.detail}", file=sys.stderr)
        return 2
    except (FieldError, CodeError, SSSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
