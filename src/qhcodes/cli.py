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

Every handler cmd_<group>_<action> takes the parsed arguments and the
variety that --q/--r name (None for the commands without them), and
returns (report, verdict, csv_header, csv_rows).  `main` alone builds
that variety, echoes the configuration, writes the payload under the
command name "<group> <action>" and turns the verdict into the exit
code.

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
from .code import (CodeError, LinearCode, divisibility_report, higher_weight,
                   minimality_summary, weights_bruteforce, weights_from_sections)
from .gf import FieldError
from .sss import (InconsistentSharesError, NotQualifiedError, Scheme,
                  SSSError, access_structure, deal, democracy_report,
                  develop, group_closure, load_fixture, recover,
                  verify_example)
from .variety import (BUILDERS_PLAIN, BUILDERS_WITH_PARAMS, ParamsError,
                      POINT_ORDER_VERSION, build_variety, cone_size,
                      count_rows, hyperplane_spectrum, line_spectrum,
                      predicted_line_sizes, predicted_spectrum)
from . import verify as verify_mod

KINDS = tuple(sorted(BUILDERS_WITH_PARAMS) + sorted(BUILDERS_PLAIN))

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


# ---------------------------------------------------------------------------
# payload plumbing

def run_config(args, v) -> dict:
    """Resolved configuration echoed into every report; v is the
    command's variety or None."""
    cfg = {
        "format": args.format,
        "budget": getattr(args, "budget", None),
        "point_order": POINT_ORDER_VERSION,
        "seed": getattr(args, "seed", None),
    }
    for name in ("q", "r", "p0", "secret", "k", "divisor", "fixture", "subset"):
        if hasattr(args, name):
            cfg[name] = getattr(args, name)
    pp = getattr(v, "params", None)
    cfg["variety"] = getattr(v, "kind", None)
    cfg["field"] = None if v is None else v.ctx.serialize()
    cfg["alpha"] = getattr(pp, "alpha", None)
    cfg["beta"] = getattr(pp, "beta", None)
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
         csv_header=None, csv_rows=None) -> int:
    """Write the payload in the chosen format, stable byte for byte, and
    return the command's exit code: 1 for a FAIL verdict, else 0."""
    if args.format == "json":
        payload = {"schema": 1, "command": command, "config": config,
                   "report": report, "verdict": verdict}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
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
    return 1 if verdict == FAIL else 0


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


def _csv_rows(entries) -> list:
    """CSV rows of a payload table of count_rows entries, one column
    per key."""
    return [list(e.values()) for e in entries]


# ---------------------------------------------------------------------------
# shared argument handling

def make_variety(args):
    if (args.alpha is None) != (args.beta is None):
        raise ParamsError("pass both --alpha and --beta, or neither")
    return build_variety(args.variety, args.q, args.r,
                         args.alpha, args.beta, args.budget)


def _predicted(kind: str, q: int, r: int):
    try:
        return predicted_spectrum(q, r, kind)
    except ParamsError:
        return None


# ---------------------------------------------------------------------------
# variety group

def cmd_variety_build(args, v) -> tuple:
    pred = _predicted(v.kind, args.q, args.r)
    predicted_n = pred.N if pred is not None else (
        cone_size(args.r, args.q) if v.kind == "cone" else None)
    verdict = None if predicted_n is None else (
        PASS if v.n == predicted_n else FAIL)
    report = {"variety": v.meta(), "measured_n": v.n,
              "affine_points": v.affine_count(), "predicted_n": predicted_n}
    return (report, verdict,
            ["kind", "q", "r", "n", "affine_points", "predicted_n", "verdict"],
            [[v.kind, args.q, args.r, v.n, v.affine_count(),
              "" if predicted_n is None else predicted_n, verdict or ""]])


def cmd_variety_spectrum(args, v) -> tuple:
    sp = hyperplane_spectrum(v, budget=args.budget)
    pred = _predicted(v.kind, args.q, args.r)
    support_match = counts_match = verdict = None
    if pred is not None:
        support_match = sp.support == pred.sizes
        counts_match = sp.counts == pred.counts
        verdict = PASS if counts_match else FAIL
    report = sp.as_dict()
    report["predicted"] = pred.as_dict() if pred is not None else None
    report["support_match"] = support_match
    report["counts_match"] = counts_match
    return report, verdict, ["size", "count"], _csv_rows(report["spectrum"])


def cmd_variety_lines(args, v) -> tuple:
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
    return report, verdict, ["size", "count"], _csv_rows(report["spectrum"])


# ---------------------------------------------------------------------------
# code group

def cmd_code_weights(args, v) -> tuple:
    dist = weights_from_sections(v, budget=args.budget)
    verdict = None
    cross = None
    if args.cross_check:
        # weights_from_sections has read spanning already
        bf = weights_bruteforce(LinearCode(v.ctx, v.space.rows(v.indices)), args.budget)
        cross = {"source": bf.source, "match": bf.weights == dist.weights}
        verdict = PASS if cross["match"] else FAIL
    report = {"variety": v.meta(), "distribution": dist.as_dict(),
              "d_min": dist.w_min, "cross_check": cross}
    return (report, verdict, ["weight", "count"],
            _csv_rows(report["distribution"]["weights"]))


def cmd_code_minimality(args, v) -> tuple:
    summary = minimality_summary(v, budget=args.budget)
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
    if not cut_ok:
        wit = summary["cutting"]
        _status(f"not minimal: hyperplane {wit['witness_coords']} section has "
                f"rank {wit['witness_rank']}")
    return summary, verdict, ["criterion", "result"], rows


def cmd_code_divisibility(args, v) -> tuple:
    dist = weights_from_sections(v, budget=args.budget)
    divisor = args.divisor if args.divisor is not None else args.q
    rep = divisibility_report(dist, divisor)
    report = {"variety": v.meta(), "divisibility": rep.as_dict(),
              "weights": dist.as_dict()["weights"]}
    return (report, None, ["weight", "count", "divisible"],
            [[e["w"], e["count"], e["w"] % divisor == 0] for e in report["weights"]])


def cmd_code_dk(args, v) -> tuple:
    rep = higher_weight(v, args.k, budget=args.budget)
    report = {"variety": v.meta(), "higher_weight": rep.as_dict()}
    return (report, None, ["k", "d", "max_section", "subspaces"],
            [[rep.k, rep.d, rep.max_section, rep.subspaces]])


# ---------------------------------------------------------------------------
# sss group

def _set_rows(sets):
    """CSV rows of access sets, from the sorted sets of the payload,
    made only if the CSV is written."""
    return ([i, len(s), " ".join(str(x) for x in s)] for i, s in enumerate(sets))


def cmd_sss_access(args, v) -> tuple:
    report = access_structure(v, args.p0, args.budget).as_dict()
    return report, None, ["set_index", "size", "members"], _set_rows(report["sets"])


def cmd_sss_deal(args, v) -> tuple:
    scheme = Scheme.from_variety(v, args.p0)
    rep = deal(scheme, args.secret, args.seed)
    report = {"scheme": scheme.meta(), **rep.as_dict()}
    return report, None, ["participant", "value"], _csv_rows(report["shares"])


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


def cmd_sss_recover(args, v) -> tuple:
    scheme = Scheme.from_variety(v, args.p0)
    shares = _load_shares(args.shares)
    # the resolved subset, which the configuration echoes
    args.subset = list(args.subset or sorted(shares))
    try:
        secret = recover(scheme, args.subset, shares)
        status, detail, verdict = "RECOVERED", "", PASS
    except NotQualifiedError as e:
        secret, status, detail, verdict = None, "NOT_QUALIFIED", str(e), FAIL
    except InconsistentSharesError as e:
        secret, status, detail, verdict = None, "INCONSISTENT_SHARES", str(e), FAIL
    report = {"scheme": scheme.meta(), "subset": args.subset,
              "status": status, "secret": secret, "detail": detail}
    return (report, verdict, ["status", "secret", "detail"],
            [[status, "" if secret is None else secret, detail]])


def cmd_sss_democracy(args, v) -> tuple:
    acc = access_structure(v, args.p0, args.budget)
    rep = democracy_report(acc)
    report = {"access": {"provenance": acc.provenance,
                         "count": acc.count,
                         "size_profile": count_rows(acc.size_profile(), "size", "count")},
              "democracy": rep.as_dict()}
    return (report, None, ["participant", "memberships"],
            _csv_rows(count_rows(rep.per_participant, "participant", "memberships")))


def cmd_sss_develop(args, v) -> tuple:
    fx = load_fixture(args.fixture)
    group = group_closure(fx.generator_cycles, fx.degree, args.budget)
    acc = develop(fx.starters, group, args.budget)
    report = {"fixture": args.fixture, "degree": fx.degree,
              "group_order": group.order, **acc.as_dict()}
    return report, None, ["set_index", "size", "members"], _set_rows(report["sets"])


def cmd_sss_verify_example(args, v) -> tuple:
    facts = verify_example(args.budget)
    checks = verify_mod.example_checks(facts)
    verdict = PASS if all(checks.values()) else FAIL
    facts_out = dict(facts)
    facts_out["size_profile"] = count_rows(facts["size_profile"], "size", "count")
    report = {"facts": facts_out, "checks": checks}
    return report, verdict, ["check", "ok"], sorted(checks.items())


# ---------------------------------------------------------------------------
# acceptance suite

def cmd_verify_all(args, v) -> tuple:
    if args.corrupt_modulus:
        results = [verify_mod.negative_control_corrupt_modulus()]
    else:
        results = verify_mod.run_all(budget=args.budget)
    for res in results:
        _status(f"{res.cid} {res.status} ({res.elapsed:.1f}s) {res.name}: {res.detail}")
    statuses = [res.status for res in results]
    verdict = FAIL if FAIL in statuses else (SKIP if SKIP in statuses else PASS)
    report = {"criteria": [res.as_dict() for res in results],
              "n_pass": statuses.count(PASS), "n_fail": statuses.count(FAIL),
              "n_skip": statuses.count(SKIP)}
    return (report, verdict, ["id", "status", "name", "detail"],
            [[res.cid, res.status, res.name, res.detail] for res in results])


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
    sp = pv_sub.add_parser("spectrum", parents=[var, fmt],
                           help="hyperplane intersection spectrum")
    sp.set_defaults(func=cmd_variety_spectrum)
    sp = pv_sub.add_parser("lines", parents=[var, fmt],
                           help="line intersection spectrum")
    sp.set_defaults(func=cmd_variety_lines)

    pc = groups.add_parser("code", help="projective code reports")
    pc_sub = pc.add_subparsers(dest="action", required=True, metavar="ACTION")
    sp = pc_sub.add_parser("weights", parents=[var, fmt],
                           help="weight distribution")
    sp.add_argument("--cross-check", action="store_true",
                    help="confirm by full codeword enumeration")
    sp.set_defaults(func=cmd_code_weights)
    sp = pc_sub.add_parser("minimality", parents=[var, fmt],
                           help="all applicable minimality criteria")
    sp.set_defaults(func=cmd_code_minimality)
    sp = pc_sub.add_parser("divisibility", parents=[var, fmt],
                           help="weight divisibility")
    sp.add_argument("--divisor", type=int, default=None,
                    help="candidate divisor (default q)")
    sp.set_defaults(func=cmd_code_divisibility)
    sp = pc_sub.add_parser("dk", parents=[var, fmt],
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
    command = " ".join(filter(None, (args.group, getattr(args, "action", None))))
    try:
        v = make_variety(args) if hasattr(args, "q") else None
        report, verdict, csv_header, csv_rows = args.func(args, v)
        rc = emit(args, command, run_config(args, v), report, verdict,
                  csv_header, csv_rows)
        return 3 if verdict == SKIP else rc
    except BudgetError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except ParamsError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        if e.report is not None:
            for cl in e.report.failures():
                print(f"  clause {cl.name}: {cl.detail}", file=sys.stderr)
        return 2
    except (FieldError, CodeError, SSSError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
