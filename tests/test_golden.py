"""Byte-for-byte stability of the README command payloads.

Each file under tests/golden/ is the stdout of one command, captured
once from a known-good build and never regenerated: a refactor must
reproduce it exactly.  They were edited once, by hand, when the
`--parallel` option went: each lost its `"parallel": 1,` config line
and nothing else.  They were edited a second time when the `--engine`
option went: the seven that echoed it lost their `"engine": "auto",`
config line and nothing else.  They were edited a third time when the
SKIP rows of verify-all took each check's own name: six `"name"` lines
of verify_all_budget0, in its .json and its .csv, and nothing else.
variety_spectrum_hermitian_61 was captured from the
direct engine and its one `"engine": "direct"` line edited to `"wht"`
by hand, so it pins that the transform reproduces direct evaluation's
bytes.  variety_lines and variety_lines_44 were captured from the full
pass over every line and their one `"engine": "batched"` line each
edited to `"pencil"` by hand, so they pin that the count from the lines
through one affine point reproduces the full pass's bytes.  `sss recover` reads the captured deal payload.
sss_deal and sss_recover were captured again when dealing and recovery
moved from the code C to its dual, the scheme whose access sets `sss
access` lists, and `sss recover` took the smallest listed set in place
of 1,2,5, which holds no access set of the dual.
code_dk_hyperplanes, d_1 by the character transform, was captured from
the build before every code report read spanning from the rank of the
points ahead of any count, and passes unedited after that move.
`verify-all --budget 0` holds the first refusal of every check, so it
pins which guard refuses first; it exits 3.  Each command's
`--format csv` output, captured the same way, is the `.csv` beside its
`.json`.
"""

import argparse
from pathlib import Path

import pytest

from qhcodes.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
HERM23 = ("--q", "2", "--r", "3", "--variety", "hermitian")

COMMANDS = {
    "variety_build": ("variety", "build", "--q", "3", "--r", "3"),
    "variety_spectrum": ("variety", "spectrum", "--q", "3", "--r", "3"),
    # a Hermitian curve: 62 of the 3722 points of PG(1, 61^2), radix 61
    "variety_spectrum_hermitian_61": ("variety", "spectrum", "--q", "61", "--r", "1",
                                      "--variety", "hermitian"),
    "variety_lines": ("variety", "lines", "--q", "3", "--r", "3"),
    # 17,965,585 lines of PG(4, 16), the largest line pass the suite runs
    "variety_lines_44": ("variety", "lines", "--q", "4", "--r", "4"),
    "code_weights": ("code", "weights", "--q", "3", "--r", "3", "--cross-check"),
    "code_minimality": ("code", "minimality", "--q", "4", "--r", "3"),
    "code_divisibility": ("code", "divisibility", "--q", "4", "--r", "3"),
    "code_dk": ("code", "dk", "--q", "3", "--r", "3", "--k", "2"),
    # k = 1: the hyperplanes, counted by the character transform
    "code_dk_hyperplanes": ("code", "dk", "--q", "3", "--r", "3", "--k", "1"),
    # k = r: the subspaces are points, counted in closed form
    "code_dk_points": ("code", "dk", "--q", "3", "--r", "3", "--k", "3"),
    "sss_access": ("sss", "access", *HERM23),
    "sss_deal": ("sss", "deal", *HERM23, "--secret", "1", "--seed", "7"),
    # the smallest of the 64 access sets that `sss access` lists
    "sss_recover": ("sss", "recover", *HERM23, "--subset",
                    "1,2,3,4,5,6,7,12,13,14,15,16,17,18,19,20,21,25,29,30,31,32,"
                    "33,34,35,36,37,38,42,43,44",
                    "--shares", str(GOLDEN / "sss_deal.json")),
    "sss_democracy": ("sss", "democracy", "--q", "3", "--r", "3"),
    "sss_develop": ("sss", "develop"),
    "sss_verify_example": ("sss", "verify-example"),
    # the only command on the general (1 < k < r-1) subspace path
    "code_dk_hermitian": ("code", "dk", "--q", "2", "--r", "4", "--k", "2",
                          "--variety", "hermitian"),
    "verify_all_budget0": ("verify-all", "--budget", "0"),
}
EXIT_CODES = {"verify_all_budget0": 3}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_payload_matches_golden(name, capsys):
    rc = main(list(COMMANDS[name]))
    out = capsys.readouterr().out
    assert rc == EXIT_CODES.get(name, 0)
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_matches_golden(name, capsys):
    rc = main([*COMMANDS[name], "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == EXIT_CODES.get(name, 0)
    assert out == (GOLDEN / f"{name}.csv").read_text()


def _subparsers(parser) -> dict:
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def test_every_subcommand_has_a_golden():
    commands = {(group, action)
                for group, sub in _subparsers(build_parser()).items()
                for action in (_subparsers(sub) or [None])}
    covered = set()
    for argv in COMMANDS.values():
        args = build_parser().parse_args(list(argv))
        covered.add((args.group, getattr(args, "action", None)))
    assert len(commands) == 14
    assert commands == covered
