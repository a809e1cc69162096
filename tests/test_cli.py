import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qhcodes.cli as cli_mod
import qhcodes.variety as variety_mod
from qhcodes.cli import main
from qhcodes.geom import num_points

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    return rc, json.loads(out), err


def test_build_pass(capsys):
    rc, doc, _ = run_json(capsys, "variety", "build", "--q", "3", "--r", "3")
    assert rc == 0
    assert doc["schema"] == 1
    assert doc["verdict"] == "PASS"
    assert doc["report"]["measured_n"] == 262
    cfg = doc["config"]
    assert cfg["field"] == {"p": 3, "m": 2, "modulus": [2, 2, 1]}
    assert cfg["point_order"] == "lex-v1"
    assert "seed" in cfg


def test_build_usage_error_exit_2(capsys):
    rc, out, err = run(capsys, "variety", "build", "--q", "2", "--r", "3")
    assert rc == 2
    assert "parameter error" in err
    assert "clause" in err


def test_alpha_without_beta_exit_2(capsys):
    rc, _, err = run(capsys, "variety", "build", "--q", "3", "--r", "3",
                     "--alpha", "3")
    assert rc == 2


def test_auto_params_conflict_exit_2(capsys):
    rc, _, _ = run(capsys, "variety", "build", "--q", "3", "--r", "3",
                   "--alpha", "3", "--beta", "3", "--auto-params")
    assert rc == 2


def test_parallel_is_a_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["variety", "spectrum", "--q", "3", "--r", "3", "--parallel", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --parallel" in capsys.readouterr().err


def test_budget_refusal_exit_3(capsys):
    rc, _, err = run(capsys, "variety", "spectrum", "--q", "3", "--r", "3",
                     "--budget", "0")
    assert rc == 3
    assert "refused" in err


def test_spectrum_json(capsys):
    rc, doc, _ = run_json(capsys, "variety", "spectrum", "--q", "3", "--r", "3")
    assert rc == 0
    assert doc["verdict"] == "PASS"
    table = {e["size"]: e["count"] for e in doc["report"]["spectrum"]}
    assert table == {19: 1, 26: 486, 28: 72, 35: 243, 37: 18}


def test_spectrum_csv(capsys):
    rc, out, _ = run(capsys, "variety", "spectrum", "--q", "3", "--r", "3",
                     "--format", "csv")
    assert rc == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "size,count"
    assert "19,1" in lines
    comments = [l for l in out.splitlines() if l.startswith("#")]
    assert any("point_order=lex-v1" in c for c in comments)
    assert any("field.modulus=2 2 1" in c for c in comments)


def test_lines_subcommand(capsys):
    rc, doc, _ = run_json(capsys, "variety", "lines", "--q", "3", "--r", "3")
    assert rc == 0
    assert doc["verdict"] == "PASS"
    assert doc["report"]["total"] == 7462
    assert doc["report"]["extraneous_sizes"] == []


def test_code_weights_cross_check(capsys):
    rc, doc, _ = run_json(capsys, "code", "weights", "--q", "3", "--r", "3",
                          "--cross-check")
    assert rc == 0
    assert doc["verdict"] == "PASS"
    assert doc["report"]["cross_check"]["match"] is True
    assert doc["report"]["d_min"] == 225


def test_code_minimality_not_minimal_is_not_an_error(capsys):
    rc, doc, err = run_json(capsys, "code", "minimality", "--q", "4", "--r", "3")
    assert rc == 0
    assert doc["verdict"] == "PASS"        # views agree, so the run is sound
    assert doc["report"]["minimal"] is False
    assert doc["report"]["bruteforce"]["non_minimal_words"] == 15
    assert "not minimal" in err


def test_code_minimality_at_twisted_44(capsys):
    """One candidate hyperplane, row-reduced after the spectrum; the
    exhaustive cross-check is over budget and skipped."""
    rc, doc, err = run_json(capsys, "code", "minimality", "--q", "4", "--r", "4")
    assert rc == 0
    cut = doc["report"]["cutting"]
    assert cut["ok"] is False and cut["hyperplanes"] == 69905
    assert (cut["witness_index"], cut["witness_coords"], cut["witness_rank"]) == (
        4369, [1, 0, 0, 0, 0], 3)
    assert doc["report"]["bruteforce"]["status"] == "SKIP"


def test_code_minimality_skips_an_over_budget_cross_check(capsys):
    rc, doc, err = run_json(capsys, "code", "minimality", "--q", "4", "--r", "3",
                            "--budget", "1000000")
    assert rc == 0
    assert doc["verdict"] == "PASS"
    rep = doc["report"]
    assert rep["bruteforce"]["status"] == "SKIP"
    assert "support containment" in rep["bruteforce"]["reason"]
    assert rep["agree"] is None
    # the finished views survive the refusal
    assert rep["ab"]["passes"] is False
    assert rep["cutting"]["ok"] is False and rep["minimal"] is False
    assert "skipped" in err


def test_transform_budget_refuses_before_allocating(capsys, monkeypatch):
    # PG(4, 64) has 17,043,521 points: stand in an empty point list of
    # the right count, built at the default budget, so the spectrum's
    # refusal, not the enumeration, is under test
    monkeypatch.setattr(variety_mod, "pg_space", lambda ctx, r: SimpleNamespace(
        n_points=num_points(r, ctx.order), r=r,
        points=np.zeros((0, r + 1), dtype=np.int64)))
    monkeypatch.setattr(cli_mod, "build_variety",
                        lambda kind, q, r, alpha, beta, budget:
                        variety_mod.build_variety(kind, q, r, alpha, beta))

    def spy(*args):
        raise AssertionError("the transform must not start")
    monkeypatch.setattr(variety_mod, "_sizes_wht", spy)
    theta = num_points(4, 64)
    for engine in ("auto", "wht"):
        rc, _, err = run(capsys, "variety", "spectrum", "--q", "8", "--r", "4",
                         "--variety", "hermitian", "--engine", engine,
                         "--budget", str(theta - 1))
        assert rc == 3
        assert f"refusing scanning {theta} hyperplanes" in err


@pytest.mark.parametrize("command", [("variety", "build"), ("code", "weights")])
@pytest.mark.parametrize("r", ["0", "-1"])
def test_dimension_below_one_is_a_parameter_error(command, r, capsys):
    rc, out, err = run(capsys, *command, "--q", "2", "--r", r,
                       "--variety", "hermitian")
    assert rc == 2
    assert out == ""
    assert f"parameter error: r = {r} must be at least 1" in err
    assert "Traceback" not in err


def test_code_divisibility(capsys):
    rc, doc, _ = run_json(capsys, "code", "divisibility", "--q", "4", "--r", "3")
    assert rc == 0
    assert doc["report"]["divisibility"]["all_divisible"] is True


def test_code_dk(capsys):
    rc, doc, _ = run_json(capsys, "code", "dk", "--q", "3", "--r", "3",
                          "--k", "2")
    assert rc == 0
    assert doc["report"]["higher_weight"]["d"] == 252


def test_deal_roundtrip_through_files(capsys, tmp_path):
    deal_file = tmp_path / "deal.json"
    rc, _, _ = run(capsys, "sss", "deal", "--q", "2", "--r", "3",
                   "--variety", "hermitian", "--secret", "2", "--seed", "9",
                   "--out", str(deal_file))
    assert rc == 0
    rc, doc, _ = run_json(capsys, "sss", "access", "--q", "2", "--r", "3",
                          "--variety", "hermitian")
    subset = ",".join(str(i) for i in doc["report"]["sets"][0])
    rc, doc, _ = run_json(capsys, "sss", "recover", "--q", "2", "--r", "3",
                          "--variety", "hermitian", "--subset", subset,
                          "--shares", str(deal_file))
    assert rc == 0
    assert doc["report"]["status"] == "RECOVERED"
    assert doc["report"]["secret"] == 2


def test_deal_outputs_byte_identical(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        rc, _, _ = run(capsys, "sss", "deal", "--q", "2", "--r", "3",
                       "--variety", "hermitian", "--secret", "1", "--seed", "7",
                       "--out", str(f))
        assert rc == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_recover_not_qualified_exit_1(capsys, tmp_path):
    deal_file = tmp_path / "deal.json"
    run(capsys, "sss", "deal", "--q", "2", "--r", "3", "--variety",
        "hermitian", "--secret", "0", "--seed", "1", "--out", str(deal_file))
    rc, doc, _ = run_json(capsys, "sss", "recover", "--q", "2", "--r", "3",
                          "--variety", "hermitian", "--subset", "1",
                          "--shares", str(deal_file))
    assert rc == 1
    assert doc["report"]["status"] == "NOT_QUALIFIED"


def test_recover_garbage_shares_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    rc, _, err = run(capsys, "sss", "recover", "--q", "2", "--r", "3",
                     "--variety", "hermitian", "--subset", "1",
                     "--shares", str(bad))
    assert rc == 2
    assert "not valid JSON" in err


def test_recover_malformed_share_table_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('[{"participant": 1}]')
    rc, _, err = run(capsys, "sss", "recover", "--q", "2", "--r", "3",
                     "--variety", "hermitian", "--subset", "1",
                     "--shares", str(bad))
    assert rc == 2
    assert "malformed share table" in err


@pytest.mark.parametrize("value", [7, -1])
def test_recover_share_outside_field_exit_2(capsys, tmp_path, value):
    deal_file = tmp_path / "deal.json"
    run(capsys, "sss", "deal", "--q", "2", "--r", "3", "--variety",
        "hermitian", "--secret", "0", "--seed", "1", "--out", str(deal_file))
    doc = json.loads(deal_file.read_text())
    doc["report"]["shares"][0]["value"] = value
    deal_file.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "sss", "recover", "--q", "2", "--r", "3",
                       "--variety", "hermitian", "--shares", str(deal_file))
    assert rc == 2
    assert out == ""
    assert "share values must be field encodings in 0 .. 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field,value", [
    ("value", 1.5), ("value", 1.9), ("value", True),
    ("participant", 1.5), ("participant", 1.9), ("participant", True)])
def test_recover_non_integer_share_table_exit_2(capsys, tmp_path, field, value):
    deal_file = tmp_path / "deal.json"
    run(capsys, "sss", "deal", "--q", "2", "--r", "3", "--variety",
        "hermitian", "--secret", "0", "--seed", "1", "--out", str(deal_file))
    doc = json.loads(deal_file.read_text())
    doc["report"]["shares"][0][field] = value
    deal_file.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "sss", "recover", "--q", "2", "--r", "3",
                       "--variety", "hermitian", "--shares", str(deal_file))
    assert rc == 2
    assert out == ""
    assert "malformed share table" in err


def _child_peak_mb(argv):
    """Run the command line on argv in a child process: its exit code,
    its peak resident memory in MB, and its stderr.

    The child reports its own peak, VmHWM, where Linux has it: its
    ru_maxrss also carries the peak of this test process, which the
    spawn (vfork and exec) hands down."""
    code = ("import os, resource; from qhcodes.cli import main; "
            f"rc = main({argv!r}); "
            "hwm = [int(line.split()[1]) for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')] if os.path.exists('/proc/self/status') "
            "else []; "
            "print(rc, hwm[0] if hwm else "
            "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    rc, peak = map(int, proc.stdout.splitlines()[-1].split())
    # VmHWM and Linux ru_maxrss are in KiB, macOS ru_maxrss in bytes
    return rc, peak / 2 ** (20 if sys.platform == "darwin" else 10), proc.stderr


def test_points_budget_refusal_exit_3_in_little_memory():
    # PG(4, 49) has 5,884,901 points, several hundred MB once enumerated
    rc, peak_mb, err = _child_peak_mb(["variety", "build", "--q", "7", "--r", "4",
                                       "--variety", "hermitian", "--budget", "0"])
    assert rc == 3
    assert "refusing scanning 5884901 points" in err
    assert peak_mb < 100


def test_transform_spectrum_in_little_memory():
    # PG(3, 64): the affine charts hold at most 64^3 entries, where the
    # cone over the whole point set would hold 64^4 = 2^24
    rc, peak_mb, _ = _child_peak_mb(["variety", "spectrum", "--q", "8", "--r", "3",
                                     "--variety", "hermitian"])
    assert rc == 0
    assert peak_mb < 100


def test_variety_lines_44_in_little_memory():
    # 17,965,585 lines of PG(4, 16), each size one byte
    rc, peak_mb, _ = _child_peak_mb(["variety", "lines", "--q", "4", "--r", "4"])
    assert rc == 0
    assert peak_mb < 150


def test_sss_access_refused_for_non_minimal_exit_2(capsys):
    rc, _, err = run(capsys, "sss", "access", "--q", "4", "--r", "3")
    assert rc == 2
    assert "not minimal" in err


def test_democracy(capsys):
    rc, doc, _ = run_json(capsys, "sss", "democracy", "--q", "2", "--r", "3",
                          "--variety", "hermitian")
    assert rc == 0
    assert doc["report"]["access"]["count"] == 64
    assert doc["report"]["democracy"]["uniform_count"] == 48


def test_democracy_access_matrix_refused_exit_3(capsys):
    # 16^4 access sets x 17,424 participants, refused before any is built
    rc, out, err = run(capsys, "sss", "democracy", "--variety", "hermitian",
                       "--q", "4", "--r", "4")
    assert rc == 3
    assert out == ""
    assert "refusing an access matrix of 1141899264 entries" in err


def test_develop_and_example(capsys):
    rc, doc, _ = run_json(capsys, "sss", "develop")
    assert rc == 0
    assert doc["report"]["group_order"] == 576
    assert doc["report"]["count"] == 64
    rc, doc, _ = run_json(capsys, "sss", "verify-example")
    assert rc == 0
    assert doc["verdict"] == "PASS"


def test_verify_all_budget_zero_exit_3(capsys):
    rc, doc, err = run_json(capsys, "verify-all", "--budget", "0")
    assert rc == 3
    assert doc["verdict"] == "SKIP"
    assert doc["report"]["n_skip"] == len(doc["report"]["criteria"])
    assert "SKIP" in err


def test_verify_all_negative_control(capsys):
    rc, doc, err = run_json(capsys, "verify-all", "--corrupt-modulus")
    assert rc == 0
    assert doc["verdict"] == "PASS"
    assert "rejected" in doc["report"]["criteria"][0]["detail"]
