import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qhcodes.cli as cli_mod
import qhcodes.code as code_mod
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


@pytest.mark.parametrize("r", ["1", "2", "3", "4"])
def test_cone_build_predicts_an_integer(r, capsys):
    rc, doc, _ = run_json(capsys, "variety", "build", "--variety", "cone",
                          "--q", "2", "--r", r)
    assert rc == 0
    predicted = doc["report"]["predicted_n"]
    assert type(predicted) is int
    assert predicted == doc["report"]["measured_n"]


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
    # the first valid (alpha, beta) is the default, so the flag is gone
    with pytest.raises(SystemExit) as exc:
        main(["variety", "build", "--q", "3", "--r", "3",
              "--alpha", "3", "--beta", "3", "--auto-params"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --auto-params" in capsys.readouterr().err


def test_parallel_is_a_usage_error_exit_2(capsys):
    # every spectrum runs the transform: no option picks direct
    # evaluation, which the hyperplane budget does not meter
    for flag in (["--parallel", "2"], ["--engine", "direct"]):
        with pytest.raises(SystemExit) as exc:
            main(["variety", "spectrum", "--q", "8", "--r", "3",
                  "--variety", "hermitian", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


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
    # 4369 support classes, 4369 * 4368 / 2 pairs: a repriced meter
    # would let this budget start the brute force
    assert rep["bruteforce"]["reason"] == (
        "refusing up to 9541896 support containment tests: "
        "needs 9541896 units, budget is 1000000")
    assert rep["agree"] is None
    # the finished views survive the refusal
    assert rep["ab"]["passes"] is False
    assert rep["cutting"]["ok"] is False and rep["minimal"] is False
    assert "skipped" in err


# WORDS_HARD_CAP one below twisted (3,3)'s 9^4 codewords
WORDS_REFUSAL_33 = ("refusing enumerating 6561 codewords: needs 6561 units, "
                    "beyond the fixed ceiling of 6560, whatever the budget")


@pytest.fixture
def words_ceiling_below_33(monkeypatch):
    """Lower the codeword ceiling below twisted (3,3)'s words, and fail
    if the brute force's code is built before it refuses."""
    monkeypatch.setattr(code_mod, "WORDS_HARD_CAP", 9 ** 4 - 1)
    monkeypatch.setattr(code_mod, "LinearCode", lambda *a: pytest.fail(
        "the brute force's code was built before its words were metered"))


def test_code_minimality_skips_a_cross_check_above_the_ceiling(capsys, words_ceiling_below_33):
    rc, doc, err = run_json(capsys, "code", "minimality", "--q", "3", "--r", "3")
    assert rc == 0
    assert doc["verdict"] == "PASS"
    rep = doc["report"]
    assert rep["bruteforce"] == {"status": "SKIP", "reason": WORDS_REFUSAL_33}
    assert rep["agree"] is None
    assert rep["ab"]["passes"] is True
    assert rep["cutting"]["ok"] is True and rep["minimal"] is True
    assert f"skipped: {WORDS_REFUSAL_33}" in err


def test_code_weights_cross_check_above_the_ceiling_exit_3(capsys, words_ceiling_below_33):
    rc, doc, err = run_json(capsys, "code", "weights", "--q", "3", "--r", "3",
                            "--cross-check")
    assert rc == 3
    assert doc["verdict"] == "SKIP"
    assert doc["report"]["cross_check"] == {"status": "SKIP", "reason": WORDS_REFUSAL_33}
    # the section-based distribution is still written
    assert doc["report"]["d_min"] == 225
    assert f"skipped: {WORDS_REFUSAL_33}" in err
    rc, out, _ = run(capsys, "code", "weights", "--q", "3", "--r", "3", "--cross-check",
                     "--format", "csv")
    assert rc == 3
    assert "# verdict=SKIP\nweight,count\n" in out and "\n225,144\n" in out


def test_transform_budget_refuses_before_allocating(capsys, monkeypatch):
    # PG(4, 64) has 17,043,521 points: stand in a chart kernel that
    # finds no point, built at the default budget, so the spectrum's
    # refusal, not the enumeration, is under test
    monkeypatch.setattr(variety_mod, "_chart_zeros",
                        lambda ctx, charts: np.zeros(0, dtype=np.int64))
    monkeypatch.setattr(cli_mod, "build_variety",
                        lambda kind, q, r, alpha, beta, budget:
                        variety_mod.build_variety(kind, q, r, alpha, beta))

    def spy(*args):
        raise AssertionError("the transform must not start")
    monkeypatch.setattr(variety_mod, "_sizes_wht", spy)
    theta = num_points(4, 64)
    rc, _, err = run(capsys, "variety", "spectrum", "--q", "8", "--r", "4",
                     "--variety", "hermitian", "--budget", str(theta - 1))
    assert rc == 3
    assert f"refusing scanning {theta} hyperplanes" in err


def test_transform_range_refusal_names_no_budget(capsys):
    # (Q - 1) n = 7920 * 704970 sums outgrow the odd-p transform's
    # residues whatever the budget, so the refusal must not offer one
    rc, out, err = run(capsys, "variety", "spectrum", "--variety", "hermitian",
                       "--q", "89", "--r", "2", "--budget", "1000000000000")
    assert rc == 3
    assert out == ""
    assert err == ("refused: refusing a character transform with sums up to "
                   "5583362400: that needs 11166724981, beyond the transform's "
                   "exact range of 321921409, whatever the budget\n")


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


@pytest.mark.parametrize("divisor", ["0", "-3"])
def test_divisor_below_one_is_an_error_exit_2(divisor, capsys):
    rc, out, err = run(capsys, "code", "divisibility", "--q", "3", "--r", "3",
                       "--divisor", divisor)
    assert rc == 2
    assert out == ""
    assert f"error: divisor {divisor} must be at least 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["cone", "twisted-infinity"])
@pytest.mark.parametrize("command", [("code", "weights"), ("code", "dk", "--k", "1"),
                                     ("code", "dk", "--k", "2"), ("code", "dk", "--k", "3")])
def test_no_code_report_for_a_point_set_inside_a_hyperplane(kind, command, capsys):
    # both lie in X_0 = 0, so no code is defined on them, as --cross-check,
    # code minimality and sss access say too
    rc, out, err = run(capsys, *command, "--q", "2", "--r", "3", "--variety", kind)
    assert rc == 2
    assert out == ""
    assert "error: point set spans a proper subspace" in err
    assert "Traceback" not in err


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


def test_recover_without_subset_echoes_every_participant(capsys):
    # the subset resolved from the deal file is echoed in the config too
    deal_file = Path(__file__).resolve().parent / "golden" / "sss_deal.json"
    rc, doc, _ = run_json(capsys, "sss", "recover", "--q", "2", "--r", "3",
                          "--variety", "hermitian", "--shares", str(deal_file))
    assert rc == 0
    assert doc["config"]["subset"] == doc["report"]["subset"] == list(range(1, 45))
    assert doc["report"]["status"] == "RECOVERED"
    assert doc["report"]["secret"] == 1


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


def _child_peak_mb(argv, expr=None):
    """Run the command line on argv in a child process, or evaluate expr
    there with qhcodes.variety imported as variety: its exit code (or
    expr's value), its peak resident memory in MB, and its stderr.

    The child reports its own peak, VmHWM, where Linux has it: its
    ru_maxrss also carries the peak of this test process, which the
    spawn (vfork and exec) hands down."""
    code = ("import os, resource; from qhcodes.cli import main; "
            "from qhcodes import variety; "
            f"rc = {expr or f'main({argv!r})'}; "
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


def test_variety_lines_hermitian_73_in_little_memory():
    # the full pass over the 5,887,302 lines of PG(3, 49), whose table
    # of sums holds 49^4 keys; `variety lines` counts them by the pencil
    rc, peak_mb, _ = _child_peak_mb(None, "len(variety.line_section_sizes("
                                          "variety.build_variety('hermitian', 7, 3)))")
    assert rc == 5887302
    assert peak_mb < 100


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


@pytest.mark.parametrize("verdict, rc", [("FAIL", 1), ("PASS", 0), (None, 0), ("SKIP", 0)])
def test_emit_returns_the_exit_code(verdict, rc, capsys):
    # only FAIL exits 1; main maps a SKIP verdict to 3
    args = SimpleNamespace(format="json", out=None)
    assert cli_mod.emit(args, "test", {}, {}, verdict) == rc
    assert json.loads(capsys.readouterr().out)["verdict"] == verdict


def test_verify_all_budget_zero_exit_3(capsys):
    rc, doc, err = run_json(capsys, "verify-all", "--budget", "0")
    assert rc == 3
    assert doc["verdict"] == "SKIP"
    assert doc["report"]["n_skip"] == len(doc["report"]["criteria"])
    assert "SKIP" in err


def test_verify_all_never_imports_numpy_ma():
    # np.unique(rows, axis=0) imports numpy.ma at run time, some 30 ms of
    # every sss develop, sss verify-example and verify-all
    code = ("import json, sys; from qhcodes.cli import main; "
            "rc = main(['verify-all']); "
            "print(json.dumps([rc, 'numpy.ma' in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    rc, imported = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 1 and "09 PASS" in proc.stderr
    assert not imported


def _import_cli_in_child(blas_threads):
    """Import the command line in a fresh interpreter with
    OPENBLAS_NUM_THREADS unset or set: the value it then sees, and its
    thread count where /proc/self/status has one."""
    code = ("import json, os; import qhcodes.cli; "
            "threads = [int(line.split()[1]) for line in open('/proc/self/status') "
            "if line.startswith('Threads:')] if os.path.exists('/proc/self/status') "
            "else [None]; "
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads[0]]))")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_pins_openblas_to_one_thread():
    # a module that loads numpy above the pin in qhcodes/__init__.py
    # would start the worker pool before the pin is read
    value, threads = _import_cli_in_child(None)
    assert value == "1"
    if sys.platform.startswith("linux"):
        assert threads == 1
    assert _import_cli_in_child("2")[0] == "2"


def test_verify_all_negative_control(capsys):
    rc, doc, err = run_json(capsys, "verify-all", "--corrupt-modulus")
    assert rc == 0
    assert doc["verdict"] == "PASS"
    assert "rejected" in doc["report"]["criteria"][0]["detail"]
    # the same report shape as the suite's: the control is one PASS
    assert [doc["report"][k] for k in ("n_pass", "n_fail", "n_skip")] == [1, 0, 0]
