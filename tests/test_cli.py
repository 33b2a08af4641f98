import json
import os
import subprocess
import sys
from pathlib import Path

import medscm as M
from medscm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", "t1", "--pi", "0.4", "--beta", "0.6")
    assert code == 0 and "valid" in out

    path = tmp_path / "scm.json"
    path.write_text(M.scm_to_json(M.thm1_counterexample(0.4, 0.6)))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0


def test_validate_reports_violations(tmp_path, capsys):
    doc = json.loads(M.scm_to_json(M.thm1_counterexample(0.5, 0.5)))
    for entry in doc["noise"]:
        if entry["name"] == "eps_L":
            entry["pmf"] = {"0": 0.6, "1": 0.6}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "sums to" in out


def _thm1_doc_with(edit):
    doc = json.loads(M.scm_to_json(M.thm1_counterexample(0.5, 0.5)))
    edit(doc)
    return json.dumps(doc)


def test_invalid_model_files_exit_3_on_every_load_path(tmp_path, capsys):
    def heavy_pmf(doc):
        next(n for n in doc["noise"] if n["name"] == "eps_L")["pmf"] = {"0": 0.7, "1": 0.7}

    def missing_row(doc):
        next(t for t in doc["tables"] if t["variable"] == "Y")["rows"].pop()

    for edit, violation in ((heavy_pmf, "pmf sums to 1.4"), (missing_row, "not total")):
        path = tmp_path / "model.json"
        path.write_text(_thm1_doc_with(edit))
        for argv in (["effects"], ["identify"], ["criteria"],
                     ["sample", "--n", "5", "--out", str(tmp_path / "d.csv")]):
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
            assert (code, out) == (3, ""), argv
            assert err.startswith("error: ") and "invalid model" in err and violation in err
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1 and violation in out


def test_malformed_csv_exits_8(tmp_path, capsys):
    # a non-integer field, a ragged row, a row longer than the header, no
    # header, a float
    for body in ("A,M,Y\n0,1,x\n", "A,M,Y\n0,1,1\n0,1\n", "A,M,Y\n0,1,1,1\n", "",
                 "A,M,Y\n0,1.0,1\n"):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        code, _, err = run(capsys, "estimate", str(path), "--estimand", "psi_te", "--n-boot", "0")
        assert code == 8 and err.startswith("error: "), body


def test_unparseable_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "effects", str(path))
    assert code == 8
    assert "error:" in err


def test_effects_pe_row(capsys):
    code, out, _ = run(capsys, "effects", "pe", "--p", "0.5")
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("pe(0)"))
    assert row.split()[-1] == "0.5"


def test_effects_csv_format(capsys):
    code, out, _ = run(capsys, "effects", "t1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"


def test_identify_and_criteria_subcommands(capsys):
    code, out, _ = run(capsys, "identify", "t1", "--pi", "0.5", "--beta", "0.9")
    assert code == 0
    assert "psi_nie_r_L" in out and "assumption_A4" in out
    code, out, _ = run(capsys, "criteria", "t1", "--pi", "0.5", "--beta", "0.9")
    assert code == 0
    assert "sharp_null" in out and "refutes" in out


def test_reproduce_point_and_exit_codes(capsys):
    code, out, _ = run(capsys, "reproduce", "T1", "--pi", "0.5", "--beta", "0.9")
    assert code == 0
    assert "0.2" in out and "sharp_null" in out and "True" in out


def test_reproduce_default_grid_smoke(capsys):
    # the repository's top-level smoke: every family's default grid exits 0
    for family in ("T1", "T2", "T3", "S1", "PE"):
        code, out, _ = run(capsys, "reproduce", family)
        assert code == 0, family
        assert "grid points reproduced" in out


def test_reproduce_domain_error_exit(capsys):
    code, _, err = run(capsys, "reproduce", "T1", "--pi", "1.5")
    assert code == 3
    assert "error:" in err


def test_sweep_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "t1", "--grid", "pi=0.25|0.5,beta=0.1|0.9", "--effect", "nie_r"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta,pi,effect,value,sharp_null,sharper_null,monotonicity,refutes"
    assert len(lines) == 5
    assert any("sharp-null" in line for line in lines[1:])


def test_sample_estimate_round_trip(tmp_path, capsys):
    out_csv = tmp_path / "d.csv"
    code, out, _ = run(
        capsys, "sample", "t1", "--pi", "0.5", "--beta", "0.9",
        "--n", "20000", "--sample-seed", "3", "--out", str(out_csv),
    )
    assert code == 0 and out_csv.exists()
    code, out, _ = run(
        capsys, "estimate", str(out_csv), "--estimand", "psi_nie_r_L",
        "--n-boot", "100", "--sample-seed", "1",
    )
    assert code == 0
    value = float(next(l for l in out.splitlines() if l.startswith("value")).split()[-1])
    assert abs(value - 0.2) < 0.03


def test_estimate_degenerate_exit(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("A,M,Y\n0,0,0\n0,0,1\n1,0,0\n1,1,1\n")
    code, _, err = run(capsys, "estimate", str(path), "--estimand", "psi_nie", "--n-boot", "0")
    assert code == 4
    assert "degenerate" in err


def test_repeated_main_calls_match_fresh_processes(capsys):
    # the parser is built once per process; no parsed state may carry over
    sequence = [
        ["reproduce", "T1", "--pi", "0.5", "--beta", "0.9", "--format", "csv"],
        ["effects", "t1"],
        ["criteria", "t2", "--pi1", "0.3", "--format", "csv"],
        ["reproduce", "T1", "--pi", "1.5"],
        ["effects", "pe", "--p", "0.3"],
        ["identify", "t1", "--format", "csv"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(M.__file__).parents[1])}
    for argv in sequence:
        in_process = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "medscm.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr), argv
