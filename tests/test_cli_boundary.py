"""The command line's input boundary: every argument the registry does not
expect ends in a documented exit code, never in a traceback or an ignored
value; each error class carries its exit code; the README's family and
exit-code tables match the code."""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import medscm as M
from medscm import criteria, effects, errors
from medscm.cli import main

README = Path(__file__).parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_domain_error(capsys, *argv, says: str):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, ""), argv
    assert err.startswith("error: ") and says in err, (argv, err)


@pytest.mark.parametrize("cls", [
    errors.DomainError, errors.ShapeError, errors.EnumerationSizeError,
    errors.ReproductionError, OSError, ValueError,
])
def test_each_error_class_exits_with_its_code(cls, monkeypatch, capsys):
    def fail(model):
        raise cls("boom")

    monkeypatch.setattr(effects, "effect_report", fail)
    code, out, err = run(capsys, "effects", "t1")
    expected = getattr(cls, "exit_code", errors.PARSE_EXIT_CODE)
    assert (code, out, err) == (expected, "", "error: boom\n")


def test_error_exit_codes():
    assert {cls.__name__: cls.exit_code for cls in (
        errors.DomainError, errors.ShapeError, errors.DegenerateStratumError,
        errors.EnumerationSizeError, errors.ReproductionError,
    )} == {"DomainError": 3, "ShapeError": 3, "DegenerateStratumError": 4,
           "EnumerationSizeError": 5, "ReproductionError": 6}
    assert errors.PARSE_EXIT_CODE == 8


# -- sweep ------------------------------------------------------------------

@pytest.mark.parametrize("argv, says", [
    (["t1", "--grid", "pi=0.5|0.6,gamma=0.3|0.4"], "unknown parameter 'gamma'"),
    (["t1", "--grid", "pi=0.5|0.6", "--effect", "bogus"],
     "unknown effect 'bogus'; this model has te, nde"),
    (["additive", "--grid", "seed=1.5|2.5"], "seed must be an integer, got 1.5"),
    (["t1", "--grid", "pi=0.2:0.8:0"], "at least one point, got a count of 0"),
    (["t1", "--grid", "pi=0.2:0.8:-2"], "at least one point"),
    (["t1", "--grid", "pi=0.2:0.8:2.5"], "bad grid axis 'pi=0.2:0.8:2.5'"),
    (["t1", "--grid", "pi=a:b:3"], "bad grid axis 'pi=a:b:3'"),
    (["additive", "--grid", "shape=confounded|basic"], "bad grid axis 'shape=confounded|basic'"),
    (["t1", "--grid", "pi=0.1|nan"], "pi must be a finite number, got nan"),
    (["t1", "--grid", "pi=0.1|0.2,pi=0.3|0.4"], "grid axis 'pi' given twice"),
])
def test_sweep_rejects_bad_grids_and_effects(argv, says, capsys):
    assert_domain_error(capsys, "sweep", *argv, says=says)


@pytest.mark.parametrize("tol", ["nan", "-1", "-inf", "inf"])
def test_a_tolerance_not_finite_and_nonnegative_exits_3(tol, capsys):
    # criteria t1 --tol nan printed "nie / sharp-null 0 refutes" and exited 0;
    # --tol 0 still runs
    says = f"tol must be a finite number >= 0, got {float(tol)!r}"
    for argv in (["criteria", "t1"], ["sweep", "t1", "--grid", "pi=0.5,beta=0.5"]):
        assert_domain_error(capsys, *argv, f"--tol={tol}", says=says)
        code, out, err = run(capsys, *argv, "--tol", "0")
        assert (code, err) == (0, "") and out


def test_sweep_missing_axis_takes_the_registry_default(capsys):
    code, out, _ = run(capsys, "sweep", "t1", "--grid", "pi=0.5|0.6")
    _, explicit, _ = run(capsys, "sweep", "t1", "--grid", "pi=0.5|0.6,beta=0.9:0.9:1")
    assert code == 0
    assert out.splitlines() == [line.partition(",")[2] for line in explicit.splitlines()]


@pytest.mark.parametrize("family, axes, one, spelled", [
    ("t1", "pi=0.2|0.6", "beta=0.3", "beta=0.3:0.3:1"),
    ("t2", "pi1=0.1:0.5:3,pi2=0.1|0.2", "beta=0.3", "beta=0.3:0.3:1"),
    ("t1", "beta=0.9", "pi=0.5", "pi=0.5:0.5:1"),
    ("t3", "pi=0.2|0.6", "beta1=0.1,beta2=0.2,beta3=0.3,beta4=0.4,gamma=0.5",
     "beta1=0.1:0.1:1,beta2=0.2:0.2:1,beta3=0.3:0.3:1,beta4=0.4:0.4:1,gamma=0.5:0.5:1"),
])
def test_sweep_one_value_axis_is_a_one_point_axis(family, axes, one, spelled, capsys):
    code, out, err = run(capsys, "sweep", family, "--grid", f"{axes},{one}")
    assert code == 0 and err == "" and out.count("\n") > 1
    assert run(capsys, "sweep", family, "--grid", f"{axes},{spelled}") == (code, out, err)


def test_effect_report_value_still_raises_key_error():
    with pytest.raises(KeyError):
        M.effect_report(M.thm1_counterexample(0.5, 0.9)).value("bogus")


# -- ignored or mis-coded arguments -------------------------------------------

def test_arguments_a_command_would_ignore_exit_3(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(M.scm_to_json(M.thm1_counterexample(0.4, 0.6)))
    assert_domain_error(capsys, "effects", "t1", "--gamma", "0.3",
                        says="t1: unknown parameter 'gamma'; expected one of pi, beta")
    assert_domain_error(capsys, "validate", "separable", "--shape", "basic",
                        says="unknown parameter 'shape'")
    assert_domain_error(capsys, "effects", str(model), "--pi", "0.3",
                        says="family parameters (--pi) given with a model file")
    assert_domain_error(capsys, "reproduce", "T1", "--pi", "0.5", "--beta", "0.9",
                        "--gamma", "0.2", says="unknown parameter 'gamma'")
    assert_domain_error(capsys, "reproduce", "T1", "--pi", "0.5", "--beta", "0.9", "--m", "1",
                        says="unknown parameter 'm'")
    assert_domain_error(capsys, "reproduce", "PE", "--p", "0.5", "--m", "0.7",
                        says="m must be 0 or 1, got 0.7")
    assert_domain_error(capsys, "reproduce", "PE", "--p", "0.5", "--m", "2",
                        says="m must be 0 or 1, got 2.0")
    sample = tmp_path / "d.csv"
    assert_domain_error(capsys, "sample", "t1", "--n", "5", "--sample-seed", "-1",
                        "--out", str(sample), says="seed must lie in [0, 2**128), got -1")
    assert run(capsys, "sample", "t1", "--n", "200", "--out", str(sample))[0] == 0
    assert_domain_error(capsys, "estimate", str(sample), "--estimand", "psi_te",
                        "--n-boot", "-3", says="n_boot must be nonnegative, got -3")
    for lone in (["--a-star", "1"], ["--a", "0"]):
        assert_domain_error(capsys, "estimate", str(sample), "--estimand", "psi_te", *lone,
                            says="--a-star and --a must be given together")


def test_estimate_rejects_equal_exposure_levels_and_a_level_it_would_ignore(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert run(capsys, "sample", "t1", "--n", "200", "--out", str(data))[0] == 0
    for x in ("0", "1"):
        assert_domain_error(capsys, "estimate", str(data), "--estimand", "psi_nie_r_L",
                            "--a-star", x, "--a", x, says="exposure levels a* and a must differ")
    with pytest.raises(M.DomainError, match=re.escape("exposure levels a* and a must differ")):
        M.empirical_law(M.read_csv(str(data)), (1, 1))
    for estimand in ("psi_te", "psi_nie", "psi_nie_r_L", "psi_nie_rl"):
        assert_domain_error(capsys, "estimate", str(data), "--estimand", estimand, "--m", "1",
                            says=f"estimand {estimand} takes no mediator level m")
    for estimand in ("psi_cde", "psi_pe"):
        assert run(capsys, "estimate", str(data), "--estimand", estimand, "--m", "1",
                   "--n-boot", "5")[0] == 0


def test_estimate_seed_outside_a_philox_key_word_exits_3(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert run(capsys, "sample", "t1", "--n", "200", "--out", str(data))[0] == 0
    for seed in (str(2**64), "-1"):
        assert_domain_error(capsys, "estimate", str(data), "--estimand", "psi_te",
                            "--n-boot", "5", "--sample-seed", seed,
                            says=f"seed must lie in [0, 2**64), got {seed}")
    code, out, err = run(capsys, "estimate", str(data), "--estimand", "psi_te",
                         "--n-boot", "5", "--sample-seed", str(2**64 - 1))
    assert (code, err) == (0, "") and "ci_low" in out


def test_oversize_sample_or_bootstrap_exits_5_before_allocating(tmp_path, capsys):
    data, out = tmp_path / "d.csv", tmp_path / "x.csv"
    assert run(capsys, "sample", "t1", "--n", "200", "--out", str(data))[0] == 0
    huge = "100000000000000"
    for argv, says in (
        (["sample", "t1", "--n", huge, "--out", str(out)], f"({huge} rows x 4 columns)"),
        (["estimate", str(data), "--estimand", "psi_te", "--n-boot", huge],
         f"{huge} bootstrap replicates need"),
    ):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (5, ""), argv
        assert err.startswith("error: ") and says in err and "budget" in err, err
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_reproduce_grid_summary_follows_format(capsys):
    code, plain, _ = run(capsys, "reproduce", "PE")
    assert code == 0 and plain.startswith("PE: 18 grid points reproduced; worst ")
    code, out, _ = run(capsys, "reproduce", "PE", "--format", "csv")
    worst = plain.rstrip().rpartition(" = ")[2]
    assert (code, out) == (0, f"key,value\ntheorem,PE\npoints,18\nworst_difference,{worst}\n")


def test_reproduce_point_missing_a_closed_form_parameter(capsys):
    assert_domain_error(capsys, "reproduce", "T3", "--pi", "0.3", "--gamma", "0.5",
                        says="T3: missing parameter 'beta1'")
    assert_domain_error(capsys, "reproduce", "T2", "--pi0", "0.5", "--pi1", "0.3",
                        says="T2: missing parameter 'pi2'")


@pytest.mark.parametrize("argv", [
    ["effects", "t3", "--pi3", "0.3"],
    ["effects", "t1", "--tol", "0.1"],
    ["validate", "t1", "--tol", "0.1"],
    ["identify", "t1", "--tol", "0.1"],
    ["sample", "t1", "--n", "5", "--out", "x.csv", "--tol", "0.1"],
])
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_t3_reads_pi(capsys):
    default = run(capsys, "effects", "t3")
    assert run(capsys, "effects", "t3", "--pi", "0.1") == default
    assert run(capsys, "effects", "t3", "--pi", "0.3") != default


def test_registry_checks_parameters():
    t2 = criteria.FAMILIES["t2"]
    assert t2.resolve({"pi1": 0.25}) == {"pi1": 0.25, "pi2": 0.2, "beta": 0.9,
                                        "pi0": 1.0 - 0.25 - 0.2}
    assert criteria.FAMILIES["additive"].resolve({"seed": 3.0}) == {"seed": 3, "shape": "basic"}
    for family, params, says in (
        ("t1", {"gamma": 0.1}, "unknown parameter 'gamma'"),
        ("separable", {"seed": 1.5}, "seed must be an integer"),
        ("separable", {"seed": float("inf")}, "seed must be an integer, got inf"),
        ("additive", {"shape": "separable"}, "shape must be one of basic, confounded"),
        ("pe", {"p": "0.5"}, "p must be a finite number"),
    ):
        with pytest.raises(M.DomainError, match=re.escape(says)):
            criteria.FAMILIES[family](**params)


# -- model files ----------------------------------------------------------------

@pytest.mark.parametrize("mass", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_mass_is_invalid_on_every_load_path(mass, tmp_path, capsys):
    text = M.scm_to_json(M.thm1_counterexample(0.3, 0.6))
    text = text.replace('"0": 0.4,', f'"0": {mass},', 1)   # eps_M, the first 0.4 mass
    assert json.loads(text)["noise"][2]["pmf"]["0"] != 0.4
    path = tmp_path / "model.json"
    path.write_text(text)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1 and "noise eps_M: non-finite probability at level 0" in out
    for argv in (["effects"], ["identify"], ["criteria"],
                 ["sample", "--n", "5", "--out", str(tmp_path / "d.csv")]):
        assert_domain_error(capsys, argv[0], str(path), *argv[1:],
                            says="noise eps_M: non-finite probability at level 0")


FAMILY_DOCS = {name: M.model.scm_to_dict(build()) for name, build in (
    ("t1", lambda: M.thm1_counterexample(0.3, 0.6)),
    ("t2", lambda: M.thm2_counterexample(0.2, 0.3, 0.5, 0.9)),
    ("pe", lambda: M.pe_counterexample(0.4)),
)}


@pytest.mark.parametrize("where", ["edges", "table"])
def test_a_string_is_not_a_list_of_parents(where, tmp_path, capsys):
    # "AL" spelled out would be M's parents in t1, A and L
    doc = copy.deepcopy(FAMILY_DOCS["t1"])
    if where == "edges":
        doc["edges"]["M"] = "AL"
    else:
        next(t for t in doc["tables"] if t["variable"] == "M")["parents"] = "AL"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (8, "") and "malformed SCM document" in err, err


def test_a_repeated_table_row_is_malformed(tmp_path, capsys):
    # t1 with M's first row repeated and its value flipped: kept as the last
    # of the two, it would give nie_r 0.126 where t1's is 0.042
    doc = copy.deepcopy(FAMILY_DOCS["t1"])
    table = next(t for t in doc["tables"] if t["variable"] == "M")
    row = dict(table["rows"][0], value=1 - table["rows"][0]["value"])
    table["rows"].append(row)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "effects"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (8, ""), (command, code, out)
        assert "malformed SCM document: table for M: row ((0, 0), 0) given twice" in err, err


@st.composite
def perturbed_docs(draw) -> dict:
    """A family's model document with one perturbation that breaks it."""
    doc = copy.deepcopy(FAMILY_DOCS[draw(st.sampled_from(sorted(FAMILY_DOCS)))])
    kind = draw(st.sampled_from(["mass", "drop_row", "duplicate_row", "level", "role", "pmf",
                                 "duplicate", "edges", "string_parents"]))
    noise = draw(st.sampled_from(doc["noise"]))
    table = draw(st.sampled_from(doc["tables"]))
    if kind == "mass":
        level = draw(st.sampled_from(sorted(noise["pmf"])))
        noise["pmf"][level] = draw(st.sampled_from(
            [float("nan"), float("inf"), float("-inf"), -0.25, 1.5]))
    elif kind == "drop_row":
        del table["rows"][draw(st.integers(0, len(table["rows"]) - 1))]
    elif kind == "duplicate_row":
        # a row repeated at the end, with its value kept or another level's
        row = dict(draw(st.sampled_from(table["rows"])))
        row["value"] = draw(st.sampled_from([row["value"], 1 - row["value"]]))
        table["rows"].append(row)
    elif kind == "level":
        row = draw(st.sampled_from(table["rows"]))
        field = draw(st.sampled_from(["value", "noise", "parents"] if row["parents"]
                                     else ["value", "noise"]))
        level = draw(st.sampled_from([7, -1, 0.5, 1.5, "x", float("inf"), float("nan")]))
        if field == "parents":
            row["parents"][draw(st.integers(0, len(row["parents"]) - 1))] = level
        else:
            row[field] = level
    elif kind == "role":
        draw(st.sampled_from(doc["variables"]))["role"] = draw(st.sampled_from(["Z", "", "a"]))
    elif kind == "pmf":
        noise["pmf"] = draw(st.sampled_from([{}, [0.5, 0.5], "x", None]))
    elif kind == "edges":
        doc["edges"] = draw(st.sampled_from(
            [[], "x", 3, None, {"M": 5}, {"M": None}, {"M": "A"}, {"M": ["Z"]}]))
    elif kind == "string_parents":
        # the names are one letter each, so the string spells the same list
        if draw(st.booleans()):
            table["parents"] = "".join(table["parents"])
        else:
            name = draw(st.sampled_from(sorted(doc["edges"])))
            doc["edges"][name] = "".join(doc["edges"][name])
    else:
        doc["variables"].append(dict(draw(st.sampled_from(doc["variables"]))))
    return doc


def test_model_file_fuzz(monkeypatch):
    with tempfile.TemporaryDirectory() as tmp:
        monkeypatch.chdir(tmp)

        @settings(max_examples=150, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(perturbed_docs())
        def every_command_exits_with_a_documented_code(doc):
            Path(tmp, "model.json").write_text(json.dumps(doc))
            codes = {}
            for command in ("validate", "effects", "identify", "criteria"):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes[command] = main([command, "model.json"])
            # every perturbation breaks the model: validate rejects it (exit 1)
            # or it does not parse (exit 8), and no command computes on it
            valid = codes.pop("validate")
            assert valid in (1, 8), (doc, valid)
            assert set(codes.values()) == {3 if valid == 1 else 8}, (doc, codes)

        every_command_exits_with_a_documented_code()


# -- CSV datasets ---------------------------------------------------------------

def _t1_csv_lines() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "t1.csv")
        M.write_csv(M.draw_samples(M.thm1_counterexample(0.5, 0.7), 300, 7), str(path))
        return path.read_text().splitlines()


T1_CSV = _t1_csv_lines()


@st.composite
def perturbed_csvs(draw) -> tuple[list[str], int | None, str | None]:
    """The lines of a sampled t1 CSV with one perturbation and, maybe, blank
    lines inserted; the file line the perturbation broke, if it broke one;
    and the column name the header repeats, if it repeats one."""
    header, rows = T1_CSV[0], list(T1_CSV[1:])
    kind = draw(st.sampled_from(["ragged", "float", "huge", "text", "header_only",
                                 "drop_column", "repeat_column", "rename_column",
                                 "one_arm", "none"]))
    r = draw(st.integers(0, len(rows) - 1))
    fields = rows[r].split(",")
    j = draw(st.integers(0, len(fields) - 1))
    broken = repeated = None
    if kind == "ragged":
        fields = fields[:j] + fields[j + 1:] if draw(st.booleans()) else fields + ["0"]
        rows[r], broken = ",".join(fields), r
    elif kind in ("float", "huge", "text"):
        fields[j] = draw(st.sampled_from({
            "float": ["1.0", "0.5", "1e3", "-0.0"],
            "huge": ["99999999999999999999", "-99999999999999999999", "9223372036854775808"],
            "text": ["x", "", "nan", "1_0", "0x1", " 1 2"],
        }[kind]))
        rows[r], broken = ",".join(fields), r
    elif kind == "header_only":
        rows = []
    elif kind == "drop_column":
        drop = lambda line: ",".join(f for k, f in enumerate(line.split(",")) if k != j)  # noqa: E731
        header, rows = drop(header), [drop(row) for row in rows]
    elif kind in ("repeat_column", "rename_column"):
        names = header.split(",")
        if kind == "repeat_column":
            repeated = draw(st.sampled_from([c for k, c in enumerate(names) if k != j]))
        names[j] = repeated or draw(st.sampled_from(["C", "Z", "C1", "l"]))
        header = ",".join(names)
    elif kind == "one_arm":
        a = header.split(",").index("A")
        rows = [row for row in rows if row.split(",")[a] == "0"]
    lines = [header] + rows
    line_of = list(range(1, len(lines) + 1))   # file line of each line
    for at in sorted(draw(st.lists(st.integers(1, len(lines)), max_size=4)), reverse=True):
        lines.insert(at, "")
        line_of[at:] = [n + 1 for n in line_of[at:]]
    return lines, None if broken is None else line_of[1 + broken], repeated


def test_csv_dataset_fuzz(monkeypatch):
    with tempfile.TemporaryDirectory() as tmp:
        monkeypatch.chdir(tmp)
        Path(tmp, "base.csv").write_text("\n".join(T1_CSV) + "\n")
        argv = ["--estimand", "psi_nie_r_L", "--n-boot", "3", "--format", "csv"]
        with contextlib.redirect_stdout(io.StringIO()) as base:
            assert main(["estimate", "base.csv", *argv]) == 0

        @settings(max_examples=150, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(perturbed_csvs())
        def estimate_exits_with_a_documented_code(case):
            lines, broken, repeated = case
            Path(tmp, "data.csv").write_text("\n".join(lines) + "\n")
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["estimate", "data.csv", *argv])
            assert code in (0, 3, 4, 8), (lines, code, err.getvalue())
            if code == 8:
                assert re.match(r"error: data\.csv: line \d+: ", err.getvalue()), err.getvalue()
            if repeated is not None:
                assert (code, err.getvalue()) == (3, f"error: dataset repeats column {repeated}\n")
            if broken is not None:
                assert code == 8, (lines, code)
                assert err.getvalue().startswith(f"error: data.csv: line {broken}: "), err.getvalue()
            elif code == 0 and len(lines) - lines.count("") == len(T1_CSV):
                assert out.getvalue() == base.getvalue()   # blank lines change nothing

        estimate_exits_with_a_documented_code()


def test_csv_errors_name_the_file_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    for body, says in (
        ("A,M,Y\n0,1,1\n\n0,1\n", "line 4: the header has 3 fields, this line 2"),
        ("A,M,Y\n0,1,1\n\n0,x,1\n", "line 4: field 2 is 'x', not an integer"),
        ("A,M,Y\n0,1,1,1\n0,1,1,1\n", "line 2: the header has 3 fields, this line 4"),
        ("A,M,Y\n0,1,99999999999999999999\n", "line 2: field 3 is 99999999999999999999, outside int64"),
        ("", "line 1: no header line"),
    ):
        path.write_text(body)
        code, out, err = run(capsys, "estimate", str(path), "--estimand", "psi_te", "--n-boot", "0")
        assert (code, out, err) == (8, "", f"error: {path}: {says}\n"), body


@pytest.mark.parametrize("header,repeated", [("A,M,Y,Y", "Y"), ("A,M,Y,A", "A"),
                                             ("C,C,A,M,Y", "C")])
def test_repeated_csv_column_exits_3(tmp_path, capsys, header, repeated):
    path = tmp_path / "repeated.csv"
    width = header.count(",") + 1
    path.write_text(header + "\n" + "".join(",".join(["0"] * (width - 2) + [a, y]) + "\n"
                                            for a in "01" for y in "01"))
    code, out, err = run(capsys, "estimate", str(path), "--estimand", "psi_te", "--n-boot", "0")
    assert (code, out, err) == (3, "", f"error: dataset repeats column {repeated}\n")


# -- fuzz -----------------------------------------------------------------------

PARAMETERS = list(dict.fromkeys(p.name for f in criteria.FAMILIES.values() for p in f.params))
FOREIGN = ["m", "pi3", "tol", "bogus"]
PROBABILITIES = st.floats(0.05, 0.95).map(repr)
NUMBERS = st.one_of(
    PROBABILITIES, PROBABILITIES,
    st.sampled_from(["nan", "inf", "-1", "0", "1", "1.5", "2", "1e-300"]),
    st.floats(-0.5, 1.5, allow_nan=False).map(repr),
    st.integers(-3, 5).map(str),
)
VALUES = st.one_of(*[NUMBERS] * 4, st.sampled_from(["abc", "basic", "confounded", ""]))


def _names(family: str | None):
    """Mostly the family's own parameters, sometimes another's or none's."""
    own = [p.name for p in criteria.FAMILIES[family].params] if family in criteria.FAMILIES else []
    return st.one_of(*[st.sampled_from(own)] * 4 * bool(own),
                     st.sampled_from([*PARAMETERS, *FOREIGN]))


def _flags(draw, family: str | None) -> list[str]:
    pairs = draw(st.lists(st.tuples(_names(family), VALUES), max_size=3))
    return [s for name, value in pairs for s in (f"--{name}", value)]


def _axis(draw, name: str) -> str:
    if draw(st.booleans()):
        return f"{name}=" + "|".join(draw(st.lists(VALUES, min_size=2, max_size=2)))
    count = draw(st.sampled_from(["2", "3", "1", "0", "2.5"]))
    return f"{name}={draw(NUMBERS)}:{draw(NUMBERS)}:{count}"


@st.composite
def argvs(draw) -> tuple[str, list[str]]:
    command = draw(st.sampled_from(
        ["validate", "effects", "identify", "criteria", "reproduce", "sweep"]))
    if command == "sweep":
        family = draw(st.sampled_from(list(criteria.FAMILIES)))
        names = st.one_of(_names(family), st.sampled_from(["", " pi"]))
        grid = ",".join(_axis(draw, name) for name in draw(st.lists(names, min_size=1,
                                                                    max_size=2, unique=True)))
        effect = draw(st.sampled_from(["nie_r", "nie", "nie_r_L", "pe(0)", "bogus"]))
        tol = draw(st.sampled_from([[], ["--tol", "0.01"], ["--tol", "nan"]]))
        return command, ["sweep", family, "--grid", grid, "--effect", effect, *tol]
    if command == "reproduce":
        theorem = draw(st.sampled_from([*criteria.THEOREMS, "s1", "T9"]))
        # a grid point to perturb: with no flags reproduce runs a whole grid
        tid = theorem.upper() if theorem.upper() in criteria.THEOREMS else "T1"
        point = draw(st.sampled_from(criteria.default_grid(tid)[::7]))
        flags = [s for k, v in point.items() for s in (f"--{k}", repr(v))]
        return command, ["reproduce", theorem, *flags, *_flags(draw, None)]
    scm = draw(st.sampled_from([*criteria.FAMILIES, "model.json", "missing.json"]))
    fmt = draw(st.sampled_from([[], ["--format", "csv"]]))
    return command, [command, scm, *_flags(draw, scm), *fmt]


def test_cli_boundary_fuzz(monkeypatch):
    with tempfile.TemporaryDirectory() as tmp:
        monkeypatch.chdir(tmp)
        Path(tmp, "model.json").write_text(M.scm_to_json(M.thm1_counterexample(0.4, 0.6)))

        @settings(max_examples=400, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(argvs())
        def exits_with_a_documented_code(case):
            command, argv = case
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 2, 3, 4, 5, 6, 8) or (code == 1 and command == "validate"), argv
            assert "Traceback" not in err.getvalue(), argv

        exits_with_a_documented_code()


# -- README ---------------------------------------------------------------------

def _table_rows(heading: str) -> list[list[str]]:
    section = README.read_text().split(heading, 1)[1]
    rows = []
    for line in section.splitlines()[1:]:
        if line.startswith("#"):
            break
        if line.startswith("|") and not set(line) <= set("|- "):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows[1:]   # without the header row


def test_readme_family_table_matches_registry():
    expected = [
        [f"`{f.name}`", f"`--{p.name}`",
         " or ".join(p.choices) if p.choices else p.type.__name__, p.default_text, p.help]
        for f in criteria.FAMILIES.values() for p in f.params
    ]
    assert _table_rows("### Family parameters") == expected


def test_readme_exit_code_table_matches_error_classes():
    by_name = {"OSError": errors.PARSE_EXIT_CODE, "ValueError": errors.PARSE_EXIT_CODE}
    by_name |= {cls.__name__: cls.exit_code for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, errors.MedscmError)
                and cls is not errors.MedscmError}
    seen = set()
    for code, raised_by, _ in _table_rows("### Exit codes"):
        for name in re.findall(r"`(\w+)`", raised_by):
            assert by_name[name] == int(code), name
            seen.add(name)
    assert seen == set(by_name)
