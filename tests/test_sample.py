import codecs
import csv
import hashlib
import importlib
import io
import itertools
import json
import os
import re
import tempfile
import threading
import tracemalloc
import urllib.request
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medscm as M
from medscm.cli import main
from medscm.model import StructuralTable, Scm


def test_determinism():
    scm = M.thm1_counterexample(0.5, 0.9)
    a = M.draw_samples(scm, 500, seed=11)
    b = M.draw_samples(scm, 500, seed=11)
    c = M.draw_samples(scm, 500, seed=12)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)
    assert a.columns == ("A", "L", "M", "Y")


def test_prefix_stability():
    # a longer draw starts with the shorter draw: the stream is keyed by row
    scm = M.thm1_counterexample(0.5, 0.9)
    short = M.draw_samples(scm, 100, seed=5)
    long = M.draw_samples(scm, 300, seed=5)
    assert np.array_equal(long.rows[:100], short.rows)


def test_empty_dataset():
    scm = M.pe_counterexample(0.5)
    ds = M.draw_samples(scm, 0, seed=0)
    assert ds.n == 0
    with pytest.raises(M.DomainError):
        M.empirical_law(ds)


def test_marginal_frequency_converges():
    scm = M.thm1_counterexample(0.5, 0.9)
    ds = M.draw_samples(scm, 10**6, seed=42)
    freq = float(np.mean(ds.rows[:, 0] == 1))
    assert abs(freq - 0.5) < 0.002


@pytest.mark.parametrize(
    "scm",
    [M.thm1_counterexample(0.5, 0.9), M.thm2_counterexample(0.2, 0.3, 0.5, 0.9)],
    ids=["t1", "t2"],
)
def test_total_variation_convergence(scm):
    exact = M.observational_law(scm)
    ds = M.draw_samples(scm, 10**6, seed=7)
    emp = M.empirical_law(ds)
    cells = set(exact.pmf) | set(emp.pmf)
    tv = 0.5 * sum(abs(exact.pmf.get(k, 0.0) - emp.pmf.get(k, 0.0)) for k in cells)
    assert tv < 0.01


T3 = M.thm3_counterexample(0.1, (0.1, 0.2, 0.4, 0.3), 0.5)


def test_t3_sample_lies_within_five_binomial_errors_of_its_law():
    """The counterfactual-joint type samples too: each (A, M, Y) cell's
    frequency lies within 5 binomial standard errors (plus 5 counts for a
    sparse cell) of observational_law(t3), and a cell of no mass is never
    drawn: the benchmark's cell check."""
    n = 200_000
    ds = M.draw_samples(T3, n, seed=3)
    assert ds.columns == ("A", "M", "Y")
    cells, counts = np.unique(ds.rows, axis=0, return_counts=True)
    drawn = dict(zip(map(tuple, cells.tolist()), counts.tolist()))
    exact = {(a, m, y): p for (_, a, _, m, y), p in M.observational_law(T3).pmf.items()}
    assert len(exact) == 8 and drawn.keys() <= exact.keys()
    for cell, p in exact.items():
        tol = 5.0 * np.sqrt(p * (1.0 - p) / n) + 5.0 / n
        assert abs(drawn.get(cell, 0) / n - p) <= tol, cell


def test_t3_rows_are_the_factual_coordinates_of_the_inverse_cdf_atom():
    # the reference: each row's atom by searchsorted over the masses' CDF
    # from its first uniform, then A, M(A) and Y(A, M(A)) read off the atom
    n, seed = 1000, 9
    u = np.random.Generator(np.random.Philox(key=seed)).random((n, 3))[:, 0]
    cum = np.cumsum(T3.masses)
    picks = np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
    labels = T3.labels
    want = []
    for k in picks.tolist():
        atom = dict(zip(labels, T3.structure.atoms[k]))
        a = atom["A"]
        m = atom[f"M({a})"]
        want.append((a, m, atom[f"Y({a},{m})"]))
    assert M.draw_samples(T3, n, seed).rows.tolist() == [list(row) for row in want]


@pytest.mark.parametrize("block", [1, 7])
def test_t3_rows_do_not_depend_on_the_block(block, monkeypatch):
    rows = M.draw_samples(T3, 501, seed=4).rows
    monkeypatch.setattr(M.sample, "CSV_BLOCK", block)
    assert np.array_equal(M.draw_samples(T3, 501, seed=4).rows, rows)


def test_single_row_point_mass():
    scm = M.pe_counterexample(0.5)
    ds = M.draw_samples(scm, 1, seed=3)
    law = M.empirical_law(ds, exposure_levels=(0, 1))
    assert len(law.pmf) == 1
    assert abs(law.total() - 1.0) <= 1e-12


def test_empirical_functional_close_to_exact():
    scm = M.thm1_counterexample(0.5, 0.9)
    ds = M.draw_samples(scm, 10**5, seed=1)
    law = M.empirical_law(ds)
    assert abs(M.psi_nie_r_L(law) - 0.2) < 0.02


def test_missing_required_cell_raises():
    # no (A=0, M=1) rows: the mediator-positivity pre-check must fail even
    # though the formula would give those cells zero weight
    rows = np.array(
        [[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 1, 1], [1, 1, 0], [0, 0, 1]],
        dtype=np.int64,
    )
    ds = M.Dataset(("A", "M", "Y"), rows)
    law = M.empirical_law(ds, exposure_levels=(0, 1))
    with pytest.raises(M.DegenerateStratumError):
        M.psi_nie(law)


def test_csv_round_trip_bit_exact(tmp_path):
    scm = M.thm2_counterexample(0.2, 0.3, 0.5, 0.9)
    drawn = M.draw_samples(scm, 20000, seed=9)
    odd = M.Dataset(("C,1", "A", "M", "Y"), np.array([[-3, 0, 10**12, 1], [7, 1, -1, 0]]))
    for ds in (drawn, odd, M.draw_samples(scm, 0, seed=9)):
        path = tmp_path / "data.csv"
        M.write_csv(ds, str(path))
        reference = io.StringIO(newline="")
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(ds.columns)
        writer.writerows(ds.rows.tolist())
        assert path.read_bytes() == reference.getvalue().encode()
        back = M.read_csv(str(path))
        assert back.columns == ds.columns
        assert np.array_equal(back.rows, ds.rows) and back.rows.shape == ds.rows.shape


def test_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("A,M,Y\n\n0,1,1\n\n1,0,0\n\n")
    back = M.read_csv(str(path))
    assert back.rows.tolist() == [[0, 1, 1], [1, 0, 0]]


# -- the read route: a regular file by path, any other file through its handle

@pytest.fixture
def t1_csv(tmp_path):
    """A sampled t1 CSV of about 70 KB, more than a pipe holds and more than
    a text handle buffers when it reads the header line."""
    path = tmp_path / "t1.csv"
    M.write_csv(M.draw_samples(M.thm1_counterexample(0.5, 0.7), 10_000, seed=5), str(path))
    return path


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """What each np.loadtxt call was given to read."""
    sources, loadtxt = [], np.loadtxt

    def spy(fname, *args, **kwargs):
        sources.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return sources


def _assert_same(got, want):
    assert got.columns == want.columns
    assert got.rows.shape == want.rows.shape and np.array_equal(got.rows, want.rows)


def _read_while_writing(path: str, write) -> M.Dataset:
    """read_csv(path) while a thread runs write(), which feeds it."""
    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        ds = M.read_csv(path)
    finally:
        writer.join(10)
    assert not writer.is_alive()
    return ds


def test_a_regular_file_reaches_loadtxt_as_a_path(t1_csv, tmp_path, loadtxt_sources):
    crlf = tmp_path / "crlf.csv"   # \r\n line ends: not a digit grid
    crlf.write_bytes(t1_csv.read_bytes().replace(b"\n", b"\r\n"))
    rows = M.read_csv(str(crlf)).rows
    assert [type(s) for s in loadtxt_sources] == [str]
    assert rows.shape == (10_000, 4)


def test_a_digit_grid_file_never_reaches_loadtxt(t1_csv, tmp_path, loadtxt_sources):
    got = M.read_csv(str(t1_csv))
    assert loadtxt_sources == []
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(t1_csv.read_bytes().replace(b"\n", b"\r\n"))
    _assert_same(got, M.read_csv(str(crlf)))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_fifo_reads_as_the_regular_file(t1_csv, tmp_path, loadtxt_sources):
    want = M.read_csv(str(t1_csv))
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    got = _read_while_writing(str(fifo), lambda: fifo.write_bytes(t1_csv.read_bytes()))
    _assert_same(got, want)
    assert not isinstance(loadtxt_sources[-1], str)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
def test_a_pipe_named_by_its_descriptor_reads_as_the_regular_file(t1_csv, loadtxt_sources):
    want = M.read_csv(str(t1_csv))
    read_end, write_end = os.pipe()

    def write():
        with os.fdopen(write_end, "wb") as fh:
            fh.write(t1_csv.read_bytes())

    try:
        got = _read_while_writing(f"/dev/fd/{read_end}", write)
    finally:
        os.close(read_end)
    _assert_same(got, want)
    assert not isinstance(loadtxt_sources[-1], str)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".GZ"])
def test_a_plain_text_file_with_a_compressed_suffix_reads_as_text(t1_csv, suffix,
                                                                   loadtxt_sources):
    named = t1_csv.with_name(t1_csv.name + suffix)
    named.write_bytes(t1_csv.read_bytes())
    _assert_same(M.read_csv(str(named)), M.read_csv(str(t1_csv)))
    assert not isinstance(loadtxt_sources[0], str)


def test_every_suffix_numpy_decompresses_keeps_the_handle():
    datasource = importlib.import_module("numpy.lib._datasource")
    assert {s for s in datasource._file_openers.keys() if s} <= set(M.sample._COMPRESSED)


def test_a_local_path_that_parses_as_a_url_is_read_without_the_network(tmp_path, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("read_csv opened a URL")

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "host").mkdir(parents=True)
    (tmp_path / "http:" / "host" / "d.csv").write_text("A,M,Y\n0,1,1\n1,0,0\n")
    assert M.read_csv("http://host/d.csv").rows.tolist() == [[0, 1, 1], [1, 0, 0]]


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks on this platform")
def test_a_dotdot_after_a_symlink_reads_the_file_the_name_opens(tmp_path, monkeypatch):
    (tmp_path / "real" / "sub").mkdir(parents=True)
    (tmp_path / "real" / "d.csv").write_text("A,M,Y\n1,1,1\n")
    (tmp_path / "d.csv").write_text("A,M,Y\n0,0,0\n")   # where folding '..' would land
    (tmp_path / "link").symlink_to(tmp_path / "real" / "sub")
    monkeypatch.chdir(tmp_path)
    assert M.read_csv("link/../d.csv").rows.tolist() == [[1, 1, 1]]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final", [True, False])
def test_line_ends_blank_lines_and_a_missing_final_end(tmp_path, end, final):
    path = tmp_path / "ends.csv"
    path.write_bytes((end.join(["A,M,Y", "", "0,1,1", "", "", "1,0,0", "1,1,0"])
                      + end * final).encode())
    back = M.read_csv(str(path))
    assert back.columns == ("A", "M", "Y")
    assert back.rows.tolist() == [[0, 1, 1], [1, 0, 0], [1, 1, 0]]
    for lines, says in (
        (["A,M,Y", "0,1,1", "", "0,1"], "line 4: the header has 3 fields, this line 2"),
        (["A,M,Y", "0,1,1", "", "0,x,1"], "line 4: field 2 is 'x', not an integer"),
        (["A,M,Y", "0,1,1,1"], "line 2: the header has 3 fields, this line 4"),
    ):
        path.write_bytes((end.join(lines) + end * final).encode())
        with pytest.raises(ValueError) as excinfo:
            M.read_csv(str(path))
        assert str(excinfo.value) == f"{path}: {says}"


# Files at and near the digit grid: each gives the rows, or the error, that
# np.loadtxt and _first_bad_line gave before the grid route existed
NEAR_GRID = {
    "grid": (b"A,M,Y\n0,1,1\n1,0,0\n", [[0, 1, 1], [1, 0, 0]]),
    "one column": (b"Y\n0\n1\n9\n", [[0], [1], [9]]),
    "byte-order mark": (codecs.BOM_UTF8 + b"A,M,Y\n0,1,1\n1,0,0\n", [[0, 1, 1], [1, 0, 0]]),
    "crlf": (b"A,M,Y\r\n0,1,1\r\n1,0,0\r\n", [[0, 1, 1], [1, 0, 0]]),
    "crlf header": (b"A,M,Y\r\n0,1,1\n1,0,0\n", [[0, 1, 1], [1, 0, 0]]),
    "lone cr header": (b"A,M,Y\r0,1,1\n1,0,0\n", [[0, 1, 1], [1, 0, 0]]),
    "cr line ends": (b"A,M,Y\n0,1,1\r1,0,0\r", [[0, 1, 1], [1, 0, 0]]),
    "blank line": (b"A,M,Y\n0,1,1\n\n1,0,0\n", [[0, 1, 1], [1, 0, 0]]),
    "trailing blank line": (b"A,M,Y\n0,1,1\n1,0,0\n\n", [[0, 1, 1], [1, 0, 0]]),
    "no final newline": (b"A,M,Y\n0,1,1\n1,0,0", [[0, 1, 1], [1, 0, 0]]),
    "trailing space": (b"A,M,Y\n0,1,1\n1,0,0 \n", [[0, 1, 1], [1, 0, 0]]),
    "plus sign": (b"A,M,Y\n0,1,1\n+1,0,0\n", [[0, 1, 1], [1, 0, 0]]),
    "quoted": (b'A,M,Y\n0,1,1\n"1",0,0\n', [[0, 1, 1], [1, 0, 0]]),
    "ten": (b"A,M,Y\n0,1,1\n10,0,0\n", [[0, 1, 1], [10, 0, 0]]),
    "negative": (b"A,M,Y\n0,1,1\n-1,0,0\n", [[0, 1, 1], [-1, 0, 0]]),
    "header only": (b"A,M,Y\n", []),
    "header without newline": (b"A,M,Y", []),
    "header and a blank line": (b"A,M,Y\n\n", []),
    "space": (b"A,M,Y\n0,1,1\n1,0 0\n", "line 3: the header has 3 fields, this line 2"),
    "semicolon": (b"A,M,Y\n0,1,1\n1;0,0\n", "line 3: the header has 3 fields, this line 2"),
    "extra field": (b"A,M,Y\n0,1,1\n1,0,0,1\n", "line 3: the header has 3 fields, this line 4"),
    "short lines": (b"A,M,Y\n0,1\n1,0\n0,1\n", "line 2: the header has 3 fields, this line 2"),
    "trailing comma": (b"A,M,Y\n0,1,1,\n1,0,0,\n", "line 2: the header has 3 fields, this line 4"),
    "comma before the end": (b"A,M,Y\n0,1,1,0,1,\n", "line 2: the header has 3 fields, this line 6"),
    "nul": (b"A,M,Y\n0,1,1\n1,\x00,0\n", "line 3: field 2 is '\\x00', not an integer"),
    "hash": (b"A,M,Y\n0,1,1\n#,0,0\n", "line 3: field 1 is '#', not an integer"),
    "letter": (b"A,M,Y\n0,a,1\n1,0,0\n", "line 2: field 2 is 'a', not an integer"),
}


@pytest.mark.parametrize("name", sorted(NEAR_GRID))
def test_files_near_the_digit_grid_read_as_loadtxt_reads_them(tmp_path, name):
    data, want = NEAR_GRID[name]
    path = tmp_path / "near.csv"
    path.write_bytes(data)
    if isinstance(want, str):
        with pytest.raises(ValueError) as excinfo:
            M.read_csv(str(path))
        assert str(excinfo.value) == f"{path}: {want}"
        return
    ds = M.read_csv(str(path))
    assert ds.columns == (("Y",) if name == "one column" else ("A", "M", "Y"))
    assert ds.rows.shape == (len(want), len(ds.columns)) and ds.rows.tolist() == want


@st.composite
def _row_tables(draw):
    """int64 rows of 1-5 columns at, below and above one CSV_BLOCK: all
    digits, or with one value of 10 or more, or one negative value."""
    block = M.sample.CSV_BLOCK
    n = draw(st.sampled_from([0, 1, 2, 37, block - 1, block, block + 1]))
    fields = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, draw(st.integers(1, 10)), size=(n, fields))
    spoiler = draw(st.sampled_from([None, st.integers(10, 10**15), st.integers(-(10**15), -1)]))
    if spoiler is not None and n:
        rows[draw(st.integers(0, n - 1)), draw(st.integers(0, fields - 1))] = draw(spoiler)
    return np.asfortranarray(rows) if draw(st.booleans()) else rows


@settings(deadline=None, max_examples=60)
@given(rows=_row_tables())
def test_written_bytes_are_the_plain_format_and_read_back(rows):
    ds = M.Dataset(tuple(f"c{j}" for j in range(rows.shape[1])), rows)
    want = ",".join(ds.columns) + "\n" + "".join(",".join(map(str, row)) + "\n"
                                                 for row in rows.tolist())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        M.write_csv(ds, path)
        with open(path, "rb") as fh:
            assert fh.read() == want.encode()
        _assert_same(M.read_csv(path), ds)


def test_a_dataset_without_rows_writes_its_header_alone(tmp_path):
    path = tmp_path / "empty.csv"
    M.write_csv(M.Dataset(("A", "M", "Y"), np.zeros((0, 3), dtype=np.int64)), str(path))
    assert path.read_bytes() == b"A,M,Y\n"


@pytest.mark.parametrize("header", [b"A,L,M,Y", b'"A",L,M,Y'])
def test_a_byte_order_mark_before_the_header_is_skipped(t1_csv, tmp_path, header):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(t1_csv.read_bytes().replace(b"A,L,M,Y", header, 1))
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    _assert_same(M.read_csv(str(marked)), M.read_csv(str(plain)))
    assert M.read_csv(str(marked)).columns == ("A", "L", "M", "Y")


def test_estimate_constant_outcome():
    b = (0, 1)
    scm = M.pe_counterexample(0.5)
    tables = tuple(
        StructuralTable("Y", ("A", "M"), "eps_Y", {((a, m), 0): 0 for a in b for m in b})
        if t.variable == "Y"
        else t
        for t in scm.tables
    )
    constant = Scm.of(scm.variables, scm.noise, tables, scm.exposure_levels)
    ds = M.draw_samples(constant, 2000, seed=2)
    est = M.estimate(ds, "psi_te", n_boot=200, seed=0)
    assert est.value == 0.0
    assert est.ci_low == 0.0 and est.ci_high == 0.0


def test_estimate_without_bootstrap():
    scm = M.thm1_counterexample(0.5, 0.9)
    ds = M.draw_samples(scm, 5000, seed=21)
    est = M.estimate(ds, "psi_nie_r_L", n_boot=0)
    assert est.ci_low is None and est.ci_high is None
    assert est.n_boot == 0


def test_estimate_deterministic_and_ordered():
    scm = M.thm1_counterexample(0.5, 0.9)
    ds = M.draw_samples(scm, 3000, seed=4)
    e1 = M.estimate(ds, "psi_nie_r_L", n_boot=150, seed=8)
    e2 = M.estimate(ds, "psi_nie_r_L", n_boot=150, seed=8)
    assert (e1.value, e1.ci_low, e1.ci_high) == (e2.value, e2.ci_low, e2.ci_high)
    assert e1.ci_low <= e1.ci_high


def test_estimate_parametric_requires_level():
    scm = M.thm1_counterexample(0.5, 0.9)
    ds = M.draw_samples(scm, 1000, seed=6)
    with pytest.raises(M.DomainError):
        M.estimate(ds, "psi_cde", n_boot=0)
    est = M.estimate(ds, "psi_cde", n_boot=0, m=1)
    assert est.estimand == "psi_cde(1)"
    assert abs(est.value - 0.5) < 0.1


def test_estimate_consistency_small_ladder():
    scm = M.thm1_counterexample(0.5, 0.9)
    errs = []
    for n in (10**3, 10**4):
        per_seed = []
        for s in range(10):
            ds = M.draw_samples(scm, n, seed=100 + s)
            per_seed.append(abs(M.estimate(ds, "psi_nie_r_L", n_boot=0).value - 0.2))
        errs.append(float(np.median(per_seed)))
    assert errs[1] < errs[0]


def _unsorted_support_model() -> Scm:
    """A model file whose M and Y supports are unsorted and non-consecutive,
    with a covariate and an exposure listed out of order."""
    ms, ys = (5, -1, 2), (3, 0, 7)

    def table(variable, parents, supports, noise, value):
        rows = [{"parents": list(pv), "noise": e, "value": value(*pv, e)}
                for pv in itertools.product(*supports) for e in noise]
        return {"variable": variable, "parents": list(parents), "noise": f"e{variable}", "rows": rows}

    doc = {
        "variables": [{"name": "C1", "support": [4, -2], "role": "C"},
                      {"name": "A", "support": [1, 0], "role": "A"},
                      {"name": "M", "support": list(ms), "role": "M"},
                      {"name": "Y", "support": list(ys), "role": "Y"}],
        "edges": {"C1": [], "A": ["C1"], "M": ["C1", "A"], "Y": ["C1", "A", "M"]},
        "noise": [{"name": "eC1", "pmf": {"0": 0.3, "1": 0.7}},
                  {"name": "eA", "pmf": {"0": 0.4, "1": 0.6}},
                  {"name": "eM", "pmf": {"0": 0.2, "1": 0.5, "2": 0.3}},
                  {"name": "eY", "pmf": {"0": 0.25, "1": 0.25, "2": 0.5}}],
        "tables": [
            table("C1", (), (), (0, 1), lambda e: (4, -2)[e]),
            table("A", ("C1",), ((4, -2),), (0, 1), lambda c, e: (e + (c > 0)) % 2),
            table("M", ("C1", "A"), ((4, -2), (0, 1)), (0, 1, 2),
                  lambda c, a, e: ms[(e + a + (c > 0)) % 3]),
            table("Y", ("C1", "A", "M"), ((4, -2), (0, 1), ms), (0, 1, 2),
                  lambda c, a, m, e: ys[(e * (a + 1) + ms.index(m) + (c < 0)) % 3]),
        ],
        "exposure_levels": [0, 1],
    }
    return M.model.scm_from_json(json.dumps(doc))


PINNED_MODELS = {
    "t1": lambda: M.thm1_counterexample(0.5, 0.9),
    "t2": lambda: M.thm2_counterexample(0.2, 0.3, 0.5, 0.9),
    "random": lambda: M.random_scm(7, "confounded", with_c=True, c_levels=4, l_levels=3,
                                   m_levels=3, y_levels=4),
    "unsorted": _unsorted_support_model,
}

# sha256 of the rows draw_samples(model, 20000, seed=2011) returns (int64,
# row-major) and of the bytes write_csv writes for them, as first recorded
PINNED_BYTES = {
    "t1": ("8131b99cb952348d94e6c7262b39f9962435860fe9ee42b658f04ce9fc170045",
           "a6f8613a4afb0bcd62d867c307594ea9f24c174c7afc0633bc75117d43f8b83d"),
    "t2": ("4d63cf13e7bc3427ad04de51986489bac98a0bb11647f467ee0cc6bdcc236cd4",
           "34b3b2bb7f681fba4de566c34c54c6be81865b0719e769f70652b88073dd498b"),
    "random": ("8bd069fc60cefd8dc114a88d61b920503b4853d3b5046973bfd7a3a283e25025",
               "b98ea8d6c98b95ae7a8b98c0d9e2b4a7d5c69b9e5f5ef856e04ec61bd8767776"),
    "unsorted": ("e178759185de40bde6419ccfa5bd2043eca340c518f0149686afbf9332dcc0cf",
                 "91eaeef47af02de628291cff8f173d103d923e8f6c443ca7d4dc861b3472b97a"),
}


@pytest.mark.parametrize("name", sorted(PINNED_MODELS))
def test_dataset_bytes_are_pinned(name, tmp_path):
    scm = PINNED_MODELS[name]()
    assert M.validate(scm) == []
    ds = M.draw_samples(scm, 20000, seed=2011)
    assert ds.rows.dtype == np.int64 and ds.rows.shape == (20000, len(ds.columns))
    path = tmp_path / "data.csv"
    M.write_csv(ds, str(path))
    digest = (hashlib.sha256(ds.rows.tobytes()).hexdigest(),
              hashlib.sha256(path.read_bytes()).hexdigest())
    assert digest == PINNED_BYTES[name]


def test_csv_blocks_of_distinct_and_repeated_rows(tmp_path, monkeypatch):
    # blocks of distinct rows, of a few repeated rows and of narrow values
    # must each write what csv.writer writes
    rng = np.random.default_rng(3)
    distinct = rng.integers(-10**15, 10**15, size=(64, 4))
    repeated = distinct[rng.integers(0, 5, size=64)]
    narrow = rng.integers(-2, 2, size=(40, 4))
    rows = np.concatenate([distinct, repeated, narrow, distinct[:8]])
    monkeypatch.setattr(M.sample, "CSV_BLOCK", 64)
    grouped = []
    group_ids = M.engine.group_ids
    monkeypatch.setattr(M.engine, "group_ids",
                        lambda *cols: grouped.append(group_ids(*cols)[1].size) or group_ids(*cols))
    ds = M.Dataset(("C", "A", "M", "Y"), rows)
    path = tmp_path / "blocks.csv"
    M.write_csv(ds, str(path))
    reference = io.StringIO(newline="")
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(ds.columns)
    writer.writerows(rows.tolist())
    assert path.read_bytes() == reference.getvalue().encode()
    assert grouped[:2] == [64, 5] and len(grouped) == 3


@pytest.mark.parametrize("header", [("A", "M", "Y", "Y"), ("A", "M", "Y", "A"),
                                    ("C", "C", "A", "M", "Y")])
def test_repeated_column_names_are_refused(header):
    rows = np.array([[0, 1, 1, 0, 1], [1, 0, 1, 1, 0]])[:, : len(header)]
    ds = M.Dataset(header, rows)
    repeated = next(name for name in header if header.count(name) > 1)
    with pytest.raises(M.DomainError, match=f"^dataset repeats column {repeated}$"):
        M.empirical_law(ds, exposure_levels=(0, 1))


@pytest.mark.parametrize("block", [1, 7, None])
def test_drawn_rows_do_not_depend_on_the_block(block, monkeypatch):
    scm = PINNED_MODELS["random"]()
    n = 1001
    rows = M.draw_samples(scm, n, seed=5).rows
    monkeypatch.setattr(M.sample, "CSV_BLOCK", block or n)
    assert np.array_equal(M.draw_samples(scm, n, seed=5).rows, rows)


@pytest.mark.parametrize("make", [
    lambda: M.thm1_counterexample(0.5, 0.9),
    lambda: T3,
    lambda: M.random_scm(2001, "confounded", with_c=True, c_levels=4, l_levels=3,
                         m_levels=3, y_levels=4),
], ids=["t1", "t3", "random_4_3_3_4"])
def test_drawing_holds_the_rows_and_one_block(make):
    model = make()
    M.draw_samples(model, 10, seed=1)   # the structure's lookups, built once
    tracemalloc.start()
    try:
        ds = M.draw_samples(model, 10**5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.rows.nbytes + 2**20


def _identity_roots() -> Scm:
    # C = eps_C and A = eps_A over 0..k-1: each one's value row is its
    # noise position row, and A's positions lie after C's in the draw
    b, c = (0, 1), (0, 1, 2)
    variables = (M.VariableSpec("C", c, "C"), M.VariableSpec("A", b, "A"),
                 M.VariableSpec("M", b, "M"), M.VariableSpec("Y", b, "Y"))
    noise = (M.NoiseSpec("eps_C", {0: 0.2, 1: 0.3, 2: 0.5}), M.NoiseSpec("eps_A", {0: 0.4, 1: 0.6}),
             M.NoiseSpec("eps_M", {0: 0.3, 1: 0.7}), M.NoiseSpec("eps_Y", {0: 0.5, 1: 0.5}))
    tables = (M.model._table("C", (), (), c, lambda e: e),
              M.model._table("A", (), (), b, lambda e: e),
              M.model._table("M", ("C", "A"), (c, b), b, lambda cc, a, e: (cc + a + e) % 2),
              M.model._table("Y", ("C", "A", "M"), (c, b, b), b, lambda cc, a, m, e: (a * m + e) % 2))
    return Scm.of(variables, noise, tables, (0, 1))


@pytest.mark.parametrize("make", [
    lambda: M.thm1_counterexample(0.5, 0.9),
    lambda: T3,
    lambda: M.random_scm(2001, "confounded", with_c=True, c_levels=4, l_levels=3,
                         m_levels=3, y_levels=4),
    _identity_roots,
], ids=["t1", "t3", "random_4_3_3_4", "identity_roots"])
def test_draw_is_grid_at_positions_held_apart(make):
    # draw keeps each factor's positions in out's own memory, which is safe
    # only while grid returns no view of them: the reference finds the same
    # positions (the clipped searchsorted of each factor's CDF) in arrays of
    # their own and reads grid at the factual regime
    model = make()
    n = 3000
    u = np.random.default_rng(4).random((n, len(model.topo_order)))
    out = np.empty(u.shape, dtype=np.int64)
    model.draw(u, out)
    positions = []
    for j, factor in enumerate(model._factors):
        cum = np.cumsum(factor)
        positions.append(np.minimum(np.searchsorted(cum, u[:, j], side="right"), cum.size - 1))
    ref = model.grid(positions, dict.fromkeys(model.topo_order, [(None, None)]))
    assert np.array_equal(out, np.column_stack([ref[v][0] for v in model.topo_order]))


def _replicate_tables(ds, mp, n_boot, seed=0, estimand="psi_nie_r_L"):
    """The estimate and each bootstrap replicate's mass table, in order."""
    tables = []
    score = M.sample._score_batch

    def record(fn, law, args):
        tables.append(np.array(law.mass))
        return score(fn, law, args)

    mp.setattr(M.sample, "_score_batch", record)
    est = M.estimate(ds, estimand, n_boot=n_boot, seed=seed)
    return est, np.concatenate(tables)


def test_bootstrap_reads_the_rows_only_through_their_counts():
    # with covariates the table's cell layout follows the rows' order
    scm = M.random_scm(3, "confounded", with_c=True, c_levels=3, l_levels=2,
                       m_levels=2, y_levels=3)
    ds = M.draw_samples(scm, 5000, seed=3)
    shuffled = M.Dataset(ds.columns, ds.rows[np.random.default_rng(0).permutation(ds.n)])
    assert M.estimate(shuffled, "psi_nie_r_L", n_boot=40, seed=2) == \
        M.estimate(ds, "psi_nie_r_L", n_boot=40, seed=2)


def test_replicate_tables_do_not_depend_on_the_block(monkeypatch):
    scm = M.random_scm(3, "confounded", with_c=True, c_levels=3, l_levels=2,
                       m_levels=2, y_levels=3)
    ds = M.draw_samples(scm, 5000, seed=4)
    size = M.empirical_law(ds).mass.size
    runs = []
    for block in (None, 1, 3):
        with monkeypatch.context() as mp:
            if block:
                factor = M.engine.PROFILE_BYTE_BUDGET // (8 * size * block)
                mp.setattr(M.sample, "BOOT_TABLE_FACTOR", factor)
            runs.append(_replicate_tables(ds, mp, 10, seed=6))
    assert [est for est, _ in runs] == [runs[0][0]] * 3
    for _, tables in runs[1:]:
        assert tables.tobytes() == runs[0][1].tobytes()


def test_replicate_counts_are_multinomial_over_the_occupied_cells(monkeypatch):
    ds = M.draw_samples(M.thm1_counterexample(0.5, 0.9), 500, seed=8)
    law = M.empirical_law(ds)
    occupied = law.mass.ravel() > 0
    p = law.mass.ravel()[occupied]
    with monkeypatch.context() as mp:
        _, tables = _replicate_tables(ds, mp, 4000, seed=1)
    counts = tables.reshape(len(tables), -1) * ds.n
    assert np.array_equal(counts, np.rint(counts))
    assert (counts.sum(axis=1) == ds.n).all() and not counts[:, ~occupied].any()
    counts = counts[:, occupied]
    mean, cov = ds.n * p, ds.n * (np.diag(p) - np.outer(p, p))
    r = len(counts)
    # within five standard errors of the sample mean and covariance
    assert (abs(counts.mean(axis=0) - mean) <= 5 * np.sqrt(np.diag(cov) / r)).all()
    var = np.diag(cov)
    se = np.sqrt((np.outer(var, var) + cov**2) / r)
    assert (abs(np.cov(counts, rowvar=False) - cov) <= 5 * se).all()


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_each_replicate_draws_what_a_fresh_philox_keyed_by_seed_and_r_draws(seed, monkeypatch):
    # one generator serves every replicate; blocks of three put replicates on
    # both sides of a block boundary, and the oracle's fresh generators hold
    # no binomial set-up from an earlier replicate
    ds = M.draw_samples(PINNED_MODELS["random"](), 3000, seed=6)
    law = M.empirical_law(ds)
    shares = law.mass.ravel()[law.order]
    monkeypatch.setattr(M.sample, "BOOT_TABLE_FACTOR",
                        M.engine.PROFILE_BYTE_BUDGET // (8 * law.mass.size * 3))
    _, tables = _replicate_tables(ds, monkeypatch, 8, seed=seed)
    assert len(tables) == 8
    for r, table in enumerate(tables):
        key = np.array([seed, r], dtype=np.uint64)
        counts = np.zeros(law.mass.size, dtype=np.int64)
        counts[law.order] = np.random.Generator(np.random.Philox(key=key)).multinomial(ds.n, shares)
        assert table.tobytes() == (counts / ds.n).reshape(law.mass.shape).tobytes(), r


def test_bootstrap_memory_does_not_grow_with_the_rows():
    peaks = []
    for n in (2000, 10**5):
        ds = M.draw_samples(M.thm1_counterexample(0.5, 0.9), n, seed=9)
        M.estimate(ds, "psi_nie_r_L", n_boot=2)   # the empirical law, built once
        tracemalloc.start()
        try:
            M.estimate(ds, "psi_nie_r_L", n_boot=50)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # drawing n row indices alone took 8n bytes, 800 KB at the larger n
    assert peaks[1] < peaks[0] + 2**16


def test_bootstrap_over_tens_of_thousands_of_cells(tmp_path, capsys):
    # 40,000 rows over 2 x 2 x 20,000 cells occupy about 31,000 of them,
    # each share a few 1/n: numpy's multinomial must accept their sum
    rng = np.random.default_rng(12)
    n = 40_000
    rows = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 2, n),
                            rng.integers(0, 20_000, n)])
    ds = M.Dataset(("A", "M", "Y"), rows)
    assert (M.empirical_law(ds).mass > 0).sum() > 30_000
    path = tmp_path / "wide.csv"
    M.write_csv(ds, str(path))
    code = main(["estimate", str(path), "--estimand", "psi_te", "--n-boot", "20",
                       "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0, out
    est = M.estimate(ds, "psi_te", n_boot=20)
    assert est.ci_low <= est.ci_high and f"ci_low,{est.ci_low:.12g}" in out


# ---------------------------------------------------------------------------
# The draw's inverse CDF and the empirical law against plain references
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=80)
@given(weights=st.lists(st.integers(0, 4), min_size=1, max_size=300).filter(any),
       seed=st.integers(0, 2**32 - 1))
def test_inverse_cdf_is_the_clipped_searchsorted(weights, seed):
    # zero weights make flat stretches of the CDF, so edges repeat
    masses = [w / sum(weights) for w in weights]
    cum = np.cumsum(masses)
    edges = M.model._cdf_edges(masses)
    assert edges.size & (edges.size - 1) == 0 and edges.size >= cum.size
    inner = cum[:-1]
    u = np.concatenate([np.random.default_rng(seed).random(257), [0.0], inner,
                        np.nextafter(inner, 0.0), np.nextafter(inner, 1.0)])
    u = u[u < 1.0]
    closed = np.append(inner, 1.0)
    expected = np.minimum(np.searchsorted(closed, u, side="right"), cum.size - 1)
    assert np.array_equal(M.model._inverse_cdf(edges, u), expected)


@st.composite
def _datasets(draw):
    """Rows over shuffled columns: up to two covariates, A, an optional L, M
    and Y, each column constant, narrow or wider than 2n + 64; or six or
    seven columns of up to 9 levels from negative minimums, each narrow but
    together too many levels for one key base (base**f > 2n + 64)."""
    n = draw(st.integers(1, 40))
    many = draw(st.integers(0, 3)) == 0
    names = [f"C{i}" for i in range(draw(st.integers(2, 3) if many else st.integers(0, 2)))]
    names = draw(st.permutations([*names, "A", *["L"] * (many or draw(st.booleans())), "M", "Y"]))
    columns = []
    for _ in names:
        kind = "many" if many else draw(st.sampled_from(["constant", "narrow", "wide"]))
        if kind == "constant":
            values = [draw(st.integers(-5, 5))]
        elif kind == "many":
            lo = draw(st.integers(-9, -1))
            values = list(range(lo, lo + draw(st.integers(1, 9))))
        else:
            scale = 10**9 if kind == "wide" else 1
            values = [v * scale for v in draw(st.lists(st.integers(-4, 4), min_size=1,
                                                       max_size=6, unique=True))]
        column = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
        if kind == "wide" and n > 1:
            column[:2] = [-(10**12), 10**12]
        columns.append(column)
    if many and n > 1:
        columns[0][:2] = [-9, -1]
    return M.Dataset(tuple(names), np.array(columns, dtype=np.int64).T.copy())


def _grouped_law(ds):
    """The empirical law as one grouping of the rows (engine.group_ids) in
    order of first occurrence gives it, key order by sorting the distinct
    rows: the reference _index_rows must agree with field by field."""
    c_idx, *factual = M.sample._column_roles(ds.columns)
    group, first = M.engine.group_ids(*ds.rows.T)
    distinct = ds.rows[first]
    cols = [*distinct.T, None]
    supports = [tuple(np.unique(col).tolist()) for col in cols[:-1]] + [None]
    c_cell, c_first = M.engine.group_ids(*(cols[i] for i in c_idx)) if c_idx else (0, [0])
    cell, shape = M.engine.table_cells(
        c_cell, len(c_first), [cols[i] for i in factual], [supports[i] for i in factual]
    )
    counts = np.zeros(np.prod(shape, dtype=int), dtype=np.int64)
    counts[cell] = np.bincount(group, minlength=first.size)
    return dict(mass=(counts / ds.n).reshape(shape), order=cell[np.lexsort(distinct.T[::-1])],
                c_cells=tuple(map(tuple, distinct[c_first][:, c_idx].tolist())),
                c_names=tuple(ds.columns[i] for i in c_idx),
                supports=tuple(supports[i] for i in factual))


@settings(deadline=None, max_examples=120)
@given(ds=_datasets())
def test_empirical_law_is_the_counts_of_the_rows(ds):
    law = M.sample._index_rows(ds)
    rows = list(map(tuple, ds.rows.tolist()))
    counts = Counter(rows)
    at = {name: i for i, name in enumerate(ds.columns)}
    c_cols = [i for i, name in enumerate(ds.columns) if name not in ("A", "L", "M", "Y")]

    def key(row):
        return (tuple(row[i] for i in c_cols), row[at["A"]],
                row[at["L"]] if "L" in at else None, row[at["M"]], row[at["Y"]])

    assert list(law.pmf.items()) == [(key(row), counts[row] / ds.n) for row in sorted(counts)]
    assert np.count_nonzero(law.mass) == len(counts)
    assert law.c_cells == tuple(dict.fromkeys(key(row)[0] for row in rows))
    assert law.c_names == tuple(ds.columns[i] for i in c_cols)
    for name, support in (("A", law.a_support), ("L", law.l_support),
                          ("M", law.m_support), ("Y", law.y_support)):
        expected = tuple(sorted({row[at[name]] for row in rows})) if name in at else None
        assert support == expected
    grouped = _grouped_law(ds)
    assert law.mass.shape == grouped["mass"].shape
    assert law.mass.tobytes() == grouped["mass"].tobytes()
    assert law.order.dtype == grouped["order"].dtype
    assert law.order.tobytes() == grouped["order"].tobytes()
    assert (law.c_cells, law.c_names) == (grouped["c_cells"], grouped["c_names"])
    assert (law.a_support, law.l_support, law.m_support, law.y_support) == grouped["supports"]


def test_indexing_rows_holds_one_key_per_row():
    # a key per row, counted: grouping column by column held three n-length
    # int64 arrays at once
    ds = M.draw_samples(M.thm1_counterexample(0.5, 0.9), 10**5, seed=1)
    M.sample._index_rows(ds)
    tracemalloc.start()
    try:
        M.sample._index_rows(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * ds.n


# ---------------------------------------------------------------------------
# Row inputs outside their domain
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, seed, says", [
    (2.5, 0, "n must be an integer, got 2.5"),
    (True, 0, "n must be an integer, got True"),
    (-1, 0, "n must be nonnegative, got -1"),
    (5, 1.5, "seed must be an integer, got 1.5"),
    (5, 2**128, f"seed must lie in [0, 2**128), got {2**128}"),
])
def test_draw_samples_refuses_a_non_integer_count_or_seed(n, seed, says):
    with pytest.raises(M.DomainError, match=f"^{re.escape(says)}$"):
        M.draw_samples(M.thm1_counterexample(0.5, 0.9), n, seed)


@pytest.mark.parametrize("n_boot, seed, says", [
    (2.5, 0, "n_boot must be an integer, got 2.5"),
    (True, 0, "n_boot must be an integer, got True"),
    (10, 2**64, f"seed must lie in [0, 2**64), got {2**64}"),
    (10, -1, "seed must lie in [0, 2**64), got -1"),
    (10, 1.5, "seed must be an integer, got 1.5"),
    (0, -1, "seed must lie in [0, 2**64), got -1"),
])
def test_estimate_refuses_a_non_integer_replicate_count_or_seed(n_boot, seed, says):
    ds = M.draw_samples(M.thm1_counterexample(0.5, 0.9), 200, seed=1)
    with pytest.raises(M.DomainError, match=f"^{re.escape(says)}$"):
        M.estimate(ds, "psi_te", n_boot=n_boot, seed=seed)


def test_estimate_takes_every_seed_below_2_to_the_64():
    ds = M.draw_samples(M.thm1_counterexample(0.5, 0.9), 200, seed=1)
    top = M.estimate(ds, "psi_te", n_boot=20, seed=2**64 - 1)
    assert top.ci_low <= top.ci_high
    # a key given as a list goes through float64 above 2**63, where 2**63,
    # 2**63 + 1 and 2**63 + 2 drew one stream
    assert len({M.estimate(ds, "psi_te", n_boot=20, seed=seed)
                for seed in (2**63, 2**63 + 1, 2**63 + 2, 2**64 - 1)}) == 4
    assert M.estimate(ds, "psi_te", n_boot=20, seed=np.uint64(7)) == \
        M.estimate(ds, "psi_te", n_boot=20, seed=7)


@pytest.mark.parametrize("rows, got", [
    (np.array([0, 1, 1]), "shape (3,) of int64"),
    (np.zeros((2, 4), dtype=np.int64), "shape (2, 4) of int64"),
    (np.zeros((2, 3)), "shape (2, 3) of float64"),
    (np.zeros((2, 3), dtype=bool), "shape (2, 3) of bool"),
    (np.zeros((2, 3), dtype=np.uint64), "shape (2, 3) of uint64"),
    ([[0, 1, 1]], "list"),
])
def test_dataset_rows_must_be_an_integer_table_of_its_columns(rows, got):
    with pytest.raises(M.DomainError, match=re.escape(
            f"dataset rows must be a 2-D integer array with one column per header name (3), "
            f"got {got}")):
        M.Dataset(("A", "M", "Y"), rows)


def test_dataset_rows_of_a_narrow_integer_type_are_kept_as_int64():
    # in int8, value minus minimum wraps past 127: 28 would take -27's code
    levels = (-100, 100, 28, -27)
    rows = np.array([[a, 0, 1] for a in levels] * 20, dtype=np.int8)
    narrow = M.Dataset(("A", "M", "Y"), rows)
    assert narrow.rows.dtype == np.int64
    law = M.empirical_law(narrow)
    assert law.a_support == tuple(sorted(levels))
    assert law.pmf == {((), a, None, 0, 1): 0.25 for a in sorted(levels)}
