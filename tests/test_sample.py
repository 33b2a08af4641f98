import csv
import io

import numpy as np
import pytest

import medscm as M
from medscm.model import StructuralTable, Scm


def test_determinism_and_provenance():
    scm = M.thm1_counterexample(0.5, 0.9)
    a = M.draw_samples(scm, 500, seed=11)
    b = M.draw_samples(scm, 500, seed=11)
    c = M.draw_samples(scm, 500, seed=12)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)
    assert a.provenance == (M.sample.scm_id(scm), 500, 11)
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
    ds = M.Dataset(("A", "M", "Y"), rows, ("manual", 6, -1))
    law = M.empirical_law(ds, exposure_levels=(0, 1))
    with pytest.raises(M.DegenerateStratumError):
        M.psi_nie(law)


def test_csv_round_trip_bit_exact(tmp_path):
    scm = M.thm2_counterexample(0.2, 0.3, 0.5, 0.9)
    drawn = M.draw_samples(scm, 20000, seed=9)
    odd = M.Dataset(("C,1", "A", "M", "Y"), np.array([[-3, 0, 10**12, 1], [7, 1, -1, 0]]),
                    ("manual", 2, -1))
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


def test_estimate_constant_outcome():
    b = (0, 1)
    scm = M.pe_counterexample(0.5)
    tables = tuple(
        StructuralTable("Y", ("A", "M"), "eps_Y", {((a, m), 0): 0 for a in b for m in b})
        if t.variable == "Y"
        else t
        for t in scm.tables
    )
    constant = Scm(scm.variables, scm.noise, tables, scm.exposure_levels)
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
