import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medscm as M
from medscm import model
from medscm.cli import main
from medscm.model import Scm, StructuralTable


def grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


@pytest.mark.parametrize("p", grid(0.1, 0.9, 9))
def test_pe_counterexample_closed_forms(p):
    report = M.effect_report(M.pe_counterexample(p))
    assert abs(report.te - p) <= 1e-12
    for m in (0, 1):
        assert abs(report.cde[m] - m) <= 1e-12
        assert abs(report.pe[m] - (p - m)) <= 1e-12
    assert report.nie == 0.0
    assert abs(report.nde - p) <= 1e-12


def test_frozen_family_values():
    # independently derived by brute-force enumeration of the noise atoms
    assert abs(M.effect_report(M.thm1_counterexample(0.3, 0.8)).nie_r - 0.126) <= 1e-12
    assert abs(M.effect_report(M.thm2_counterexample(0.2, 0.3, 0.5, 0.9)).nie_r - 0.518) <= 1e-12
    # degenerate corners that kill the contrast entirely; the second has a
    # one-arm confounder stratum, so only the plain randomized contrast is
    # defined there
    assert abs(M.effect_report(M.thm1_counterexample(0.5, 0.5)).nie_r) <= 1e-12
    assert abs(M.randomized_effects(M.thm2_counterexample(1.0, 0.0, 0.0, 0.7))[0]) <= 1e-12
    equal_mid = M.thm3_counterexample(0.3, (0.2, 0.25, 0.25, 0.3), 0.4)
    assert abs(M.effect_report(equal_mid).nie_r) <= 1e-12


def test_thm1_report_values():
    report = M.effect_report(M.thm1_counterexample(0.5, 0.9))
    assert report.nie == 0.0
    assert abs(report.nie_r - 0.2) <= 1e-12
    assert abs(report.nie_r_L - 0.4) <= 1e-12
    assert abs(report.nie_r_La) <= 1e-12
    assert abs(report.h_contrast - 0.2) <= 1e-12
    # the controlled contrast equals pi at both mediator levels here
    for m in (0, 1):
        assert abs(report.cde[m] - 0.5) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), shape=st.sampled_from(["basic", "confounded"]))
def test_decomposition_identities(seed, shape):
    scm = M.random_scm(seed, shape, with_c=seed % 3 == 0, m_levels=2 + seed % 2)
    report = M.effect_report(scm)
    assert abs(report.te - report.nie - report.nde) <= 1e-12
    assert abs(report.te_r - report.nie_r - report.nde_r) <= 1e-12
    for m, v in report.pe.items():
        assert abs(v - (report.te - report.cde[m])) <= 1e-12


def test_exposure_relabel_negates_total_effect():
    scm = M.thm2_counterexample(0.2, 0.3, 0.5, 0.8)
    swapped = Scm.of(scm.variables, scm.noise, scm.tables, (1, 0))
    assert M.validate(swapped) == []
    assert abs(M.total_effect(swapped) + M.total_effect(scm)) <= 1e-12
    rep = M.effect_report(swapped)
    assert abs(rep.te - rep.nie - rep.nde) <= 1e-12


def test_basic_shape_randomized_equals_natural():
    for seed in range(20):
        scm = M.random_scm(seed, "basic", with_c=seed % 2 == 0, m_levels=2 + seed % 2)
        report = M.effect_report(scm)
        assert abs(report.nie_r - report.nie) <= 1e-12


def test_reference_interaction_identity_binary_m():
    # te = cde at the reference level plus the reference interaction with the
    # complementary level first, plus nie
    for seed in range(20):
        scm = M.random_scm(seed, "basic", with_c=seed % 2 == 0)
        report = M.effect_report(scm)
        lhs = report.te
        rhs = report.cde[0] + report.int_ref[(1, 0)] + report.nie
        assert abs(lhs - rhs) <= 1e-12
        assert report.int_ref[(0, 0)] == 0.0
        assert report.int_ref[(1, 1)] == 0.0


def test_reference_interaction_rejects_nonbinary_m():
    scm = M.random_scm(1, "basic", m_levels=3)
    with pytest.raises(M.DomainError):
        M.reference_interaction(scm, 0, 1)
    assert M.effect_report(scm).int_ref is None


@pytest.mark.parametrize("shape", ["basic", "confounded"])
def test_additive_outcome_alignment(shape):
    for seed in range(15):
        scm = M.random_additive_scm(seed, shape=shape, with_c=seed % 2 == 0)
        report = M.effect_report(scm)
        assert abs(report.nie - report.nie_r) <= 1e-10
        for m in report.pe:
            assert abs(report.pe[m] - report.nie) <= 1e-10
        for v in report.int_ref.values():
            assert abs(v) <= 1e-10


def test_additive_without_direct_pathway_has_zero_nde():
    scm = M.additive_outcome_scm(
        f={(0,): 2, (1,): 5},
        g={(0,): 0, (1,): 0},
        denom=8,
        m_table={((a,), e): e for a in (0, 1) for e in (0, 1)},
        m_noise_pmf={0: 0.4, 1: 0.6},
    )
    report = M.effect_report(scm)
    assert abs(report.nde) <= 1e-12
    for m in report.cde:
        assert abs(report.cde[m]) <= 1e-12
    law = M.observational_law(scm)
    for m in law.m_support:
        assert abs(M.psi_cde(law, m)) <= 1e-12


def test_separable_randomized_matches_natural():
    for seed in range(15):
        report = M.effect_report(M.random_separable_scm(seed, with_c=seed % 2 == 0))
        assert abs(report.nie - report.nie_r) <= 1e-12


def test_constant_outcome_separable_all_null():
    scm = M.separable_scm(
        {0: 0.5, 1: 0.5},
        {0: 1.0},
        {((n,), e): e for n in (0, 1) for e in (0, 1)},
        {((o, m), 0): 0 for o in (0, 1) for m in (0, 1)},
    )
    report = M.effect_report(scm)
    assert report.nie == 0.0 and report.nie_r == 0.0 and report.te == 0.0


def test_null_mediator_zero_randomized_contrast():
    # unit-level M(a) = M(a*) forces every indirect contrast to vanish
    for seed in range(10):
        scm = M.random_null_mediator_scm(seed, with_c=seed % 2 == 0)
        report = M.effect_report(scm)
        assert report.nie == 0.0
        assert abs(report.nie_r) <= 1e-12
        assert abs(report.h_contrast) <= 1e-12


def _confounded_null_mediator_scm():
    # L is downstream of A and feeds Y, but M ignores both A and L
    b = (0, 1)
    variables = (
        M.VariableSpec("A", b, "A"),
        M.VariableSpec("L", b, "L"),
        M.VariableSpec("M", b, "M"),
        M.VariableSpec("Y", b, "Y"),
    )
    noise = (
        M.NoiseSpec("eps_A", {0: 0.5, 1: 0.5}),
        M.NoiseSpec("eps_L", {0: 0.3, 1: 0.7}),
        M.NoiseSpec("eps_M", {0: 0.4, 1: 0.6}),
        M.NoiseSpec("eps_Y", {0: 0.8, 1: 0.2}),
    )
    tables = (
        StructuralTable("A", (), "eps_A", {((), e): e for e in b}),
        StructuralTable(
            "L", ("A",), "eps_L", {((a,), e): (a + e) % 2 for a in b for e in b}
        ),
        StructuralTable("M", ("A",), "eps_M", {((a,), e): e for a in b for e in b}),
        StructuralTable(
            "Y",
            ("A", "L", "M"),
            "eps_Y",
            {((a, l, m), e): (a * l) ^ (m & e) for a in b for l in b for m in b for e in b},
        ),
    )
    return Scm.of(variables, noise, tables, (0, 1))


def test_confounded_null_mediator_all_indirect_contrasts_vanish():
    scm = _confounded_null_mediator_scm()
    assert M.validate(scm) == []
    report = M.effect_report(scm)
    assert report.nie == 0.0
    assert abs(report.nie_r) <= 1e-12
    assert abs(report.nie_r_L) <= 1e-12
    assert abs(report.nie_r_La) <= 1e-12


def test_h_contrast_equals_randomized_contrast_under_exchangeability():
    for seed in range(10):
        for shape in ("basic", "confounded"):
            report = M.effect_report(M.random_scm(seed, shape, with_c=True))
            assert abs(report.h_contrast - report.nie_r) <= 1e-12


def test_report_rows_and_serialization():
    report = M.effect_report(M.thm1_counterexample(0.5, 0.9))
    names = [name for name, _ in report.rows()]
    assert names[:6] == ["te", "nde", "nie", "te_r", "nde_r", "nie_r"]
    assert "nie_r_L" in names and "cde(0)" in names and "pe(1)" in names
    assert report.value("nie_r") == report.nie_r
    with pytest.raises(KeyError):
        report.value("nope")


def test_controlled_direct_effect_domain_check():
    scm = M.pe_counterexample(0.5)
    with pytest.raises(M.DomainError):
        M.controlled_direct_effect(scm, 7)


def test_thm3_report():
    spec = M.thm3_counterexample(0.1, (0.1, 0.2, 0.4, 0.3), 0.5)
    report = M.effect_report(spec)
    closed = ((1 - 0.1) * 0.3 - 0.1 * 0.1) * (0.4 - 0.2)
    assert abs(report.nie_r - closed) <= 1e-12
    assert report.nie == 0.0
    assert report.nie_r_L is None and report.nie_r_La is None


def test_effect_reports_leave_no_reference_cycles():
    # what an effect report builds is freed by reference counting alone
    models = (M.thm2_counterexample(0.2, 0.3, 0.5, 0.9), M.random_scm(3, "confounded", with_c=True))
    gc.collect()
    gc.disable()
    try:
        for model in models:
            for _ in range(10):
                M.effect_report(model)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def scaled_outcome_doc(seed, factor):
    """The model file of a confounded random model with Y's levels times factor."""
    doc = model.scm_to_dict(M.random_scm(seed, "confounded", with_c=True, y_levels=3))
    (y,) = (v for v in doc["variables"] if v["name"] == "Y")
    y["support"] = [level * factor for level in y["support"]]
    (table,) = (t for t in doc["tables"] if t["variable"] == "Y")
    for row in table["rows"]:
        row["value"] *= factor
    return doc


@pytest.mark.parametrize("seed, factor", [(20, 1000), (1, 10_000), (2, 10_000), (3, 10_000)])
def test_large_outcome_levels_report_and_exit_0(seed, factor, tmp_path):
    # te = nie + nde and te_r = nie_r + nde_r regroup the same means, so on
    # large outcome levels they differ by rounding well above 1e-12
    doc = scaled_outcome_doc(seed, factor)
    scm = model.scm_from_dict(doc)
    assert M.validate(scm) == []
    report = M.effect_report(scm)
    tol = 1e-12 * max(1.0, abs(report.te))
    assert abs(report.te - report.nie - report.nde) <= tol
    assert abs(report.te_r - report.nie_r - report.nde_r) <= tol
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["effects", str(path)]) == 0
    assert main(["criteria", str(path)]) == 0
