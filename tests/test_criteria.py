import pytest

import medscm as M
from medscm import criteria
from medscm.model import Scm, StructuralTable


def grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def test_null_status_thm1():
    status = M.null_status(M.thm1_counterexample(0.4, 0.7))
    assert status.sharp_null and status.sharper_null
    assert status.monotonicity == "both"
    # the defining feature of this family: the units whose mediator responds
    # to the exposure are disjoint from those whose outcome responds to the
    # mediator, so the overlap condition fails
    assert not status.overlap_condition
    assert "overlap_condition" in status.witnesses


def test_null_status_thm2():
    status = M.null_status(M.thm2_counterexample(0.3, 0.3, 0.4, 0.6))
    assert not status.sharp_null
    assert not status.sharper_null
    assert status.monotonicity == "nondecreasing"
    assert "sharp_null" in status.witnesses
    # the overlap condition holds: the same eps_L = 2 units that move the
    # mediator also transmit the change to the outcome
    assert status.overlap_condition


def test_null_status_pe():
    # every unit's mediator ignores the exposure, so both nulls hold even
    # though the mediator moves the treated-arm outcome
    status = M.null_status(M.pe_counterexample(0.3))
    assert status.sharp_null
    assert status.sharper_null
    assert status.monotonicity == "both"


def test_verdicts_thm1_refute_all_criteria():
    scm = M.thm1_counterexample(0.5, 0.9)
    report = M.effect_report(scm)
    verdicts = {
        (v.effect_name, v.criterion): v
        for v in M.criterion_verdicts(scm, report)
    }
    for criterion in ("sharp-null", "sharper-null", "monotonicity"):
        v = verdicts[("nie_r", criterion)]
        assert v.premise_holds and v.refutes_criterion and not v.satisfied_here
        assert verdicts[("nie", criterion)].satisfied_here
        assert not verdicts[("nie", criterion)].refutes_criterion


def test_verdicts_thm2_monotonicity_refutation():
    scm = M.thm2_counterexample(1.0 - (0.5 - 1e-6) - 0.1, 0.5 - 1e-6, 0.1, 1e-6)
    report = M.effect_report(scm)
    assert report.nie_r < 0
    verdicts = {
        (v.effect_name, v.criterion): v for v in M.criterion_verdicts(scm, report)
    }
    mono = verdicts[("nie_r", "monotonicity")]
    assert mono.premise_holds and mono.refutes_criterion
    # the null premises fail here, so those verdicts are vacuous
    sharp = verdicts[("nie_r", "sharp-null")]
    assert not sharp.premise_holds and sharp.satisfied_here and not sharp.refutes_criterion


def test_pe_refutes_null_criteria():
    scm = M.pe_counterexample(0.5)
    report = M.effect_report(scm)
    verdicts = {
        (v.effect_name, v.criterion): v for v in M.criterion_verdicts(scm, report)
    }
    assert verdicts[("pe(0)", "sharp-null")].refutes_criterion
    assert verdicts[("pe(1)", "sharper-null")].refutes_criterion
    assert verdicts[("nie", "sharp-null")].satisfied_here


def test_reproduce_t1():
    record = M.reproduce("T1", {"pi": 0.5, "beta": 0.9})
    assert abs(record.closed_form - 0.2) <= 1e-12
    assert record.difference <= 1e-12
    assert record.status.sharp_null and record.status.sharper_null
    near = M.reproduce("T1", {"pi": 0.5, "beta": 1.0 - 1e-9})
    assert abs(near.enumerated - 0.25) <= 1e-8


def test_reproduce_t2_corrected_closed_form():
    record = M.reproduce("T2", {"pi1": 0.3, "pi2": 0.5, "beta": 0.9})
    assert abs(record.enumerated - 0.518) <= 1e-12
    assert record.status.monotonicity == "nondecreasing"
    negative = M.reproduce("T2", {"pi1": 0.5 - 1e-6, "pi2": 0.1, "beta": 1e-6})
    assert negative.enumerated < 0


def test_reproduce_t3():
    record = M.reproduce(
        "T3",
        {"pi": 0.1, "beta1": 0.1, "beta2": 0.2, "beta3": 0.4, "beta4": 0.3, "gamma": 0.5},
    )
    assert abs(record.enumerated - 0.052) <= 1e-12
    assert record.status.sharper_null
    limit = M.reproduce(
        "T3",
        {"pi": 1e-9, "beta1": 0.0, "beta2": 1e-9, "beta3": 0.5,
         "beta4": 0.5 - 1e-9, "gamma": 0.5},
    )
    assert abs(limit.enumerated - 0.25) <= 1e-8


def test_reproduce_s1_and_pe():
    record = M.reproduce("S1", {"pi": 0.3, "beta": 0.9})
    assert abs(record.enumerated - 0.4) <= 1e-12
    record = M.reproduce("PE", {"p": 0.5, "m": 1})
    assert abs(record.enumerated + 0.5) <= 1e-12


def test_reproduce_rejects_unknown_and_incomplete():
    with pytest.raises(M.DomainError):
        M.reproduce("T9", {})
    with pytest.raises(M.DomainError):
        M.reproduce("T2", {"pi1": 0.3})


def test_reproduce_default_grids():
    for tid in ("T2", "T3", "S1", "PE"):
        for point in criteria.default_grid(tid):
            M.reproduce(tid, point)


def test_search_violations_t1_family():
    points = [
        {"pi": pi, "beta": beta}
        for pi in grid(0.1, 0.9, 9)
        for beta in grid(0.1, 0.9, 9)
    ]
    hits = M.search_violations("t1", points, "nie_r")
    assert hits
    assert abs(hits[0].effect_value) == max(abs(h.effect_value) for h in hits)
    # the symmetric mediator noise slice produces no refutation
    flat = M.search_violations("t1", [{"pi": pi, "beta": 0.5} for pi in grid(0.1, 0.9, 9)], "nie_r")
    assert flat == []
    # the natural contrast never refutes anything
    assert M.search_violations("t1", points, "nie") == []


def test_no_interaction_check():
    assert M.no_interaction_check(M.random_additive_scm(0, shape="basic"))
    assert M.no_interaction_check(M.random_additive_scm(1, shape="confounded"))
    assert not M.no_interaction_check(M.pe_counterexample(0.5))
    # when the check passes, the natural, randomized, and eliminated-portion
    # contrasts coincide
    for seed in range(5):
        scm = M.random_additive_scm(seed, shape="confounded")
        if M.no_interaction_check(scm):
            report = M.effect_report(scm)
            assert abs(report.nie - report.nie_r) <= 1e-10
            for v in report.pe.values():
                assert abs(v - report.nie) <= 1e-10


def test_m_always_affects_y_check():
    # the mediator feeds through an xor, so it moves the outcome for every unit
    assert M.m_always_affects_y_check(M.random_null_mediator_scm(2))
    # the treated arm of the portion-eliminated example always transmits the
    # mediator, so the per-unit disjunction holds there as well
    assert M.m_always_affects_y_check(M.pe_counterexample(0.5))
    # an outcome that ignores the mediator entirely fails the check
    b = (0, 1)
    scm = M.pe_counterexample(0.5)
    tables = tuple(
        StructuralTable("Y", ("A", "M"), "eps_Y", {((a, m), 0): a for a in b for m in b})
        if t.variable == "Y"
        else t
        for t in scm.tables
    )
    ignores_m = Scm(scm.variables, scm.noise, tables, scm.exposure_levels)
    assert not M.m_always_affects_y_check(ignores_m)


def test_null_status_implications_random_models():
    models = []
    for seed in range(60):
        models.append(M.random_scm(seed, "basic", with_c=seed % 2 == 0))
        models.append(M.random_scm(seed, "confounded", with_c=seed % 3 == 0))
        models.append(M.random_null_mediator_scm(seed))
    for model in models:
        status = M.null_status(model)
        if status.sharper_null:
            assert status.sharp_null
        if status.sharp_null:
            assert status.monotonicity == "both"


def test_thm2_family_monotonicity_consistent_with_verdicts():
    for pi1 in grid(0.2, 0.6, 3):
        for pi2 in (0.05, 0.15):
            for beta in (0.1, 0.5, 0.9):
                scm = M.thm2_counterexample(1 - pi1 - pi2, pi1, pi2, beta)
                status = M.null_status(scm)
                assert status.monotonicity == "nondecreasing"
                assert status.overlap_condition
                report = M.effect_report(scm)
                verdicts = {
                    (v.effect_name, v.criterion): v
                    for v in M.criterion_verdicts(scm, report)
                }
                mono = verdicts[("nie_r", "monotonicity")]
                assert mono.refutes_criterion == (report.nie_r < -1e-9)
                assert not verdicts[("nie", "monotonicity")].refutes_criterion


def test_null_status_computed_once_per_model(monkeypatch, capsys):
    from medscm.cli import main

    calls = []
    compute = criteria._null_status
    monkeypatch.setattr(criteria, "_null_status", lambda p: calls.append(p) or compute(p))
    assert main(["criteria", "t2", "--format", "csv"]) == 0
    assert len(calls) == 1
    assert main(["sweep", "t1", "--grid", "pi=0.25|0.5,beta=0.1|0.9"]) == 0
    assert len(calls) == 5
    hits = criteria.search_violations("t1", [{"pi": 0.5, "beta": 0.9}], "nie_r")
    assert len(hits) == 1 and len(calls) == 6
    capsys.readouterr()
