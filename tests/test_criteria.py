from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medscm as M
from medscm import criteria, effects, engine
from medscm.cli import main
from medscm.model import NoiseSpec, Scm, StructuralTable


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


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -float("inf"), float("inf")])
def test_a_tolerance_not_finite_and_nonnegative_is_refused(tol):
    # such a tolerance flipped verdicts: at nan no_interaction_check said True
    # where the default tolerance says False, and -1 made nie_r = 0 refute;
    # a zero tolerance is still one
    model = M.random_scm(0, "basic")
    report = M.effect_report(model)
    t1 = {"pi": 0.5, "beta": 0.5}
    for call, at_zero in ((lambda t: M.no_interaction_check(model, t), False),
                          (lambda t: len(criteria.criterion_verdicts(model, report, t)), 3 * len(report.rows())),
                          (lambda t: criteria.evaluate_point("t1", t1, "nie_r", t).criteria_refuted, ()),
                          (lambda t: len(criteria.evaluate_points("t1", [t1], "nie_r", t)), 1),
                          (lambda t: M.search_violations("t1", [t1], "nie_r", t), [])):
        with pytest.raises(M.DomainError, match=r"tol must be a finite number >= 0, got "):
            call(tol)
        assert call(0) == at_zero


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
    ignores_m = Scm.of(scm.variables, scm.noise, tables, scm.exposure_levels)
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


# ---------------------------------------------------------------------------
# Family grids scored in batches against one point at a time
# ---------------------------------------------------------------------------


def _degenerate_t1():
    """t1 with the exposure noise collapsed onto the control arm: its
    effect_report meets an empty treated arm."""
    scm = M.thm1_counterexample(0.5, 0.5)
    noise = tuple(NoiseSpec("eps_A", {0: 1.0, 1: 0.0}) if n.name == "eps_A" else n
                  for n in scm.noise)
    return Scm.of(scm.variables, noise, scm.tables, scm.exposure_levels)


def _failing_family(k, factory_error=True):
    """A t1 grid whose point 2 fails in effect_report and point 5 (when
    factory_error) in its factory."""
    k = int(k)
    if k == 2:
        return _degenerate_t1()
    if k == 5 and factory_error:
        raise M.DomainError("point 5 cannot be built")
    return M.thm1_counterexample(0.5, 0.1 + 0.1 * k)


@pytest.mark.parametrize("factory_error", [True, False])
def test_batch_raises_the_first_error_of_the_per_point_loop(factory_error):
    family = lambda k: _failing_family(k, factory_error)   # noqa: E731
    points = [{"k": k} for k in range(8)]
    with pytest.raises(M.DegenerateStratumError) as per_point:
        for point in points:
            criteria.evaluate_point(family, point, "nie_r")
    with pytest.raises(M.DegenerateStratumError) as batched:
        M.search_violations(family, points, "nie_r")
    assert str(batched.value) == str(per_point.value)
    # without point 2, the factory error of point 5 is the first
    with pytest.raises(M.DomainError, match="point 5") if factory_error else nullcontext():
        criteria.evaluate_points(family, points[:2] + points[3:], "nie_r")


def test_failing_sweep_prints_no_partial_table(monkeypatch, capsys):
    family = criteria.Family("t1", _failing_family, (criteria.Param("k", float, 0.0, "point"),))
    monkeypatch.setitem(criteria.FAMILIES, "t1", family)
    with pytest.raises(M.DegenerateStratumError) as per_point:
        criteria.evaluate_point("t1", {"k": 2.0}, "nie_r")
    assert main(["sweep", "t1", "--grid", "k=0:7:8"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {per_point.value}\n"


def test_a_clean_grid_is_scored_in_batches(monkeypatch, capsys):
    """A grid that scores cleanly never falls back to one point at a time:
    each structure's points go through effect_reports in blocks."""
    def no_fallback(*args, **kwargs):
        raise AssertionError("a clean grid was evaluated one point at a time")

    blocks = []
    reports = effects.effect_reports

    def counted(model, weight=None):
        blocks.append(None if weight is None else len(weight))
        return reports(model, weight)

    monkeypatch.setattr(criteria, "evaluate_point", no_fallback)
    monkeypatch.setattr(effects, "effect_reports", counted)
    assert main(["sweep", "t1", "--grid", "pi=0.05:0.95:21,beta=0.05:0.95:21", "--effect", "nie_r"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 441
    assert blocks == [criteria.POINT_BLOCK] * 3 + [441 - 3 * criteria.POINT_BLOCK]
    blocks.clear()
    # pi2 = 0 empties a level of L: two structures, one block each
    assert main(["sweep", "t2", "--grid", "pi1=0.1|0.3,pi2=0|0.2,beta=0.3", "--effect", "nie_r"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4
    assert blocks == [2, 2]
    blocks.clear()
    hits = M.search_violations("t1", [{"pi": 0.5, "beta": b} for b in (0.1, 0.5, 0.9)], "nie_r")
    assert len(hits) == 2 and blocks == [3]


def test_a_fault_of_the_batch_itself_is_raised(monkeypatch):
    """When the batch fails where one point at a time does not, the batch's
    error is raised rather than hidden behind the per-point results."""
    reports = effects.effect_reports

    def broken(model, weight=None):
        if weight is None:
            return reports(model)
        raise IndexError("a broken batch")

    monkeypatch.setattr(effects, "effect_reports", broken)
    points = [{"pi": 0.5, "beta": b} for b in (0.1, 0.9)]
    assert [r.effect_value for r in (criteria.evaluate_point("t1", pt, "nie_r") for pt in points)]
    with pytest.raises(IndexError, match="a broken batch"):
        criteria.evaluate_points("t1", points, "nie_r")


def _canon(x):
    """x with every float as its bit pattern, so == is bitwise."""
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, dict):
        return tuple((_canon(k), _canon(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(_canon(v) for v in x)
    if hasattr(x, "__dataclass_fields__"):
        return (type(x).__name__,) + tuple(_canon(getattr(x, k)) for k in x.__dataclass_fields__)
    return (type(x).__name__, x)


def _tilted(seed, shape, tilt):
    """random_scm(seed, shape) with every noise pmf tilted towards its upper
    levels; zero masses stay zero, so every tilt has the same structure."""
    scm = M.random_scm(seed, shape, with_c=seed % 2 == 0)
    noise = []
    for n in scm.noise:
        levels = sorted(n.pmf)
        raw = {v: n.pmf[v] * (1.0 + tilt * i) for i, v in enumerate(levels)}
        total = sum(raw.values())
        noise.append(NoiseSpec(n.name, {v: w / total for v, w in raw.items()}))
    return Scm.of(scm.variables, tuple(noise), scm.tables, scm.exposure_levels)


_unit = st.floats(0.02, 0.98)
_GRIDS = {
    "t1": st.fixed_dictionaries({"pi": _unit, "beta": _unit}),
    # pi2 = 0 empties a level of L: such points have a structure of their own
    "t2": st.tuples(st.floats(0.02, 0.6), st.sampled_from([0.0, 0.0, 0.1]) | st.floats(0.02, 0.3),
                    _unit).map(lambda t: {"pi1": t[0], "pi2": t[1], "beta": t[2]}),
    "t3": st.tuples(st.floats(0.02, 0.5), st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
                    _unit).map(lambda t: {"pi": t[0], "gamma": t[2], **{
                        f"beta{i + 1}": b / sum(t[1]) for i, b in enumerate(t[1])}}),
    "pe": st.fixed_dictionaries({"p": _unit}),
}


@st.composite
def family_grids(draw):
    """(family, points): a builtin family's grid, or random_scm structures
    (one or two) under tilted weights."""
    name = draw(st.sampled_from([*_GRIDS, "random"]))
    if name != "random":
        return name, draw(st.lists(_GRIDS[name], min_size=1, max_size=12))
    structures = draw(st.lists(st.tuples(st.integers(0, 40), st.sampled_from(["basic", "confounded"])),
                               min_size=1, max_size=2))
    points = draw(st.lists(st.tuples(st.sampled_from(structures), st.floats(0.0, 2.0)),
                           min_size=1, max_size=10))
    return _tilted, [{"seed": s, "shape": sh, "tilt": t} for (s, sh), t in points]


@settings(max_examples=40, deadline=None)
@given(family_grids(), st.sampled_from(["nie_r", "nie", "te", "h_contrast", "cde(0)", "int_ref(0,1)"]))
def test_batched_grid_is_bitwise_the_per_point_loop(grid_, effect):
    family, points = grid_
    build = criteria.FAMILIES[family] if isinstance(family, str) else family
    models = [build(**point) for point in points]
    # every field of every report, a structure's points scored as one block
    structures = {}
    for i, model in enumerate(models):
        p = engine.profiles(model)
        key = next((k for k in structures if engine.profiles(models[k]).shares_columns(p)), i)
        structures.setdefault(key, []).append(i)
    for first, members in structures.items():
        block = np.stack([engine.profiles(models[i]).weight for i in members])
        batched = effects.effect_reports(models[first], block)
        assert [_canon(r) for r in batched] == [_canon(M.effect_report(models[i])) for i in members]
    # every record, its null status with witnesses and the order
    def per_point():
        try:
            return [_canon(criteria.evaluate_point(family, point, effect)) for point in points]
        except M.MedscmError as exc:
            return repr(exc)

    def batched_points():
        try:
            return [_canon(r) for r in criteria.evaluate_points(family, points, effect)]
        except M.MedscmError as exc:
            return repr(exc)

    assert batched_points() == per_point()
