import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medscm as M
from medscm.cli import main
from medscm.engine import COND_C, COND_C_L_DRAW, COND_C_L_OBSERVED
from medscm.model import NoiseSpec, Scm


def grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def test_unit_counts_and_normalization():
    assert len(M.enumerate_units(M.thm1_counterexample(0.5, 0.5))) == 8
    assert len(M.enumerate_units(M.thm2_counterexample(0.3, 0.3, 0.4, 0.5))) == 12
    for model in (
        M.thm1_counterexample(0.2, 0.7),
        M.thm3_counterexample(0.2, (0.1, 0.2, 0.3, 0.4), 0.5),
        M.random_scm(9, "confounded", with_c=True),
    ):
        units = M.enumerate_units(model)
        assert abs(sum(u.weight for u in units) - 1.0) <= 1e-12
        assert all(u.weight > 0 for u in units)


def test_enumeration_cap():
    with pytest.raises(M.EnumerationSizeError):
        M.enumerate_units(M.thm1_counterexample(0.5, 0.5), cap=4)


def test_evaluate_thm1_unit_by_hand():
    scm = M.thm1_counterexample(0.5, 0.5)
    unit = next(
        u
        for u in M.enumerate_units(scm)
        if u.noise_assignment == {"eps_A": 0, "eps_L": 1, "eps_M": 1, "eps_Y": 0}
    )
    world = M.evaluate(scm, unit, {"A": 1})
    assert world.assignment["L"] == 1
    assert world.assignment["M"] == 1
    assert world.assignment["Y"] == 1


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6), shape=st.sampled_from(["basic", "confounded"]))
def test_consistency_and_composition(seed, shape):
    # intervening at the factual values reproduces the factual world, and the
    # nested outcome with matching arms equals the plain interventional outcome
    scm = M.random_scm(seed, shape, with_c=seed % 2 == 0)
    a_star, a = scm.exposure_levels
    for unit in M.enumerate_units(scm):
        factual = M.evaluate(scm, unit).assignment
        via_a = M.evaluate(scm, unit, {"A": factual["A"]}).assignment
        assert via_a == factual
        via_am = M.evaluate(scm, unit, {"A": factual["A"], "M": factual["M"]}).assignment
        assert via_am == factual
        for ap in (a_star, a):
            y_plain = M.evaluate(scm, unit, {"A": ap}).assignment["Y"]
            assert M.nested_outcome(scm, unit, ap, ap) == y_plain


def test_observational_law_examples():
    law = M.observational_law(M.thm1_counterexample(0.5, 0.5))
    assert abs(law.total() - 1.0) <= 1e-12
    assert abs(law.prob(a=1) - 0.5) <= 1e-12

    pe_law = M.observational_law(M.pe_counterexample(0.5))
    for ap in (0, 1):
        assert abs(pe_law.cond_prob(of={"m": 1}, given={"a": ap}) - 0.5) <= 1e-12


def test_thm1_cell_positivity_interior():
    law = M.observational_law(M.thm1_counterexample(0.3, 0.8))
    for ap, l, m in itertools.product((0, 1), (0, 1), (0, 1)):
        assert law.prob(a=ap, l=l, m=m) > 0.0


@pytest.mark.parametrize("pi", grid(0.05, 0.95, 7))
@pytest.mark.parametrize("beta", grid(0.05, 0.95, 7))
def test_g_draw_closed_forms_thm1(pi, beta):
    scm = M.thm1_counterexample(pi, beta)
    nie_r = M.g_draw_mean(scm, 1, 1, COND_C) - M.g_draw_mean(scm, 1, 0, COND_C)
    assert abs(nie_r - pi * (1 - pi) * (2 * beta - 1)) <= 1e-12

    nie_r_l = M.g_draw_mean(scm, 1, 1, COND_C_L_OBSERVED) - M.g_draw_mean(
        scm, 1, 0, COND_C_L_OBSERVED
    )
    assert abs(nie_r_l - (beta - 0.5)) <= 1e-12

    nie_r_la = M.g_draw_mean(scm, 1, 1, COND_C_L_DRAW) - M.g_draw_mean(
        scm, 1, 0, COND_C_L_DRAW
    )
    assert abs(nie_r_la) <= 1e-12


def test_g_draw_mean_differs_from_plain_interventional_mean():
    # E[Y{a', G(a')}] need not equal E[Y(a')]
    scm = M.thm1_counterexample(0.5, 0.9)
    profiles = M.engine.profiles(scm)
    e_y_control = sum(p.weight * p.nested(0, 0) for p in profiles)
    g_control = M.g_draw_mean(scm, 0, 0, COND_C)
    assert abs(g_control - e_y_control) > 1e-3


def test_h_draw_mean_thm1_and_independent_mediator():
    pi, beta = 0.5, 0.9
    scm = M.thm1_counterexample(pi, beta)
    contrast = M.h_draw_mean(scm, 1, 1) - M.h_draw_mean(scm, 1, 0)
    assert abs(contrast - pi * (1 - pi) * (2 * beta - 1)) <= 1e-12

    pe = M.pe_counterexample(0.3)
    assert abs(M.h_draw_mean(pe, 1, 1) - M.h_draw_mean(pe, 1, 0)) <= 1e-12


def test_h_draw_mean_degenerate_arm():
    scm = M.thm1_counterexample(0.5, 0.5)
    # collapse the exposure noise onto the control arm
    noise = tuple(
        NoiseSpec("eps_A", {0: 1.0, 1: 0.0}) if n.name == "eps_A" else n
        for n in scm.noise
    )
    degenerate = Scm(scm.variables, noise, scm.tables, scm.exposure_levels)
    with pytest.raises(M.DegenerateStratumError):
        M.h_draw_mean(degenerate, 1, 0)


def test_ffrcistg_units_and_worlds():
    spec = M.thm3_counterexample(0.25, (0.1, 0.2, 0.3, 0.4), 0.5)
    units = M.enumerate_units(spec)
    assert abs(sum(u.weight for u in units) - 1.0) <= 1e-12
    idx = spec.label_index()
    for unit in units:
        atom = unit.noise_assignment
        world = M.evaluate(spec, unit)
        assert world.assignment["M"] == atom[f"M({world.assignment['A']})"]
        # nested composition within one arm
        assert M.nested_outcome(spec, unit, 1, 1) == M.evaluate(
            spec, unit, {"A": 1}
        ).assignment["Y"]
        # forced mediator consults the stored counterfactual outcome
        forced = M.evaluate(spec, unit, {"A": 1, "M": 0}).assignment["Y"]
        assert forced == atom["Y(1,0)"]
    assert set(idx) == set(spec.labels)


# ---------------------------------------------------------------------------
# Array profiles against the per-unit reference
# ---------------------------------------------------------------------------

LEVELS = st.integers(2, 3)

MODELS = st.one_of(
    st.builds(
        lambda seed, shape, with_c, c, l, m, y: M.random_scm(
            seed, shape, with_c=with_c, c_levels=c, l_levels=l, m_levels=m, y_levels=y
        ),
        st.integers(0, 10**6), st.sampled_from(["basic", "confounded"]), st.booleans(),
        LEVELS, LEVELS, LEVELS, LEVELS,
    ),
    st.builds(
        lambda seed, with_c, m: M.random_separable_scm(seed, with_c=with_c, m_levels=m),
        st.integers(0, 10**6), st.booleans(), LEVELS,
    ),
    st.builds(
        lambda seed, shape, with_c: M.random_additive_scm(seed, shape, with_c=with_c),
        st.integers(0, 10**6), st.sampled_from(["basic", "confounded"]), st.booleans(),
    ),
    st.builds(
        M.thm3_counterexample,
        st.floats(0.05, 0.95),
        st.sampled_from([(0.1, 0.2, 0.3, 0.4), (0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1)]),
        st.floats(0.05, 0.95),
    ),
)


@settings(deadline=None, max_examples=30)
@given(model=MODELS)
def test_profiles_match_scalar_evaluation(model):
    p = M.engine.profiles(model)
    units = M.enumerate_units(model)
    assert len(p) == len(units)
    assert p.weight.tolist() == [u.weight for u in units]   # bitwise
    a_name, m_name, y_name = model.exposure_name, model.mediator_name, model.outcome_name
    l_name, c_names = model.induced_name, model.covariate_names
    arms, levels = model.exposure_levels, model.m_support
    strata: dict = {}
    reference_law: dict = {}
    for i, unit in enumerate(units):
        view = p[i]
        factual = M.evaluate(model, unit).assignment
        c = tuple(factual[name] for name in c_names)
        l = factual[l_name] if l_name else None
        assert (view.c, view.a, view.l, view.m, view.y) == (
            c, factual[a_name], l, factual[m_name], factual[y_name]
        )
        assert p.stratum[i] == strata.setdefault(c, len(strata))
        key = (c, factual[a_name], l, factual[m_name], factual[y_name])
        reference_law[key] = reference_law.get(key, 0.0) + unit.weight
        for k, ap in enumerate(arms):
            world = M.evaluate(model, unit, {a_name: ap}).assignment
            assert p.m_cf[k, i] == world[m_name]
            if l_name:
                assert p.l_cf[k, i] == world[l_name]
            for j, m in enumerate(levels):
                forced = M.evaluate(model, unit, {a_name: ap, m_name: m}).assignment
                assert p.y_cf[k, j, i] == forced[y_name]
            for ai in arms:
                assert p.nested(ap, ai)[i] == M.nested_outcome(model, unit, ap, ai)
        for j, m in enumerate(levels):
            assert p.y_mfix[j, i] == M.evaluate(model, unit, {m_name: m}).assignment[y_name]
    assert [p.c_key(int(u)) for u in p.stratum_first] == list(strata)

    law = M.observational_law(model).pmf
    assert list(law.items()) == list(reference_law.items())   # keys, order, values
    for c, a, l, m, y in law:
        assert all(type(v) is int for v in (*c, a, m, y))
        assert l is None or type(l) is int


def test_profile_byte_budget(monkeypatch, capsys):
    monkeypatch.setattr(M.engine, "PROFILE_BYTE_BUDGET", 1000)
    with pytest.raises(M.EnumerationSizeError, match="budget"):
        M.engine.profiles(M.thm1_counterexample(0.5, 0.5))
    assert main(["effects", "t1"]) == 5
    assert "budget" in capsys.readouterr().err


def test_profiles_reject_zero_mass_model():
    scm = M.thm1_counterexample(0.5, 0.5)
    noise = tuple(
        NoiseSpec("eps_M", {0: 0.0, 1: 0.0}) if n.name == "eps_M" else n for n in scm.noise
    )
    with pytest.raises(M.DomainError, match="no positive-probability unit"):
        M.engine.profiles(Scm(scm.variables, noise, scm.tables, scm.exposure_levels))
