import collections
import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medscm as M
from medscm.cli import main
from medscm.engine import COND_C, COND_C_L_DRAW, COND_C_L_OBSERVED
from medscm.criteria import FAMILIES, default_grid
from medscm.model import NoiseSpec, Scm, StructuralTable, VariableSpec


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
    degenerate = Scm.of(scm.variables, noise, scm.tables, scm.exposure_levels)
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
        M.engine.profiles(Scm.of(scm.variables, noise, scm.tables, scm.exposure_levels))


def test_cl_strata_grouped_once_per_profile(monkeypatch):
    scm = M.random_scm(5, "confounded", with_c=True)
    first = {cond: M.g_draw_mean(scm, 1, 0, cond) for cond in (COND_C_L_OBSERVED, COND_C_L_DRAW)}
    grouped = []
    monkeypatch.setattr(M.engine, "group_ids", lambda *cols: grouped.append(cols))
    again = {cond: M.g_draw_mean(scm, 1, 0, cond) for cond in (COND_C_L_OBSERVED, COND_C_L_DRAW)}
    assert again == first and grouped == []


def _per_level_draw(p, strata, draw_m, out_y, arms=None):
    """A draw mean as the per-level loop summed it, every unit at every
    mediator level: the reference the draw tables must match bit for bit."""
    (stratum, first), w = strata, p.weight
    w_s = np.bincount(stratum, weights=w, minlength=first.size)
    draw_w = out_w = w
    draw_den = out_den = np.ones(first.size)
    if arms is not None:
        draw_w, out_w = w * (p.a == arms[0]), w * (p.a == arms[1])
        draw_den = np.bincount(stratum, weights=draw_w, minlength=first.size)
        out_den = np.bincount(stratum, weights=out_w, minlength=first.size)
    share, inner = draw_w / draw_den[stratum], np.zeros(first.size)
    for j, m in enumerate(p.m_levels):
        draw = np.bincount(stratum, weights=share * (draw_m == m), minlength=first.size)
        out = np.bincount(stratum, weights=out_w * out_y[j] / out_den[stratum],
                          minlength=first.size)
        inner = inner + draw * out
    return float(M.engine.running_sum(inner / w_s if arms is None else w_s * inner))


def _relabel_m(scm, new):
    """scm with M's level i renamed new[i]: in M's support, in M's table
    values and in the M keys of its children's tables."""
    m = scm.mediator_name
    variables = tuple(VariableSpec(v.name, tuple(new[x] for x in v.support), v.role)
                      if v.name == m else v for v in scm.variables)
    tables = []
    for t in scm.tables:
        if t.variable == m:
            table = {key: new[value] for key, value in t.table.items()}
        elif m in t.parents:
            i = t.parents.index(m)
            table = {(tuple(new[x] if j == i else x for j, x in enumerate(pv)), e): value
                     for (pv, e), value in t.table.items()}
        else:
            table = dict(t.table)
        tables.append(StructuralTable(t.variable, t.parents, t.noise, table))
    return Scm.of(variables, scm.noise, tuple(tables), scm.exposure_levels)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6), with_c=st.booleans(), m_levels=st.integers(2, 4),
       gapped=st.booleans())
def test_draw_tables_match_the_per_level_loop(seed, with_c, m_levels, gapped):
    scm = M.random_scm(seed, "confounded", with_c=with_c, c_levels=3, m_levels=m_levels,
                       y_levels=5)
    if gapped:   # a gapped, unsorted mediator support: (5, -1, 2, 11)[:m_levels]
        scm = _relabel_m(scm, (5, -1, 2, 11))
        assert M.validate(scm) == [] and scm.m_support == (5, -1, 2, 11)[:m_levels]
    p = M.engine.profiles(scm)
    c = (p.stratum, p.stratum_first)
    for a_set, a_draw in itertools.product(p.arms, p.arms):
        draw_m, out_y = p.m_cf[p.arm(a_draw)], p.y_cf[p.arm(a_set)]
        expected = {
            COND_C: _per_level_draw(p, c, draw_m, out_y),
            COND_C_L_DRAW: _per_level_draw(p, p.cl_strata(a_draw), draw_m, out_y),
            COND_C_L_OBSERVED: _per_level_draw(p, p.cl_strata(), draw_m, out_y, (a_draw, a_set)),
        }
        for cond, value in expected.items():
            assert M.g_draw_mean(scm, a_set, a_draw, cond).hex() == value.hex()
        h = _per_level_draw(p, c, p.m, p.y_mfix, (a_draw, a_set))
        assert M.h_draw_mean(scm, a_set, a_draw).hex() == h.hex()


def test_a_report_shares_its_draw_tables():
    """nie_r's three draws build two draw and two outcome tables, and the
    pairs behind nie_r_L and h_contrast three tables each."""
    scm = M.random_scm(3, "confounded", with_c=True)
    M.effect_report(scm)
    memo = M.engine.profiles(scm)._memo

    def built(by):
        return collections.Counter(kind for kind, *_ in memo["draw tables", by]._built
                                   if kind != "mass")

    assert built(COND_C) == {"draw": 2 + 2, "outcome": 2 + 1}   # nie_r's, then h_contrast's
    assert built(COND_C_L_OBSERVED) == {"draw": 2, "outcome": 1}
    for a_draw in scm.exposure_levels:   # nie_r_La's two draws stratify apart
        assert built((COND_C_L_DRAW, a_draw)) == {"draw": 1, "outcome": 1}


COLUMNS = ("stratum", "stratum_first", "a", "l", "m", "y", "m_cf", "l_cf", "y_cf", "y_nested",
           "y_mfix")


def test_family_models_share_columns_not_weights():
    M.engine.profiles.cache_clear()
    t1 = [M.thm1_counterexample(0.3, 0.6), M.thm1_counterexample(0.8, 0.25)]
    p, q = (M.engine.profiles(model) for model in t1)
    for name in COLUMNS:
        assert np.shares_memory(getattr(p, name), getattr(q, name)), name
        assert not getattr(p, name).flags.writeable, name
    for model, prof in zip(t1, (p, q)):
        assert prof.weight.tolist() == [u.weight for u in M.enumerate_units(model)]
    assert p.weight.tolist() != q.weight.tolist()
    assert p._memo is not q._memo
    # null-status witnesses print unit weights, so each model keeps its own
    t2 = [M.thm2_counterexample(0.3, 0.3, 0.4, 0.5), M.thm2_counterexample(0.5, 0.2, 0.3, 0.9)]
    shared = [M.null_status(model) for model in t2]
    assert np.shares_memory(M.engine.profiles(t2[0]).y_cf, M.engine.profiles(t2[1]).y_cf)
    assert shared[0].witnesses != shared[1].witnesses
    for model, status in zip(t2, shared):
        M.engine.profiles.cache_clear()
        assert M.null_status(model) == status


def _with_table_entry(scm, variable, key, value):
    tables = tuple(
        StructuralTable(t.variable, t.parents, t.noise, {**t.table, key: value})
        if t.variable == variable else t
        for t in scm.tables
    )
    return Scm.of(scm.variables, scm.noise, tables, scm.exposure_levels)


def _with_outcome_noise_levels(scm, pmf):
    noise = tuple(NoiseSpec("eps_Y", pmf) if n.name == "eps_Y" else n for n in scm.noise)
    tables = tuple(
        StructuralTable(t.variable, t.parents, t.noise,
                        {(pv, e): v for (pv, _e), v in t.table.items() for e in pmf})
        if t.variable == "Y" else t
        for t in scm.tables
    )
    return Scm.of(scm.variables, noise, tables, scm.exposure_levels)


def test_models_of_different_structure_do_not_share():
    M.engine.profiles.cache_clear()
    base = M.thm1_counterexample(0.3, 0.6)
    p = M.engine.profiles(base)
    flipped = _with_table_entry(base, "Y", ((1, 1, 0), 0), 0)   # Y(1, l=1, m=0) was 1
    two_level = _with_outcome_noise_levels(base, {0: 0.5, 1: 0.5})
    for other in (flipped, two_level):
        q = M.engine.profiles(other)
        assert not any(np.shares_memory(getattr(p, n), getattr(q, n)) for n in COLUMNS)
    assert M.engine.profiles(flipped).y.tolist() != p.y.tolist()
    assert len(M.engine.profiles(two_level)) == 2 * len(p)
    # T2 without the third confounder level has fewer positive units
    with_l2 = M.engine.profiles(M.thm2_counterexample(0.3, 0.3, 0.4, 0.5))
    without = M.engine.profiles(M.thm2_counterexample(0.5, 0.5, 0.0, 0.5))
    assert len(without) < len(with_l2)
    assert not any(np.shares_memory(getattr(with_l2, n), getattr(without, n)) for n in COLUMNS)


def test_structure_table_bounded_and_cleared():
    M.engine.profiles.cache_clear()
    gc.collect()   # Profiles an earlier test's traceback holds in a reference cycle
    for seed in range(100):   # of more than PROFILE_CACHE_SIZE shapes and sizes
        M.engine.profiles(M.random_scm(
            seed, ("basic", "confounded")[seed % 2], with_c=seed % 3 == 0,
            m_levels=2 + seed // 2 % 3, y_levels=2 + seed // 6 % 2,
        ))
    assert len(M.engine._structures) == M.engine.PROFILE_CACHE_SIZE
    M.engine.profiles.cache_clear()
    assert len(M.engine._structures) == 0
    assert M.engine.profiles.cache_info().currsize == 0


def test_columns_live_as_long_as_the_profiles_that_read_them():
    M.engine.profiles.cache_clear()
    gc.collect()   # as above
    gc.disable()   # freed by reference counts alone, no collection
    try:
        first = weakref.ref(M.engine.profiles(M.random_scm(0, "confounded")).y_cf)
        assert first() is not None
        for seed in range(1, M.engine.PROFILE_CACHE_SIZE + 1):   # each a structure of its own
            M.engine.profiles(M.random_scm(seed, "confounded"))
        assert first() is None
        assert len(M.engine._structures) == M.engine.PROFILE_CACHE_SIZE
        M.engine.profiles.cache_clear()
        assert len(M.engine._structures) == 0
    finally:
        gc.enable()
    # a Profiles held outside the cache keeps its columns, and shares them
    held = M.engine.profiles(M.thm1_counterexample(0.3, 0.6))
    M.engine.profiles.cache_clear()
    assert M.engine.profiles(M.thm1_counterexample(0.8, 0.25)).shares_columns(held)


def _outputs(model):
    law = M.observational_law(model)
    status = M.null_status(model)
    return M.effect_report(model).rows(), list(law.pmf.items()), status, status.witnesses


def test_shared_columns_bitwise_equal_to_cold_builds():
    points = [("t1", pt) for pt in default_grid("T1")] + [("t2", pt) for pt in default_grid("T2")]
    M.engine.profiles.cache_clear()
    shared = [_outputs(FAMILIES[family](**pt)) for family, pt in points]
    cold = []
    for family, pt in points:
        M.engine.profiles.cache_clear()
        cold.append(_outputs(FAMILIES[family](**pt)))
    assert len(shared) == 616
    assert [repr(o) for o in shared] == [repr(o) for o in cold]


def test_structure_lookup_is_by_identity(monkeypatch):
    def refuse(self, other):
        raise AssertionError("the structure lookup compared tables or variables")

    M.engine.profiles.cache_clear()
    one, other = M.thm1_counterexample(0.3, 0.6), M.thm1_counterexample(0.8, 0.25)
    monkeypatch.setattr(StructuralTable, "__eq__", refuse)
    monkeypatch.setattr(M.VariableSpec, "__eq__", refuse)
    p = M.engine.profiles(one)
    assert p.shares_columns(M.engine.profiles(other))
    assert p.shares_columns(M.engine.profiles(M.thm1_counterexample(0.5, 0.5)))
    t3 = [M.thm3_counterexample(pi, (0.1, 0.2, 0.3, 0.4), 0.5) for pi in (0.2, 0.7)]
    assert M.engine.profiles(t3[0]).shares_columns(M.engine.profiles(t3[1]))
    # models built on the spot from equal tuples hold structures of their own
    apart = [Scm.of(one.variables, one.noise, one.tables, one.exposure_levels) for _ in range(2)]
    q, r = (M.engine.profiles(model) for model in apart)
    assert not q.shares_columns(r) and not q.shares_columns(p)
    assert [q.y.tolist(), r.y.tolist()] == [p.y.tolist()] * 2
    # dataclasses.replace keeps the structure; validate reports noise levels
    # that are not the structure's
    assert dataclasses.replace(one, noise=other.noise).structure is one.structure
    two_level = one.noise[:-1] + (NoiseSpec("eps_Y", {0: 0.5, 1: 0.5}),)
    moved = dataclasses.replace(one, noise=two_level)
    assert moved.structure is one.structure
    assert "noise names or levels differ from the structure" in M.validate(moved)


def _group_ids_by_sorting(*columns):
    """group_ids as first written, with a np.unique sort per column: the
    reference for the sort-free version."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for col in columns:
        values, code = np.unique(col, return_inverse=True)
        if key.max() >= np.iinfo(np.int64).max // values.size:
            _, key = np.unique(key, return_inverse=True)   # renumber before it overflows
        key = key * values.size + code
    _, first, key = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[key], first[order]


INT64 = np.iinfo(np.int64)


@st.composite
def int64_columns(draw):
    """1-4 int64 columns of one length: narrow and wide spans, spans just
    inside and just outside the dense bound (2n + 64), negative values and
    the int64 extremes."""
    n = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["narrow", "bound", "wide", "extremes"]))
        if kind == "extremes":
            pool = [INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max]
            values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        else:
            lo = draw(st.integers(INT64.min, INT64.max - 2 * n - 70) if kind != "narrow"
                      else st.integers(-10, 10))
            span = {"narrow": draw(st.integers(0, 5)),
                    "bound": 2 * n + 64 + draw(st.integers(-2, 1)),
                    "wide": draw(st.integers(2 * n + 64, 10**12))}[kind]
            hi = min(lo + span, INT64.max)
            values = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
            if draw(st.booleans()):   # attain both ends of the span
                values[0], values[-1] = lo, hi
        columns.append(np.array(values, dtype=np.int64))
    return columns


@settings(max_examples=300, deadline=None)
@given(int64_columns())
def test_group_ids_match_the_sorting_reference(columns):
    group, first = M.engine.group_ids(*columns)
    want_group, want_first = _group_ids_by_sorting(*columns)
    assert group.tolist() == want_group.tolist() and first.tolist() == want_first.tolist()
    assert group.dtype == first.dtype == np.int64


def test_group_ids_renumber_wide_products():
    # four columns of n distinct values: every product passes the dense bound
    rng = np.random.default_rng(0)
    columns = [rng.permutation(500).astype(np.int64) * 10**9 - 7 for _ in range(4)]
    columns.append(np.repeat([INT64.min, INT64.max], 250))
    for cols in (columns, [c[:3] for c in columns]):
        got, want = M.engine.group_ids(*cols), _group_ids_by_sorting(*cols)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["basic", "confounded"]), st.booleans())
def test_law_cells_first_rows_are_the_sorted_unique_index(seed, shape, with_c):
    model = M.random_scm(seed, shape, with_c=with_c, m_levels=3)
    cell, first, _ = M.engine.law_cells(model, M.engine.profiles(model), keep=False)
    assert first.tolist() == np.sort(np.unique(cell, return_index=True)[1]).tolist()
