import collections
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medscm as M
from medscm import identify
from medscm.model import NoiseSpec


def grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def test_pe_law_functionals():
    p = 0.5
    law = M.observational_law(M.pe_counterexample(p))
    assert abs(M.psi_te(law) - p) <= 1e-12
    assert abs(M.psi_cde(law, 1) - 1.0) <= 1e-12
    assert abs(M.psi_cde(law, 0)) <= 1e-12
    assert abs(M.psi_pe(law, 1) - (p - 1.0)) <= 1e-12
    assert abs(M.psi_nie(law)) <= 1e-12


def test_thm1_law_functionals():
    pi, beta = 0.3, 0.8
    scm = M.thm1_counterexample(pi, beta)
    law = M.observational_law(scm)
    report = M.effect_report(scm)
    assert abs(M.psi_te(law) - report.te) <= 1e-12
    for m in (0, 1):
        assert abs(M.psi_cde(law, m) - report.cde[m]) <= 1e-12
    assert abs(M.psi_nie_r_L(law) - pi * (1 - pi) * (2 * beta - 1)) <= 1e-12
    assert abs(M.psi_nie_r_L(law) - report.nie_r) <= 1e-12
    assert abs(M.psi_nie_rl(law) - (beta - 0.5)) <= 1e-12
    assert abs(M.psi_nie_rl(law) - report.nie_r_L) <= 1e-12


@pytest.mark.parametrize("beta", grid(0.05, 0.95, 10) + [0.5])
def test_psi_nie_rl_beta_grid(beta):
    law = M.observational_law(M.thm1_counterexample(0.4, beta))
    assert abs(M.psi_nie_rl(law) - (beta - 0.5)) <= 1e-12


def test_separable_dual_computation():
    # the induced observed law identifies the natural contrast exactly
    for seed in range(10):
        scm = M.random_separable_scm(seed, with_c=seed % 2 == 0, m_levels=2 + seed % 2)
        law = M.observational_law(scm)
        assert abs(M.psi_nie(law) - M.natural_effects(scm)[0]) <= 1e-12


def test_psi_te_degenerate_arm():
    scm = M.thm1_counterexample(0.5, 0.5)
    noise = tuple(
        NoiseSpec("eps_A", {0: 1.0, 1: 0.0}) if n.name == "eps_A" else n
        for n in scm.noise
    )
    law = M.observational_law(dataclasses.replace(scm, noise=noise))
    with pytest.raises(M.DegenerateStratumError):
        M.psi_te(law)


def test_dual_computation_random_models():
    for seed in range(40):
        scm = M.random_scm(seed, "basic", with_c=seed % 2 == 0, m_levels=2 + seed % 2)
        law = M.observational_law(scm)
        report = M.effect_report(scm)
        assert abs(M.psi_nie(law) - report.nie) <= 1e-10
        assert abs(M.psi_te(law) - report.te) <= 1e-10
        for m in law.m_support:
            assert abs(M.psi_cde(law, m) - report.cde[m]) <= 1e-10
    for seed in range(40):
        scm = M.random_scm(seed, "confounded", with_c=seed % 2 == 1)
        law = M.observational_law(scm)
        report = M.effect_report(scm)
        assert abs(M.psi_nie_r_L(law) - report.nie_r) <= 1e-10
        assert abs(M.psi_nie_rl(law) - report.nie_r_L) <= 1e-10
        for m in law.m_support:
            assert abs(M.psi_cde(law, m) - report.cde[m]) <= 1e-10


def test_thm3_law_identifies_randomized_not_natural():
    spec = M.thm3_counterexample(0.1, (0.1, 0.2, 0.4, 0.3), 0.5)
    law = M.observational_law(spec)
    report = M.effect_report(spec)
    value = M.psi_nie(law)
    assert abs(value - report.nie_r) <= 1e-12
    assert abs(value - 0.052) <= 1e-12
    assert report.nie == 0.0
    assert abs(value - report.nie) > 1e-3


def test_psi_nie_r_L_reduces_when_confounder_inert():
    for seed in range(10):
        scm = M.random_scm(seed, "confounded", with_c=seed % 2 == 0, l_affects=())
        law = M.observational_law(scm)
        assert abs(M.psi_nie_r_L(law) - M.psi_nie(law)) <= 1e-12


def test_psi_nie_r_L_slices_under_no_lm_interaction():
    # with an outcome mean additive between M and (A, L), the inner integral
    # over L can be collapsed onto any single confounder level
    for seed in range(6):
        scm = M.random_additive_scm(seed, shape="confounded")
        law = M.observational_law(scm)
        full = M.psi_nie_r_L(law)
        a_star, a = law.exposure_levels
        for l_fixed in law.l_support:
            sliced = 0.0
            for c, w_c in law.c_strata():
                acc = 0.0
                for m in law.m_support:
                    delta = law.cond_prob(of={"m": m}, given={"c": c, "a": a}) - law.cond_prob(
                        of={"m": m}, given={"c": c, "a": a_star}
                    )
                    acc += delta * law.mean_y(c=c, a=a, l=l_fixed, m=m)
                sliced += w_c * acc
            assert abs(full - sliced) <= 1e-10


def test_assumptions_basic_shape_independent_errors():
    for seed in (0, 1, 2):
        scm = M.random_scm(seed, "basic", with_c=seed % 2 == 0)
        for which in ("A1", "A2", "A3", "A4", "A6", "A7"):
            verdict = M.check_assumption(scm, which)
            assert verdict.holds, (seed, which, verdict)


def test_assumptions_thm1():
    scm = M.thm1_counterexample(0.5, 0.9)
    assert M.check_assumption(scm, "A1").holds
    assert M.check_assumption(scm, "A3").holds
    assert M.check_assumption(scm, "A6").holds
    assert M.check_assumption(scm, "A7").holds
    a2 = M.check_assumption(scm, "A2")
    assert not a2.holds and a2.worst_violation > 1e-9
    a4 = M.check_assumption(scm, "A4")
    assert not a4.holds and a4.witness


def test_assumption_a2_recovers_at_half():
    # beta = 1/2 symmetrizes the mediator noise and restores the independence
    scm = M.thm1_counterexample(0.5, 0.5)
    assert M.check_assumption(scm, "A2").holds


def test_thm3_a4_fails_with_witness():
    spec = M.thm3_counterexample(0.2, (0.1, 0.2, 0.3, 0.4), 0.5)
    verdict = M.check_assumption(spec, "A4")
    assert not verdict.holds
    assert "M(0)" in verdict.witness


def test_positivity_failure_detected():
    scm = M.thm1_counterexample(0.5, 0.5)
    # force the mediator noise to a point mass: some mediator cells vanish
    noise = tuple(
        NoiseSpec("eps_M", {0: 0.0, 1: 1.0}) if n.name == "eps_M" else n
        for n in scm.noise
    )
    degenerate = dataclasses.replace(scm, noise=noise)
    verdict = M.check_assumption(degenerate, "A6")
    assert not verdict.holds
    assert verdict.worst_violation == 1.0
    assert "empty required cell" in verdict.witness


def test_positivity_monotone_along_ladder():
    # pushing a noise probability toward the boundary can only flip the
    # verdict from holds to fails, never back
    scm = M.thm1_counterexample(0.5, 0.5)
    margins = []
    flags = []
    for beta in (0.5, 0.9, 0.99, 0.999999, 1.0):
        noise = tuple(
            NoiseSpec("eps_M", {0: 1.0 - beta, 1: beta}) if n.name == "eps_M" else n
            for n in scm.noise
        )
        verdict = M.check_assumption(dataclasses.replace(scm, noise=noise), "A6")
        flags.append(verdict.holds)
        margins.append(-verdict.worst_violation)
    assert flags == [True, True, True, True, False]
    assert margins[:-1] == sorted(margins[:-1], reverse=True)


def test_unknown_assumption_rejected():
    with pytest.raises(M.DomainError):
        M.check_assumption(M.pe_counterexample(0.5), "A5")


def test_functional_shape_requirements():
    law = M.observational_law(M.pe_counterexample(0.5))
    with pytest.raises(M.ShapeError):
        M.psi_nie_r_L(law)
    with pytest.raises(M.ShapeError):
        M.psi_nie_rl(law)
    with pytest.raises(M.DomainError):
        M.psi_cde(law, 9)


# ---------------------------------------------------------------------------
# The independence checks against a scalar reference
# ---------------------------------------------------------------------------


def _reference_independence(units, checks):
    """(worst, witness) of a list of (tag, member, stratum key, x, z) checks
    over UnitProfile views, in plain Python: stratum shares, then P(x | s),
    P(z | s) and P(x, z | s) added in unit order, the first check to attain
    the largest deviation, its first stratum and its first cell by first
    occurrence of x, then of z."""
    worst, witness = 0.0, ""
    for tag, member, key, x, z in checks:
        inside = [u for u in units if member(u)]
        total = {}
        for u in inside:
            total[key(u)] = total.get(key(u), 0.0) + u.weight
        px, pz, joint, first_x, first_z = {}, {}, {}, {}, {}
        for rank, u in enumerate(inside):
            s, share = key(u), u.weight / total[key(u)]
            px[s, x(u)] = px.get((s, x(u)), 0.0) + share
            pz[s, z(u)] = pz.get((s, z(u)), 0.0) + share
            joint[s, x(u), z(u)] = joint.get((s, x(u), z(u)), 0.0) + share
            first_x.setdefault((s, x(u)), rank)
            first_z.setdefault((s, z(u)), rank)
        cells = []   # (deviation, stratum, visit rank, x, z), strata in order of first occurrence
        for s in total:
            for (sx, xv), p_x in px.items():
                for (sz, zv), p_z in pz.items():
                    if sx == sz == s:
                        dev = abs(joint.get((s, xv, zv), 0.0) - p_x * p_z)
                        cells.append((dev, s, (first_x[s, xv], first_z[s, zv]), xv, zv))
        top = max((c[0] for c in cells), default=0.0)
        if top > worst:
            worst = top
            s = next(c[1] for c in cells if c[0] == top)
            _, _, _, xv, zv = min((c for c in cells if c[0] == top and c[1] == s), key=lambda c: c[2])
            witness = f"{tag}: stratum {s!r}, cell (x={xv}, z={zv})"
    return worst, witness


def _reference_checks(model, which):
    units = list(M.engine.profiles(model))
    a_star, a = arms = model.exposure_levels
    levels = model.m_support
    by_c = lambda u: u.c   # noqa: E731
    everyone = lambda u: True   # noqa: E731
    if which == "A1":
        checks = [(f"Y({ap},{m}) vs A", everyone, by_c, lambda u, ap=ap, m=m: u.y_cf[ap, m],
                   lambda u: u.a) for ap in arms for m in levels]
    elif which == "A3":
        checks = [(f"M({ap}) vs A", everyone, by_c, lambda u, ap=ap: u.m_cf[ap], lambda u: u.a)
                  for ap in arms]
    elif which == "A4":
        checks = [(f"Y({a},{m}) vs M({a_star})", everyone, by_c, lambda u, m=m: u.y_cf[a, m],
                   lambda u: u.m_cf[a_star]) for m in levels]
    else:
        with_l = which == "A7" and model.has_l
        given_l = "L, " if which == "A7" else ""
        checks = [(f"Y({ap},{m}) vs M | {given_l}A={ap}", lambda u, ap=ap: u.a == ap,
                   (lambda u: (u.c, u.l)) if with_l else by_c,
                   lambda u, ap=ap, m=m: u.y_cf[ap, m], lambda u: u.m) for ap in arms for m in levels]
    return _reference_independence(units, checks)


def _empty_arm(model):
    """model with its exposure noise a point mass: the arm a is never taken."""
    noise = tuple(NoiseSpec(n.name, {lv: float(lv == 0) for lv in n.pmf})
                  if n.name == "eps_A" else n for n in model.noise)
    return dataclasses.replace(model, noise=noise)


CHECK_MODELS = st.one_of(
    st.builds(
        lambda seed, shape, with_c, m, y: M.random_scm(seed, shape, with_c=with_c, m_levels=m, y_levels=y),
        st.integers(0, 10**6), st.sampled_from(["basic", "confounded"]), st.booleans(),
        st.integers(2, 3), st.integers(2, 3),
    ),
    st.builds(M.thm1_counterexample, st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
    st.builds(lambda pi1, pi2, beta: M.thm2_counterexample(1.0 - pi1 - pi2, pi1, pi2, beta),
              st.floats(0.05, 0.45), st.floats(0.0, 0.45), st.floats(0.05, 0.95)),
    st.builds(
        M.thm3_counterexample, st.floats(0.05, 0.95),
        st.sampled_from([(0.1, 0.2, 0.3, 0.4), (0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1)]),
        st.floats(0.05, 0.95),
    ),
    st.builds(M.pe_counterexample, st.floats(0.05, 0.95)),
    st.builds(lambda seed, with_c: _empty_arm(M.random_scm(seed, "confounded", with_c=with_c)),
              st.integers(0, 10**6), st.booleans()),
)


@settings(deadline=None, max_examples=40)
@given(model=CHECK_MODELS)
def test_independence_checks_match_scalar_reference(model):
    for which in ("A1", "A2", "A3", "A4", "A7"):
        verdict = M.check_assumption(model, which)
        worst, witness = _reference_checks(model, which)
        assert verdict.worst_violation.hex() == worst.hex(), which
        assert verdict.holds == (worst <= identify.INDEPENDENCE_TOL), which
        assert verdict.witness == witness, which


def test_empty_arm_checks_hold_vacuously_within_it():
    model = _empty_arm(M.thm1_counterexample(0.5, 0.9))
    assert not (M.engine.profiles(model).a == 1).any()
    for which in ("A2", "A7"):
        verdict = M.check_assumption(model, which)
        assert (verdict.worst_violation, verdict.witness) == _reference_checks(model, which)
        assert "A=1" not in verdict.witness


def test_checks_keep_nothing_on_the_profiles():
    for model in (M.thm1_counterexample(0.5, 0.9), M.random_scm(3, "confounded", with_c=True),
                  M.thm3_counterexample(0.1, (0.1, 0.2, 0.4, 0.3), 0.5)):
        M.engine.profiles.cache_clear()
        p = M.engine.profiles(model)
        memo, shared = set(p._memo), set(p._shared_memo)
        M.check_all_assumptions(model)
        assert (set(p._memo), set(p._shared_memo)) == (memo, shared)
        # a result the structure already keeps is read, not recomputed
        M.observational_law(model)
        kept = set(p._shared_memo)
        M.check_all_assumptions(model)
        assert set(p._shared_memo) == kept


def test_a7_without_l_is_a2_retagged():
    models = (M.random_scm(7, "basic", with_c=True, c_levels=4, m_levels=3, y_levels=3),
              M.thm3_counterexample(0.3, (0.1, 0.2, 0.3, 0.4), 0.6))
    for model in models:
        a2, a7 = (M.check_assumption(model, which) for which in ("A2", "A7"))
        assert "M | L, A=" in a7.witness
        assert (a7.holds, a7.worst_violation) == (a2.holds, a2.worst_violation)
        assert a7.witness == a2.witness.replace(" vs M | A=", " vs M | L, A=", 1)


def _reference_positivity(model):
    """(worst, witness) of A6 in plain Python over UnitProfile views: the
    exact law's cells (c, a, l, m, y) in order of first occurrence, each
    cell's mass added in unit order, then the stratum, arm and (arm, level)
    masses added cell by cell in that order; every required cell of every
    stratum, and the least name among the cells attaining the minimum."""
    units = list(M.engine.profiles(model))
    arms, levels = model.exposure_levels, model.m_support
    cells = {}
    for u in units:
        key = (u.c, u.a, u.l, u.m, u.y)
        cells[key] = cells.get(key, 0.0) + u.weight
    w_c, w_arm, w_cell = {}, {}, {}
    for (c, a, _l, m, _y), mass in cells.items():
        w_c[c] = w_c.get(c, 0.0) + mass
        for ap in arms:
            w_arm[c, ap] = w_arm.get((c, ap), 0.0) + (mass if a == ap else 0.0)
            for lv in levels:
                w_cell[c, ap, lv] = (w_cell.get((c, ap, lv), 0.0)
                                     + (mass if a == ap and m == lv else 0.0))
    required = []
    for ap in arms:
        required += [(w_arm[c, ap] / w_c[c], f"Pr(A={ap} | c={c!r})") for c in w_c]
    for ap in arms:
        seen = {u.m for u in units} | {u.m_cf[ap] for u in units}
        for lv in sorted(seen):
            required += [(w_cell[c, ap, lv] / w_arm[c, ap] if w_arm[c, ap] > 0.0 else 0.0,
                          f"f(M={lv} | A={ap}, c={c!r})") for c in w_c]
    min_cell = min(value for value, _ in required)
    min_name = min(name for value, name in required if value == min_cell)
    if min_cell <= 0.0:
        return 1.0, f"empty required cell {min_name}"
    return -min_cell, f"smallest required cell {min_name}"


@settings(deadline=None, max_examples=40)
@given(model=CHECK_MODELS)
def test_positivity_check_matches_scalar_reference(model):
    verdict = M.check_assumption(model, "A6")
    worst, witness = _reference_positivity(model)
    assert verdict.worst_violation.hex() == worst.hex()
    assert verdict.holds == (worst <= identify.INDEPENDENCE_TOL)
    assert verdict.witness == witness


def _fields(verdict):
    return (verdict.assumption, verdict.holds, verdict.worst_violation.hex(), verdict.witness)


@settings(deadline=None, max_examples=30)
@given(model=CHECK_MODELS)
def test_all_checks_equal_the_checks_one_at_a_time(model):
    together = M.check_all_assumptions(model)
    alone = [M.check_assumption(model, which) for which in identify.ASSUMPTIONS]
    assert [_fields(v) for v in together] == [_fields(v) for v in alone]


def test_all_checks_call_check_assumption_once_each_in_order():
    # perfbench times the checks by the spans of identify.check_assumption
    model = M.random_scm(5, "confounded", with_c=True)
    with mock.patch.object(identify, "check_assumption", wraps=identify.check_assumption) as spy:
        verdicts = M.check_all_assumptions(model)
    assert spy.call_args_list == [mock.call(model, which) for which in identify.ASSUMPTIONS]
    assert [v.assumption for v in verdicts] == list(identify.ASSUMPTIONS)


# the traced peak of check_all_assumptions on a 16/5/5/5 confounded model
# (10,368 units) scored in 65,536-entry blocks without shared check tables,
# 1,517,272 bytes, plus 128 KiB for allocator and library differences; with
# the shared tables and each check scored as a table of its own it peaks
# near 1.05 MB
CHECKS_PEAK_BYTES = 1_517_272 + 128 * 1024


def test_checks_stay_within_their_memory_bound():
    model = M.random_scm(2001, "confounded", with_c=True, c_levels=16, l_levels=5, m_levels=5,
                         y_levels=5)
    M.engine.profiles(model)
    M.observational_law(model)
    tracemalloc.start()
    try:
        M.check_all_assumptions(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CHECKS_PEAK_BYTES, peak


def _bincounts_per_check(run):
    """The np.bincount calls of each assumption while run() checks."""
    counts, current = collections.Counter(), [None]
    check, bincount = identify.check_assumption, np.bincount

    def spy_check(model, which):
        current[0] = which
        return check(model, which)

    def spy_bincount(*args, **kwargs):
        counts[current[0]] += 1
        return bincount(*args, **kwargs)

    with mock.patch.object(identify, "check_assumption", spy_check), \
            mock.patch.object(np, "bincount", spy_bincount):
        run()
    return dict(counts)


def test_the_checks_share_their_tables():
    """Alone, each assumption counts its shares and z table (A2 and A7 once
    per arm), then each of its checks an x table and a joint table; together,
    A3 reads A1's shares and z table, A4 A1's x tables and A3's table of
    M(a*), and A7 without an induced confounder A2's shares, z and x tables.
    A6 counts cell masses, one table of stratum, arm and cell masses, and
    the levels each mediator column takes."""
    for model, a7_alone, a7_together in ((M.random_scm(3, "confounded", with_c=True), 12, 12),
                                         (M.random_scm(3, "basic", with_c=True), 12, 4)):
        def alone():
            for which in identify.ASSUMPTIONS:
                identify.check_assumption(model, which)

        assert _bincounts_per_check(alone) == {"A1": 10, "A2": 12, "A3": 6, "A4": 6, "A6": 5,
                                               "A7": a7_alone}
        assert _bincounts_per_check(lambda: M.check_all_assumptions(model)) == {
            "A1": 10, "A2": 12, "A3": 4, "A4": 2, "A6": 5, "A7": a7_together}


class _Failure(Exception):
    pass


def test_a_check_that_raises_leaves_no_tables():
    model = M.random_scm(4, "confounded", with_c=True)
    expected = [_fields(v) for v in M.check_all_assumptions(model)]
    made = []

    class Recorded(identify._CheckTables):
        def __init__(self, model):
            super().__init__(model)
            made.append(self)

    with mock.patch.object(identify, "_CheckTables", Recorded):
        with mock.patch.object(identify, "_check_positivity", side_effect=_Failure):
            with pytest.raises(_Failure):
                M.check_all_assumptions(model)
        assert identify._TABLES.get() is None
        assert [_fields(v) for v in M.check_all_assumptions(model)] == expected
        # a check after the call builds tables of its own
        assert _fields(M.check_assumption(model, "A4")) == expected[3]
    assert len(made) == 3 and made[0]._built and made[0] is not made[1]
    assert identify._TABLES.get() is None
