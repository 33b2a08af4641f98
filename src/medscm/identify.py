"""Nonparametric identification functionals and exchangeability checks.

The functionals consume an ObservedLaw only, never a model, which enforces
the identification boundary at the type level: anything counterfactual must
arrive through the engine's enumeration instead. Assumption checks go the
other way; they interrogate the full counterfactual joint of a model by
exact factorization tests, each a grouped contingency table over the
engine's profile columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine
from .engine import ObservedLaw
from .errors import DegenerateStratumError, DomainError, ShapeError
from .model import Model, level_positions

INDEPENDENCE_TOL = 1e-9

ASSUMPTIONS = ("A1", "A2", "A3", "A4", "A6", "A7")


@dataclass(frozen=True)
class AssumptionVerdict:
    """Outcome of one exchangeability/positivity check.

    worst_violation is the maximum absolute deviation of a joint cell from
    the product of its marginals; for the positivity check it is the negated
    smallest required cell probability (1.0 when a required cell is empty),
    so 'holds' is worst_violation <= 1e-9 in both cases.
    """

    assumption: str
    holds: bool
    worst_violation: float
    witness: str


# ---------------------------------------------------------------------------
# Identification functionals
# ---------------------------------------------------------------------------
# Loops run over strata only; each query takes every level at once and sums
# add in level order, so values and errors are those of per-level loops.


def _level_sum(terms: np.ndarray):
    """Sum over the last axis in level order (np.sum would reassociate)."""
    return np.cumsum(terms, axis=-1)[..., -1] if terms.shape[-1] else np.zeros(terms.shape[:-1])


def _check_arm_positivity(law: ObservedLaw) -> None:
    for c, _w_c in law.c_strata():
        for ap in law.exposure_levels:
            if law.prob(c=c, a=ap) <= 0.0:
                raise DegenerateStratumError(f"Pr(A={ap} | c={c!r}) = 0")


def _check_mediator_positivity(law: ObservedLaw) -> None:
    # In-sample analog of the mediator-density positivity requirement: every
    # mediator level must occur in both exposure arms within every covariate
    # stratum.
    _check_arm_positivity(law)
    arms, levels = law.exposure_levels, law.m_support
    for c, _w_c in law.c_strata():
        mass = law.prob(c=c, a=[[ap] for ap in arms], m=list(levels))
        if not (mass > 0.0).all():
            i, j = np.argwhere(mass <= 0.0)[0]   # the first in (arm, level) order
            raise DegenerateStratumError(f"Pr(M={levels[j]} | A={arms[i]}, c={c!r}) = 0")


def _l_standardised(law: ObservedLaw, c: tuple, ap: int, m) -> np.ndarray:
    """sum_l Pr(l | ap, c) E(Y | m, l, ap, c) over the levels l of positive
    weight, for a mediator level m or each of an array of them."""
    levels = np.array(law.l_support)
    w_l = law.cond_prob(of={"l": levels}, given={"c": c, "a": ap})
    keep = w_l > 0.0
    means = law.mean_y(c=c, a=ap, l=levels[keep], m=np.asarray(m)[..., None])
    return _level_sum(w_l[keep] * means)


def psi_te(law: ObservedLaw) -> float:
    """E{E(Y|a,C)} - E{E(Y|a*,C)} as exact stratum sums."""
    _check_arm_positivity(law)
    a_star, a = law.exposure_levels
    value = 0.0
    for c, w_c in law.c_strata():
        value += w_c * (law.mean_y(c=c, a=a) - law.mean_y(c=c, a=a_star))
    return value


def psi_cde(law: ObservedLaw, m: int) -> float:
    """Controlled-direct-effect functional; adjusts for the observed
    confounder by the per-arm g-formula when the law has one."""
    if m not in law.m_support:
        raise DomainError(f"mediator level {m} outside support")
    _check_arm_positivity(law)
    a_star, a = law.exposure_levels
    value = 0.0
    for c, w_c in law.c_strata():
        if law.has_l:
            y_a, y_star = (_l_standardised(law, c, ap, m) for ap in (a, a_star))
        else:
            y_a, y_star = (law.mean_y(c=c, a=ap, m=m) for ap in (a, a_star))
        value += w_c * (y_a - y_star)
    return float(value)


def psi_pe(law: ObservedLaw, m: int) -> float:
    """Portion-eliminated functional: psi_te - psi_cde at level m."""
    return psi_te(law) - psi_cde(law, m)


def psi_nie(law: ObservedLaw) -> float:
    """The mediation-formula functional
    E{E(Y|a,C)} - E[E{E(Y|M,a,C) | a*,C}]."""
    _check_mediator_positivity(law)
    a_star, a = law.exposure_levels
    levels = np.array(law.m_support)
    value = 0.0
    for c, w_c in law.c_strata():
        w_m = law.cond_prob(of={"m": levels}, given={"c": c, "a": a_star})
        keep = w_m > 0.0
        inner = _level_sum(w_m[keep] * law.mean_y(c=c, a=a, m=levels[keep]))
        value += w_c * (law.mean_y(c=c, a=a) - inner)
    return float(value)


def psi_nie_r_L(law: ObservedLaw) -> float:
    """Identification functional for the covariate-stratified randomized
    indirect contrast in the presence of an observed induced confounder:
    E[ sum_m sum_l E(Y|m,l,a,C) Pr(l|a,C) {Pr(m|a,C) - Pr(m|a*,C)} ]."""
    if not law.has_l:
        raise ShapeError("functional requires a law with an induced confounder")
    _check_mediator_positivity(law)
    a_star, a = law.exposure_levels
    levels = np.array(law.m_support)
    value = 0.0
    for c, w_c in law.c_strata():
        w_a, w_star = law.cond_prob(of={"m": levels}, given={"c": c, "a": [[a], [a_star]]})
        delta = w_a - w_star
        moved = delta != 0.0
        value += w_c * _level_sum(delta[moved] * _l_standardised(law, c, a, levels[moved]))
    return float(value)


def psi_nie_rl(law: ObservedLaw) -> float:
    """Identification functional for the contrast whose draw is stratified on
    the observed confounder:
    E{E(Y|L,a,C)} - E[E{E(Y|M,L,a,C) | L,a*,C}], the outer expectation taken
    over the marginal (C, L) law."""
    if not law.has_l:
        raise ShapeError("functional requires a law with an induced confounder")
    a_star, a = law.exposure_levels
    levels = np.array(law.m_support)
    value = 0.0
    for c, _w_c in law.c_strata():
        for l in law.l_support:
            w_cl = law.prob(c=c, l=l)
            if w_cl <= 0.0:
                continue
            first = law.mean_y(c=c, a=a, l=l)
            w_m = law.cond_prob(of={"m": levels}, given={"c": c, "a": a_star, "l": l})
            keep = w_m > 0.0
            second = _level_sum(w_m[keep] * law.mean_y(c=c, a=a, l=l, m=levels[keep]))
            value += w_cl * (first - second)
    return float(value)


FUNCTIONALS = {
    "psi_te": psi_te,
    "psi_cde": psi_cde,
    "psi_pe": psi_pe,
    "psi_nie": psi_nie,
    "psi_nie_r_L": psi_nie_r_L,
    "psi_nie_rl": psi_nie_rl,
}


# ---------------------------------------------------------------------------
# Assumption checks on the counterfactual joint
# ---------------------------------------------------------------------------


def _conditional_independence(
    p: engine.Profiles,
    x: tuple[np.ndarray, tuple[int, ...]],
    z: tuple[np.ndarray, tuple[int, ...]],
    strata: tuple[np.ndarray, np.ndarray],
    key_of: Callable[[int], object],
    members: np.ndarray | None = None,
) -> tuple[float, str]:
    """Max |P(x,z | s) - P(x | s) P(z | s)| over strata s (among members) and
    the cells (x, z) whose values both occur in s, as one grouped contingency
    table; the witness names the first stratum and cell attaining it, strata
    and values in order of first occurrence. x and z are (column, support),
    coded by support position. strata is (stratum of every unit, first unit
    of every stratum), renumbered among the members when members (the
    member units) is given; key_of(unit) names a stratum."""
    (x, x_levels), (z, z_levels) = x, z
    s, first = strata
    w = p.weight
    if members is not None:
        if members.size == 0:
            return 0.0, ""
        x, z, w = x[members], z[members], w[members]
    xc, zc = level_positions(x, x_levels), level_positions(z, z_levels)
    n, ns, nx, nz = w.size, first.size, len(x_levels), len(z_levels)
    share = w / np.bincount(s, weights=w, minlength=ns)[s]
    sx = s * nx + xc
    px = np.bincount(sx, weights=share, minlength=ns * nx).reshape(ns, nx, 1)
    pz = np.bincount(s * nz + zc, weights=share, minlength=ns * nz).reshape(ns, 1, nz)
    joint = np.bincount(sx * nz + zc, weights=share, minlength=ns * nx * nz)
    dev = np.abs(joint.reshape(ns, nx, nz) - px * pz)
    dev[(px == 0.0) | (pz == 0.0)] = 0.0   # values absent from the stratum
    worst = float(dev.max())
    if worst <= 0.0:
        return 0.0, ""
    k = int(np.argmax(dev.max(axis=(1, 2)) == worst))
    # cells of stratum k in visit order: by first occurrence of x, then of z
    in_k = s == k
    x_seen, z_seen = np.full(nx, n), np.full(nz, n)
    for seen, code in ((x_seen, xc[in_k]), (z_seen, zc[in_k])):
        codes, at = np.unique(code, return_index=True)
        seen[codes] = at
    visit = x_seen[:, None] * n + z_seen[None, :]
    visit[dev[k] != worst] = visit.max() + 1
    xi, zi = np.unravel_index(np.argmin(visit), visit.shape)
    cell = f"cell (x={x_levels[xi]}, z={z_levels[zi]})"
    return worst, f"stratum {key_of(int(first[k]))!r}, {cell}"


def _members(mask: np.ndarray, by: tuple) -> tuple[tuple, np.ndarray]:
    """(strata renumbered among the units in mask, stratum name) and those units."""
    (strata, first), key_of = by
    unit = np.flatnonzero(mask)
    if unit.size:
        strata, first = engine.group_ids(strata[unit])
        first = unit[first]
    return ((strata, first), key_of), unit


def check_assumption(model: Model, which: str) -> AssumptionVerdict:
    """Exact factorization (or positivity) test of one assumption over the
    model's full counterfactual joint."""
    if which not in ASSUMPTIONS:
        raise DomainError(f"unknown assumption {which!r}; expected one of {ASSUMPTIONS}")
    p = engine.profiles(model)
    if which == "A6":
        return _check_positivity(model, p)
    a_star, a = arms = model.exposure_levels
    levels = p.m_levels
    a_col, m_col = (p.a, model.var(model.exposure_name).support), (p.m, levels)
    y_lv = model.var(model.outcome_name).support
    by_c = ((p.stratum, p.stratum_first), p.c_key)   # (strata, stratum name)
    if which == "A1":
        # Y(a', m) independent of the factual exposure given C
        checks = [(f"Y({ap},{m}) vs A", (p.y_at(ap, m), y_lv), a_col, by_c, None)
                  for ap in arms for m in levels]
    elif which == "A3":
        checks = [(f"M({ap}) vs A", (p.m_cf[p.arm(ap)], levels), a_col, by_c, None)
                  for ap in arms]
    elif which == "A4":
        # the cross-world independence: Y(a, m) vs M(a*) given C
        checks = [(f"Y({a},{m}) vs M({a_star})", (p.y_at(a, m), y_lv),
                   (p.m_cf[p.arm(a_star)], levels), by_c, None) for m in levels]
    else:
        # A2: Y(a', m) independent of the factual mediator given C within arm
        # a'; A7 the same given (C, L), which coincides with A2 when there is
        # no induced confounder
        given_l = "L, " if which == "A7" else ""
        if which == "A7" and model.has_l:
            by_c = (p.cl_strata(), lambda u: (p.c_key(u), int(p.l[u])))
        in_arm = {ap: _members(p.a == ap, by_c) for ap in arms}
        checks = [(f"Y({ap},{m}) vs M | {given_l}A={ap}", (p.y_at(ap, m), y_lv), m_col, *in_arm[ap])
                  for ap in arms for m in levels]

    worst, witness = 0.0, ""
    for tag, x, z, (strata, key_of), members in checks:
        dev, cell = _conditional_independence(p, x, z, strata, key_of, members)
        if dev > worst:
            worst = dev
            witness = f"{tag}: {cell}"
    return AssumptionVerdict(which, worst <= INDEPENDENCE_TOL, worst, witness)


def _check_positivity(model: Model, p: engine.Profiles) -> AssumptionVerdict:
    # Cell probabilities of the exact observed law, summed cell by cell in
    # law order as ObservedLaw.prob does.
    cell, first, _shape = engine.law_cells(model, p)
    mass = np.bincount(cell, weights=p.weight)[cell[first]]
    s, a, m = p.stratum[first], p.a[first], p.m[first]
    ns = p.stratum_first.size
    w_c = np.bincount(s, weights=mass, minlength=ns)
    w_arm = [np.bincount(s, weights=mass * (a == ap), minlength=ns) for ap in p.arms]
    c_repr = [repr(p.c_key(int(u))) for u in p.stratum_first]
    required: list[tuple[np.ndarray, Callable[[str], str]]] = [
        (w_arm[i] / w_c, lambda c, ap=ap: f"Pr(A={ap} | c={c})") for i, ap in enumerate(p.arms)
    ]
    # mediator levels that must be observable in each arm: the factual support
    # united with the counterfactual support of M(a') for that arm
    for i, ap in enumerate(p.arms):
        for lv in np.union1d(p.m, p.m_cf[i]).tolist():
            w_cell = np.bincount(s, weights=mass * ((a == ap) & (m == lv)), minlength=ns)
            f_cell = np.divide(w_cell, w_arm[i], out=np.zeros(ns), where=w_arm[i] > 0.0)
            required.append((f_cell, lambda c, ap=ap, lv=lv: f"f(M={lv} | A={ap}, c={c})"))
    min_cell = min(float(values.min()) for values, _name in required)
    min_name = min(
        name(c_repr[k]) for values, name in required for k in np.flatnonzero(values == min_cell)
    )
    if min_cell <= 0.0:
        return AssumptionVerdict("A6", False, 1.0, f"empty required cell {min_name}")
    return AssumptionVerdict("A6", True, -min_cell, f"smallest required cell {min_name}")


def check_all_assumptions(model: Model) -> list[AssumptionVerdict]:
    return [check_assumption(model, which) for which in ASSUMPTIONS]
