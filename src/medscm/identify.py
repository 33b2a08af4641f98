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
from .engine import MEAN_Y_TEXT, ObservedLaw, running_sum
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
# Each functional is a fixed number of queries over the whole table: the
# strata on the first axis of every query, levels on the trailing axes. Level
# sums and stratum sums are running sums from 0.0 in level and c_strata()
# order, and the first failing entry in C order is the one the per-stratum,
# per-level loops would meet first, so values and errors are theirs. A batch
# of laws (bootstrap replicates) is scored at once along a leading axis.


def _strata(law: ObservedLaw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law's strata, their mass, and whether each law holds each one."""
    cells = law.strata
    w_c = law.prob(c=cells)
    return cells, w_c, w_c > 0.0


def _raise_first(bad: np.ndarray, describe: Callable[..., str]) -> None:
    """DegenerateStratumError describing the first bad entry in C order;
    describe takes its index."""
    if bad.any():
        raise DegenerateStratumError(describe(*np.unravel_index(np.argmax(bad), bad.shape)))


def _check_arm_positivity(law: ObservedLaw, cells: np.ndarray, live: np.ndarray,
                          empty: np.ndarray | None = None) -> None:
    """Every exposure arm occurs in every stratum; empty, if given, marks
    the (stratum, arm) cells known to be empty."""
    arms = law.exposure_levels
    if empty is None:
        empty = law.prob(c=cells[:, None], a=list(arms)) <= 0.0
    _raise_first(empty & live[..., None],
                 lambda *i: f"Pr(A={arms[i[-1]]} | c={cells[i[-2]]!r}) = 0")


def _check_mediator_positivity(law: ObservedLaw, cells: np.ndarray, live: np.ndarray) -> None:
    # In-sample analog of the mediator-density positivity requirement: every
    # mediator level must occur in both exposure arms within every covariate
    # stratum. An arm is empty exactly where all its mediator levels are.
    arms, levels = law.exposure_levels, law.m_support
    empty = law.prob(c=cells[:, None, None], a=[[ap] for ap in arms], m=list(levels)) <= 0.0
    _check_arm_positivity(law, cells, live, empty.all(axis=-1))
    _raise_first(empty & live[..., None, None],
                 lambda *i: f"Pr(M={levels[i[-1]]} | A={arms[i[-2]]}, c={cells[i[-3]]!r}) = 0")


def _l_standardised(law: ObservedLaw, c: np.ndarray, where: np.ndarray, a, m) -> np.ndarray:
    """sum_l Pr(l | a, c) E(Y | m, l, a, c) over the levels l of positive
    weight, where allows; cells c, levels a and m and where broadcast."""
    c, where, a, m = (np.asarray(x)[..., None] for x in (c, where, a, m))   # l on a new last axis
    levels = list(law.l_support)
    w_l = law.cond_prob(of={"l": levels}, given={"c": c, "a": a}, where=where)
    return running_sum(w_l * law.mean_y(c=c, a=a, l=levels, m=m, where=where & (w_l > 0.0)))


def psi_te(law: ObservedLaw) -> float:
    """E{E(Y|a,C)} - E{E(Y|a*,C)} as exact stratum sums."""
    cells, w_c, live = _strata(law)
    _check_arm_positivity(law, cells, live)
    a_star, a = law.exposure_levels
    y = law.mean_y(c=cells[:, None], a=[a, a_star], where=live[..., None])
    return law.stratum_sum(w_c * (y[..., 0] - y[..., 1]))


def psi_cde(law: ObservedLaw, m: int) -> float:
    """Controlled-direct-effect functional; adjusts for the observed
    confounder by the per-arm g-formula when the law has one."""
    if m not in law.m_support:
        raise DomainError(f"mediator level {m} outside support")
    cells, w_c, live = _strata(law)
    _check_arm_positivity(law, cells, live)
    a_star, a = law.exposure_levels
    if law.has_l:
        y = _l_standardised(law, cells[:, None], live[..., None], [a, a_star], m)
    else:
        y = law.mean_y(c=cells[:, None], a=[a, a_star], m=m, where=live[..., None])
    return law.stratum_sum(w_c * (y[..., 0] - y[..., 1]))


def psi_pe(law: ObservedLaw, m: int) -> float:
    """Portion-eliminated functional: psi_te - psi_cde at level m."""
    return psi_te(law) - psi_cde(law, m)


def psi_nie(law: ObservedLaw) -> float:
    """The mediation-formula functional
    E{E(Y|a,C)} - E[E{E(Y|M,a,C) | a*,C}]."""
    cells, w_c, live = _strata(law)
    _check_mediator_positivity(law, cells, live)
    a_star, a = law.exposure_levels
    levels = list(law.m_support)
    w_m = law.cond_prob(of={"m": levels}, given={"c": cells[:, None], "a": a_star},
                        where=live[..., None])
    inner = running_sum(w_m * law.mean_y(c=cells[:, None], a=a, m=levels, where=w_m > 0.0))
    return law.stratum_sum(w_c * (law.mean_y(c=cells, a=a, where=live) - inner))


def psi_nie_r_L(law: ObservedLaw) -> float:
    """Identification functional for the covariate-stratified randomized
    indirect contrast in the presence of an observed induced confounder:
    E[ sum_m sum_l E(Y|m,l,a,C) Pr(l|a,C) {Pr(m|a,C) - Pr(m|a*,C)} ]."""
    if not law.has_l:
        raise ShapeError("functional requires a law with an induced confounder")
    cells, w_c, live = _strata(law)
    _check_mediator_positivity(law, cells, live)
    a_star, a = law.exposure_levels
    levels = np.array(law.m_support)
    w_m = law.cond_prob(of={"m": list(levels)}, given={"c": cells[:, None, None],
                        "a": [[a], [a_star]]}, where=live[..., None, None])
    delta = w_m[..., 0, :] - w_m[..., 1, :]
    y = _l_standardised(law, cells[:, None], delta != 0.0, a, levels)
    return law.stratum_sum(w_c * running_sum(delta * y))


def psi_nie_rl(law: ObservedLaw) -> float:
    """Identification functional for the contrast whose draw is stratified on
    the observed confounder:
    E{E(Y|L,a,C)} - E[E{E(Y|M,L,a,C) | L,a*,C}], the outer expectation taken
    over the marginal (C, L) law."""
    if not law.has_l:
        raise ShapeError("functional requires a law with an induced confounder")
    a_star, a = law.exposure_levels
    cells = law.strata
    l_levels, m_levels = list(law.l_support), list(law.m_support)
    c, c_l, l_m = cells[:, None], cells[:, None, None], np.array(l_levels)[:, None]
    w_cl = law.prob(c=c, l=l_levels)
    on = w_cl > 0.0
    first_mass, draw_mass = (law.prob(c=c, a=ap, l=l_levels) for ap in (a, a_star))
    w_m = law.cond_prob(of={"m": m_levels}, given={"c": c_l, "a": a_star, "l": l_m},
                        where=(on & (draw_mass > 0.0))[..., None])
    second_mass = law.prob(c=c_l, a=a, l=l_m, m=m_levels)

    # each (c, l) in turn: E(Y | c, a, l), then Pr(. | c, a*, l), then E(Y | m, c, a, l)
    def describe(*i):
        cell, l, k = cells[i[-3]], l_levels[i[-2]], i[-1]
        if k == 1:
            return repr({"c": cell, "a": a_star, "l": l})
        return MEAN_Y_TEXT.format(c=cell, a=a, l=l, m=None if k == 0 else m_levels[k - 2])

    _raise_first(np.concatenate([(on & (first_mass <= 0.0))[..., None],
                                 (on & (draw_mass <= 0.0))[..., None],
                                 (w_m > 0.0) & (second_mass <= 0.0)], axis=-1), describe)
    first = law.mean_y(c=c, a=a, l=l_levels, where=on)
    second = running_sum(w_m * law.mean_y(c=c_l, a=a, l=l_m, m=m_levels, where=w_m > 0.0))
    return law.stratum_sum(w_cl * (first - second))


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

# a block of independence checks lays out at most this many (check, unit)
# entries per index array; a larger block is scored a part at a time
CHECK_BLOCK_ELEMENTS = 1 << 16


def _independence(
    p: engine.Profiles,
    tags: list[str],
    x: tuple[np.ndarray, tuple[int, ...]],
    z: tuple[np.ndarray, tuple[int, ...]],
    by: tuple[tuple[np.ndarray, np.ndarray], Callable[[int], object]],
    members: np.ndarray | None = None,
) -> tuple[float, str]:
    """Max |P(x,z | s) - P(x | s) P(z | s)| over a block of checks, strata s
    (among members) and the cells (x, z) whose values both occur in s; the
    witness names the first check attaining it (its tag), then its first
    stratum and cell attaining it, strata and values in order of first
    occurrence. x is (block, support), one row per check, and z (column,
    support), shared by the checks. by is ((stratum of every unit, first unit
    of every stratum), name of a unit's stratum), the strata renumbered among
    the members when members (the member units) is given.

    The checks share the stratum shares and the z table, and their x and joint
    tables lie side by side in one np.bincount each: every bin still adds its
    own check's units in unit order, so each deviation is that of a table of
    its own."""
    (x, x_levels), (z, z_levels) = x, z
    (s, first), key_of = by
    w = p.weight
    if members is not None:
        if members.size == 0:
            return 0.0, ""
        z, w = z[members], w[members]
    zc = level_positions(z, z_levels)
    n, ns, nx, nz = w.size, first.size, len(x_levels), len(z_levels)
    share = w / np.bincount(s, weights=w, minlength=ns)[s]
    pz = np.bincount(s * nz + zc, weights=share, minlength=ns * nz).reshape(ns, 1, nz)
    s_x, worst, winner = s * nx, 0.0, None
    size = max(1, CHECK_BLOCK_ELEMENTS // n)
    for lo in range(0, len(tags), size):
        rows = x[lo:lo + size]
        xc = level_positions(rows if members is None else rows[:, members], x_levels)
        k = xc.shape[0]
        sx = np.arange(k)[:, None] * (ns * nx) + s_x   # bins of (check, stratum, x)
        sx += xc
        shares = np.tile(share, k)
        px = np.bincount(sx.ravel(), weights=shares, minlength=k * ns * nx).reshape(k, ns, nx, 1)
        sx *= nz
        sx += zc
        joint = np.bincount(sx.ravel(), weights=shares, minlength=k * ns * nx * nz)
        dev = np.abs(joint.reshape(k, ns, nx, nz) - px * pz)
        dev[(px == 0.0) | (pz == 0.0)] = 0.0   # values absent from the stratum
        top = dev.reshape(k, -1).max(axis=1)
        i = int(np.argmax(top))
        if top[i] > worst:
            worst, winner = float(top[i]), (lo + i, xc[i], dev[i])
    if winner is None:
        return 0.0, ""
    i, xc, dev = winner
    j = int(np.argmax(dev.max(axis=(1, 2)) == worst))
    # cells of stratum j in visit order: by first occurrence of x, then of z
    in_j = s == j
    x_seen, z_seen = np.full(nx, n), np.full(nz, n)
    for seen, code in ((x_seen, xc[in_j]), (z_seen, zc[in_j])):
        codes, at = np.unique(code, return_index=True)
        seen[codes] = at
    visit = x_seen[:, None] * n + z_seen[None, :]
    visit[dev[j] != worst] = visit.max() + 1
    xi, zi = np.unravel_index(np.argmin(visit), visit.shape)
    cell = f"cell (x={x_levels[xi]}, z={z_levels[zi]})"
    return worst, f"{tags[i]}: stratum {key_of(int(first[j]))!r}, {cell}"


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
    model's full counterfactual joint. The independence checks of an
    assumption are scored as one block (one per arm for A2 and A7), and the
    witness names the first check, in the order listed here, that attains
    the largest deviation."""
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
        blocks = [([f"Y({ap},{m}) vs A" for ap in arms for m in levels],
                   (p.y_cf.reshape(-1, len(p)), y_lv), a_col, by_c, None)]
    elif which == "A3":
        blocks = [([f"M({ap}) vs A" for ap in arms], (p.m_cf, levels), a_col, by_c, None)]
    elif which == "A4":
        # the cross-world independence: Y(a, m) vs M(a*) given C
        blocks = [([f"Y({a},{m}) vs M({a_star})" for m in levels], (p.y_cf[p.arm(a)], y_lv),
                   (p.m_cf[p.arm(a_star)], levels), by_c, None)]
    else:
        # A2: Y(a', m) independent of the factual mediator given C within arm
        # a'; A7 the same given (C, L), which coincides with A2 when there is
        # no induced confounder
        given_l = "L, " if which == "A7" else ""
        if which == "A7" and model.has_l:
            by_c = (p.cl_strata(keep=False), lambda u: (p.c_key(u), int(p.l[u])))
        blocks = [([f"Y({ap},{m}) vs M | {given_l}A={ap}" for m in levels],
                   (p.y_cf[p.arm(ap)], y_lv), m_col, *_members(p.a == ap, by_c)) for ap in arms]

    worst, witness = 0.0, ""
    for block in blocks:
        dev, cell = _independence(p, *block)
        if dev > worst:
            worst, witness = dev, cell
    return AssumptionVerdict(which, worst <= INDEPENDENCE_TOL, worst, witness)


def _check_positivity(model: Model, p: engine.Profiles) -> AssumptionVerdict:
    # Cell probabilities of the exact observed law, summed cell by cell in
    # law order as ObservedLaw.prob does.
    cell, first, _shape = engine.law_cells(model, p, keep=False)
    mass = np.bincount(cell, weights=p.weight)[cell[first]]
    s, a, m = p.stratum[first], p.a[first], p.m[first]
    ns = p.stratum_first.size
    w_c = np.bincount(s, weights=mass, minlength=ns)
    w_arm = [np.bincount(s, weights=mass * (a == ap), minlength=ns) for ap in p.arms]
    c_repr = [repr(p.c_key(int(u))) for u in p.stratum_first]
    required: list[tuple[np.ndarray, Callable[[str], str]]] = [
        (w_arm[i] / w_c, lambda c, ap=ap: f"Pr(A={ap} | c={c})") for i, ap in enumerate(p.arms)
    ]
    # mediator levels that must be observable in each arm, in value order:
    # the factual support united with the counterfactual support of M(a')
    levels = p.m_levels
    seen = [np.bincount(level_positions(col, levels), minlength=len(levels)) > 0
            for col in (p.m, *p.m_cf)]
    for i, ap in enumerate(p.arms):
        for lv in sorted(lv for lv, on in zip(levels, (seen[0] | seen[1 + i]).tolist()) if on):
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
