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
from .model import Model

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


def _check_arm_positivity(law: ObservedLaw) -> None:
    for c, w_c in law.c_strata():
        if w_c <= 0.0:
            continue
        for ap in law.exposure_levels:
            if law.prob(c=c, a=ap) <= 0.0:
                raise DegenerateStratumError(f"Pr(A={ap} | c={c!r}) = 0")


def _check_mediator_positivity(law: ObservedLaw) -> None:
    # In-sample analog of the mediator-density positivity requirement: every
    # mediator level must occur in both exposure arms within every covariate
    # stratum.
    _check_arm_positivity(law)
    for c, w_c in law.c_strata():
        if w_c <= 0.0:
            continue
        for ap in law.exposure_levels:
            for m in law.m_support:
                if law.prob(c=c, a=ap, m=m) <= 0.0:
                    raise DegenerateStratumError(
                        f"Pr(M={m} | A={ap}, c={c!r}) = 0"
                    )


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
        if not law.has_l:
            value += w_c * (law.mean_y(c=c, a=a, m=m) - law.mean_y(c=c, a=a_star, m=m))
            continue
        per_arm = []
        for ap in (a, a_star):
            acc = 0.0
            for l in law.l_support:
                w_l = law.cond_prob(of={"l": l}, given={"c": c, "a": ap})
                if w_l <= 0.0:
                    continue
                acc += w_l * law.mean_y(c=c, a=ap, l=l, m=m)
            per_arm.append(acc)
        value += w_c * (per_arm[0] - per_arm[1])
    return value


def psi_pe(law: ObservedLaw, m: int) -> float:
    """Portion-eliminated functional: psi_te - psi_cde at level m."""
    return psi_te(law) - psi_cde(law, m)


def psi_nie(law: ObservedLaw) -> float:
    """The mediation-formula functional
    E{E(Y|a,C)} - E[E{E(Y|M,a,C) | a*,C}]."""
    _check_mediator_positivity(law)
    a_star, a = law.exposure_levels
    value = 0.0
    for c, w_c in law.c_strata():
        inner = 0.0
        for m in law.m_support:
            w_m = law.cond_prob(of={"m": m}, given={"c": c, "a": a_star})
            if w_m <= 0.0:
                continue
            inner += w_m * law.mean_y(c=c, a=a, m=m)
        value += w_c * (law.mean_y(c=c, a=a) - inner)
    return value


def psi_nie_r_L(law: ObservedLaw) -> float:
    """Identification functional for the covariate-stratified randomized
    indirect contrast in the presence of an observed induced confounder:
    E[ sum_m sum_l E(Y|m,l,a,C) Pr(l|a,C) {Pr(m|a,C) - Pr(m|a*,C)} ]."""
    if not law.has_l:
        raise ShapeError("functional requires a law with an induced confounder")
    _check_mediator_positivity(law)
    a_star, a = law.exposure_levels
    value = 0.0
    for c, w_c in law.c_strata():
        acc = 0.0
        for m in law.m_support:
            delta = law.cond_prob(of={"m": m}, given={"c": c, "a": a}) - law.cond_prob(
                of={"m": m}, given={"c": c, "a": a_star}
            )
            if delta == 0.0:
                continue
            inner = 0.0
            for l in law.l_support:
                w_l = law.cond_prob(of={"l": l}, given={"c": c, "a": a})
                if w_l <= 0.0:
                    continue
                inner += w_l * law.mean_y(c=c, a=a, l=l, m=m)
            acc += delta * inner
        value += w_c * acc
    return value


def psi_nie_rl(law: ObservedLaw) -> float:
    """Identification functional for the contrast whose draw is stratified on
    the observed confounder:
    E{E(Y|L,a,C)} - E[E{E(Y|M,L,a,C) | L,a*,C}], the outer expectation taken
    over the marginal (C, L) law."""
    if not law.has_l:
        raise ShapeError("functional requires a law with an induced confounder")
    a_star, a = law.exposure_levels
    value = 0.0
    for c, w_c in law.c_strata():
        if w_c <= 0.0:
            continue
        for l in law.l_support:
            w_cl = law.prob(c=c, l=l)
            if w_cl <= 0.0:
                continue
            first = law.mean_y(c=c, a=a, l=l)
            second = 0.0
            for m in law.m_support:
                w_m = law.cond_prob(of={"m": m}, given={"c": c, "a": a_star, "l": l})
                if w_m <= 0.0:
                    continue
                second += w_m * law.mean_y(c=c, a=a, l=l, m=m)
            value += w_cl * (first - second)
    return value


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
    x: np.ndarray,
    z: np.ndarray,
    strata: tuple[np.ndarray, np.ndarray],
    key_of: Callable[[int], object],
    members: np.ndarray | None = None,
) -> tuple[float, str]:
    """Max |P(x,z | s) - P(x | s) P(z | s)| over strata s (among members) and
    the cells (x, z) whose values both occur in s, as one grouped contingency
    table; the witness names the first stratum and cell attaining it, strata
    and values in order of first occurrence. strata is (stratum of every
    unit, first unit of every stratum); key_of(unit) names a stratum."""
    s, first = strata
    w = p.weight
    if members is not None:
        unit = np.flatnonzero(members)
        if unit.size == 0:
            return 0.0, ""
        x, z, w = x[unit], z[unit], w[unit]
        s, first = engine.group_ids(s[unit])
        first = unit[first]
    x_levels, xc = np.unique(x, return_inverse=True)
    z_levels, zc = np.unique(z, return_inverse=True)
    n, ns, nx, nz = w.size, first.size, x_levels.size, z_levels.size
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
    cell = f"cell (x={int(x_levels[xi])}, z={int(z_levels[zi])})"
    return worst, f"stratum {key_of(int(first[k]))!r}, {cell}"


def check_assumption(model: Model, which: str) -> AssumptionVerdict:
    """Exact factorization (or positivity) test of one assumption over the
    model's full counterfactual joint."""
    if which not in ASSUMPTIONS:
        raise DomainError(f"unknown assumption {which!r}; expected one of {ASSUMPTIONS}")
    p = engine.profiles(model)
    if which == "A6":
        return _check_positivity(p)
    a_star, a = arms = model.exposure_levels
    levels = p.m_levels
    by_c = ((p.stratum, p.stratum_first), p.c_key)   # (strata, stratum name)
    if which == "A1":
        # Y(a', m) independent of the factual exposure given C
        checks = [(f"Y({ap},{m}) vs A", p.y_at(ap, m), p.a, by_c, None)
                  for ap in arms for m in levels]
    elif which == "A2":
        # Y(a', m) independent of the factual mediator given C within arm a'
        checks = [(f"Y({ap},{m}) vs M | A={ap}", p.y_at(ap, m), p.m, by_c, p.a == ap)
                  for ap in arms for m in levels]
    elif which == "A3":
        checks = [(f"M({ap}) vs A", p.m_cf[p.arm(ap)], p.a, by_c, None) for ap in arms]
    elif which == "A4":
        # the cross-world independence: Y(a, m) vs M(a*) given C
        checks = [(f"Y({a},{m}) vs M({a_star})", p.y_at(a, m), p.m_cf[p.arm(a_star)], by_c, None)
                  for m in levels]
    else:
        # A7: Y(a', m) vs the factual mediator given (C, L) within arm a'; with
        # no induced confounder this coincides with A2
        if model.has_l:
            by_c = (engine.group_ids(p.stratum, p.l), lambda u: (p.c_key(u), int(p.l[u])))
        checks = [(f"Y({ap},{m}) vs M | L, A={ap}", p.y_at(ap, m), p.m, by_c, p.a == ap)
                  for ap in arms for m in levels]

    worst = 0.0
    witness = ""
    for tag, x, z, (strata, key_of), members in checks:
        dev, cell = _conditional_independence(p, x, z, strata, key_of, members)
        if dev > worst:
            worst = dev
            witness = f"{tag}: {cell}"
    return AssumptionVerdict(which, worst <= INDEPENDENCE_TOL, worst, witness)


def _check_positivity(p: engine.Profiles) -> AssumptionVerdict:
    # Cell probabilities of the exact observed law, summed cell by cell in
    # law order as ObservedLaw.prob does.
    cell, first = engine.law_cells(p)
    mass = np.bincount(cell, weights=p.weight)
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
