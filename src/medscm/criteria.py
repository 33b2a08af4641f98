"""Per-unit null hypotheses, criterion verdicts, and reproduction oracles.

The sharp null, sharper null, and monotonicity statuses are decided over
every positive-probability unit of the engine's profile columns; criterion
verdicts then compare any effect value against the status of its premises. The
reproduce operation cross-checks enumerated contrasts against closed forms
for the built-in counterexample families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from . import effects, engine, identify
from .errors import DomainError, ReproductionError
from .model import (
    Model,
    pe_counterexample,
    random_additive_scm,
    random_separable_scm,
    thm1_counterexample,
    thm2_counterexample,
    thm3_counterexample,
)

NULL_TOL = 1e-9

MONO_NONINCREASING = "nonincreasing"
MONO_NONDECREASING = "nondecreasing"
MONO_BOTH = "both"
MONO_NEITHER = "neither"

CRITERIA = ("sharp-null", "sharper-null", "monotonicity")


@dataclass(frozen=True)
class NullStatus:
    """Truth values of the per-unit null hypotheses for one model, with one
    witnessing unit per failed entry."""

    sharp_null: bool
    sharper_null: bool
    monotonicity: str
    overlap_condition: bool
    witnesses: Mapping[str, str]


@dataclass(frozen=True)
class CriterionVerdict:
    """Whether one effect value is consistent with one criterion on this
    model; refutes_criterion means the criterion's premise holds here and the
    value violates it, i.e. this instance disproves the criterion for that
    effect measure."""

    effect_name: str
    effect_value: float
    criterion: str
    premise_holds: bool
    satisfied_here: bool
    refutes_criterion: bool


def _unit_desc(p: engine.UnitProfile) -> str:
    return (
        f"unit(w={p.weight:.6g}, c={p.c!r}, a={p.a}, l={p.l!r}, m={p.m}, y={p.y}, "
        f"m_cf={dict(p.m_cf)!r}, y_cf={dict(p.y_cf)!r})"
    )


def null_status(model: Model) -> NullStatus:
    """Decide the sharp null, sharper null, monotonicity direction, and the
    overlap condition by checking every positive-weight unit."""
    p = engine.profiles(model)
    a_star, a = model.exposure_levels
    # diffs[k] = Y{a', M(a)} - Y{a', M(a*)} for a' = arms[k], per unit
    diffs = np.stack([p.nested(ap, a) - p.nested(ap, a_star) for ap in (a_star, a)])
    nested_moved = (diffs != 0).any(axis=0)
    m_moved = p.m_cf[p.arm(a)] != p.m_cf[p.arm(a_star)]
    y_flat = (p.y_cf == p.y_cf[:, :1]).all(axis=(0, 1))
    broken = {"sharp_null": nested_moved, "sharper_null": m_moved & ~y_flat}
    first_unit = {key: int(np.argmax(units)) for key, units in broken.items() if units.any()}
    witnesses: dict[str, str] = {}
    # in the order a scan over the units meets them
    for key in sorted(first_unit, key=first_unit.get):
        witnesses[key] = _unit_desc(p[first_unit[key]])
    sharp = "sharp_null" not in first_unit
    sharper = "sharper_null" not in first_unit

    dir_down = not (diffs > 0).any()   # Y{a', M(a)} <= Y{a', M(a*)} for every unit and arm
    dir_up = not (diffs < 0).any()     # >= everywhere
    if dir_down and dir_up:
        mono = MONO_BOTH
    elif dir_down:
        mono = MONO_NONINCREASING
    elif dir_up:
        mono = MONO_NONDECREASING
    else:
        mono = MONO_NEITHER
        witnesses["monotonicity"] = _unit_desc(p[int(np.argmax(nested_moved))])

    treated = p.y_cf[p.arm(a)]
    any_y_moved_treated = not (treated == treated[:1]).all()
    overlap_premise = bool(m_moved.any()) and any_y_moved_treated
    overlap = (not overlap_premise) or bool((diffs[1] != 0).any())
    if not overlap:
        witnesses["overlap_condition"] = (
            "exposure moves the mediator for some unit and the mediator moves the "
            "treated-arm outcome for some unit, yet no unit has a treated-arm "
            "nested contrast"
        )
    return NullStatus(sharp, sharper, mono, overlap, witnesses)


def criterion_verdicts(
    model: Model, report: effects.EffectReport, tol: float = NULL_TOL
) -> list[CriterionVerdict]:
    """Render, for every effect in the report, its verdict under each of the
    three criteria given the model's null status."""
    status = null_status(model)
    out: list[CriterionVerdict] = []
    for name, value in report.rows():
        for criterion in CRITERIA:
            if criterion == "sharp-null":
                premise = status.sharp_null
                consistent = abs(value) <= tol
            elif criterion == "sharper-null":
                premise = status.sharper_null
                consistent = abs(value) <= tol
            else:
                if status.monotonicity == MONO_NONINCREASING:
                    premise, consistent = True, value <= tol
                elif status.monotonicity == MONO_NONDECREASING:
                    premise, consistent = True, value >= -tol
                elif status.monotonicity == MONO_BOTH:
                    premise, consistent = True, abs(value) <= tol
                else:
                    premise, consistent = False, True
            satisfied = consistent if premise else True
            out.append(
                CriterionVerdict(
                    effect_name=name,
                    effect_value=value,
                    criterion=criterion,
                    premise_holds=premise,
                    satisfied_here=satisfied,
                    refutes_criterion=premise and not satisfied,
                )
            )
    return out


def no_interaction_check(model: Model, tol: float = NULL_TOL) -> bool:
    """True iff the exposure-mediator mean interaction on the outcome is zero
    within every positive-probability stratum of (M(a*), C)."""
    p = engine.profiles(model)
    a_star, a = model.exposure_levels
    stratum, first = engine.group_ids(p.m_cf[p.arm(a_star)], p.stratum)
    w = np.bincount(stratum, weights=p.weight, minlength=first.size)
    for m1, m2 in itertools.combinations(p.m_levels, 2):
        interaction = p.y_at(a, m1) - p.y_at(a, m2) - p.y_at(a_star, m1) + p.y_at(a_star, m2)
        contrast = np.bincount(stratum, weights=p.weight * interaction, minlength=first.size) / w
        if (np.abs(contrast) > tol).any():
            return False
    return True


def m_always_affects_y_check(model: Model) -> bool:
    """True iff every positive-weight unit's outcome is moved by the mediator
    in at least one exposure arm, for every pair of mediator levels."""
    p = engine.profiles(model)
    a_star, a = model.exposure_levels
    for m1, m2 in itertools.combinations(p.m_levels, 2):
        unmoved = (p.y_at(a_star, m1) == p.y_at(a_star, m2)) & (p.y_at(a, m1) == p.y_at(a, m2))
        if unmoved.any():
            return False
    return True


# ---------------------------------------------------------------------------
# Theorem reproduction records
# ---------------------------------------------------------------------------

BOUNDARY_MARGIN = 1e-6
INTERIOR_TOL = 1e-12
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class ReproductionRecord:
    theorem_id: str
    params: Mapping[str, float]
    effect_name: str
    closed_form: float
    enumerated: float
    difference: float
    tolerance: float
    status: NullStatus

    def rows(self) -> list[tuple[str, str]]:
        out = [("theorem", self.theorem_id)]
        out += [(k, f"{v:.12g}") for k, v in self.params.items()]
        out += [
            ("effect", self.effect_name),
            ("closed_form", f"{self.closed_form:.12g}"),
            ("enumerated", f"{self.enumerated:.12g}"),
            ("difference", f"{self.difference:.3e}"),
            ("sharp_null", str(self.status.sharp_null)),
            ("sharper_null", str(self.status.sharper_null)),
            ("monotonicity", self.status.monotonicity),
        ]
        return out


def _near_boundary(*values: float) -> bool:
    return any(min(v, 1.0 - v) < BOUNDARY_MARGIN for v in values)


def _t2_closed_form(pi1: float, pi2: float, beta: float) -> float:
    # The three-level-L family's randomized indirect contrast. Both exhaustive
    # enumeration and an independent simulation of the draw intervention give
    # the (1 - pi1) factor on the pi2 term.
    return pi1 * (1.0 - pi1) * (2.0 * beta - 1.0) + (1.0 - pi1) * pi2


def reproduce(theorem_id: str, params: Mapping[str, float]) -> ReproductionRecord:
    """Build the family instance at params, compare the enumerated contrast
    against its closed form, and check the statuses the construction promises.
    Disagreement raises ReproductionError."""
    tid = theorem_id.upper()
    params = dict(params)
    try:
        return _reproduce(tid, params)
    except KeyError as exc:
        raise DomainError(f"{tid}: missing parameter {exc.args[0]!r}") from exc


def _reproduce(tid: str, params: dict) -> "ReproductionRecord":
    if tid == "T1":
        pi, beta = params["pi"], params["beta"]
        model: Model = thm1_counterexample(pi, beta)
        closed = pi * (1.0 - pi) * (2.0 * beta - 1.0)
        enumerated = effects.randomized_effects(model)[0]
        effect_name = "nie_r"
        tol = BOUNDARY_TOL if _near_boundary(pi, beta) else INTERIOR_TOL
        status = null_status(model)
        _expect(status.sharp_null and status.sharper_null, tid, "sharp and sharper nulls must hold")
    elif tid == "T2":
        pi0 = params.get("pi0")
        pi1, pi2, beta = params["pi1"], params["pi2"], params["beta"]
        if pi0 is None:
            pi0 = 1.0 - pi1 - pi2
            params["pi0"] = pi0
        model = thm2_counterexample(pi0, pi1, pi2, beta)
        closed = _t2_closed_form(pi1, pi2, beta)
        enumerated = effects.randomized_effects(model)[0]
        effect_name = "nie_r"
        tol = BOUNDARY_TOL if _near_boundary(pi0, pi1, pi2, beta) else INTERIOR_TOL
        status = null_status(model)
        expected_mono = MONO_NONDECREASING if pi2 > 0.0 else MONO_BOTH
        _expect(status.monotonicity == expected_mono, tid, f"monotonicity must be {expected_mono}")
    elif tid == "T3":
        pi, gamma = params["pi"], params["gamma"]
        betas = (params["beta1"], params["beta2"], params["beta3"], params["beta4"])
        model = thm3_counterexample(pi, betas, gamma)
        b1, b2, b3, b4 = betas
        closed = ((1.0 - pi) * b4 - pi * b1) * (b3 - b2)
        enumerated = effects.randomized_effects(model)[0]
        effect_name = "nie_r"
        tol = BOUNDARY_TOL if _near_boundary(pi, gamma, *betas) else INTERIOR_TOL
        status = null_status(model)
        _expect(status.sharp_null and status.sharper_null, tid, "sharp and sharper nulls must hold")
        if all(b > 0.0 for b in betas):
            a4 = identify.check_assumption(model, "A4")
            _expect(not a4.holds, tid, "the cross-world independence must fail at interior points")
    elif tid == "S1":
        pi, beta = params["pi"], params["beta"]
        model = thm1_counterexample(pi, beta)
        closed = beta - 0.5
        enumerated = effects.l_conditioned_randomized_effects(model)[0]
        effect_name = "nie_r_L"
        tol = BOUNDARY_TOL if _near_boundary(pi, beta) else INTERIOR_TOL
        status = null_status(model)
        _expect(status.sharp_null, tid, "the sharp null must hold")
    elif tid == "PE":
        p, m = params["p"], int(params.get("m", 0))
        model = pe_counterexample(p)
        closed = p - m
        report = effects.effect_report(model)
        enumerated = report.pe[m]
        effect_name = f"pe({m})"
        tol = BOUNDARY_TOL if _near_boundary(p) else INTERIOR_TOL
        status = null_status(model)
        _expect(status.sharp_null and status.sharper_null, tid, "sharp and sharper nulls must hold")
        _expect(abs(report.nie) <= tol, tid, "the natural indirect contrast must vanish")
    else:
        raise DomainError(f"unknown theorem id {tid!r}; expected T1, T2, T3, S1, or PE")

    difference = abs(closed - enumerated)
    if difference > tol:
        raise ReproductionError(
            f"{tid}: closed form {closed!r} vs enumerated {enumerated!r} "
            f"differ by {difference:.3e} > {tol}"
        )
    return ReproductionRecord(
        tid, params, effect_name, closed, enumerated, difference, tol, status
    )


def _expect(condition: bool, tid: str, message: str) -> None:
    if not condition:
        raise ReproductionError(f"{tid}: {message}")


def _grid(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def default_grid(theorem_id: str) -> list[dict[str, float]]:
    """Parameter grids used by the command-line smoke run of reproduce."""
    tid = theorem_id.upper()
    if tid == "T1":
        return [
            {"pi": pi, "beta": beta}
            for pi in _grid(0.05, 0.95, 21)
            for beta in _grid(0.05, 0.95, 21)
        ]
    if tid == "T2":
        out = []
        for pi1 in _grid(0.1, 0.7, 7):
            for pi2 in _grid(0.05, 0.25, 5):
                for beta in _grid(0.1, 0.9, 5):
                    out.append({"pi1": pi1, "pi2": pi2, "beta": beta})
        return out
    if tid == "T3":
        out = []
        for pi in (0.1, 0.3, 0.5):
            for b1 in (0.1, 0.25):
                for b2 in (0.1, 0.3):
                    for b3 in (0.1, 0.3):
                        b4 = 1.0 - b1 - b2 - b3
                        for gamma in (0.3, 0.7):
                            out.append(
                                {
                                    "pi": pi,
                                    "beta1": b1,
                                    "beta2": b2,
                                    "beta3": b3,
                                    "beta4": b4,
                                    "gamma": gamma,
                                }
                            )
        return out
    if tid == "S1":
        return [{"pi": pi, "beta": beta} for pi in (0.2, 0.5, 0.8) for beta in _grid(0.05, 0.95, 19)]
    if tid == "PE":
        return [{"p": p, "m": m} for p in _grid(0.1, 0.9, 9) for m in (0, 1)]
    raise DomainError(f"unknown theorem id {theorem_id!r}")


# ---------------------------------------------------------------------------
# Violation search over model families
# ---------------------------------------------------------------------------

FAMILIES: dict[str, Callable[..., Model]] = {
    "t1": lambda pi, beta: thm1_counterexample(pi, beta),
    "t2": lambda pi1, pi2, beta, pi0=None: thm2_counterexample(
        (1.0 - pi1 - pi2) if pi0 is None else pi0, pi1, pi2, beta
    ),
    "t3": lambda pi, beta1, beta2, beta3, beta4, gamma: thm3_counterexample(
        pi, (beta1, beta2, beta3, beta4), gamma
    ),
    "pe": lambda p: pe_counterexample(p),
    "additive": lambda seed, shape="basic": random_additive_scm(int(seed), shape=shape),
    "separable": lambda seed: random_separable_scm(int(seed)),
}


@dataclass(frozen=True)
class ViolationRecord:
    params: Mapping[str, float]
    effect_name: str
    effect_value: float
    criteria_refuted: tuple[str, ...]
    status: NullStatus


def search_violations(
    family: str | Callable[..., Model],
    points: Iterable[Mapping[str, float]],
    effect: str,
    tol: float = NULL_TOL,
) -> list[ViolationRecord]:
    """Evaluate the chosen effect at every parameter point of a family and
    collect the points whose verdict refutes any criterion, sorted by |value|
    descending (the strongest refutations first)."""
    build = FAMILIES[family] if isinstance(family, str) else family
    out: list[ViolationRecord] = []
    for point in points:
        model = build(**point)
        report = effects.effect_report(model)
        value = report.value(effect)
        refuted = tuple(
            v.criterion
            for v in criterion_verdicts(model, report, tol)
            if v.effect_name == effect and v.refutes_criterion
        )
        if refuted:
            out.append(ViolationRecord(dict(point), effect, value, refuted, null_status(model)))
    out.sort(key=lambda r: -abs(r.effect_value))
    return out
