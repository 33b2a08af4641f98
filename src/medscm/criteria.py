"""Per-unit null hypotheses, criterion verdicts, and reproduction oracles.

The sharp null, sharper null, and monotonicity statuses are decided over
every positive-probability unit of the engine's profile columns; criterion
verdicts then compare any effect value against the status of its premises.
FAMILIES holds the counterexample families and seeded generators: their
parameters, with types, defaults and help, and builders. THEOREMS holds what
reproduce checks of each theorem: its family, closed form, one contrast,
promised statuses, default grid and own parameters (PE's m).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

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

# the bound an effect keeps under each monotonicity status (neither is no premise)
_MONOTONE = {
    MONO_NONINCREASING: lambda value, tol: value <= tol,
    MONO_NONDECREASING: lambda value, tol: value >= -tol,
    MONO_BOTH: lambda value, tol: abs(value) <= tol,
    MONO_NEITHER: lambda value, tol: True,
}

# each criterion's rule: (status, value, tol) -> (premise holds, value consistent)
CRITERIA = {
    "sharp-null": lambda status, value, tol: (status.sharp_null, abs(value) <= tol),
    "sharper-null": lambda status, value, tol: (status.sharper_null, abs(value) <= tol),
    "monotonicity": lambda status, value, tol: (
        status.monotonicity != MONO_NEITHER, _MONOTONE[status.monotonicity](value, tol)),
}


def _check_tol(tol: float) -> None:
    """A tolerance is a finite number >= 0: nan, -1 or inf would flip verdicts."""
    if not (isinstance(tol, numbers.Real) and 0.0 <= tol < math.inf):
        raise DomainError(f"tol must be a finite number >= 0, got {tol!r}")


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
    overlap condition by checking every positive-weight unit; the units are
    scanned once per structure and the witnesses, which print weights,
    written once per profile."""
    p = engine.profiles(model)
    status = p.once("null_status", lambda: _null_status(p))
    return dataclasses.replace(status, witnesses=dict(status.witnesses))   # one dict per caller


_OVERLAP_WITNESS = (
    "exposure moves the mediator for some unit and the mediator moves the "
    "treated-arm outcome for some unit, yet no unit has a treated-arm "
    "nested contrast"
)


def _null_status(p: engine.Profiles) -> NullStatus:
    sharp, sharper, mono, overlap, units = p.shared_once("null_units", lambda: _null_units(p))
    witnesses = {key: _unit_desc(p[u]) for key, u in units.items()}   # with this model's weights
    if not overlap:
        witnesses["overlap_condition"] = _OVERLAP_WITNESS
    return NullStatus(sharp, sharper, mono, overlap, witnesses)


def _null_units(p: engine.Profiles) -> tuple[bool, bool, str, bool, dict[str, int]]:
    """The statuses of NullStatus and the unit witnessing each failed
    per-unit null, read off the counterfactual columns (not the weights)."""
    a_star, a = p.arms
    # diffs[k] = Y{a', M(a)} - Y{a', M(a*)} for a' = arms[k], per unit
    diffs = np.stack([p.nested(ap, a) - p.nested(ap, a_star) for ap in (a_star, a)])
    nested_moved = (diffs != 0).any(axis=0)
    m_moved = p.m_cf[p.arm(a)] != p.m_cf[p.arm(a_star)]
    y_flat = (p.y_cf == p.y_cf[:, :1]).all(axis=(0, 1))
    broken = {"sharp_null": nested_moved, "sharper_null": m_moved & ~y_flat}
    first_unit = {key: int(np.argmax(units)) for key, units in broken.items() if units.any()}
    # in the order a scan over the units meets them
    witnesses = {key: first_unit[key] for key in sorted(first_unit, key=first_unit.get)}
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
        witnesses["monotonicity"] = int(np.argmax(nested_moved))

    treated = p.y_cf[p.arm(a)]
    any_y_moved_treated = not (treated == treated[:1]).all()
    overlap_premise = bool(m_moved.any()) and any_y_moved_treated
    overlap = (not overlap_premise) or bool((diffs[1] != 0).any())
    return sharp, sharper, mono, overlap, witnesses


def criterion_verdicts(
    model: Model, report: effects.EffectReport, tol: float = NULL_TOL
) -> list[CriterionVerdict]:
    """Render, for every effect in the report, its verdict under each of the
    three criteria given the model's null status."""
    status = null_status(model)
    return [v for name, value in report.rows() for v in _effect_verdicts(name, value, status, tol)]


def _effect_verdicts(
    name: str, value: float, status: NullStatus, tol: float
) -> list[CriterionVerdict]:
    """One effect's verdict under each of the three criteria, in CRITERIA order."""
    _check_tol(tol)
    out: list[CriterionVerdict] = []
    for criterion, rule in CRITERIA.items():
        premise, consistent = rule(status, value, tol)
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
    _check_tol(tol)
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


def _theorem(theorem_id: str) -> tuple[str, Theorem]:
    tid = theorem_id.upper()
    if tid not in THEOREMS:
        raise DomainError(f"unknown theorem id {tid!r}; expected one of " + ", ".join(THEOREMS))
    return tid, THEOREMS[tid]


@functools.cache
def _reads(closed_form: Callable[..., float]) -> tuple[str, ...]:
    """The parameters a closed form reads, in the order a missing one is reported."""
    return tuple(inspect.signature(closed_form).parameters)


def reproduce(theorem_id: str, params: Mapping[str, float]) -> ReproductionRecord:
    """Build the family instance at params, compare the enumerated contrast
    against its closed form, and check the statuses the construction promises.
    Disagreement raises ReproductionError."""
    tid, theorem = _theorem(theorem_id)
    point = dict(params)
    values = {q.name: q.default for q in theorem.params} | point   # own defaults, then given
    try:
        read = {name: values[name] for name in _reads(theorem.closed_form)}
    except KeyError as exc:
        raise DomainError(f"{tid}: missing parameter {exc.args[0]!r}") from exc
    own = {q.name: q.check(tid, values[q.name]) for q in theorem.params}
    family = FAMILIES[theorem.family]
    resolved = family.resolve({k: v for k, v in point.items() if k not in own})
    point.update(resolved)
    model = family.build(**resolved)
    closed = theorem.closed_form(**read)
    enumerated = theorem.contrast(model, **own)
    tol = BOUNDARY_TOL if _near_boundary(*resolved.values()) else INTERIOR_TOL
    status = null_status(model)
    for promise in theorem.promises:
        kept, claim = promise(model, status, point, tol)
        if not kept:
            raise ReproductionError(f"{tid}: {claim}")
    difference = abs(closed - enumerated)
    if difference > tol:
        raise ReproductionError(
            f"{tid}: closed form {closed!r} vs enumerated {enumerated!r} "
            f"differ by {difference:.3e} > {tol}"
        )
    return ReproductionRecord(
        tid, point, theorem.effect.format(**own), closed, enumerated, difference, tol, status
    )


def _grid(lo: float, hi: float, n: int) -> list[float]:
    if n < 1:
        raise DomainError(f"a grid needs at least one point, got a count of {n}")
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _product(**axes: Iterable) -> list[dict]:
    """Every point of the grid with these axes, the last varying fastest."""
    return [dict(zip(axes, values)) for values in itertools.product(*axes.values())]


def default_grid(theorem_id: str) -> list[dict[str, float]]:
    """Parameter grids used by the command-line smoke run of reproduce."""
    return _theorem(theorem_id)[1].grid()


# ---------------------------------------------------------------------------
# The family and theorem registries
# ---------------------------------------------------------------------------


class Param(NamedTuple):
    """One parameter of a family or theorem. default is a value, or a function of
    the family's other parameters whose docstring shows the derivation; levels,
    if any, are the only values a float parameter takes, as integers."""

    name: str
    type: type   # float, int or str
    default: object
    help: str
    choices: tuple[str, ...] = ()
    levels: tuple[int, ...] = ()

    @property
    def default_text(self) -> str:
        return self.default.__doc__ if callable(self.default) else str(self.default)

    def check(self, family: str, value: object) -> object:
        """value as this parameter takes it; DomainError if it is outside its type."""
        if self.choices:
            ok, expected = value in self.choices, "one of " + ", ".join(self.choices)
        elif self.levels:
            ok, expected = value in self.levels, " or ".join(map(str, self.levels))
        else:
            ok = isinstance(value, numbers.Real) and math.isfinite(value) and (
                self.type is float or value == int(value))
            expected = "a finite number" if self.type is float else "an integer"
        if not ok:
            raise DomainError(f"{family}: {self.name} must be {expected}, got {value!r}")
        return int(value) if self.type is int or self.levels else value


class Family(NamedTuple):
    """A counterexample family or seeded generator: its parameters, and a
    builder that calls the model factory by its module-global name, so that
    a wrapper installed on the factory sees the call."""

    name: str
    build: Callable[..., Model]
    params: tuple[Param, ...]

    def resolve(self, given: Mapping[str, object]) -> dict[str, object]:
        """The given parameters, checked and in their order, then the
        defaults of the others: plain defaults first, then derived ones."""
        declared = {p.name: p for p in self.params}
        unknown = [k for k in given if k not in declared]
        if unknown:
            raise DomainError(
                f"{self.name}: unknown parameter {unknown[0]!r}; expected one of "
                + ", ".join(declared)
            )
        out = {k: declared[k].check(self.name, v) for k, v in given.items()}
        for p in sorted(self.params, key=lambda q: callable(q.default)):
            if p.name not in out:
                out[p.name] = p.default(out) if callable(p.default) else p.default
        return out

    def __call__(self, **params: object) -> Model:
        return self.build(**self.resolve(params))


def _t2_pi0(params: Mapping[str, float]) -> float:
    """1-pi1-pi2"""
    return 1.0 - params["pi1"] - params["pi2"]


FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("t1", lambda pi, beta: thm1_counterexample(pi, beta), (
        Param("pi", float, 0.5, "confounder noise probability"),
        Param("beta", float, 0.9, "mediator noise probability"),
    )),
    Family("t2", lambda pi0, pi1, pi2, beta: thm2_counterexample(pi0, pi1, pi2, beta), (
        Param("pi0", float, _t2_pi0, "P(eps_L = 0)"),
        Param("pi1", float, 0.3, "P(eps_L = 1)"),
        Param("pi2", float, 0.2, "P(eps_L = 2)"),
        Param("beta", float, 0.9, "mediator noise probability"),
    )),
    Family("t3", lambda pi, beta1, beta2, beta3, beta4, gamma: thm3_counterexample(
        pi, (beta1, beta2, beta3, beta4), gamma
    ), (
        Param("pi", float, 0.1, "P(M(a) = 1)"),
        Param("beta1", float, 0.1, "P(Y(a,.) = (0,0))"),
        Param("beta2", float, 0.2, "P(Y(a,.) = (0,1))"),
        Param("beta3", float, 0.4, "P(Y(a,.) = (1,0))"),
        Param("beta4", float, 0.3, "P(Y(a,.) = (1,1))"),
        Param("gamma", float, 0.5, "P(Y(a*,.) = (1,1))"),
    )),
    Family("pe", lambda p: pe_counterexample(p), (
        Param("p", float, 0.5, "mediator probability"),
    )),
    Family("additive", lambda seed, shape: random_additive_scm(seed, shape=shape), (
        Param("seed", int, 0, "instance seed"),
        Param("shape", str, "basic", "graph shape", ("basic", "confounded")),
    )),
    Family("separable", lambda seed: random_separable_scm(seed), (
        Param("seed", int, 0, "instance seed"),
    )),
)}


class Theorem(NamedTuple):
    """A counterexample that reproduce checks: its closed form, whose arguments
    it reads; the one contrast it enumerates and its name, formatted with the
    theorem's own params; and promises, each (model, status, point, tol) ->
    (kept, claim), checked in order before the closed form is compared."""

    family: str   # by name in FAMILIES
    closed_form: Callable[..., float]
    effect: str
    contrast: Callable[..., float]   # of the model and the theorem's own parameters
    promises: tuple[Callable[..., tuple[bool, str]], ...]
    grid: Callable[[], list[dict[str, float]]]
    params: tuple[Param, ...] = ()


def _nulls_hold(model: Model, status: NullStatus, point: Mapping, tol: float) -> tuple[bool, str]:
    return status.sharp_null and status.sharper_null, "sharp and sharper nulls must hold"


def _t2_monotone(model: Model, status: NullStatus, point: Mapping, tol: float) -> tuple[bool, str]:
    expected = MONO_NONDECREASING if point["pi2"] > 0.0 else MONO_BOTH
    return status.monotonicity == expected, f"monotonicity must be {expected}"


def _t3_a4_fails(model: Model, status: NullStatus, point: Mapping, tol: float) -> tuple[bool, str]:
    interior = all(point[b] > 0.0 for b in ("beta1", "beta2", "beta3", "beta4"))
    return (not interior or not identify.check_assumption(model, "A4").holds,
            "the cross-world independence must fail at interior points")


def _nie_r(model: Model) -> float:
    return effects.randomized_effects(model)[0]


THEOREMS: dict[str, Theorem] = {
    "T1": Theorem(
        family="t1",
        closed_form=lambda pi, beta: pi * (1.0 - pi) * (2.0 * beta - 1.0),
        effect="nie_r", contrast=_nie_r, promises=(_nulls_hold,),
        grid=lambda: _product(pi=_grid(0.05, 0.95, 21), beta=_grid(0.05, 0.95, 21)),
    ),
    "T2": Theorem(
        family="t2",
        # The three-level-L family's randomized indirect contrast d*p, expanded:
        # the mediator's effect d = 1 - pi1 times the shift in its law
        # p = pi1*(2*beta-1) + pi2 (see model.thm2_counterexample).
        closed_form=lambda pi1, pi2, beta: (
            pi1 * (1.0 - pi1) * (2.0 * beta - 1.0) + (1.0 - pi1) * pi2),
        effect="nie_r", contrast=_nie_r, promises=(_t2_monotone,),
        grid=lambda: _product(pi1=_grid(0.1, 0.7, 7), pi2=_grid(0.05, 0.25, 5),
                              beta=_grid(0.1, 0.9, 5)),
    ),
    "T3": Theorem(
        family="t3",
        closed_form=lambda pi, gamma, beta1, beta2, beta3, beta4: (
            ((1.0 - pi) * beta4 - pi * beta1) * (beta3 - beta2)),
        effect="nie_r", contrast=_nie_r, promises=(_nulls_hold, _t3_a4_fails),
        grid=lambda: [{**p, "beta4": 1.0 - p["beta1"] - p["beta2"] - p["beta3"], "gamma": gamma}
                      for p in _product(pi=(0.1, 0.3, 0.5), beta1=(0.1, 0.25), beta2=(0.1, 0.3),
                                        beta3=(0.1, 0.3)) for gamma in (0.3, 0.7)],
    ),
    "S1": Theorem(
        family="t1",
        closed_form=lambda pi, beta: beta - 0.5,
        effect="nie_r_L", contrast=lambda model: effects.l_conditioned_randomized_effects(model)[0],
        promises=(lambda model, status, *_: (status.sharp_null, "the sharp null must hold"),),
        grid=lambda: _product(pi=(0.2, 0.5, 0.8), beta=_grid(0.05, 0.95, 19)),
    ),
    "PE": Theorem(
        family="pe",
        closed_form=lambda p, m: p - m,
        effect="pe({m})",
        contrast=lambda model, m: (
            effects.total_effect(model) - effects.controlled_direct_effect(model, m)),
        promises=(_nulls_hold, lambda model, status, point, tol: (
            abs(effects.natural_effects(model)[0]) <= tol,
            "the natural indirect contrast must vanish")),
        grid=lambda: _product(p=_grid(0.1, 0.9, 9), m=(0, 1)),
        params=(Param("m", float, 0, "mediator level", levels=(0, 1)),),
    ),
}


# ---------------------------------------------------------------------------
# Violation search over model families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ViolationRecord:
    params: Mapping[str, float]
    effect_name: str
    effect_value: float
    criteria_refuted: tuple[str, ...]
    status: NullStatus


# points scored in one batch: enough to spread the fixed cost of a batch
# (about that of one model's report) thin, few enough that the batch's
# reports (about 1.3 kB of Python objects each) stay small; and a batch's
# weight rows hold at most PROFILE_BYTE_BUDGET / POINT_BLOCK_FACTOR bytes,
# which leaves room within the budget for the (points, units) arrays the draw
# kernel builds from them
POINT_BLOCK = 128
POINT_BLOCK_FACTOR = 16


def _effect_value(report: effects.EffectReport, effect: str) -> float:
    try:
        return report.value(effect)
    except KeyError:
        names = ", ".join(name for name, _ in report.rows())
        raise DomainError(f"unknown effect {effect!r}; this model has {names}") from None


def _violation(point: Mapping[str, float], effect: str, value: float, status: NullStatus,
               tol: float) -> ViolationRecord:
    refuted = tuple(
        v.criterion for v in _effect_verdicts(effect, value, status, tol) if v.refutes_criterion
    )
    return ViolationRecord(dict(point), effect, value, refuted, status)


def evaluate_point(
    family: str | Callable[..., Model],
    point: Mapping[str, float],
    effect: str,
    tol: float = NULL_TOL,
) -> ViolationRecord:
    """Build the family instance at point and record the chosen effect, the
    criteria its value refutes (in CRITERIA order; none is no refutation)
    and the model's null status."""
    model = _build(family, point)
    value = _effect_value(effects.effect_report(model), effect)
    return _violation(point, effect, value, null_status(model), tol)


def evaluate_points(
    family: str | Callable[..., Model],
    points: Iterable[Mapping[str, float]],
    effect: str,
    tol: float = NULL_TOL,
) -> list[ViolationRecord]:
    """evaluate_point at every point, in order, the models of each structure
    scored in one batch (see _evaluate_batch). On any error the points are
    evaluated one at a time, in order, so the error raised is the first one
    the per-point loop meets; if that loop meets none, the batch's own error
    is raised."""
    _check_tol(tol)
    points = list(points)
    try:
        return _evaluate_batch(family, points, effect, tol)
    except Exception as batch_error:
        for point in points:
            evaluate_point(family, point, effect, tol)
        raise batch_error


def _build(family: str | Callable[..., Model], point: Mapping[str, float]) -> Model:
    build = FAMILIES[family] if isinstance(family, str) else family
    return build(**point)


def _evaluate_batch(family: str | Callable[..., Model], points: list[Mapping[str, float]],
                    effect: str, tol: float) -> list[ViolationRecord]:
    """The records of evaluate_points, point i's at out[i].

    Each point's model is built in turn: its null status (whose witnesses
    print its own weights) and its profile weights are read, and it is
    dropped. The weights of models that share profile columns are gathered
    and scored by one effects.effect_reports call per block; the first model
    of each structure is kept until its block is scored, and with it its
    columns. At most engine.PROFILE_CACHE_SIZE structures are gathered at
    once; the oldest is scored when one more opens.
    """
    out: list = []   # point i's NullStatus until its block is scored, then its record
    gathering: dict[int, tuple] = {}   # -> (first model, its profiles, points, weight rows)

    def score(key: int) -> None:
        model, _, at, rows = gathering.pop(key)
        for i, report in zip(at, effects.effect_reports(model, np.stack(rows))):
            out[i] = _violation(points[i], effect, _effect_value(report, effect), out[i], tol)

    for i, point in enumerate(points):
        model = _build(family, point)
        p = engine.profiles(model)
        out.append(null_status(model))
        key = next((k for k, g in gathering.items() if g[1].shares_columns(p)), None)
        if key is None:
            if len(gathering) == engine.PROFILE_CACHE_SIZE:
                score(next(iter(gathering)))
            key = i
            gathering[key] = (model, p, [], [])
        _, _, at, rows = gathering[key]
        at.append(i)
        rows.append(p.weight)
        if (len(rows) == POINT_BLOCK
                or len(rows) * p.weight.nbytes * POINT_BLOCK_FACTOR >= engine.PROFILE_BYTE_BUDGET):
            score(key)
    for key in list(gathering):
        score(key)
    return out


def search_violations(
    family: str | Callable[..., Model],
    points: Iterable[Mapping[str, float]],
    effect: str,
    tol: float = NULL_TOL,
) -> list[ViolationRecord]:
    """Evaluate the chosen effect at every parameter point of a family and
    collect the points whose verdict refutes any criterion, sorted by |value|
    descending (the strongest refutations first)."""
    out = [r for r in evaluate_points(family, points, effect, tol) if r.criteria_refuted]
    out.sort(key=lambda r: -abs(r.effect_value))
    return out
