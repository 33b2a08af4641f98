"""Per-unit null hypotheses, criterion verdicts, and reproduction oracles.

The sharp null, sharper null, and monotonicity statuses are decided over
every positive-probability unit of the engine's profile columns; criterion
verdicts then compare any effect value against the status of its premises. The
reproduce operation cross-checks enumerated contrasts against closed forms
for the built-in counterexample families. FAMILIES is the one registry of
those families and the seeded generators: each family's parameters, with
their types, defaults and help, and its builder.
"""

from __future__ import annotations

import dataclasses
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
    out: list[CriterionVerdict] = []
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

# the theorems reproduce and default_grid take, and the family each builds on
THEOREM_FAMILIES = {"T1": "t1", "T2": "t2", "T3": "t3", "S1": "t1", "PE": "pe"}
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
    # The three-level-L family's randomized indirect contrast d*p, expanded:
    # the mediator's effect d = 1 - pi1 times the shift in its law
    # p = pi1*(2*beta-1) + pi2 (see model.thm2_counterexample).
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
        model = _theorem_model(tid, params)
        closed = pi * (1.0 - pi) * (2.0 * beta - 1.0)
        enumerated = effects.randomized_effects(model)[0]
        effect_name = "nie_r"
        tol = BOUNDARY_TOL if _near_boundary(pi, beta) else INTERIOR_TOL
        status = null_status(model)
        _expect(status.sharp_null and status.sharper_null, tid, "sharp and sharper nulls must hold")
    elif tid == "T2":
        pi1, pi2, beta = params["pi1"], params["pi2"], params["beta"]
        model = _theorem_model(tid, params)
        closed = _t2_closed_form(pi1, pi2, beta)
        enumerated = effects.randomized_effects(model)[0]
        effect_name = "nie_r"
        tol = BOUNDARY_TOL if _near_boundary(params["pi0"], pi1, pi2, beta) else INTERIOR_TOL
        status = null_status(model)
        expected_mono = MONO_NONDECREASING if pi2 > 0.0 else MONO_BOTH
        _expect(status.monotonicity == expected_mono, tid, f"monotonicity must be {expected_mono}")
    elif tid == "T3":
        pi, gamma = params["pi"], params["gamma"]
        betas = (params["beta1"], params["beta2"], params["beta3"], params["beta4"])
        model = _theorem_model(tid, params)
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
        model = _theorem_model(tid, params)
        closed = beta - 0.5
        enumerated = effects.l_conditioned_randomized_effects(model)[0]
        effect_name = "nie_r_L"
        tol = BOUNDARY_TOL if _near_boundary(pi, beta) else INTERIOR_TOL
        status = null_status(model)
        _expect(status.sharp_null, tid, "the sharp null must hold")
    elif tid == "PE":
        p, m = params["p"], params.get("m", 0)
        if m not in (0, 1):
            raise DomainError(f"PE: the mediator level m must be 0 or 1, got {m!r}")
        m = int(m)
        model = _theorem_model(tid, {k: v for k, v in params.items() if k != "m"})
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
    if n < 1:
        raise DomainError(f"a grid needs at least one point, got a count of {n}")
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
# The family registry
# ---------------------------------------------------------------------------


class Param(NamedTuple):
    """One family parameter. default is a value, or a function of the
    family's other parameters whose docstring shows the derivation."""

    name: str
    type: type   # float, int or str
    default: object
    help: str
    choices: tuple[str, ...] = ()

    @property
    def default_text(self) -> str:
        return self.default.__doc__ if callable(self.default) else str(self.default)

    def check(self, family: str, value: object) -> object:
        """value as this parameter takes it; DomainError if it is outside its type."""
        if self.choices:
            ok, expected = value in self.choices, "one of " + ", ".join(self.choices)
        else:
            ok = isinstance(value, numbers.Real) and math.isfinite(value) and (
                self.type is float or value == int(value))
            expected = "a finite number" if self.type is float else "an integer"
        if not ok:
            raise DomainError(f"{family}: {self.name} must be {expected}, got {value!r}")
        return int(value) if self.type is int else value


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


def _theorem_model(tid: str, params: dict) -> Model:
    """The model of the theorem's family at params; params gains any default
    the family derived (t2's pi0), after the given entries."""
    family = FAMILIES[THEOREM_FAMILIES[tid]]
    resolved = family.resolve(params)
    params.update(resolved)
    return family.build(**resolved)


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
