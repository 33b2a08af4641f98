"""Discrete structural causal models for the mediation setting.

Model types (variables, exogenous noise laws, structural tables), validation
against the supported mediation graph shapes, JSON (de)serialization, and
factory constructors for the counterexample and property-driven model
families exercised throughout the test suite.

Conventions fixed here and relied on everywhere else:
  * levels are integer coded, with exposure reference a* = 0 and comparison
    a = 1 in every factory;
  * an empty covariate set is represented by simply having no C-role
    variables (downstream code treats it as a single stratum of mass 1);
  * every endogenous variable owns exactly one exogenous noise term;
    deterministic variables carry a degenerate (point-mass) noise law.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, EnumerationSizeError

PROB_TOL = 1e-12

ROLE_COVARIATE = "C"
ROLE_EXPOSURE = "A"
ROLE_INDUCED = "L"
ROLE_MEDIATOR = "M"
ROLE_OUTCOME = "Y"
ROLE_SEP_MEDIATOR_PATH = "N"
ROLE_SEP_DIRECT_PATH = "O"

_ROLES = (
    ROLE_COVARIATE,
    ROLE_EXPOSURE,
    ROLE_INDUCED,
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    ROLE_SEP_MEDIATOR_PATH,
    ROLE_SEP_DIRECT_PATH,
)


@dataclass(frozen=True)
class VariableSpec:
    """One endogenous variable: name, ordered finite support, graph role."""

    name: str
    support: tuple[int, ...]
    role: str


@dataclass(frozen=True)
class NoiseSpec:
    """One exogenous noise term with an explicit finite pmf."""

    name: str
    pmf: Mapping[int, float]

    def levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.pmf))


@dataclass(frozen=True)
class StructuralTable:
    """Total deterministic map (parent values, noise level) -> variable level."""

    variable: str
    parents: tuple[str, ...]
    noise: str
    table: Mapping[tuple[tuple[int, ...], int], int]

    def value(self, parent_values: tuple[int, ...], noise_level: int) -> int:
        return self.table[(parent_values, noise_level)]


@dataclass(frozen=True, eq=False)
class Scm:
    """A discrete SCM with independent exogenous errors (one per variable).

    Identity-based equality/hashing is intentional: instances are immutable
    and internally cached by identity. Structural equality is available
    through the JSON serialization.
    """

    variables: tuple[VariableSpec, ...]
    noise: tuple[NoiseSpec, ...]
    tables: tuple[StructuralTable, ...]
    exposure_levels: tuple[int, int]

    # -- lookups ------------------------------------------------------------

    def var(self, name: str) -> VariableSpec:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    def table_for(self, name: str) -> StructuralTable:
        for t in self.tables:
            if t.variable == name:
                return t
        raise KeyError(name)

    def noise_for(self, name: str) -> NoiseSpec:
        spec = self.table_for(name)
        for n in self.noise:
            if n.name == spec.noise:
                return n
        raise KeyError(name)

    def _names_with_role(self, role: str) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.role == role)

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return self._names_with_role(ROLE_COVARIATE)

    def _single(self, role: str) -> str | None:
        names = self._names_with_role(role)
        return names[0] if names else None

    @property
    def exposure_name(self) -> str:
        name = self._single(ROLE_EXPOSURE)
        if name is None:
            raise DomainError("model has no exposure variable")
        return name

    @property
    def mediator_name(self) -> str:
        name = self._single(ROLE_MEDIATOR)
        if name is None:
            raise DomainError("model has no mediator variable")
        return name

    @property
    def outcome_name(self) -> str:
        name = self._single(ROLE_OUTCOME)
        if name is None:
            raise DomainError("model has no outcome variable")
        return name

    @property
    def induced_name(self) -> str | None:
        return self._single(ROLE_INDUCED)

    @property
    def has_l(self) -> bool:
        return self.induced_name is not None

    @property
    def a_star(self) -> int:
        return self.exposure_levels[0]

    @property
    def a(self) -> int:
        return self.exposure_levels[1]

    @property
    def m_support(self) -> tuple[int, ...]:
        return self.var(self.mediator_name).support

    @property
    def shape(self) -> str:
        if self._single(ROLE_SEP_MEDIATOR_PATH) or self._single(ROLE_SEP_DIRECT_PATH):
            return "separable"
        if self.has_l:
            return "confounded"
        return "basic"

    @property
    def edges(self) -> dict[str, tuple[str, ...]]:
        """Parent lists per variable, derived from the structural tables."""
        return {t.variable: t.parents for t in self.tables}

    @property
    def topo_order(self) -> tuple[str, ...]:
        """Covariates first (mutually topo-sorted), then A, N, O, L, M, Y."""
        cov = list(self.covariate_names)
        ordered: list[str] = []
        pending = list(cov)
        while pending:
            progressed = False
            for name in list(pending):
                parents = self.table_for(name).parents
                if all(p in ordered for p in parents):
                    ordered.append(name)
                    pending.remove(name)
                    progressed = True
            if not progressed:
                raise DomainError("covariate subgraph is cyclic")
        for role in (
            ROLE_EXPOSURE,
            ROLE_SEP_MEDIATOR_PATH,
            ROLE_SEP_DIRECT_PATH,
            ROLE_INDUCED,
            ROLE_MEDIATOR,
            ROLE_OUTCOME,
        ):
            name = self._single(role)
            if name is not None:
                ordered.append(name)
        return tuple(ordered)

    # -- evaluation ---------------------------------------------------------
    # units/solve evaluate one unit at a time and are the reference; grid is
    # their vectorised twin over every unit at once, in the same unit order.

    @property
    def grid_size(self) -> int:
        """Number of joint noise configurations, zero-mass ones included."""
        return math.prod(len(n.pmf) for n in self.noise)

    def units(self, cap: int) -> list[tuple[dict[str, int], float]]:
        """Positive-mass joint noise configurations with product weights, in
        the canonical order: the product of each variable's noise levels,
        variables in topological order."""
        size = 1
        for n in self.noise:
            size *= len(n.pmf)
            if size > cap:
                raise EnumerationSizeError(
                    f"noise product space exceeds cap ({size} > {cap})"
                )
        specs = [self.noise_for(name) for name in self.topo_order]
        names = [s.name for s in specs]
        out = []
        for combo in itertools.product(*(s.levels() for s in specs)):
            w = 1.0
            for spec, level in zip(specs, combo):
                w *= spec.pmf[level]
            if w > 0.0:
                out.append((dict(zip(names, combo)), w))
        return out

    def solve(self, noise: Mapping[str, int], fixed: Mapping[str, int]) -> dict[str, int]:
        """Topological evaluation of the structural tables; intervened
        variables bypass their tables."""
        assignment: dict[str, int] = {}
        for name in self.topo_order:
            if name in fixed:
                assignment[name] = fixed[name]
                continue
            t = self.table_for(name)
            pv = tuple(assignment[p] for p in t.parents)
            assignment[name] = t.value(pv, noise[t.noise])
        return assignment

    def grid(self) -> tuple[np.ndarray, Callable[[Mapping[str, int]], dict]]:
        """The units of units() as arrays: their weights, and a solver giving
        each variable's values over all units under one intervention (an
        intervened variable comes back as its fixed level).

        Weights are the same left-to-right products, so they are bitwise
        equal to the scalar ones. Tables become mixed-radix lookups over
        (parent positions..., noise position), the scheme draw_samples uses.
        """
        order = self.topo_order
        specs = [self.noise_for(name) for name in order]
        weight = np.ones(1)
        for spec in specs:
            weight = np.multiply.outer(weight, [spec.pmf[lv] for lv in spec.levels()]).ravel()
        flat = np.flatnonzero(weight > 0.0)
        weight = weight[flat]
        noise_pos: dict[str, np.ndarray] = {}
        for spec in reversed(specs):
            flat, noise_pos[spec.name] = np.divmod(flat, len(spec.pmf))
        supports = {v.name: tuple(sorted(v.support)) for v in self.variables}
        values = {name: np.asarray(sup) for name, sup in supports.items()}
        index = {name: {v: i for i, v in enumerate(sup)} for name, sup in supports.items()}
        steps = [
            (t, len(spec.pmf), _position_lookup(t, supports, spec.levels()))
            for t, spec in zip((self.table_for(name) for name in order), specs)
        ]

        def solve_all(fixed: Mapping[str, int]) -> dict:
            pos: dict = {}
            for t, radix, lookup in steps:
                name = t.variable
                if name in fixed:
                    pos[name] = index[name][fixed[name]]
                    continue
                idx = 0
                for p in t.parents:
                    idx = idx * len(supports[p]) + pos[p]
                pos[name] = lookup[idx * radix + noise_pos[t.noise]]
            return {name: fixed[name] if name in fixed else values[name][pos[name]]
                    for name in order}

        return weight, solve_all


@dataclass(frozen=True, eq=False)
class FfrcistgSpec:
    """An explicit joint law over one-world counterfactuals (no-L graph only).

    Atoms assign values to A, M(a') for each exposure arm, and Y(a', m) for
    each arm and mediator level; covariates are not represented (the direct
    counterfactual constructions this type exists for use an empty C).
    Cross-world dependence is allowed, which is exactly what a structural
    table representation cannot express.
    """

    m_support: tuple[int, ...]
    exposure_levels: tuple[int, int]
    joint: Mapping[tuple[int, ...], float]

    @property
    def a_star(self) -> int:
        return self.exposure_levels[0]

    @property
    def a(self) -> int:
        return self.exposure_levels[1]

    @property
    def has_l(self) -> bool:
        return False

    # the role names Scm offers; the variables are A, M and Y
    covariate_names = ()
    exposure_name = "A"
    induced_name = None
    mediator_name = "M"
    outcome_name = "Y"

    def var(self, name: str) -> VariableSpec:
        supports = {"A": self.exposure_levels, "M": self.m_support, "Y": self.y_support}
        if name not in supports:
            raise KeyError(name)
        return VariableSpec(name, supports[name], name)

    @property
    def labels(self) -> tuple[str, ...]:
        arms = self.exposure_levels
        out = ["A"]
        out += [f"M({ap})" for ap in arms]
        out += [f"Y({ap},{m})" for ap in arms for m in self.m_support]
        return tuple(out)

    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @property
    def y_support(self) -> tuple[int, ...]:
        idx = self.label_index()
        ys = {
            atom[idx[f"Y({ap},{m})"]]
            for atom in self.joint
            for ap in self.exposure_levels
            for m in self.m_support
        }
        return tuple(sorted(ys))

    # -- evaluation (the same interface as Scm) ------------------------------

    @property
    def grid_size(self) -> int:
        return len(self.joint)

    def units(self, cap: int) -> list[tuple[dict[str, int], float]]:
        """Positive-mass atoms as label -> value maps; the atoms are the
        units, so the cap does not apply."""
        labels = self.labels
        return [(dict(zip(labels, atom)), w) for atom, w in self.joint.items() if w > 0.0]

    def solve(self, atom: Mapping[str, int], fixed: Mapping[str, int]) -> dict[str, int]:
        """Read A, M and Y off an atom under an intervention on A and/or M."""
        a_val = fixed.get("A", atom["A"])
        if a_val not in self.exposure_levels:
            raise DomainError(
                f"exposure level {a_val} not represented in the counterfactual joint"
            )
        m_val = fixed.get("M", atom[f"M({a_val})"])
        return {"A": a_val, "M": m_val, "Y": atom[f"Y({a_val},{m_val})"]}

    def grid(self) -> tuple[np.ndarray, Callable[[Mapping[str, int]], dict]]:
        """The atoms of units() as arrays: their weights, and a solver giving
        A, M and Y over all atoms under one intervention (an intervened
        variable comes back as its fixed level)."""
        atoms = [(atom, w) for atom, w in self.joint.items() if w > 0.0]
        weight = np.array([w for _atom, w in atoms], dtype=float)
        cols = np.array([atom for atom, _w in atoms], dtype=np.int64).reshape(
            len(atoms), len(self.labels)
        )
        rows = np.arange(len(atoms))
        arms, levels = self.exposure_levels, self.m_support

        def solve_all(fixed: Mapping[str, int]) -> dict:
            a = fixed.get("A", cols[:, 0])
            arm = level_positions(a, arms)
            m = fixed["M"] if "M" in fixed else cols[rows, 1 + arm]
            y = cols[rows, 1 + len(arms) + arm * len(levels) + level_positions(m, levels)]
            return {"A": a, "M": m, "Y": y}

        return weight, solve_all


Model = Scm | FfrcistgSpec


def level_positions(values, levels: tuple[int, ...]):
    """Index of each value within levels (scalar or array alike); a value
    outside levels is a DomainError."""
    lv = np.asarray(levels)
    order = np.argsort(lv, kind="stable")
    pos = order[np.minimum(np.searchsorted(lv, values, sorter=order), lv.size - 1)]
    if np.any(lv[pos] != values):
        raise DomainError(f"a level outside {levels}")
    return pos


def _position_lookup(
    table: StructuralTable, supports: dict[str, tuple[int, ...]], noise_levels: tuple[int, ...]
) -> np.ndarray:
    """A table as a flat array over (parent positions..., noise position),
    holding the position of each value in the variable's sorted support."""
    support = supports[table.variable]
    out = []
    for pv in itertools.product(*(supports[p] for p in table.parents)):
        for e in noise_levels:
            value = table.value(pv, e)
            if value not in support:
                raise DomainError(f"table for {table.variable}: value {value} outside support")
            out.append(support.index(value))
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

_SHAPE_PARENT_RULES: dict[str, dict[str, tuple[str, ...]]] = {
    # role -> roles its parents may come from
    "basic": {
        ROLE_EXPOSURE: (ROLE_COVARIATE,),
        ROLE_MEDIATOR: (ROLE_COVARIATE, ROLE_EXPOSURE),
        ROLE_OUTCOME: (ROLE_COVARIATE, ROLE_EXPOSURE, ROLE_MEDIATOR),
    },
    "confounded": {
        ROLE_EXPOSURE: (ROLE_COVARIATE,),
        ROLE_INDUCED: (ROLE_COVARIATE, ROLE_EXPOSURE),
        ROLE_MEDIATOR: (ROLE_COVARIATE, ROLE_EXPOSURE, ROLE_INDUCED),
        ROLE_OUTCOME: (ROLE_COVARIATE, ROLE_EXPOSURE, ROLE_INDUCED, ROLE_MEDIATOR),
    },
    "separable": {
        ROLE_EXPOSURE: (ROLE_COVARIATE,),
        ROLE_SEP_MEDIATOR_PATH: (ROLE_EXPOSURE,),
        ROLE_SEP_DIRECT_PATH: (ROLE_EXPOSURE,),
        ROLE_MEDIATOR: (ROLE_COVARIATE, ROLE_SEP_MEDIATOR_PATH),
        ROLE_OUTCOME: (ROLE_COVARIATE, ROLE_SEP_DIRECT_PATH, ROLE_MEDIATOR),
    },
}


def validate(model: Model) -> list[str]:
    """Return every violated invariant; an empty list means the model is valid."""
    if isinstance(model, FfrcistgSpec):
        return _validate_ffrcistg(model)
    return _validate_scm(model)


def _validate_scm(scm: Scm) -> list[str]:
    out: list[str] = []
    names = [v.name for v in scm.variables]
    if len(set(names)) != len(names):
        out.append("duplicate variable names")
        return out

    for v in scm.variables:
        if not v.support:
            out.append(f"variable {v.name}: empty support")
        if len(set(v.support)) != len(v.support):
            out.append(f"variable {v.name}: support has duplicates")
        if v.role not in _ROLES:
            out.append(f"variable {v.name}: unknown role {v.role!r}")

    role_counts = {r: len([v for v in scm.variables if v.role == r]) for r in _ROLES}
    for role in (ROLE_EXPOSURE, ROLE_MEDIATOR, ROLE_OUTCOME):
        if role_counts[role] != 1:
            out.append(f"exactly one variable must have role {role}, found {role_counts[role]}")
    if role_counts[ROLE_INDUCED] > 1:
        out.append("at most one induced-confounder variable is supported")
    if role_counts[ROLE_SEP_MEDIATOR_PATH] != role_counts[ROLE_SEP_DIRECT_PATH]:
        out.append("separable-component variables must appear as an N/O pair")
    if role_counts[ROLE_SEP_MEDIATOR_PATH] > 1 or role_counts[ROLE_SEP_DIRECT_PATH] > 1:
        out.append("at most one separable-component pair is supported")
    if role_counts[ROLE_SEP_MEDIATOR_PATH] and role_counts[ROLE_INDUCED]:
        out.append("separable-component and induced-confounder variables cannot coexist")
    if out:
        return out

    noise_names = [n.name for n in scm.noise]
    if len(set(noise_names)) != len(noise_names):
        out.append("duplicate noise names")
    for n in scm.noise:
        if not n.pmf:
            out.append(f"noise {n.name}: empty pmf")
            continue
        total = sum(n.pmf.values())
        if abs(total - 1.0) > PROB_TOL:
            out.append(f"noise {n.name}: pmf sums to {total!r}")
        for level, p in n.pmf.items():
            if p < 0:
                out.append(f"noise {n.name}: negative probability at level {level}")

    table_vars = [t.variable for t in scm.tables]
    if sorted(table_vars) != sorted(names):
        out.append("structural tables do not cover the variables exactly once each")
        return out
    used_noise = [t.noise for t in scm.tables]
    if sorted(used_noise) != sorted(noise_names):
        out.append("noise terms are not in bijection with variables")
        return out

    noise_by_name = {n.name: n for n in scm.noise}
    var_by_name = {v.name: v for v in scm.variables}
    for t in scm.tables:
        for p in t.parents:
            if p not in var_by_name:
                out.append(f"table for {t.variable}: unknown parent {p}")
                return out
        parent_space = list(itertools.product(*(var_by_name[p].support for p in t.parents)))
        noise_levels = noise_by_name[t.noise].levels()
        expected = {(pv, e) for pv in parent_space for e in noise_levels}
        got = set(t.table.keys())
        if got != expected:
            out.append(
                f"table for {t.variable}: not total over parents x noise "
                f"({len(got)} rows, expected {len(expected)})"
            )
            continue
        support = set(var_by_name[t.variable].support)
        for key, value in t.table.items():
            if value not in support:
                out.append(f"table for {t.variable}: value {value} at {key} outside support")
                break

    out.extend(_validate_shape(scm))

    a_star, a = scm.exposure_levels
    a_support = var_by_name[scm._single(ROLE_EXPOSURE)].support
    if a_star == a:
        out.append("exposure levels a* and a must differ")
    if a_star not in a_support or a not in a_support:
        out.append("exposure levels must lie in the exposure support")

    try:
        scm.topo_order
    except DomainError as exc:
        out.append(str(exc))
    return out


def _validate_shape(scm: Scm) -> list[str]:
    out: list[str] = []
    rules = _SHAPE_PARENT_RULES[scm.shape]
    role_of = {v.name: v.role for v in scm.variables}
    for t in scm.tables:
        role = role_of[t.variable]
        if role == ROLE_COVARIATE:
            bad = [p for p in t.parents if role_of[p] != ROLE_COVARIATE]
            if bad:
                out.append(
                    f"graph not a supported mediation shape: covariate {t.variable} "
                    f"has non-covariate parents {bad}"
                )
            continue
        allowed = rules.get(role, ())
        bad = [p for p in t.parents if role_of[p] not in allowed]
        if bad:
            out.append(
                f"graph not a supported mediation shape: {t.variable} (role {role}) "
                f"has disallowed parents {bad}"
            )
    if scm.shape == "separable":
        out.extend(_validate_separable_determinism(scm))
    return out


def _validate_separable_determinism(scm: Scm) -> list[str]:
    # The A->N and A->O links must be deterministic identities.
    out: list[str] = []
    for role in (ROLE_SEP_MEDIATOR_PATH, ROLE_SEP_DIRECT_PATH):
        name = scm._single(role)
        if name is None:
            continue
        t = scm.table_for(name)
        if t.parents != (scm.exposure_name,):
            out.append(f"separable component {name} must have the exposure as sole parent")
            continue
        for (pv, _e), value in t.table.items():
            if value != pv[0]:
                out.append(f"separable component {name} is not a deterministic copy of the exposure")
                break
    return out


def _validate_ffrcistg(spec: FfrcistgSpec) -> list[str]:
    out: list[str] = []
    if spec.exposure_levels[0] == spec.exposure_levels[1]:
        out.append("exposure levels a* and a must differ")
    if len(set(spec.m_support)) != len(spec.m_support) or not spec.m_support:
        out.append("mediator support must be non-empty and duplicate-free")
    if not spec.joint:
        out.append("joint pmf is empty")
        return out
    total = sum(spec.joint.values())
    if abs(total - 1.0) > PROB_TOL:
        out.append(f"joint pmf sums to {total!r}")
    if any(p < 0 for p in spec.joint.values()):
        out.append("joint pmf has a negative mass")
    width = len(spec.labels)
    if any(len(atom) != width for atom in spec.joint):
        out.append(f"atoms must assign all {width} counterfactual coordinates")
        return out
    out.extend(_one_world_violations(spec))
    return out


def _one_world_violations(spec: FfrcistgSpec) -> list[str]:
    # For each (a', m) the single-world set {A, M(a'), Y(a',m)} must be
    # mutually independent; cross-world sets are deliberately unconstrained.
    idx = spec.label_index()
    out = []
    for ap in spec.exposure_levels:
        for m in spec.m_support:
            cols = (idx["A"], idx[f"M({ap})"], idx[f"Y({ap},{m})"])
            joint: dict[tuple[int, int, int], float] = {}
            marg: list[dict[int, float]] = [{}, {}, {}]
            for atom, w in spec.joint.items():
                key = tuple(atom[c] for c in cols)
                joint[key] = joint.get(key, 0.0) + w
                for j, v in enumerate(key):
                    marg[j][v] = marg[j].get(v, 0.0) + w
            for vals in itertools.product(*(sorted(mg) for mg in marg)):
                prod = marg[0][vals[0]] * marg[1][vals[1]] * marg[2][vals[2]]
                dev = abs(joint.get(vals, 0.0) - prod)
                if dev > PROB_TOL:
                    out.append(
                        f"one-world independence fails for (a'={ap}, m={m}) "
                        f"at cell {vals} (deviation {dev:.3e})"
                    )
                    return out
    return out


def _require_valid(model: Model, context: str) -> Model:
    violations = validate(model)
    if violations:
        raise DomainError(f"{context}: invalid model: {violations}")
    return model


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def scm_to_dict(scm: Scm) -> dict:
    return {
        "variables": [
            {"name": v.name, "support": list(v.support), "role": v.role}
            for v in scm.variables
        ],
        "edges": {name: list(parents) for name, parents in scm.edges.items()},
        "noise": [
            {"name": n.name, "pmf": {str(level): p for level, p in sorted(n.pmf.items())}}
            for n in scm.noise
        ],
        "tables": [
            {
                "variable": t.variable,
                "parents": list(t.parents),
                "noise": t.noise,
                "rows": [
                    {"parents": list(pv), "noise": e, "value": val}
                    for (pv, e), val in sorted(t.table.items())
                ],
            }
            for t in scm.tables
        ],
        "exposure_levels": list(scm.exposure_levels),
    }


def scm_from_dict(doc: dict) -> Scm:
    try:
        variables = tuple(
            VariableSpec(v["name"], tuple(int(x) for x in v["support"]), v["role"])
            for v in doc["variables"]
        )
        noise = tuple(
            NoiseSpec(n["name"], {int(k): float(v) for k, v in n["pmf"].items()})
            for n in doc["noise"]
        )
        tables = tuple(
            StructuralTable(
                t["variable"],
                tuple(t["parents"]),
                t["noise"],
                {
                    (tuple(int(x) for x in row["parents"]), int(row["noise"])): int(row["value"])
                    for row in t["rows"]
                },
            )
            for t in doc["tables"]
        )
        exposure = tuple(int(x) for x in doc["exposure_levels"])
        if len(exposure) != 2:
            raise ValueError("exposure_levels must have exactly two entries")
        scm = Scm(variables, noise, tables, (exposure[0], exposure[1]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed SCM document: {exc}") from exc
    declared = {name: tuple(parents) for name, parents in doc.get("edges", {}).items()}
    if declared and declared != scm.edges:
        raise ValueError("malformed SCM document: edges disagree with structural tables")
    return scm


def scm_to_json(scm: Scm) -> str:
    return json.dumps(scm_to_dict(scm), indent=2, sort_keys=True)


def scm_from_json(text: str) -> Scm:
    return scm_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Noise/table building helpers
# ---------------------------------------------------------------------------


def _bernoulli(name: str, p: float) -> NoiseSpec:
    return NoiseSpec(name, {0: 1.0 - p, 1: p})


def _point_mass(name: str) -> NoiseSpec:
    return NoiseSpec(name, {0: 1.0})


def _table(
    variable: str,
    parents: tuple[str, ...],
    parent_supports: tuple[tuple[int, ...], ...],
    noise_levels: tuple[int, ...],
    fn: Callable[..., int],
) -> StructuralTable:
    """Tabulate fn(*parent_values, noise_level) over the full domain."""
    rows = {}
    for pv in itertools.product(*parent_supports):
        for e in noise_levels:
            rows[(pv, e)] = int(fn(*pv, e))
    noise_name = f"eps_{variable}"
    return StructuralTable(variable, parents, noise_name, rows)


def _check_open_unit(value: float, name: str) -> None:
    if not (0.0 < value < 1.0):
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def _check_simplex(values: tuple[float, ...], name: str) -> None:
    if any(v < 0.0 or v > 1.0 for v in values):
        raise DomainError(f"{name} components must lie in [0, 1], got {values!r}")
    if abs(sum(values) - 1.0) > PROB_TOL:
        raise DomainError(f"{name} must sum to 1 within {PROB_TOL}, got {values!r}")


# ---------------------------------------------------------------------------
# Counterexample factories
# ---------------------------------------------------------------------------


def thm1_counterexample(pi: float, beta: float) -> Scm:
    """Exposure-induced-confounder model in which the sharper null holds yet
    the randomized indirect contrast equals pi*(1-pi)*(2*beta-1).

    A = eps_A; L = A*eps_L + (1-A)*(1-eps_L);
    M = (A+L-AL)*eps_M + (1-A)(1-L)(1-eps_M); Y = (1-A)LM + A(L+M-LM).
    """
    _check_open_unit(pi, "pi")
    _check_open_unit(beta, "beta")
    b = (0, 1)
    variables = (
        VariableSpec("A", b, ROLE_EXPOSURE),
        VariableSpec("L", b, ROLE_INDUCED),
        VariableSpec("M", b, ROLE_MEDIATOR),
        VariableSpec("Y", b, ROLE_OUTCOME),
    )
    noise = (
        _bernoulli("eps_A", 0.5),
        NoiseSpec("eps_L", {0: 1.0 - pi, 1: pi}),
        NoiseSpec("eps_M", {0: 1.0 - beta, 1: beta}),
        _point_mass("eps_Y"),
    )
    tables = (
        _table("A", (), (), (0, 1), lambda e: e),
        _table("L", ("A",), (b,), (0, 1), lambda a, e: a * e + (1 - a) * (1 - e)),
        _table(
            "M", ("A", "L"), (b, b), (0, 1),
            lambda a, l, e: (a + l - a * l) * e + (1 - a) * (1 - l) * (1 - e),
        ),
        _table(
            "Y", ("A", "L", "M"), (b, b, b), (0,),
            lambda a, l, m, _e: (1 - a) * l * m + a * (l + m - l * m),
        ),
    )
    scm = Scm(variables, noise, tables, (0, 1))
    _require_valid(scm, "thm1_counterexample")
    return scm


def thm2_counterexample(pi0: float, pi1: float, pi2: float, beta: float) -> Scm:
    """Three-level-L extension of the thm1 model under which mediational
    monotonicity holds while the randomized indirect contrast can be negative.
    """
    _check_simplex((pi0, pi1, pi2), "(pi0, pi1, pi2)")
    _check_open_unit(beta, "beta")
    b = (0, 1)
    l_sup = (0, 1, 2)

    def l_fn(a, e):
        return (1 - a) * (e == 0) + a * (e == 1) + 2 * (e == 2)

    def m_fn(a, l, e):
        if l != 2:
            return (a + l - a * l) * e + (1 - a) * (1 - l) * (1 - e)
        return a

    def y_fn(a, l, m, _e):
        if l != 2:
            return (1 - a) * l * m + a * (l + m - l * m)
        return m

    variables = (
        VariableSpec("A", b, ROLE_EXPOSURE),
        VariableSpec("L", l_sup, ROLE_INDUCED),
        VariableSpec("M", b, ROLE_MEDIATOR),
        VariableSpec("Y", b, ROLE_OUTCOME),
    )
    noise = (
        _bernoulli("eps_A", 0.5),
        NoiseSpec("eps_L", {0: pi0, 1: pi1, 2: pi2}),
        NoiseSpec("eps_M", {0: 1.0 - beta, 1: beta}),
        _point_mass("eps_Y"),
    )
    tables = (
        _table("A", (), (), (0, 1), lambda e: e),
        _table("L", ("A",), (b,), (0, 1, 2), l_fn),
        _table("M", ("A", "L"), (b, l_sup), (0, 1), m_fn),
        _table("Y", ("A", "L", "M"), (b, l_sup, b), (0,), y_fn),
    )
    scm = Scm(variables, noise, tables, (0, 1))
    _require_valid(scm, "thm2_counterexample")
    return scm


def thm3_counterexample(
    pi: float, betas: tuple[float, float, float, float], gamma: float
) -> FfrcistgSpec:
    """Counterfactual joint with deliberate cross-world dependence.

    A ~ Bernoulli(1/2); M(a) ~ Bernoulli(pi) independent of the pair
    (Y(a,0), Y(a,1)) which takes (0,0),(0,1),(1,0),(1,1) with masses betas;
    M(a*) = Y(a,0)Y(a,1) + M(a)|Y(a,1)-Y(a,0)|; (Y(a*,0), Y(a*,1)) equals
    (0,0) w.p. 1-gamma and (1,1) w.p. gamma, independent of the rest.
    It satisfies every one-world independence but not the cross-world
    independence of Y(a, m) and M(a*).
    """
    _check_open_unit(pi, "pi")
    _check_open_unit(gamma, "gamma")
    _check_simplex(tuple(betas), "betas")
    a_star, a = 0, 1
    m_support = (0, 1)
    spec_labels = ("A", f"M({a_star})", f"M({a})",
                   f"Y({a_star},0)", f"Y({a_star},1)", f"Y({a},0)", f"Y({a},1)")
    joint: dict[tuple[int, ...], float] = {}
    y_pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
    for a_val in (0, 1):
        for m_a in (0, 1):
            for (ya0, ya1), bmass in zip(y_pairs, betas):
                for ys, gmass in ((0, 1.0 - gamma), (1, gamma)):
                    w = 0.5 * (pi if m_a else 1.0 - pi) * bmass * gmass
                    if w == 0.0:
                        continue
                    m_star = ya0 * ya1 + m_a * abs(ya1 - ya0)
                    atom = (a_val, m_star, m_a, ys, ys, ya0, ya1)
                    joint[atom] = joint.get(atom, 0.0) + w
    spec = FfrcistgSpec(m_support, (a_star, a), joint)
    assert spec.labels == spec_labels
    _require_valid(spec, "thm3_counterexample")
    return spec


def pe_counterexample(p: float) -> Scm:
    """No-L model where A never affects M yet the portion eliminated is
    nonzero: M(a) = M(a*) = eps_M ~ Bernoulli(p) and Y = A*M.
    """
    _check_open_unit(p, "p")
    b = (0, 1)
    variables = (
        VariableSpec("A", b, ROLE_EXPOSURE),
        VariableSpec("M", b, ROLE_MEDIATOR),
        VariableSpec("Y", b, ROLE_OUTCOME),
    )
    noise = (
        _bernoulli("eps_A", 0.5),
        NoiseSpec("eps_M", {0: 1.0 - p, 1: p}),
        _point_mass("eps_Y"),
    )
    tables = (
        _table("A", (), (), (0, 1), lambda e: e),
        # shared noise across arms: the table ignores A entirely
        _table("M", ("A",), (b,), (0, 1), lambda _a, e: e),
        _table("Y", ("A", "M"), (b, b), (0,), lambda a, m, _e: a * m),
    )
    scm = Scm(variables, noise, tables, (0, 1))
    _require_valid(scm, "pe_counterexample")
    return scm


def separable_scm(
    m_noise_pmf: Mapping[int, float],
    y_noise_pmf: Mapping[int, float],
    m_table: Mapping[tuple[tuple[int, ...], int], int],
    y_table: Mapping[tuple[tuple[int, ...], int], int],
    *,
    m_support: tuple[int, ...] = (0, 1),
    y_support: tuple[int, ...] = (0, 1),
    c_support: tuple[int, ...] | None = None,
    c_pmf: Mapping[int, float] | None = None,
    a_p: float = 0.5,
) -> Scm:
    """Separable-components model: A is copied deterministically into N and O,
    M depends on A only through N, and Y only through O (and M).

    m_table is keyed ((c..., n), eps) and y_table ((c..., o, m), eps), with
    the covariate slot dropped when c_support is None.
    """
    _check_open_unit(a_p, "a_p")
    b = (0, 1)
    has_c = c_support is not None
    if has_c and c_pmf is None:
        raise DomainError("c_pmf is required when c_support is given")

    variables = []
    noise = []
    tables = []
    c_parents: tuple[str, ...] = ()
    if has_c:
        variables.append(VariableSpec("C1", tuple(c_support), ROLE_COVARIATE))
        noise.append(NoiseSpec("eps_C1", dict(c_pmf)))
        tables.append(
            _table("C1", (), (), tuple(sorted(c_pmf)), lambda e: e)
        )
        c_parents = ("C1",)

    variables += [
        VariableSpec("A", b, ROLE_EXPOSURE),
        VariableSpec("N", b, ROLE_SEP_MEDIATOR_PATH),
        VariableSpec("O", b, ROLE_SEP_DIRECT_PATH),
        VariableSpec("M", tuple(m_support), ROLE_MEDIATOR),
        VariableSpec("Y", tuple(y_support), ROLE_OUTCOME),
    ]
    noise += [
        _bernoulli("eps_A", a_p),
        _point_mass("eps_N"),
        _point_mass("eps_O"),
        NoiseSpec("eps_M", dict(m_noise_pmf)),
        NoiseSpec("eps_Y", dict(y_noise_pmf)),
    ]
    tables += [
        _table("A", (), (), (0, 1), lambda e: e),
        _table("N", ("A",), (b,), (0,), lambda a, _e: a),
        _table("O", ("A",), (b,), (0,), lambda a, _e: a),
        StructuralTable("M", c_parents + ("N",), "eps_M", dict(m_table)),
        StructuralTable("Y", c_parents + ("O", "M"), "eps_Y", dict(y_table)),
    ]
    scm = Scm(tuple(variables), tuple(noise), tuple(tables), (0, 1))
    _require_valid(scm, "separable_scm")
    return scm


def additive_outcome_scm(
    *,
    f: Mapping[tuple, int],
    g: Mapping[tuple, int],
    denom: int,
    m_table: Mapping[tuple[tuple[int, ...], int], int],
    m_noise_pmf: Mapping[int, float],
    m_support: tuple[int, ...] = (0, 1),
    a_p: float = 0.5,
    l_table: Mapping[tuple[tuple[int, ...], int], int] | None = None,
    l_noise_pmf: Mapping[int, float] | None = None,
    l_support: tuple[int, ...] | None = None,
    c_support: tuple[int, ...] | None = None,
    c_pmf: Mapping[int, float] | None = None,
) -> Scm:
    """Binary-outcome model whose conditional outcome mean is additive between
    the mediator and the (exposure, confounder) block by construction:
    P(Y=1 | c, a, [l,] m) = (f[(c..., m)] + g[(c..., a[, l])]) / denom,
    realized through a uniform outcome noise with denom levels. Zero
    exposure-mediator mean interaction therefore holds in every stratum.
    """
    if denom < 1:
        raise DomainError("denom must be a positive integer")
    _check_open_unit(a_p, "a_p")
    b = (0, 1)
    has_c = c_support is not None
    has_l = l_support is not None
    if has_c and c_pmf is None:
        raise DomainError("c_pmf is required when c_support is given")
    if has_l and (l_table is None or l_noise_pmf is None):
        raise DomainError("l_table and l_noise_pmf are required when l_support is given")

    variables = []
    noise = []
    tables = []
    c_parents: tuple[str, ...] = ()
    if has_c:
        variables.append(VariableSpec("C1", tuple(c_support), ROLE_COVARIATE))
        noise.append(NoiseSpec("eps_C1", dict(c_pmf)))
        tables.append(_table("C1", (), (), tuple(sorted(c_pmf)), lambda e: e))
        c_parents = ("C1",)

    variables.append(VariableSpec("A", b, ROLE_EXPOSURE))
    noise.append(_bernoulli("eps_A", a_p))
    tables.append(_table("A", (), (), (0, 1), lambda e: e))

    if has_l:
        variables.append(VariableSpec("L", tuple(l_support), ROLE_INDUCED))
        noise.append(NoiseSpec("eps_L", dict(l_noise_pmf)))
        tables.append(StructuralTable("L", c_parents + ("A",), "eps_L", dict(l_table)))

    variables.append(VariableSpec("M", tuple(m_support), ROLE_MEDIATOR))
    noise.append(NoiseSpec("eps_M", dict(m_noise_pmf)))
    m_parents = c_parents + (("A", "L") if has_l else ("A",))
    tables.append(StructuralTable("M", m_parents, "eps_M", dict(m_table)))

    y_parents = c_parents + (("A", "L", "M") if has_l else ("A", "M"))
    c_sup = (tuple(c_support),) if has_c else ()
    parent_supports = c_sup + ((b, tuple(l_support), tuple(m_support)) if has_l else (b, tuple(m_support)))
    rows = {}
    for pv in itertools.product(*parent_supports):
        if has_l:
            *c_vals, a_val, l_val, m_val = pv
            g_key = tuple(c_vals) + (a_val, l_val)
        else:
            *c_vals, a_val, m_val = pv
            g_key = tuple(c_vals) + (a_val,)
        f_key = tuple(c_vals) + (m_val,)
        threshold = f[f_key] + g[g_key]
        if not (0 <= threshold <= denom):
            raise DomainError(
                f"f + g must lie in [0, denom]; got {threshold} at {pv}"
            )
        for e in range(denom):
            rows[(pv, e)] = 1 if e < threshold else 0
    variables.append(VariableSpec("Y", b, ROLE_OUTCOME))
    noise.append(NoiseSpec("eps_Y", {e: 1.0 / denom for e in range(denom)}))
    tables.append(StructuralTable("Y", y_parents, "eps_Y", rows))

    scm = Scm(tuple(variables), tuple(noise), tuple(tables), (0, 1))
    _require_valid(scm, "additive_outcome_scm")
    return scm


# ---------------------------------------------------------------------------
# Seeded random model generators
# ---------------------------------------------------------------------------


def _rng(*key) -> random.Random:
    return random.Random("::".join(str(k) for k in key))


def _random_pmf(rng: random.Random, levels: tuple[int, ...]) -> dict[int, float]:
    # weights bounded away from zero keep every conditioning cell positive
    weights = [0.25 + rng.random() for _ in levels]
    total = sum(weights)
    return {lv: w / total for lv, w in zip(levels, weights)}


def _surjective_column(rng: random.Random, n_noise: int, support: tuple[int, ...]) -> list[int]:
    col = list(support)
    rng.shuffle(col)
    col += [rng.choice(support) for _ in range(n_noise - len(support))]
    return col


def _random_table(
    rng: random.Random,
    variable: str,
    parents: tuple[str, ...],
    parent_supports: tuple[tuple[int, ...], ...],
    support: tuple[int, ...],
    n_noise: int,
) -> StructuralTable:
    """Random total table whose every parent-stratum column covers the full
    support, so all downstream conditionals stay strictly positive."""
    rows = {}
    for pv in itertools.product(*parent_supports):
        col = _surjective_column(rng, n_noise, support)
        for e, val in enumerate(col):
            rows[(pv, e)] = val
    return StructuralTable(variable, parents, f"eps_{variable}", rows)


def random_scm(
    seed: int,
    shape: str = "basic",
    *,
    with_c: bool = False,
    c_levels: int = 2,
    l_levels: int = 2,
    m_levels: int = 2,
    y_levels: int = 2,
    l_affects: tuple[str, ...] = ("M", "Y"),
) -> Scm:
    """Seeded random independent-errors instance of the requested shape.

    All noise masses are bounded away from zero and every structural-table
    column is surjective onto its variable's support, so positivity holds for
    each conditional any identification functional can request. l_affects
    controls whether the induced confounder actually enters the mediator and
    outcome equations (severing both yields a law in which L is inert).
    """
    if shape not in ("basic", "confounded"):
        raise DomainError(f"unsupported random shape {shape!r}")
    rng = _rng("scm", shape, seed, with_c, c_levels, l_levels, m_levels, y_levels, l_affects)
    b = (0, 1)
    variables: list[VariableSpec] = []
    noise: list[NoiseSpec] = []
    tables: list[StructuralTable] = []
    c_parents: tuple[str, ...] = ()
    c_supports: tuple[tuple[int, ...], ...] = ()
    if with_c:
        c_sup = tuple(range(c_levels))
        variables.append(VariableSpec("C1", c_sup, ROLE_COVARIATE))
        noise.append(NoiseSpec("eps_C1", _random_pmf(rng, c_sup)))
        tables.append(_table("C1", (), (), c_sup, lambda e: e))
        c_parents, c_supports = ("C1",), (c_sup,)

    variables.append(VariableSpec("A", b, ROLE_EXPOSURE))
    noise.append(NoiseSpec("eps_A", _random_pmf(rng, (0, 1, 2))))
    tables.append(_random_table(rng, "A", c_parents, c_supports, b, 3))

    l_sup: tuple[int, ...] | None = None
    if shape == "confounded":
        l_sup = tuple(range(l_levels))
        variables.append(VariableSpec("L", l_sup, ROLE_INDUCED))
        n_l = l_levels + 1
        noise.append(NoiseSpec("eps_L", _random_pmf(rng, tuple(range(n_l)))))
        tables.append(
            _random_table(rng, "L", c_parents + ("A",), c_supports + (b,), l_sup, n_l)
        )

    m_sup = tuple(range(m_levels))
    m_parents = c_parents + ("A",)
    m_parent_sup = c_supports + (b,)
    if shape == "confounded" and "M" in l_affects:
        m_parents += ("L",)
        m_parent_sup += (l_sup,)
    variables.append(VariableSpec("M", m_sup, ROLE_MEDIATOR))
    n_m = m_levels + 1
    noise.append(NoiseSpec("eps_M", _random_pmf(rng, tuple(range(n_m)))))
    tables.append(_random_table(rng, "M", m_parents, m_parent_sup, m_sup, n_m))

    y_sup = tuple(range(y_levels))
    y_parents = c_parents + ("A",)
    y_parent_sup = c_supports + (b,)
    if shape == "confounded" and "Y" in l_affects:
        y_parents += ("L",)
        y_parent_sup += (l_sup,)
    y_parents += ("M",)
    y_parent_sup += (m_sup,)
    variables.append(VariableSpec("Y", y_sup, ROLE_OUTCOME))
    n_y = y_levels + 1
    noise.append(NoiseSpec("eps_Y", _random_pmf(rng, tuple(range(n_y)))))
    tables.append(_random_table(rng, "Y", y_parents, y_parent_sup, y_sup, n_y))

    scm = Scm(tuple(variables), tuple(noise), tuple(tables), (0, 1))
    _require_valid(scm, "random_scm")
    return scm


def random_additive_scm(seed: int, shape: str = "basic", *, with_c: bool = False) -> Scm:
    """Seeded random instance with a mean-additive outcome (see
    additive_outcome_scm); f and g components are drawn as small integers."""
    if shape not in ("basic", "confounded"):
        raise DomainError(f"unsupported additive shape {shape!r}")
    rng = _rng("additive", shape, seed, with_c)
    b = (0, 1)
    denom = 8
    c_support = (0, 1) if with_c else None
    c_pmf = _random_pmf(rng, (0, 1)) if with_c else None
    c_vals = [()] if not with_c else [(0,), (1,)]
    m_sup = (0, 1)

    l_kwargs: dict = {}
    if shape == "confounded":
        l_sup = (0, 1)
        l_parents_sup = ((c_support,) if with_c else ()) + (b,)
        l_tab = _random_table(
            rng, "L", (("C1",) if with_c else ()) + ("A",), l_parents_sup, l_sup, 3
        )
        l_kwargs = {
            "l_support": l_sup,
            "l_noise_pmf": _random_pmf(rng, (0, 1, 2)),
            "l_table": dict(l_tab.table),
        }

    m_parents_sup = ((c_support,) if with_c else ()) + ((b, (0, 1)) if shape == "confounded" else (b,))
    m_tab = _random_table(
        rng, "M",
        (("C1",) if with_c else ()) + (("A", "L") if shape == "confounded" else ("A",)),
        m_parents_sup, m_sup, 3,
    )

    f = {}
    for cv in c_vals:
        for m in m_sup:
            f[cv + (m,)] = rng.randint(0, 3)
    g = {}
    if shape == "confounded":
        for cv in c_vals:
            for a_val in b:
                for l_val in (0, 1):
                    g[cv + (a_val, l_val)] = rng.randint(0, 4)
    else:
        for cv in c_vals:
            for a_val in b:
                g[cv + (a_val,)] = rng.randint(0, 4)

    return additive_outcome_scm(
        f=f,
        g=g,
        denom=denom,
        m_table=dict(m_tab.table),
        m_noise_pmf=_random_pmf(rng, (0, 1, 2)),
        m_support=m_sup,
        a_p=0.3 + 0.4 * rng.random(),
        c_support=c_support,
        c_pmf=c_pmf,
        **l_kwargs,
    )


def random_separable_scm(seed: int, *, with_c: bool = False, m_levels: int = 2) -> Scm:
    """Seeded random separable-components instance."""
    rng = _rng("separable", seed, with_c, m_levels)
    b = (0, 1)
    c_support = (0, 1) if with_c else None
    c_pmf = _random_pmf(rng, (0, 1)) if with_c else None
    m_sup = tuple(range(m_levels))
    n_m = m_levels + 1
    m_parent_sup = ((c_support,) if with_c else ()) + (b,)
    m_tab = _random_table(
        rng, "M", (("C1",) if with_c else ()) + ("N",), m_parent_sup, m_sup, n_m
    )
    y_parent_sup = ((c_support,) if with_c else ()) + (b, m_sup)
    y_tab = _random_table(
        rng, "Y", (("C1",) if with_c else ()) + ("O", "M"), y_parent_sup, b, 3
    )
    return separable_scm(
        _random_pmf(rng, tuple(range(n_m))),
        _random_pmf(rng, (0, 1, 2)),
        dict(m_tab.table),
        dict(y_tab.table),
        m_support=m_sup,
        c_support=c_support,
        c_pmf=c_pmf,
        a_p=0.3 + 0.4 * rng.random(),
    )


def random_null_mediator_scm(seed: int, *, with_c: bool = False) -> Scm:
    """Seeded random no-L instance in which the exposure never moves the
    mediator (its table ignores A) while the mediator moves the outcome for
    every unit in at least one exposure arm."""
    rng = _rng("nullmed", seed, with_c)
    b = (0, 1)
    variables: list[VariableSpec] = []
    noise: list[NoiseSpec] = []
    tables: list[StructuralTable] = []
    c_parents: tuple[str, ...] = ()
    c_supports: tuple[tuple[int, ...], ...] = ()
    c_vals: list[tuple[int, ...]] = [()]
    if with_c:
        variables.append(VariableSpec("C1", b, ROLE_COVARIATE))
        noise.append(NoiseSpec("eps_C1", _random_pmf(rng, b)))
        tables.append(_table("C1", (), (), b, lambda e: e))
        c_parents, c_supports = ("C1",), (b,)
        c_vals = [(0,), (1,)]

    variables.append(VariableSpec("A", b, ROLE_EXPOSURE))
    noise.append(NoiseSpec("eps_A", _random_pmf(rng, (0, 1, 2))))
    tables.append(_random_table(rng, "A", c_parents, c_supports, b, 3))

    variables.append(VariableSpec("M", b, ROLE_MEDIATOR))
    noise.append(NoiseSpec("eps_M", _random_pmf(rng, (0, 1, 2))))
    tables.append(_random_table(rng, "M", c_parents, c_supports, b, 3))

    # per (c, eps_Y): the four values (y(a*,0), y(a*,1), y(a,0), y(a,1)) must
    # not be constant in m within both arms simultaneously
    valid = [
        combo
        for combo in itertools.product(b, repeat=4)
        if combo[0] != combo[1] or combo[2] != combo[3]
    ]
    n_y = 3
    rows = {}
    for cv in c_vals:
        for e in range(n_y):
            y00, y01, y10, y11 = rng.choice(valid)
            rows[(cv + (0, 0), e)] = y00
            rows[(cv + (0, 1), e)] = y01
            rows[(cv + (1, 0), e)] = y10
            rows[(cv + (1, 1), e)] = y11
    variables.append(VariableSpec("Y", b, ROLE_OUTCOME))
    noise.append(NoiseSpec("eps_Y", _random_pmf(rng, tuple(range(n_y)))))
    tables.append(StructuralTable("Y", c_parents + ("A", "M"), "eps_Y", rows))

    scm = Scm(tuple(variables), tuple(noise), tuple(tables), (0, 1))
    _require_valid(scm, "random_null_mediator_scm")
    return scm
