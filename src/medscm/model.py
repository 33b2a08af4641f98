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
from functools import cache, cached_property, lru_cache
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DomainError, EnumerationSizeError

PROB_TOL = 1e-12

# an intervention regime of grid(): (do(A=level), do(M=level)), None leaving
# the variable to its table
Regime = tuple[int | None, int | None]

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
class Structure:
    """Everything about a model but its masses: the variables, the structural
    tables, each noise's name and levels in order (or a counterfactual
    joint's atoms, in order) and the exposure levels, with the role and
    topology lookups read off them, each computed once per structure.

    Identity is equality: engine.profiles keys the columns it shares by the
    structure object, so the models model() builds from one structure share
    them and structures built apart never do. Nothing is checked when a
    structure is built, so a malformed model still builds and validate lists
    its faults. The lookups assume a model _require_valid accepts, as every
    reader checks first, but the role lookups of A, M and Y, and
    topo_order, refuse a structure without one with validate's list; a
    lookup that raises is not cached and raises again.
    """

    variables: tuple[VariableSpec, ...]
    exposure_levels: tuple[int, int]
    tables: tuple[StructuralTable, ...] = ()
    noise: tuple[tuple[str, tuple[int, ...]], ...] = ()
    atoms: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def of_joint(cls, m_support: tuple[int, ...], exposure_levels: tuple[int, int],
                 atoms: tuple[tuple[int, ...], ...]) -> Structure:
        """The structure of a counterfactual joint over these atoms: A, M and
        Y, Y's support the values its atoms give Y(a', m)."""
        y_support = tuple(sorted({y for atom in atoms for y in atom[1 + len(exposure_levels):]}))
        variables = (VariableSpec("A", exposure_levels, ROLE_EXPOSURE),
                     VariableSpec("M", m_support, ROLE_MEDIATOR),
                     VariableSpec("Y", y_support, ROLE_OUTCOME))
        return cls(variables, exposure_levels, atoms=atoms)

    def model(self, masses, context: str) -> Model:
        """The model of this structure under masses (its noise laws in order,
        or its joint's masses atom by atom), once _require_valid accepts it;
        the structure's own findings are made once, so each model checks only
        its noise laws or masses."""
        model = Scm(self, masses) if self.atoms is None else FfrcistgSpec(self, masses)
        return _require_valid(model, context)

    # -- lookups ------------------------------------------------------------

    @cached_property
    def _by_name(self) -> dict[str, VariableSpec]:
        return {v.name: v for v in reversed(self.variables)}   # the first of a name

    def var(self, name: str) -> VariableSpec:
        return self._by_name[name]

    @cached_property
    def _by_variable(self) -> dict[str, StructuralTable]:
        return {t.variable: t for t in reversed(self.tables)}

    def table_for(self, name: str) -> StructuralTable:
        return self._by_variable[name]

    @cached_property
    def noise_position(self) -> dict[str, int]:
        """Position among the noise terms of each variable's noise."""
        position = {name: i for i, (name, _) in reversed(list(enumerate(self.noise)))}
        return {v: position[t.noise] for v, t in self._by_variable.items()}

    @cached_property
    def supports(self) -> dict[str, tuple[int, ...]]:
        """Each variable's sorted support: the values its positions index."""
        return {v.name: tuple(sorted(v.support)) for v in self.variables}

    @cached_property
    def _compiled(self) -> dict[str, np.ndarray | None]:
        """Each variable's table checked and compiled in one pass (_compile),
        None where the pass failed; validate and positions both read it."""
        at = self.noise_position
        return {name: _compile(t, self.supports, self.noise[at[name]][1])
                for name, t in self._by_variable.items()}

    @cached_property
    def _findings(self) -> tuple[list[str], list[str], list[str]]:
        """validate's findings that read no masses (_validate_structure),
        made once per structure."""
        return _validate_structure(self)

    @cached_property
    def _lookups(self) -> dict[str, tuple[tuple[int, ...], np.ndarray]]:
        # each table as a mixed-radix lookup over (parent positions..., noise
        # position), the last parent varying fastest after the noise: the
        # stride of each parent's position, in table order, and the lookup
        out = {}
        for name in self.topo_order:
            t, levels = self.table_for(name), self.noise[self.noise_position[name]][1]
            strides, stride = [], len(levels)
            for p in reversed(t.parents):
                strides.insert(0, stride)
                stride *= len(self.supports[p])
            out[name] = tuple(strides), self._compiled[name]
        return out

    def positions(self, name: str, noise: np.ndarray | int, parents: Sequence) -> np.ndarray:
        """Positions in name's sorted support of its table's values at noise
        positions and its parents' positions (in table order); Scm.grid
        evaluates every table this way."""
        strides, lookup = self._lookups[name]
        for position, stride in zip(parents, strides):
            noise = noise + position * stride
        return lookup[noise]

    @cached_property
    def layout(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], dict, dict]:
        """An Scm's evaluation tables: each variable's (position among the
        noise terms, levels), in topological order, the order of its factors;
        and by variable, its sorted support as an array (None where it is
        0..k-1 and positions are values) and whether it lies downstream of
        do(A) and of do(M)."""
        a_name, m_name = self.exposure_name, self.mediator_name
        at = self.noise_position
        gather, values, moved = [], {}, {}
        for name in self.topo_order:
            support, parents = self.supports[name], self.table_for(name).parents
            gather.append((at[name], self.noise[at[name]][1]))
            values[name] = None if support == tuple(range(len(support))) else np.asarray(support)
            moved[name] = (name == a_name or any(moved[p][0] for p in parents),
                           name == m_name or any(moved[p][1] for p in parents))
        return tuple(gather), values, moved

    @cached_property
    def _roles(self) -> dict[str, tuple[str, ...]]:
        roles: dict[str, tuple[str, ...]] = {}
        for v in self.variables:
            roles[v.role] = roles.get(v.role, ()) + (v.name,)
        return roles

    def _single(self, role: str) -> str | None:
        names = self._roles.get(role, ())
        return names[0] if names else None

    def _required(self, role: str) -> str:
        """The variable of a role every valid model has; where there is none,
        DomainError("invalid model: [...]") with the structure's findings on
        its roles, which validate lists."""
        name = self._single(role)
        if name is None:
            raise DomainError(f"invalid model: {self._findings[0]}")
        return name

    @cached_property
    def covariate_names(self) -> tuple[str, ...]:
        return self._roles.get(ROLE_COVARIATE, ())

    @cached_property
    def exposure_name(self) -> str:
        return self._required(ROLE_EXPOSURE)

    @cached_property
    def mediator_name(self) -> str:
        return self._required(ROLE_MEDIATOR)

    @cached_property
    def outcome_name(self) -> str:
        return self._required(ROLE_OUTCOME)

    @cached_property
    def induced_name(self) -> str | None:
        return self._single(ROLE_INDUCED)

    @cached_property
    def has_l(self) -> bool:
        return self.induced_name is not None

    @cached_property
    def m_support(self) -> tuple[int, ...]:
        return self.var(self.mediator_name).support

    @cached_property
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

    @cached_property
    def topo_order(self) -> tuple[str, ...]:
        """Covariates first (mutually topo-sorted), then A, N, O, L, M, Y."""
        for role in (ROLE_EXPOSURE, ROLE_MEDIATOR, ROLE_OUTCOME):
            self._required(role)   # without one the covariate sort would misname the fault
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

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """A counterfactual joint's coordinates: A, M(a') for each arm and
        Y(a', m) for each arm and mediator level."""
        arms = self.exposure_levels
        return ("A", *(f"M({ap})" for ap in arms),
                *(f"Y({ap},{m})" for ap in arms for m in self.m_support))

    @cached_property
    def atom_table(self) -> np.ndarray:
        """A joint's atoms as a read-only (atoms, labels) int64 array."""
        table = np.array(self.atoms, dtype=np.int64).reshape(len(self.atoms), len(self.labels))
        table.flags.writeable = False
        return table

    @cached_property
    def atom_codes(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """For each coordinate of a joint's atoms, in label order, its sorted
        distinct values and each atom's position among them."""
        return tuple(np.unique(col, return_inverse=True) for col in self.atom_table.T)


class _Lookups:
    """A model's lookups, read off its structure, its violations and the
    evaluation both types share, from what each states: _factors (the mass
    vectors whose outer product, the last varying fastest, is its unit grid),
    units/solve (the one-unit reference) and grid (their vectorised twin)."""

    structure: Structure
    variables = property(attrgetter("structure.variables"))
    tables = property(attrgetter("structure.tables"))
    exposure_levels = property(attrgetter("structure.exposure_levels"))
    m_support = property(attrgetter("structure.m_support"))
    var = property(attrgetter("structure.var"))
    table_for = property(attrgetter("structure.table_for"))
    covariate_names = property(attrgetter("structure.covariate_names"))
    exposure_name = property(attrgetter("structure.exposure_name"))
    mediator_name = property(attrgetter("structure.mediator_name"))
    outcome_name = property(attrgetter("structure.outcome_name"))
    induced_name = property(attrgetter("structure.induced_name"))
    has_l = property(attrgetter("structure.has_l"))
    shape = property(attrgetter("structure.shape"))
    edges = property(attrgetter("structure.edges"))
    topo_order = property(attrgetter("structure.topo_order"))
    labels = property(attrgetter("structure.labels"))
    a_star = property(lambda self: self.exposure_levels[0])
    a = property(lambda self: self.exposure_levels[1])

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """Every invariant the model violates, in validate's order, made once
        per model: validate and _require_valid read it."""
        return tuple(self._violations())

    @property
    def grid_size(self) -> int:
        """Number of units, zero-mass ones included."""
        return math.prod(map(len, self._factors))

    def noise_weight(self) -> np.ndarray:
        """Mass of every unit in the order of units(), zero-mass ones
        included: the outer product of the factors, the same left-to-right
        products, so the positive ones are bitwise equal to the scalar
        weights."""
        _require_valid(self)
        weight = np.ones(1)
        for factor in self._factors:
            weight = np.multiply.outer(weight, factor).ravel()
        return weight

    def unit_positions(self, units: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each unit's position in every factor, from its flat position in
        noise_weight(): the factors' mixed radix, the last fastest."""
        return np.unravel_index(units, tuple(map(len, self._factors)))

    @cached_property
    def _edges(self) -> tuple[np.ndarray, ...]:
        return tuple(map(_cdf_edges, self._factors))

    def draw(self, uniforms: np.ndarray, out: np.ndarray) -> None:
        """Rows of the observational law into out, one per row of uniforms,
        both (rows, variables) in topological order: factor j's position is
        the inverse CDF of uniform column j, held in out's own memory (grid
        never returns a view of its positions), and grid gives the values."""
        _require_valid(self)
        n, edges = len(out), self._edges
        positions = out.reshape(-1)[: len(edges) * n].reshape(len(edges), n)
        for j, cdf in enumerate(edges):
            _inverse_cdf(cdf, uniforms[:, j].copy(), positions[j])
        solved = self.grid(positions, dict.fromkeys(self.topo_order, [(None, None)]))
        for j, row in enumerate(solved.values()):   # in topological order, as asked
            out[:, j] = row[0]


@dataclass(frozen=True, eq=False)
class Scm(_Lookups):
    """A discrete SCM with independent exogenous errors (one per variable):
    a Structure and each noise's law, in the order of structure.noise.

    Scm.of builds a model on a structure of its own, Structure.model the
    models that share one. Identity-based equality/hashing is intentional:
    instances are immutable and internally cached by identity. Structural
    equality is available through the JSON serialization.
    """

    structure: Structure
    noise: tuple[NoiseSpec, ...]

    @classmethod
    def of(cls, variables: tuple[VariableSpec, ...], noise: tuple[NoiseSpec, ...],
           tables: tuple[StructuralTable, ...], exposure_levels: tuple[int, int]) -> Scm:
        """The model of these variables, noise laws, tables and exposure
        levels, on a structure of its own."""
        levels = tuple((n.name, n.levels()) for n in noise)
        return cls(Structure(variables, exposure_levels, tables, levels), noise)

    def noise_for(self, name: str) -> NoiseSpec:
        return self.noise[self.structure.noise_position[name]]

    def _violations(self) -> list[str]:
        """The noise laws' names and levels against the structure's (they are
        read by position), the structure's findings and the laws' masses."""
        variables, head, tail = self.structure._findings
        same = tuple((n.name, n.levels()) for n in self.noise) == self.structure.noise
        mismatch = [] if same else ["noise names or levels differ from the structure"]
        if mismatch or variables:
            return mismatch + variables
        return head + [v for n in self.noise for v in _mass_violations(n)] + tail

    # -- evaluation (_Lookups) ------------------------------------------------

    @property
    def _factors(self) -> tuple[list[float], ...]:
        """Each variable's noise law, its masses in the structure's level
        order (validate holds it to the law's), variables in topological
        order."""
        gather, _, _ = self.structure.layout
        return tuple([self.noise[i].pmf[lv] for lv in levels] for i, levels in gather)

    def units(self, cap: int) -> list[tuple[dict[str, int], float]]:
        """Positive-mass joint noise configurations with product weights, in
        the canonical order: the product of each variable's noise levels,
        variables in topological order."""
        _require_valid(self)
        if self.grid_size > cap:
            raise EnumerationSizeError(f"noise product space exceeds cap ({self.grid_size} > {cap})")
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

    def grid(self, positions: Sequence[np.ndarray],
             rows: Mapping[str, Sequence[Regime]]) -> dict[str, np.ndarray]:
        """Values of the variables named in rows at the units' noise
        positions (one array per factor), one row per regime listed for the
        variable; an intervened variable takes its fixed level. Each table is
        evaluated in position space (Structure.positions), once per distinct
        regime of the interventions upstream of it: the covariates once, A,
        L and M once per exposure arm."""
        structure, order = self.structure, self.topo_order
        gather, values, moved = structure.layout
        a_name, m_name = structure.exposure_name, structure.mediator_name
        noise = {name: p if len(levels) > 1 else 0   # plain ints while every term is fixed
                 for name, p, (_, levels) in zip(order, positions, gather)}
        solved: dict[tuple, np.ndarray | int] = {}   # by variable and the regime upstream of it
        under: dict[Regime, dict] = {}   # positions under each regime, by variable

        def value(name, regime):
            here = under.setdefault(regime, {})
            for v in order[len(here) : order.index(name) + 1]:   # parents before children
                on_a, on_m = moved[v]
                at = v, regime[0] if on_a else None, regime[1] if on_m else None
                if at not in solved:
                    fixed = regime[0] if v == a_name else regime[1] if v == m_name else None
                    parents = [here[p] for p in structure.table_for(v).parents]
                    solved[at] = (structure.positions(v, noise[v], parents) if fixed is None
                                  else structure.supports[v].index(fixed))
                here[v] = solved[at]
            return here[name] if values[name] is None else values[name][here[name]]

        return _rows(rows, value, len(positions[0]))


@dataclass(frozen=True, eq=False)
class FfrcistgSpec(_Lookups):
    """An explicit joint law over one-world counterfactuals (no-L graph only):
    a Structure whose atoms are the joint's keys, and their masses, in the
    order of structure.atoms.

    Atoms assign values to A, M(a') for each exposure arm, and Y(a', m) for
    each arm and mediator level; covariates are not represented (the direct
    counterfactual constructions this type exists for use an empty C).
    Cross-world dependence is allowed, which is exactly what a structural
    table representation cannot express.
    """

    structure: Structure
    masses: tuple[float, ...]

    @classmethod
    def of(cls, m_support: tuple[int, ...], exposure_levels: tuple[int, int],
           joint: Mapping[tuple[int, ...], float]) -> FfrcistgSpec:
        """The model of this joint law, atom -> mass, on a structure of its own."""
        return cls(Structure.of_joint(m_support, exposure_levels, tuple(joint)),
                   tuple(joint.values()))

    @property
    def joint(self) -> Mapping[tuple[int, ...], float]:
        """The joint law, atom -> mass: a read-only view of the atoms and masses."""
        return MappingProxyType(dict(zip(self.structure.atoms, self.masses)))

    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    # -- evaluation (_Lookups) ------------------------------------------------

    @property
    def _factors(self) -> tuple[tuple[float, ...]]:
        """The atoms' masses: the joint is one factor."""
        return (self.masses,)

    def units(self, cap: int) -> list[tuple[dict[str, int], float]]:
        """Positive-mass atoms as label -> value maps; the atoms are the
        units, so the cap does not apply."""
        _require_valid(self)
        labels = self.labels
        return [(dict(zip(labels, atom)), w)
                for atom, w in zip(self.structure.atoms, self.masses) if w > 0.0]

    def solve(self, atom: Mapping[str, int], fixed: Mapping[str, int]) -> dict[str, int]:
        """Read A, M and Y off an atom under an intervention on A and/or M."""
        a_val = fixed.get("A", atom["A"])
        if a_val not in self.exposure_levels:
            raise DomainError(
                f"exposure level {a_val} not represented in the counterfactual joint"
            )
        m_val = fixed.get("M", atom[f"M({a_val})"])
        return {"A": a_val, "M": m_val, "Y": atom[f"Y({a_val},{m_val})"]}

    def grid(self, positions: Sequence[np.ndarray],
             rows: Mapping[str, Sequence[Regime]]) -> dict[str, np.ndarray]:
        """A, M and Y over the atoms at positions (one array, the one
        factor's), one row per regime listed for the variable, as Scm.grid
        gives them; each reads only the coordinates its regime needs."""
        (atoms,) = positions
        table = self.structure.atom_table
        arms, levels = self.exposure_levels, self.m_support

        @cache
        def world(a_fix: int | None, m_fix: int | None) -> dict:
            a = table[atoms, 0] if a_fix is None else a_fix
            arm = level_positions(a, arms)
            m = table[atoms, 1 + arm] if m_fix is None else m_fix
            y = table[atoms, 1 + len(arms) + arm * len(levels) + level_positions(m, levels)]
            return {"A": a, "M": m, "Y": y}

        return _rows(rows, lambda name, regime: world(*regime)[name], atoms.size)

    def _violations(self) -> list[str]:
        # the levels, one finite non-negative mass per atom summing to 1,
        # atoms of every coordinate and every one-world independence
        out: list[str] = []
        atoms, masses = self.structure.atoms, self.masses
        if self.exposure_levels[0] == self.exposure_levels[1]:
            out.append("exposure levels a* and a must differ")
        if len(set(self.m_support)) != len(self.m_support) or not self.m_support:
            out.append("mediator support must be non-empty and duplicate-free")
        if len(masses) != len(atoms):
            out.append(f"{len(masses)} masses for {len(atoms)} atoms")
            return out
        if not masses:
            out.append("joint pmf is empty")
            return out
        total = sum(masses)
        if not abs(total - 1.0) <= PROB_TOL:
            out.append(f"joint pmf sums to {total!r}")
        if not all(math.isfinite(p) for p in masses):
            out.append("joint pmf has a non-finite mass")
        if any(p < 0 for p in masses):
            out.append("joint pmf has a negative mass")
        width = len(self.labels)
        if any(len(atom) != width for atom in atoms):
            out.append(f"atoms must assign all {width} counterfactual coordinates")
            return out
        out.extend(_one_world_violations(self))
        return out


Model = Scm | FfrcistgSpec


def level_positions(values, levels: tuple[int, ...]):
    """Index of each value within levels (scalar or array alike); a value
    outside levels is a DomainError. Over levels 0..k-1 the values are their
    own indices: an array is returned itself, not a copy."""
    lv = np.asarray(levels)
    if lv.size and (lv == np.arange(lv[0], lv[0] + lv.size)).all():   # consecutive levels
        pos = np.asarray(values) if lv[0] == 0 else np.subtract(values, lv[0])
        if pos.size and (pos.min() < 0 or pos.max() >= lv.size):
            raise DomainError(f"a level outside {levels}")
        return pos
    order = np.argsort(lv, kind="stable")
    pos = order[np.minimum(np.searchsorted(lv, values, sorter=order), lv.size - 1)]
    if np.any(lv[pos] != values):
        raise DomainError(f"a level outside {levels}")
    return pos


def _rows(rows: Mapping[str, Sequence[Regime]], value: Callable, n: int) -> dict[str, np.ndarray]:
    """grid's result: each variable's value(name, regime) under each regime
    listed for it, as a (regimes, n) int64 block; a lone regime's array is
    its row itself, not a copy."""
    out = {}
    for name, regimes in rows.items():
        if len(regimes) == 1 and np.ndim(row := value(name, regimes[0])):
            out[name] = row[None]
            continue
        out[name] = np.empty((len(regimes), n), dtype=np.int64)
        for i, regime in enumerate(regimes):
            out[name][i] = value(name, regime)
    return out


def _cdf_edges(masses) -> np.ndarray:
    """The CDF of masses without its last entry, padded with inf to a power
    of two longer than it: the edges _inverse_cdf searches."""
    cum = np.cumsum(masses)
    size = 1 << (cum.size - 1).bit_length()
    return np.concatenate([cum[:-1], np.full(size - cum.size + 1, np.inf)])


def _inverse_cdf(edges: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The position of each uniform u among the masses, into out if given:
    how many edges lie at or below it. The edges are nondecreasing, so those
    form a prefix, and a branchless binary search finds its length, one
    comparison pass per halving."""
    step = edges.size // 2
    idx = np.multiply(u >= edges[step - 1], step, out=out)   # one mass: step 0, its edge inf
    while step := step // 2:
        idx += (u >= edges.take(idx + step - 1)) * step
    return idx


def _compile(table: StructuralTable, supports: Mapping[str, tuple[int, ...]],
             noise_levels: tuple[int, ...]) -> np.ndarray | None:
    """A table's one pass: the position of each value in the variable's
    sorted support, as a flat int64 array over (parent positions..., noise
    position), row by row in that order whatever order the rows were given
    in. None when a row is missing, the table has other rows besides, a
    value lies outside the support, or a parent is unknown."""
    try:
        position = {v: i for i, v in enumerate(supports[table.variable])}
        keys = itertools.product(itertools.product(*(supports[p] for p in table.parents)),
                                 noise_levels)
        out = list(map(position.__getitem__, map(table.table.__getitem__, keys)))
    except (KeyError, TypeError):
        return None
    return np.array(out, dtype=np.int64) if len(out) == len(table.table) else None


def _table_violation(table: StructuralTable, supports: Mapping[str, tuple[int, ...]],
                     noise_levels: tuple[int, ...]) -> str | None:
    """The first fault of a table whose pass failed: an unknown parent, rows
    not total over parents x noise, or a value outside the support."""
    for p in table.parents:
        if p not in supports:
            return f"table for {table.variable}: unknown parent {p}"
    expected = set(itertools.product(itertools.product(*(supports[p] for p in table.parents)),
                                     noise_levels))
    got = set(table.table)
    if got != expected:
        return (f"table for {table.variable}: not total over parents x noise "
                f"({len(got)} rows, expected {len(expected)})")
    support = set(supports[table.variable])
    for key, value in table.table.items():
        if value not in support:
            return f"table for {table.variable}: value {value} at {key} outside support"
    return None


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
    """Return every violated invariant; an empty list means the model is
    valid. The list is the model's violations, made once per model."""
    return list(model.violations)


def _validate_structure(s: Structure) -> tuple[list[str], list[str], list[str]]:
    """A structural model's findings that read no masses, in validate's
    order: (variables, head, tail), the variables and roles, which end the
    list when they fail, then those before the masses and those after."""
    out: list[str] = []
    names = [v.name for v in s.variables]
    if len(set(names)) != len(names):
        return ["duplicate variable names"], [], []

    for v in s.variables:
        if not v.support:
            out.append(f"variable {v.name}: empty support")
        if len(set(v.support)) != len(v.support):
            out.append(f"variable {v.name}: support has duplicates")
        if v.role not in _ROLES:
            out.append(f"variable {v.name}: unknown role {v.role!r}")

    role_counts = {r: len([v for v in s.variables if v.role == r]) for r in _ROLES}
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
        return out, [], []

    noise_names = [name for name, _ in s.noise]
    head = ["duplicate noise names"] if len(set(noise_names)) != len(noise_names) else []

    table_vars = [t.variable for t in s.tables]
    if sorted(table_vars) != sorted(names):
        return [], head, ["structural tables do not cover the variables exactly once each"]
    used_noise = [t.noise for t in s.tables]
    if sorted(used_noise) != sorted(noise_names):
        return [], head, ["noise terms are not in bijection with variables"]

    # with the noise names, roles and coverage sound, a table whose one pass
    # succeeded is valid; any other table gets the full diagnosis
    compiled = {} if head else s._compiled
    levels_of = dict(s.noise)
    for t in s.tables:
        if compiled.get(t.variable) is not None:
            continue
        violation = _table_violation(t, s.supports, levels_of[t.noise])
        if violation:
            out.append(violation)
            if not all(p in s.supports for p in t.parents):
                return [], head, out

    out.extend(_validate_shape(s))

    a_star, a = s.exposure_levels
    a_support = s.supports[s._single(ROLE_EXPOSURE)]
    if a_star == a:
        out.append("exposure levels a* and a must differ")
    if a_star not in a_support or a not in a_support:
        out.append("exposure levels must lie in the exposure support")

    try:
        s.topo_order
    except DomainError as exc:
        out.append(str(exc))
    return [], head, out


def _mass_violations(noise: NoiseSpec) -> list[str]:
    """The violations of one noise law's masses: each must be finite and
    non-negative, and they must sum to 1 (written so that a NaN fails)."""
    if not noise.pmf:
        return [f"noise {noise.name}: empty pmf"]
    out = []
    total = sum(noise.pmf.values())
    if not abs(total - 1.0) <= PROB_TOL:
        out.append(f"noise {noise.name}: pmf sums to {total!r}")
    for level, p in noise.pmf.items():
        if not math.isfinite(p):
            out.append(f"noise {noise.name}: non-finite probability at level {level}")
        elif p < 0:
            out.append(f"noise {noise.name}: negative probability at level {level}")
    return out


def _validate_shape(s: Structure) -> list[str]:
    out: list[str] = []
    rules = _SHAPE_PARENT_RULES[s.shape]
    role_of = {v.name: v.role for v in s.variables}
    for t in s.tables:
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
    if s.shape == "separable":
        out.extend(_validate_separable_determinism(s))
    return out


def _validate_separable_determinism(s: Structure) -> list[str]:
    # The A->N and A->O links must be deterministic identities.
    out: list[str] = []
    for role in (ROLE_SEP_MEDIATOR_PATH, ROLE_SEP_DIRECT_PATH):
        name = s._single(role)
        if name is None:
            continue
        t = s.table_for(name)
        if t.parents != (s._single(ROLE_EXPOSURE),):
            out.append(f"separable component {name} must have the exposure as sole parent")
            continue
        for (pv, _e), value in t.table.items():
            if value != pv[0]:
                out.append(f"separable component {name} is not a deterministic copy of the exposure")
                break
    return out


def _one_world_violations(spec: FfrcistgSpec) -> list[str]:
    # For each (a', m) the single-world set {A, M(a'), Y(a',m)} must be
    # mutually independent; cross-world sets are deliberately unconstrained.
    # Each mass table is one np.bincount over the atoms' value codes, which
    # adds the masses in atom order, so every sum is the running sum an
    # atom-by-atom scan gives; the first failing cell is reported, in
    # itertools.product order over each coordinate's sorted values.
    idx = spec.label_index()
    codes = spec.structure.atom_codes
    masses = np.array(spec.masses, dtype=float)
    sets = [(ap, m, [codes[idx[label]] for label in ("A", f"M({ap})", f"Y({ap},{m})")])
            for ap in spec.exposure_levels for m in spec.m_support]
    with np.errstate(invalid="ignore", over="ignore"):   # silent, as float arithmetic is
        for ap, m, ((va, ca), (vm, cm), (vy, cy)) in sets:
            shape = (va.size, vm.size, vy.size)
            joint = np.bincount((ca * vm.size + cm) * vy.size + cy, weights=masses,
                                minlength=math.prod(shape)).reshape(shape)
            pa, pm, py = (np.bincount(c, weights=masses, minlength=v.size)
                          for v, c in ((va, ca), (vm, cm), (vy, cy)))
            dev = np.abs(joint - pa[:, None, None] * pm[:, None] * py)
            bad = np.flatnonzero(dev > PROB_TOL)
            if bad.size:
                i, j, k = np.unravel_index(bad[0], shape)
                return [f"one-world independence fails for (a'={ap}, m={m}) "
                        f"at cell {(int(va[i]), int(vm[j]), int(vy[k]))} "
                        f"(deviation {dev.flat[bad[0]]:.3e})"]
    return []


def _require_valid(model: Model, context: str | None = None) -> Model:
    """The model, if validate accepts it, else DomainError("[<context>: ]
    invalid model: [...]"): the gate of every factory and reader."""
    if model.violations:
        where = f"{context}: " if context else ""
        raise DomainError(f"{where}invalid model: {list(model.violations)}")
    return model


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def scm_to_dict(scm: Scm) -> dict:
    if not isinstance(scm, Scm):   # a counterfactual joint has no structural tables
        raise DomainError(f"{type(scm).__name__}: model files hold only structural (Scm) models")
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


def _level(x) -> int:
    """An integer-coded level of a model document; int() alone would
    truncate 0.5 to a valid level."""
    level = int(x)
    if level != x:
        raise ValueError(f"level {x!r} is not an integer")
    return level


def _parent_names(names) -> tuple[str, ...]:
    """A document's list of parent names; tuple() of a string would read
    its characters as names."""
    if isinstance(names, str):
        raise ValueError(f"parents {names!r} are a string, not a list of names")
    return tuple(names)


def _table_rows(table: dict) -> dict:
    """A document table's rows keyed (parents, noise); a key given twice is
    malformed, as a dict would silently keep the last of its values."""
    rows = {}
    for row in table["rows"]:
        key = tuple(_level(x) for x in row["parents"]), _level(row["noise"])
        if key in rows:
            raise ValueError(f"table for {table['variable']}: row {key} given twice")
        rows[key] = _level(row["value"])
    return rows


def scm_from_dict(doc: dict) -> Scm:
    try:
        variables = tuple(
            VariableSpec(v["name"], tuple(_level(x) for x in v["support"]), v["role"])
            for v in doc["variables"]
        )
        noise = tuple(
            NoiseSpec(n["name"], {int(k): float(v) for k, v in n["pmf"].items()})
            for n in doc["noise"]
        )
        tables = tuple(
            StructuralTable(t["variable"], _parent_names(t["parents"]), t["noise"], _table_rows(t))
            for t in doc["tables"]
        )
        exposure = tuple(_level(x) for x in doc["exposure_levels"])
        if len(exposure) != 2:
            raise ValueError("exposure_levels must have exactly two entries")
        declared = {name: _parent_names(parents)
                    for name, parents in doc.get("edges", {}).items()}
        scm = Scm.of(variables, noise, tables, (exposure[0], exposure[1]))
    # int(inf) overflows; a list, string or number in place of an object has no items()
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed SCM document: {exc}") from exc
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
    """Tabulate fn(*parent_values, noise_level) over the full domain, as a
    read-only mapping (the family factories share their tables)."""
    rows = {}
    for pv in itertools.product(*parent_supports):
        for e in noise_levels:
            rows[(pv, e)] = int(fn(*pv, e))
    noise_name = f"eps_{variable}"
    return StructuralTable(variable, parents, noise_name, MappingProxyType(rows))


def _check_number(value, name: str) -> None:
    """A factory parameter is an int or a float, Python's or numpy's (a bool
    is neither)."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise DomainError(f"{name} must be an int or a float, got {type(value).__name__}")


def _check_open_unit(value: float, name: str) -> None:
    _check_number(value, name)
    if not (0.0 < value < 1.0):
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def _check_simplex(values: tuple[float, ...], name: str) -> None:
    for v in values:
        _check_number(v, f"each of {name}")
    if any(v < 0.0 or v > 1.0 for v in values):
        raise DomainError(f"{name} components must lie in [0, 1], got {values!r}")
    if abs(sum(values) - 1.0) > PROB_TOL:
        raise DomainError(f"{name} must sum to 1 within {PROB_TOL}, got {values!r}")


# ---------------------------------------------------------------------------
# Counterexample factories
# ---------------------------------------------------------------------------


def _validated(variables, tables, noise, context: str) -> Structure:
    """The structure of Scm.of(variables, noise, tables, (0, 1)), once validate
    accepts that model in full: a family's structure, built and validated
    once per process (each table read-only), whose models differ only in
    their noise masses and check only those (Structure.model)."""
    return _require_valid(Scm.of(variables, noise, tables, (0, 1)), context).structure


def _thm1_noise(pi: float, beta: float) -> tuple[NoiseSpec, ...]:
    return (
        _bernoulli("eps_A", 0.5),
        NoiseSpec("eps_L", {0: 1.0 - pi, 1: pi}),
        NoiseSpec("eps_M", {0: 1.0 - beta, 1: beta}),
        _point_mass("eps_Y"),
    )


@cache
def _thm1_structure() -> Structure:
    b = (0, 1)
    variables = (
        VariableSpec("A", b, ROLE_EXPOSURE),
        VariableSpec("L", b, ROLE_INDUCED),
        VariableSpec("M", b, ROLE_MEDIATOR),
        VariableSpec("Y", b, ROLE_OUTCOME),
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
    return _validated(variables, tables, _thm1_noise(0.5, 0.5), "thm1_counterexample")


def thm1_counterexample(pi: float, beta: float) -> Scm:
    """Exposure-induced-confounder model in which the sharper null holds yet
    the randomized indirect contrast equals pi*(1-pi)*(2*beta-1).

    A = eps_A; L = A*eps_L + (1-A)*(1-eps_L);
    M = (A+L-AL)*eps_M + (1-A)(1-L)(1-eps_M); Y = (1-A)LM + A(L+M-LM).
    """
    _check_open_unit(pi, "pi")
    _check_open_unit(beta, "beta")
    return _thm1_structure().model(_thm1_noise(pi, beta), "thm1_counterexample")


def _thm2_noise(pi0: float, pi1: float, pi2: float, beta: float) -> tuple[NoiseSpec, ...]:
    return (
        _bernoulli("eps_A", 0.5),
        NoiseSpec("eps_L", {0: pi0, 1: pi1, 2: pi2}),
        NoiseSpec("eps_M", {0: 1.0 - beta, 1: beta}),
        _point_mass("eps_Y"),
    )


@cache
def _thm2_structure() -> Structure:
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
    tables = (
        _table("A", (), (), (0, 1), lambda e: e),
        _table("L", ("A",), (b,), (0, 1, 2), l_fn),
        _table("M", ("A", "L"), (b, l_sup), (0, 1), m_fn),
        _table("Y", ("A", "L", "M"), (b, l_sup, b), (0,), y_fn),
    )
    return _validated(variables, tables, _thm2_noise(0.25, 0.25, 0.5, 0.5),
                      "thm2_counterexample")


def thm2_counterexample(pi0: float, pi1: float, pi2: float, beta: float) -> Scm:
    """Three-level-L extension of the thm1 model under which mediational
    monotonicity holds while the randomized indirect contrast,
    (1-pi1)*(pi1*(2*beta-1) + pi2), can be negative.

    A = eps_A with eps_A ~ Bernoulli(1/2); eps_M ~ Bernoulli(beta); eps_L
    takes 0, 1, 2 with masses pi0, pi1, pi2 and
    L = (1-A)[eps_L=0] + A[eps_L=1] + 2[eps_L=2];
    M = (A+L-AL)*eps_M + (1-A)(1-L)(1-eps_M) if L != 2, else A;
    Y = (1-A)LM + A(L+M-LM) if L != 2, else M.

    The randomized draw of M from the law of M(a') is independent of
    Y(1, .) and M is binary, so the contrast factors as d*p: the mediator's
    effect d = E[Y(1,1) - Y(1,0)] = 1 - pi1 times the shift in its law
    p = P(M(1)=1) - P(M(0)=1) = pi1*(2*beta-1) + pi2.
    """
    _check_simplex((pi0, pi1, pi2), "(pi0, pi1, pi2)")
    _check_open_unit(beta, "beta")
    return _thm2_structure().model(_thm2_noise(pi0, pi1, pi2, beta), "thm2_counterexample")


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
    structure = _thm3_structure(m_support, (a_star, a), tuple(joint))
    assert structure.labels == spec_labels
    return structure.model(tuple(joint.values()), "thm3_counterexample")


@lru_cache(maxsize=16)
def _thm3_structure(m_support, exposure_levels, atoms) -> Structure:
    """t3's structure over these atoms, which depend only on which of its
    masses are zero, so that its points share one."""
    return Structure.of_joint(m_support, exposure_levels, atoms)


def _pe_noise(p: float) -> tuple[NoiseSpec, ...]:
    return (
        _bernoulli("eps_A", 0.5),
        NoiseSpec("eps_M", {0: 1.0 - p, 1: p}),
        _point_mass("eps_Y"),
    )


@cache
def _pe_structure() -> Structure:
    b = (0, 1)
    variables = (
        VariableSpec("A", b, ROLE_EXPOSURE),
        VariableSpec("M", b, ROLE_MEDIATOR),
        VariableSpec("Y", b, ROLE_OUTCOME),
    )
    tables = (
        _table("A", (), (), (0, 1), lambda e: e),
        # shared noise across arms: the table ignores A entirely
        _table("M", ("A",), (b,), (0, 1), lambda _a, e: e),
        _table("Y", ("A", "M"), (b, b), (0,), lambda a, m, _e: a * m),
    )
    return _validated(variables, tables, _pe_noise(0.5), "pe_counterexample")


def pe_counterexample(p: float) -> Scm:
    """No-L model where A never affects M yet the portion eliminated is
    nonzero: M(a) = M(a*) = eps_M ~ Bernoulli(p) and Y = A*M.
    """
    _check_open_unit(p, "p")
    return _pe_structure().model(_pe_noise(p), "pe_counterexample")


def _node(name: str, support: tuple[int, ...], role: str, pmf: Mapping[int, float],
          table: StructuralTable) -> tuple[VariableSpec, NoiseSpec, StructuralTable]:
    """One variable of a built model, with its noise law eps_<name> and its table."""
    return VariableSpec(name, tuple(support), role), NoiseSpec(f"eps_{name}", dict(pmf)), table


def _covariate(support: tuple[int, ...] | None, pmf: Mapping[int, float] | None) -> tuple:
    """The nodes [C1 = eps_C1], and the parents and parent supports C1 adds
    to the variables below it; none of them when support is None."""
    if support is None:
        return [], (), ()
    table = _table("C1", (), (), tuple(sorted(pmf)), lambda e: e)
    return [_node("C1", support, ROLE_COVARIATE, pmf, table)], ("C1",), (tuple(support),)


def _exposure(a_p: float) -> tuple[VariableSpec, NoiseSpec, StructuralTable]:
    """The node A = eps_A with eps_A ~ Bernoulli(a_p)."""
    return _node("A", (0, 1), ROLE_EXPOSURE, _bernoulli("eps_A", a_p).pmf,
                 _table("A", (), (), (0, 1), lambda e: e))


def _built(nodes: list, context: str) -> Scm:
    """The model of the nodes, in order, once validate accepts it."""
    variables, noise, tables = zip(*nodes)
    return _require_valid(Scm.of(variables, noise, tables, (0, 1)), context)


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
    if c_support is not None and c_pmf is None:
        raise DomainError("c_pmf is required when c_support is given")
    nodes, c_parents, _ = _covariate(c_support, c_pmf)
    nodes += [
        _exposure(a_p),
        _node("N", b, ROLE_SEP_MEDIATOR_PATH, {0: 1.0}, _table("N", ("A",), (b,), (0,), lambda a, _e: a)),
        _node("O", b, ROLE_SEP_DIRECT_PATH, {0: 1.0}, _table("O", ("A",), (b,), (0,), lambda a, _e: a)),
        _node("M", m_support, ROLE_MEDIATOR, m_noise_pmf,
              StructuralTable("M", c_parents + ("N",), "eps_M", dict(m_table))),
        _node("Y", y_support, ROLE_OUTCOME, y_noise_pmf,
              StructuralTable("Y", c_parents + ("O", "M"), "eps_Y", dict(y_table))),
    ]
    return _built(nodes, "separable_scm")


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
    has_l = l_support is not None
    if c_support is not None and c_pmf is None:
        raise DomainError("c_pmf is required when c_support is given")
    if has_l and (l_table is None or l_noise_pmf is None):
        raise DomainError("l_table and l_noise_pmf are required when l_support is given")

    nodes, c_parents, c_sup = _covariate(c_support, c_pmf)
    nodes.append(_exposure(a_p))
    l_parent: tuple[str, ...] = ()
    l_sup: tuple[tuple[int, ...], ...] = ()
    if has_l:
        l_parent = ("L",)
        l_sup = (tuple(l_support),)
        nodes.append(_node("L", l_support, ROLE_INDUCED, l_noise_pmf,
                           StructuralTable("L", c_parents + ("A",), "eps_L", dict(l_table))))
    nodes.append(_node("M", m_support, ROLE_MEDIATOR, m_noise_pmf,
                       StructuralTable("M", c_parents + ("A",) + l_parent, "eps_M", dict(m_table))))

    rows = {}
    parent_supports = c_sup + (b,) + l_sup + (tuple(m_support),)
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
    y_parents = c_parents + ("A",) + l_parent + ("M",)
    nodes.append(_node("Y", b, ROLE_OUTCOME, {e: 1.0 / denom for e in range(denom)},
                       StructuralTable("Y", y_parents, "eps_Y", rows)))
    return _built(nodes, "additive_outcome_scm")


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


def _random_table(
    rng: random.Random,
    variable: str,
    parents: tuple[str, ...],
    parent_supports: tuple[tuple[int, ...], ...],
    support: tuple[int, ...],
    n_noise: int,
) -> StructuralTable:
    """Random total table whose every parent-stratum column covers the full
    support, so all downstream conditionals stay strictly positive: per
    stratum, the support shuffled, then n_noise - len(support) draws from
    it. These are what rng.shuffle and rng.choice return: each index below n
    is rng.getrandbits(n.bit_length()), drawn again until it is below n, as
    CPython's Random._randbelow_with_getrandbits does (n = 1 draws bits too)."""
    getrandbits = rng.getrandbits
    # (position, positions to pick from, bits) of each shuffle step
    swaps = [(i, i + 1, (i + 1).bit_length()) for i in range(len(support) - 1, 0, -1)]
    n, k = len(support), len(support).bit_length()
    extra = range(n_noise - n)
    strata = list(itertools.product(*parent_supports))
    values = []
    for _ in strata:
        col = list(support)
        for i, below, bits in swaps:
            j = getrandbits(bits)
            while j >= below:
                j = getrandbits(bits)
            col[i], col[j] = col[j], col[i]
        for _ in extra:
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            col.append(support[j])
        values += col
    keys = itertools.product(strata, range(n_noise))
    return StructuralTable(variable, parents, f"eps_{variable}", dict(zip(keys, values)))


def _random_node(rng: random.Random, name: str, role: str, parents: tuple[str, ...],
                 parent_supports: tuple[tuple[int, ...], ...], support: tuple[int, ...],
                 n_noise: int) -> tuple[VariableSpec, NoiseSpec, StructuralTable]:
    """A node with a random noise law over n_noise levels, drawn first, and
    a random table (see _random_table)."""
    return _node(name, support, role, _random_pmf(rng, tuple(range(n_noise))),
                 _random_table(rng, name, parents, parent_supports, support, n_noise))


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
    c_sup = tuple(range(c_levels))
    if with_c:
        nodes, c_parents, c_sups = _covariate(c_sup, _random_pmf(rng, c_sup))
    else:
        nodes, c_parents, c_sups = _covariate(None, None)
    nodes.append(_random_node(rng, "A", ROLE_EXPOSURE, c_parents, c_sups, b, 3))
    m_parents, m_sups = c_parents + ("A",), c_sups + (b,)
    y_parents, y_sups = m_parents, m_sups
    if shape == "confounded":
        l_sup = tuple(range(l_levels))
        nodes.append(_random_node(rng, "L", ROLE_INDUCED, m_parents, m_sups, l_sup, l_levels + 1))
        if "M" in l_affects:
            m_parents, m_sups = m_parents + ("L",), m_sups + (l_sup,)
        if "Y" in l_affects:
            y_parents, y_sups = y_parents + ("L",), y_sups + (l_sup,)
    m_sup = tuple(range(m_levels))
    nodes.append(_random_node(rng, "M", ROLE_MEDIATOR, m_parents, m_sups, m_sup, m_levels + 1))
    nodes.append(_random_node(rng, "Y", ROLE_OUTCOME, y_parents + ("M",), y_sups + (m_sup,),
                              tuple(range(y_levels)), y_levels + 1))
    return _built(nodes, "random_scm")


def random_additive_scm(seed: int, shape: str = "basic", *, with_c: bool = False) -> Scm:
    """Seeded random instance with a mean-additive outcome (see
    additive_outcome_scm); f and g components are drawn as small integers."""
    if shape not in ("basic", "confounded"):
        raise DomainError(f"unsupported additive shape {shape!r}")
    rng = _rng("additive", shape, seed, with_c)
    b = (0, 1)
    c_support = b if with_c else None
    c_pmf = _random_pmf(rng, b) if with_c else None
    c_parents, c_sups = (("C1",), (b,)) if with_c else ((), ())
    m_sup = (0, 1)
    am = ("A", "L") if shape == "confounded" else ("A",)   # the parents of M besides C1

    l_kwargs: dict = {}
    if shape == "confounded":
        l_tab = _random_table(rng, "L", c_parents + ("A",), c_sups + (b,), b, 3)
        l_kwargs = {
            "l_support": b,
            "l_noise_pmf": _random_pmf(rng, (0, 1, 2)),
            "l_table": dict(l_tab.table),
        }
    m_tab = _random_table(rng, "M", c_parents + am, c_sups + (b,) * len(am), m_sup, 3)

    c_vals = list(itertools.product(*c_sups))
    f = {cv + (m,): rng.randint(0, 3) for cv in c_vals for m in m_sup}
    g = {cv + al: rng.randint(0, 4) for cv in c_vals for al in itertools.product(b, repeat=len(am))}

    return additive_outcome_scm(
        f=f,
        g=g,
        denom=8,
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
    c_support = b if with_c else None
    c_pmf = _random_pmf(rng, b) if with_c else None
    c_parents, c_sups = (("C1",), (b,)) if with_c else ((), ())
    m_sup = tuple(range(m_levels))
    n_m = m_levels + 1
    m_tab = _random_table(rng, "M", c_parents + ("N",), c_sups + (b,), m_sup, n_m)
    y_tab = _random_table(rng, "Y", c_parents + ("O", "M"), c_sups + (b, m_sup), b, 3)
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
    if with_c:
        nodes, c_parents, c_sups = _covariate(b, _random_pmf(rng, b))
    else:
        nodes, c_parents, c_sups = _covariate(None, None)
    nodes.append(_random_node(rng, "A", ROLE_EXPOSURE, c_parents, c_sups, b, 3))
    nodes.append(_random_node(rng, "M", ROLE_MEDIATOR, c_parents, c_sups, b, 3))

    # per (c, eps_Y): the four values (y(a*,0), y(a*,1), y(a,0), y(a,1)) must
    # not be constant in m within both arms simultaneously
    valid = [
        combo
        for combo in itertools.product(b, repeat=4)
        if combo[0] != combo[1] or combo[2] != combo[3]
    ]
    n_y = 3
    rows = {}
    for cv in itertools.product(*c_sups):
        for e in range(n_y):
            y00, y01, y10, y11 = rng.choice(valid)
            rows[(cv + (0, 0), e)] = y00
            rows[(cv + (0, 1), e)] = y01
            rows[(cv + (1, 0), e)] = y10
            rows[(cv + (1, 1), e)] = y11
    nodes.append(_node("Y", b, ROLE_OUTCOME, _random_pmf(rng, tuple(range(n_y))),
                       StructuralTable("Y", c_parents + ("A", "M"), "eps_Y", rows)))
    return _built(nodes, "random_null_mediator_scm")
