"""Exhaustive enumeration of exogenous noise and exact counterfactual means.

Every quantity downstream (effect measures, identification functionals,
criterion checks) is a finite weighted sum over the units produced here, so
this module is the single source of ground truth.

profiles() holds every counterfactual coordinate of every unit as numpy
columns (Profiles), filled by the model's vectorised solver (Scm.grid or
FfrcistgSpec.grid). enumerate_units, evaluate and nested_outcome work one unit
at a time and are the reference the columns are tested against.

The sums over units are vectorised but keep the scalar order: grouped sums
use np.bincount, which adds each group's terms in unit order; population sums
use unit_sum, a running sum; sums over mediator levels and strata run in the
same order as the per-unit loops they replace. Results are bitwise identical
from run to run, and on Python 3.11 to those loops (later versions compensate
the built-in sum the loops used).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import DegenerateStratumError, DomainError, EnumerationSizeError, ShapeError
from .model import Model, level_positions

DEFAULT_UNIT_CAP = 10**8

# profiles() refuses a model whose profile columns would need more bytes
PROFILE_BYTE_BUDGET = 2**30

COND_C = "C"
COND_C_L_OBSERVED = "C,L"
COND_C_L_DRAW = "C,L(a_draw)"


@dataclass(frozen=True)
class Unit:
    """One joint exogenous-noise configuration (or counterfactual atom) with
    its probability mass; zero-mass configurations are never retained."""

    noise_assignment: Mapping[str, int]
    weight: float


@dataclass(frozen=True)
class Intervention:
    """A partial do-assignment of variables to levels."""

    fixed: Mapping[str, int]


@dataclass(frozen=True)
class World:
    """A total variable assignment produced under an intervention regime."""

    assignment: Mapping[str, int]
    regime: Intervention


def _fixed(iv: Intervention | Mapping[str, int] | None) -> Mapping[str, int]:
    if iv is None:
        return {}
    if isinstance(iv, Intervention):
        return iv.fixed
    return iv


# ---------------------------------------------------------------------------
# Enumeration and evaluation (the per-unit reference)
# ---------------------------------------------------------------------------


def enumerate_units(model: Model, cap: int = DEFAULT_UNIT_CAP) -> list[Unit]:
    """Cartesian product of noise supports with product weights (or the atoms
    of an explicit counterfactual joint); total weight is 1."""
    return [Unit(assignment, w) for assignment, w in model.units(cap)]


def evaluate(model: Model, unit: Unit, iv: Intervention | Mapping[str, int] | None = None) -> World:
    """Topological evaluation of the structural tables under an intervention;
    intervened variables bypass their tables. Deterministic given (unit, iv)."""
    fixed = _fixed(iv)
    return World(model.solve(unit.noise_assignment, fixed), Intervention(dict(fixed)))


def nested_outcome(model: Model, unit: Unit, a_outer: int, a_inner: int) -> int:
    """Y under exposure a_outer with the mediator held at the value it takes
    under exposure a_inner; equals Y(a_outer) when the two arms coincide."""
    m_name, y_name, a_name = model.mediator_name, model.outcome_name, model.exposure_name
    m_dagger = evaluate(model, unit, {a_name: a_inner}).assignment[m_name]
    return evaluate(model, unit, {a_name: a_outer, m_name: m_dagger}).assignment[y_name]


# ---------------------------------------------------------------------------
# Per-unit counterfactual profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitProfile:
    """All counterfactual coordinates of one unit, as plain Python values."""

    weight: float
    c: tuple[int, ...]
    a: int
    l: int | None
    m: int
    y: int
    l_cf: Mapping[int, int] | None          # arm -> L(a')
    m_cf: Mapping[int, int]                 # arm -> M(a')
    y_cf: Mapping[tuple[int, int], int]     # (arm, m) -> Y(a', m)
    y_mfix: Mapping[int, int]               # m -> Y under do(M=m) only

    def nested(self, a_outer: int, a_inner: int) -> int:
        return self.y_cf[(a_outer, self.m_cf[a_inner])]


@dataclass(frozen=True, eq=False)
class Profiles:
    """Every counterfactual coordinate of every positive-weight unit, one
    numpy column per coordinate, units in enumeration order.

    Arm-indexed rows follow arms = (a*, a) and mediator-indexed rows follow
    m_levels, the model's mediator support. c has one column per covariate;
    stratum numbers the distinct covariate rows in order of first occurrence
    and stratum_first holds the first unit of each. l and l_cf are None
    without an induced confounder. Indexing or iterating yields UnitProfile
    views.
    """

    arms: tuple[int, int]
    m_levels: tuple[int, ...]
    weight: np.ndarray           # (n,)
    c: np.ndarray                # (n, covariates)
    stratum: np.ndarray          # (n,)
    stratum_first: np.ndarray    # (strata,)
    a: np.ndarray
    l: np.ndarray | None
    m: np.ndarray
    y: np.ndarray
    m_cf: np.ndarray             # (arm, n): M(a')
    l_cf: np.ndarray | None      # (arm, n): L(a')
    y_cf: np.ndarray             # (arm, m, n): Y(a', m)
    y_nested: np.ndarray         # (arm, arm, n): Y{a', M(a'')}
    y_mfix: np.ndarray           # (m, n): Y under do(M=m) only

    def __len__(self) -> int:
        return self.weight.size

    def __iter__(self) -> Iterator[UnitProfile]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> UnitProfile:
        cells = [(ap, m) for ap in self.arms for m in self.m_levels]
        return UnitProfile(
            weight=float(self.weight[i]),
            c=self.c_key(i),
            a=int(self.a[i]),
            l=None if self.l is None else int(self.l[i]),
            m=int(self.m[i]),
            y=int(self.y[i]),
            l_cf=None if self.l_cf is None else dict(zip(self.arms, self.l_cf[:, i].tolist())),
            m_cf=dict(zip(self.arms, self.m_cf[:, i].tolist())),
            y_cf=dict(zip(cells, self.y_cf[:, :, i].ravel().tolist())),
            y_mfix=dict(zip(self.m_levels, self.y_mfix[:, i].tolist())),
        )

    def c_key(self, i: int) -> tuple[int, ...]:
        """Covariate values of unit i."""
        return tuple(self.c[i].tolist())

    def arm(self, a: int) -> int:
        """Row of exposure level a in the arm-indexed columns."""
        if a not in self.arms:
            raise DomainError(f"exposure level {a} is not one of the arms {self.arms}")
        return self.arms.index(a)

    def y_at(self, a: int, m: int) -> np.ndarray:
        """Y(a, m) of every unit."""
        if m not in self.m_levels:
            raise DomainError(f"mediator level {m} outside support")
        return self.y_cf[self.arm(a), self.m_levels.index(m)]

    def nested(self, a_outer: int, a_inner: int) -> np.ndarray:
        """Y{a_outer, M(a_inner)} of every unit."""
        return self.y_nested[self.arm(a_outer), self.arm(a_inner)]


def unit_sum(terms: np.ndarray) -> float:
    """Sum of per-unit terms in unit order (np.sum would reassociate)."""
    return float(np.cumsum(terms)[-1])


def group_ids(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of the columns in order of first occurrence:
    the group of every unit, and the first unit of every group."""
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


@lru_cache(maxsize=32)
def profiles(model: Model) -> Profiles:
    """Enumerate units and compute every counterfactual coordinate once.

    Raises EnumerationSizeError, before allocating, when the columns would
    exceed PROFILE_BYTE_BUDGET bytes.
    """
    arms, levels = model.exposure_levels, model.m_support
    c_names, a_name, l_name = model.covariate_names, model.exposure_name, model.induced_name
    m_name, y_name = model.mediator_name, model.outcome_name
    # weight, stratum, a, m, y, c..., l and l_cf, m_cf, y_nested, y_cf and y_mfix
    columns = 5 + len(c_names) + (3 if l_name else 0) + 2 + 4 + 3 * len(levels)
    need = model.grid_size * columns * 8
    if need > PROFILE_BYTE_BUDGET:
        raise EnumerationSizeError(
            f"profile arrays need {need} bytes ({model.grid_size} units x {columns} "
            f"columns), over the {PROFILE_BYTE_BUDGET}-byte budget"
        )
    weight, solve = model.grid()
    n = weight.size
    if n == 0:
        raise DomainError("the model has no positive-probability unit")
    factual = solve({})
    m_cf = np.empty((2, n), dtype=np.int64)
    l_cf = np.empty((2, n), dtype=np.int64) if l_name else None
    y_cf = np.empty((2, len(levels), n), dtype=np.int64)
    y_mfix = np.empty((len(levels), n), dtype=np.int64)
    for i, ap in enumerate(arms):
        world = solve({a_name: ap})
        m_cf[i] = world[m_name]
        if l_name:
            l_cf[i] = world[l_name]
        for j, m in enumerate(levels):
            y_cf[i, j] = solve({a_name: ap, m_name: m})[y_name]
    for j, m in enumerate(levels):
        y_mfix[j] = solve({m_name: m})[y_name]
    m_pos = level_positions(m_cf, levels)
    y_nested = np.stack([np.take_along_axis(y_cf[i], m_pos, axis=0) for i in range(2)])
    if c_names:
        c = np.stack([factual[name] for name in c_names], axis=1)
        stratum, stratum_first = group_ids(*c.T)
    else:
        c = np.zeros((n, 0), dtype=np.int64)
        stratum, stratum_first = np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64)
    return Profiles(
        arms=arms,
        m_levels=levels,
        weight=weight,
        c=c,
        stratum=stratum,
        stratum_first=stratum_first,
        a=factual[a_name],
        l=factual[l_name] if l_name else None,
        m=factual[m_name],
        y=factual[y_name],
        m_cf=m_cf,
        l_cf=l_cf,
        y_cf=y_cf,
        y_nested=y_nested,
        y_mfix=y_mfix,
    )


# ---------------------------------------------------------------------------
# Observational law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservedLaw:
    """Exact or empirical joint pmf over the factual variables.

    Keys are (c_tuple, a, l, m, y) with c_tuple empty when there are no
    covariates and l None when the graph has no induced confounder. This is
    the only object identification functionals are allowed to consume.
    """

    pmf: Mapping[tuple, float]
    c_names: tuple[str, ...]
    c_supports: tuple[tuple[int, ...], ...]
    a_support: tuple[int, ...]
    l_support: tuple[int, ...] | None
    m_support: tuple[int, ...]
    y_support: tuple[int, ...]
    exposure_levels: tuple[int, int]

    @property
    def has_l(self) -> bool:
        return self.l_support is not None

    @property
    def a_star(self) -> int:
        return self.exposure_levels[0]

    @property
    def a(self) -> int:
        return self.exposure_levels[1]

    def total(self) -> float:
        return sum(self.pmf.values())

    def cells(self) -> Iterable[tuple[tuple, float]]:
        return self.pmf.items()

    def c_strata(self) -> list[tuple[tuple[int, ...], float]]:
        acc: dict[tuple[int, ...], float] = {}
        for (c, _a, _l, _m, _y), w in self.pmf.items():
            acc[c] = acc.get(c, 0.0) + w
        return list(acc.items())

    def _match(self, key: tuple, c, a, l, m) -> bool:
        kc, ka, kl, km, _ky = key
        if c is not None and kc != c:
            return False
        if a is not None and ka != a:
            return False
        if l is not None and kl != l:
            return False
        if m is not None and km != m:
            return False
        return True

    def prob(self, *, c=None, a=None, l=None, m=None) -> float:
        return sum(w for key, w in self.pmf.items() if self._match(key, c, a, l, m))

    def cond_prob(self, *, of: dict, given: dict) -> float:
        denom = self.prob(**given)
        if denom <= 0.0:
            raise DegenerateStratumError(repr(given))
        return self.prob(**{**given, **of}) / denom

    def mean_y(self, *, c=None, a=None, l=None, m=None) -> float:
        denom = 0.0
        num = 0.0
        for key, w in self.pmf.items():
            if self._match(key, c, a, l, m):
                denom += w
                num += w * key[4]
        if denom <= 0.0:
            raise DegenerateStratumError(
                f"E(Y | c={c!r}, a={a!r}, l={l!r}, m={m!r})"
            )
        return num / denom


def law_cells(p: Profiles) -> tuple[np.ndarray, np.ndarray]:
    """Observed cell (c, a, l, m, y) of every unit and the first unit of each
    cell, cells numbered in order of first occurrence."""
    factual = (p.stratum, p.a) + ((p.l,) if p.l is not None else ()) + (p.m, p.y)
    return group_ids(*factual)


def observational_law(model: Model) -> ObservedLaw:
    """Pushforward of unit weights through factual evaluation; exact pmf.
    Cells are keyed in order of first occurrence and each cell's mass is
    summed in unit order."""
    p = profiles(model)
    cell, first = law_cells(p)
    mass = np.bincount(cell, weights=p.weight)
    l_values = p.l[first].tolist() if p.l is not None else [None] * first.size
    keys = zip(
        map(tuple, p.c[first].tolist()),
        p.a[first].tolist(),
        l_values,
        p.m[first].tolist(),
        p.y[first].tolist(),
    )
    c_names = model.covariate_names
    return ObservedLaw(
        pmf=dict(zip(keys, mass.tolist())),
        c_names=c_names,
        c_supports=tuple(model.var(c).support for c in c_names),
        a_support=model.var(model.exposure_name).support,
        l_support=model.var(model.induced_name).support if model.has_l else None,
        m_support=model.m_support,
        y_support=model.var(model.outcome_name).support,
        exposure_levels=model.exposure_levels,
    )


# ---------------------------------------------------------------------------
# Randomized-draw means
# ---------------------------------------------------------------------------


def _stratified_draw(
    p: Profiles,
    strata: tuple[np.ndarray, np.ndarray],
    draw_m: np.ndarray,
    out_y: np.ndarray,
    arms: tuple[int, int] | None = None,
    describe: Callable[[int], str] | None = None,
    out_role: str = "outcome",
) -> float:
    """Mean outcome when, within each stratum, the mediator is set to a draw
    from the stratum's law of draw_m and the outcome at mediator level
    m_levels[j] is out_y[j].

    strata is (stratum of every unit, first unit of every stratum). With
    arms = (a_draw, a_out) the draw law is taken among units of exposure
    a_draw and the outcome mean among units of exposure a_out, each
    normalised within the stratum, and an empty arm raises
    DegenerateStratumError naming describe(first unit of the stratum);
    otherwise the whole stratum feeds both.
    """
    stratum, first = strata
    n_s = first.size
    w = p.weight
    w_s = np.bincount(stratum, weights=w, minlength=n_s)
    if arms is None:
        draw_w, out_w = w, w
        draw_den = out_den = np.ones(n_s)
    else:
        a_draw, a_out = arms
        draw_w, out_w = w * (p.a == a_draw), w * (p.a == a_out)
        draw_den = np.bincount(stratum, weights=draw_w, minlength=n_s)
        out_den = np.bincount(stratum, weights=out_w, minlength=n_s)
        empty = np.flatnonzero((draw_den <= 0.0) | (out_den <= 0.0))
        if empty.size:
            s = empty[0]
            where = describe(int(first[s]))
            if draw_den[s] <= 0.0:
                raise DegenerateStratumError(f"draw arm A={a_draw} within {where}")
            raise DegenerateStratumError(f"{out_role} arm A={a_out} within {where}")
    draw_share = draw_w / draw_den[stratum]
    inner = np.zeros(n_s)
    for j, m in enumerate(p.m_levels):
        draw = np.bincount(stratum, weights=draw_share * (draw_m == m), minlength=n_s)
        out = np.bincount(stratum, weights=out_w * out_y[j] / out_den[stratum], minlength=n_s)
        inner = inner + draw * out
    per_stratum = inner / w_s if arms is None else w_s * inner
    return sum(per_stratum.tolist())


def g_draw_mean(model: Model, a_set: int, a_draw: int, conditioning: str = COND_C) -> float:
    """Mean outcome under exposure a_set with the mediator set to a random
    draw from the law of the counterfactual mediator under a_draw, the draw
    being independent of the unit within each conditioning stratum.

    conditioning selects the stratification of the draw: the covariates
    alone, the covariates plus the observed confounder (in which case the
    draw law and the outcome mean each condition on their own exposure arm,
    matching the corresponding identification functional), or the covariates
    plus the counterfactual confounder under the draw arm.
    """
    p = profiles(model)
    if conditioning == COND_C:
        strata = (p.stratum, p.stratum_first)
        return _stratified_draw(p, strata, p.m_cf[p.arm(a_draw)], p.y_cf[p.arm(a_set)])
    if not model.has_l:
        raise ShapeError(f"conditioning {conditioning!r} requires an induced confounder")
    if conditioning == COND_C_L_DRAW:
        strata = group_ids(p.stratum, p.l_cf[p.arm(a_draw)])
        return _stratified_draw(p, strata, p.m_cf[p.arm(a_draw)], p.y_cf[p.arm(a_set)])
    if conditioning == COND_C_L_OBSERVED:
        return _stratified_draw(
            p,
            group_ids(p.stratum, p.l),
            p.m_cf[p.arm(a_draw)],
            p.y_cf[p.arm(a_set)],
            arms=(a_draw, a_set),
            describe=lambda u: f"(c, l)={(p.c_key(u), int(p.l[u]))!r}",
        )
    raise DomainError(f"unknown conditioning {conditioning!r}")


def h_draw_mean(model: Model, a_stratum: int, a_draw: int) -> float:
    """Mean outcome in the factual exposure stratum a_stratum when the
    mediator is set to a draw from its observed conditional law in arm
    a_draw, within covariate strata. Only the mediator is intervened on."""
    p = profiles(model)
    return _stratified_draw(
        p,
        (p.stratum, p.stratum_first),
        p.m,
        p.y_mfix,
        arms=(a_draw, a_stratum),
        describe=lambda u: f"c={p.c_key(u)!r}",
        out_role="stratum",
    )
