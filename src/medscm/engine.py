"""Exhaustive enumeration of exogenous noise and exact counterfactual means.

Every quantity downstream (effect measures, identification functionals,
criterion checks) is a finite weighted sum over the units produced here, so
this module is the single source of ground truth.

profiles() holds every counterfactual coordinate of every unit as numpy
columns (Profiles), filled by the model's grid from each unit's positions in
its mass factors. enumerate_units, evaluate and nested_outcome work one unit
at a time and are the reference the columns are tested against.

The sums over units are vectorised but keep the scalar order: grouped sums
use np.bincount, which adds each group's terms in unit order; population sums
use running_sum; sums over mediator levels and strata run in the same order
as the per-unit loops they replace. Results are bitwise identical from run to
run, and on Python 3.11 to those loops (later versions compensate the
built-in sum the loops used).

The exact effects take a block of weight rows over one structure's columns,
one row per model of that structure (the points of a family grid); a model
on its own is a block of one.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import DegenerateStratumError, DomainError, EnumerationSizeError, ShapeError
from .model import Model, _require_valid, level_positions

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

    weight is the model's own; the other columns are read-only and shared by
    every model of the same structure (see profiles). Results derived from
    the columns can be kept with once(), per profile, or, when they do not
    read the weights, with shared_once(), per structure.
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
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _shared_memo: _SharedMemo = field(repr=False)

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

    def once(self, key, compute: Callable[[], object]):
        """compute(), evaluated on the first call for each key only."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def shared_once(self, key, compute: Callable[[], object], keep: bool = True):
        """compute(), evaluated on the first call for each key among the
        profiles that share these columns; compute must not read weight.
        With keep false a result already kept is read, but none is kept."""
        if key in self._shared_memo:
            return self._shared_memo[key]
        value = compute()
        if keep:
            self._shared_memo[key] = value
        return value

    def shares_columns(self, other: Profiles) -> bool:
        """Whether other reads these very columns: the profiles of another
        model of the same structure, whose weights form a block with these."""
        return self._shared_memo is other._shared_memo

    def cl_strata(self, a_draw: int | None = None,
                  keep: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """(c, l) strata as group_ids numbers them, l the observed confounder
        or, given a_draw, L(a_draw); computed once per structure (see
        shared_once for keep)."""
        l = self.l if a_draw is None else self.l_cf[self.arm(a_draw)]
        return self.shared_once(("cl", a_draw), lambda: group_ids(self.stratum, l), keep)


def group_ids(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of the columns in order of first occurrence:
    the group of every unit, and the first unit of every group. Each
    group's first unit is one np.minimum.at over a table of row_key values."""
    n = len(columns[0])
    key, size = row_key(*columns)
    first_of = np.full(size, n, dtype=np.int64)
    np.minimum.at(first_of, key, np.arange(n))
    first = np.sort(first_of[first_of < n])
    group = np.empty(size, dtype=np.int64)
    group[key[first]] = np.arange(first.size)
    return group[key], first


def row_key(*columns: np.ndarray) -> tuple[np.ndarray, int]:
    """A key below size for every row of the int64 columns, and size: equal
    rows share a key, and keys rise with the rows' lexicographic order.

    Units are not sorted: a column whose values span at most 2n + 64 (n
    units) is its own code, value minus minimum, and only a wider one is
    coded by np.unique. The key over the columns stays below the same bound
    (np.unique renumbers it when a product passes it)."""
    n = len(columns[0])
    bound = 2 * n + 64
    key, size = np.zeros(n, dtype=np.int64), 1
    for col in columns:
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < bound:
            code, width = col - lo, hi - lo + 1
        else:
            values, code = np.unique(col, return_inverse=True)
            width = values.size
        key, size = key * width + code, size * width
        if size > bound:
            values, key = np.unique(key, return_inverse=True)   # renumber: key < n
            size = values.size
    return key, size


# the number of models whose profiles are kept (see profiles)
PROFILE_CACHE_SIZE = 4


class _SharedMemo(dict):
    """The results memoised for one column set (Profiles.shared_once), with
    the columns themselves; _structures refers to it weakly."""

    __slots__ = ("columns", "__weakref__")

    def __init__(self, columns: dict):
        super().__init__()
        self.columns = columns


_structures: weakref.WeakValueDictionary[tuple, _SharedMemo] = weakref.WeakValueDictionary()


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def profiles(model: Model) -> Profiles:
    """Enumerate units and compute every counterfactual coordinate once.

    The columns depend on the model's structure and on which noise
    configurations have positive mass, not on the masses themselves, so
    models of one Structure object (the parameter points of one family)
    that agree on which have positive mass share them, read-only; each
    model gets its own weights and memo. The profiles of the last
    PROFILE_CACHE_SIZE models are kept; a column set lives while some
    Profiles reads it, so cache_clear() frees every one nothing else holds.

    Raises DomainError("invalid model: [...]") unless validate accepts the
    model, and EnumerationSizeError, before allocating, when the columns
    would exceed PROFILE_BYTE_BUDGET bytes.
    """
    _require_valid(model)
    c_names, levels = model.covariate_names, model.m_support
    # weight, stratum, a, m, y, c..., l and l_cf, m_cf, y_nested, y_cf and y_mfix
    columns = 5 + len(c_names) + (3 if model.has_l else 0) + 2 + 4 + 3 * len(levels)
    need = model.grid_size * columns * 8
    if need > PROFILE_BYTE_BUDGET:
        raise EnumerationSizeError(
            f"profile arrays need {need} bytes ({model.grid_size} units x {columns} "
            f"columns), over the {PROFILE_BYTE_BUDGET}-byte budget"
        )
    weight = model.noise_weight()
    positive = weight > 0.0
    units = np.flatnonzero(positive)
    key = (model.structure, np.packbits(positive).tobytes())
    shared = _structures.get(key)
    if shared is None:
        shared = _structures[key] = _SharedMemo(_counterfactual_columns(model, units))
    if units.size < weight.size:   # else every configuration has mass: no copy
        weight = weight[units]
    return Profiles(weight=weight, _shared_memo=shared, **shared.columns)


_FACTUAL = (None, None)


def _counterfactual_columns(model: Model, units: np.ndarray) -> dict:
    """Every Profiles field but the weights, over the noise configurations
    units, each array read-only."""
    arms, levels = model.exposure_levels, model.m_support
    c_names, a_name, l_name = model.covariate_names, model.exposure_name, model.induced_name
    m_name, y_name = model.mediator_name, model.outcome_name
    arm_rows = [_FACTUAL] + [(ap, None) for ap in arms]
    rows = {name: [_FACTUAL] for name in c_names}
    rows[a_name] = [_FACTUAL]
    if l_name:
        rows[l_name] = arm_rows
    rows[m_name] = arm_rows
    # Y: factual, Y(a', m) arm-major, then Y under do(M=m) only
    rows[y_name] = ([_FACTUAL] + [(ap, m) for ap in arms for m in levels]
                    + [(None, m) for m in levels])
    solved = model.grid(model.unit_positions(units), rows)
    n, k = units.size, len(levels)
    m_block, y_block = solved[m_name], solved[y_name]
    y_cf = y_block[1:1 + 2 * k].reshape(2, k, n)
    m_pos = level_positions(m_block[1:], levels)
    if c_names:
        c = np.stack([solved[name][0] for name in c_names], axis=1)
        stratum, stratum_first = group_ids(*c.T)
    else:
        c = np.zeros((n, 0), dtype=np.int64)
        stratum, stratum_first = np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64)
    out = dict(
        arms=arms,
        m_levels=levels,
        c=c,
        stratum=stratum,
        stratum_first=stratum_first,
        a=solved[a_name][0],
        l=solved[l_name][0] if l_name else None,
        m=m_block[0],
        y=y_block[0],
        m_cf=m_block[1:],
        l_cf=solved[l_name][1:] if l_name else None,
        y_cf=y_cf,
        y_nested=y_cf[np.arange(2)[:, None, None], m_pos, np.arange(n)],
        y_mfix=y_block[1 + 2 * k:],
    )
    for value in out.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Observational law
# ---------------------------------------------------------------------------


def table_cells(c_cell, c_cells: int, factual, supports) -> tuple[np.ndarray, tuple[int, ...]]:
    """Flat cell of every row in an ObservedLaw mass table, and the table's
    shape: c_cell numbers each row's covariate cell (c_cells of them), and
    the A, L, M and Y columns in factual index the other axes by their
    positions in supports (L None: one slot). A table over
    PROFILE_BYTE_BUDGET bytes is an EnumerationSizeError."""
    shape = (c_cells, *(1 if s is None else len(s) for s in supports))
    if math.prod(shape) * 8 > PROFILE_BYTE_BUDGET:
        raise EnumerationSizeError(
            f"an observed-law table of {shape} cells exceeds the {PROFILE_BYTE_BUDGET}-byte budget"
        )
    pos = [0 if s is None else level_positions(v, s) for v, s in zip(factual, supports)]
    return np.ravel_multi_index([c_cell, *pos], shape), shape


_LEVELS = (list, np.ndarray)   # level (or cell) arrays; a tuple is a covariate cell

TABLE_AXES = 5                 # an ObservedLaw table: (c, a, l, m, y)

MEAN_Y_TEXT = "E(Y | c={c!r}, a={a!r}, l={l!r}, m={m!r})"


def running_sum(terms) -> np.ndarray:
    """Sums over the last axis, each a running sum from 0.0 in axis order
    (np.sum would reassociate). A running sum from the first term differs
    from it only in the sign of a zero, which adding 0.0 at the end clears."""
    terms = np.asarray(terms, dtype=float)
    if not terms.shape[-1]:
        return np.zeros(terms.shape[:-1])
    return terms.cumsum(axis=-1)[..., -1] + 0.0


def _cells(c):
    """A covariate cell (a tuple) or an array of cells as is; a sequence of
    cells as an object array, nested lists nesting axes."""
    if c is None or isinstance(c, (tuple, np.ndarray)):
        return c
    if all(isinstance(x, tuple) for x in c):
        return np.fromiter(c, dtype=object, count=len(c))
    return np.stack([_cells(x) for x in c])


def _named(values: dict) -> dict:
    return {k: _cells(v) if k == "c" else v for k, v in values.items()}


def _position(v, index: Mapping):
    """Axis position of v, elementwise over levels or cells; -1 (a zero slot)
    off the axis."""
    if not isinstance(v, _LEVELS):
        return index.get(v, -1)
    if isinstance(v, list) and not (v and isinstance(v[0], _LEVELS)):   # a flat list
        return np.array([index.get(x, -1) for x in v], dtype=np.intp)
    v = np.asarray(v)
    return np.array([index.get(x, -1) for x in v.ravel().tolist()], dtype=np.intp).reshape(v.shape)


def _require_positive(mass: np.ndarray, named: dict, describe: Callable[[dict], str],
                      where=True) -> None:
    """DegenerateStratumError describing the values in named at the first
    entry, in C order, where mass is not positive and where allows; mass and
    where broadcast, and so do the values in named against their trailing axes."""
    bad = mass <= 0.0
    if where is not True:
        bad = bad & where
    if bad.any():
        first = int(np.argmax(bad))
        at = slice(first, first + 1)
        raise DegenerateStratumError(describe({
            k: np.broadcast_to(v, bad.shape).flat[at].tolist()[0] if isinstance(v, _LEVELS) else v
            for k, v in named.items()
        }))


def _allowing(where):
    """True for a where that allows every entry (the cheaper path), else where."""
    return True if where is True or np.all(where) else where


def _divide(num: np.ndarray, denom: np.ndarray, where) -> np.ndarray:
    """num / denom where allows, 0.0 elsewhere, in the broadcast shape."""
    if where is True:
        return num / denom
    return np.divide(num, denom, out=np.zeros(np.broadcast(num, denom, where).shape), where=where)


@dataclass(frozen=True, eq=False)
class ObservedLaw:
    """Exact or empirical joint pmf over the factual variables: one dense
    mass table over (covariate cell c_cells[k], A, L, M, Y), the other axes
    indexed by the supports (L one slot without an induced confounder), and
    order, its flat cells in key order (first occurrence over units, or the
    sorted distinct rows of a dataset). pmf views the positive cells in that
    order, keyed (c_tuple, a, l, m, y), l None without a confounder.

    The table may carry a leading replicate axis, (B, C, A, L, M, Y): a batch
    of B laws over the same cells, such as bootstrap replicates. Every query
    then answers for all B laws at once along a leading axis; a single law
    answers without it, and a scalar query with a float.

    Queries read marginal tables built once per batch by one np.bincount over
    row * table cells + cell, in key order, so each sum adds the terms a scan
    of one law's pmf would, in its order. c may be one covariate tuple or a
    sequence of them, such as strata (nested lists nest axes); a, l and m may
    be lists or arrays of levels; they all broadcast. Identification
    functionals consume only this.
    """

    mass: np.ndarray
    order: np.ndarray
    c_cells: tuple[tuple[int, ...], ...]
    c_names: tuple[str, ...]
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

    @property
    def batched(self) -> bool:
        return self.mass.ndim > TABLE_AXES

    @cached_property
    def _cells(self) -> tuple:
        """Table position (c, a, l, m, y) of every cell in key order, the
        position of every level on the c, a, l and m axes, and each marginal
        table's cell of every cell, by the axes it keeps."""
        axes = (self.c_cells, self.a_support, self.l_support or (), self.m_support)
        index = tuple({v: i for i, v in enumerate(axis)} for axis in axes)
        return np.unravel_index(self.order, self.mass.shape[-TABLE_AXES:]), index, {}

    @cached_property
    def _keyed(self) -> tuple:
        """Mass and Y-weighted mass of every cell in key order, one row per
        law, and the marginal tables built so far."""
        table = self.mass.shape[-TABLE_AXES:]
        w = self.mass.reshape(-1, math.prod(table))[:, self.order]
        return w, w * np.asarray(self.y_support, dtype=float)[self._cells[0][4]], {}

    def with_mass(self, mass: np.ndarray) -> ObservedLaw:
        """The law of the same cells under another mass table of the same
        shape, or the batch of laws under a stack of them (bootstrap
        replicates), sharing the cell index."""
        table = self.mass.shape[-TABLE_AXES:]
        if np.shape(mass)[-TABLE_AXES:] != table or np.ndim(mass) not in (TABLE_AXES, TABLE_AXES + 1):
            raise ShapeError(f"a mass table of shape {np.shape(mass)}, not {table} or (B, *{table})")
        law = dataclasses.replace(self, mass=mass)
        law.__dict__["_cells"] = self._cells
        return law

    def _single(self, what: str) -> None:
        if self.batched:
            raise ShapeError(f"{what} is defined for a single law, not a batch of {len(self.mass)}")

    def _out(self, x: np.ndarray):
        """A query result without the row axis of a single law, a float
        when it is a scalar."""
        if self.batched:
            return x
        return x.item() if x.ndim == 1 else x[0]

    @cached_property
    def pmf(self) -> Mapping[tuple, float]:
        self._single("pmf")
        (w, _, _), (pos, _, _) = self._keyed, self._cells
        w = w[0]
        axes = (self.c_cells, self.a_support, self.l_support or (None,), self.m_support,
                self.y_support)
        keys = zip(*([axis[i] for i in p[w > 0.0].tolist()] for axis, p in zip(axes, pos)))
        return MappingProxyType(dict(zip(keys, w[w > 0.0].tolist())))

    def total(self) -> float:
        return sum(self.pmf.values())

    def cells(self) -> Iterable[tuple[tuple, float]]:
        return self.pmf.items()

    @cached_property
    def _stratum_order(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Table positions of the covariate cells of positive mass in some
        law, in order of first occurrence among such cells; in a batch, every
        law's order of them by first occurrence among its own positive cells,
        and whether each place in that order holds a stratum the law lacks
        (those last). A single law holds its strata in the first order."""
        (w, _, _), (pos, _, _) = self._keyed, self._cells
        positive = w > 0.0
        somewhere = positive.any(axis=0) if self.batched else positive[0]
        union = np.array(list(dict.fromkeys(pos[0][somewhere].tolist())), dtype=np.intp)
        if not self.batched:
            return union, None, None
        n = w.shape[1]
        by_c = np.argsort(pos[0], kind="stable")     # cells by covariate cell, in key order
        starts = np.flatnonzero(np.diff(pos[0][by_c], prepend=-1))
        first = np.minimum.reduceat(np.where(positive, np.arange(n), n)[:, by_c], starts, axis=1)
        first = first[:, np.searchsorted(pos[0][by_c][starts], union)]
        order = np.argsort(first, axis=1, kind="stable")
        return union, order, np.take_along_axis(first, order, axis=1) == n

    @cached_property
    def strata(self) -> np.ndarray:
        """Covariate cells of positive mass (in some law of a batch) in order
        of first occurrence among the positive cells, as a read-only array of
        cells: query them with c=strata and add over them with stratum_sum."""
        cells = np.fromiter((self.c_cells[k] for k in self._stratum_order[0].tolist()),
                            dtype=object, count=len(self._stratum_order[0]))
        cells.flags.writeable = False
        return cells

    def c_strata(self) -> list[tuple[tuple[int, ...], float]]:
        """Covariate strata of positive mass and their mass, in order of
        first occurrence among the cells."""
        self._single("c_strata")
        return list(zip(self.strata.tolist(), self.prob(c=self.strata).tolist()))

    def stratum_sum(self, terms):
        """Sum of per-stratum terms, axis 0 of a law's terms running over
        strata and any further axes in C order: each law's sum adds them in
        its own c_strata() order, a running sum from 0.0 that skips the
        strata the law lacks."""
        _, order, lacks = self._stratum_order
        rows = np.asarray(terms, dtype=float)
        if order is None:
            return running_sum(rows.ravel()).item()
        extra = (1,) * (rows.ndim - 2)
        rows = np.take_along_axis(rows, order.reshape(*order.shape, *extra), axis=1)
        rows = np.where(lacks.reshape(*lacks.shape, *extra), 0.0, rows)
        return running_sum(rows.reshape(len(rows), -1))

    def _table(self, given: tuple[bool, ...], y: bool) -> np.ndarray:
        """The marginal table of mass (y False) or Y-weighted mass (True)
        over the named (c, a, l, m) axes, one row per law; each named axis has
        a trailing zero slot for values off it."""
        built = self._keyed[2]
        if (given, y) not in built:
            (w, wy, _), (pos, _, cells_at) = self._keyed, self._cells
            if given not in cells_at:
                dims = tuple(n + 1 if g else 1 for n, g in zip(self.mass.shape[-TABLE_AXES:], given))
                at = np.ravel_multi_index([p if g else 0 for p, g in zip(pos, given)], dims)
                cells_at[given] = at if any(given) else np.zeros_like(pos[0]), dims
            at, dims = cells_at[given]
            rows, size = len(w), math.prod(dims)
            if rows > 1:
                at = (np.arange(rows)[:, None] * size + at).ravel()
            x = wy if y else w
            built[given, y] = np.bincount(at, x.ravel(), rows * size).reshape(rows, *dims)
        return built[given, y]

    def _query(self, c, a, l, m, y: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Mass of the cells matching the named values, one row per law, and
        with y their Y-weighted mass too."""
        _, (_, ia, il, im), _ = self._cells
        given = (c is not None, a is not None, l is not None, m is not None)
        at = (
            slice(None),
            0 if c is None else self._c_position(c),
            0 if a is None else _position(a, ia),
            0 if l is None else _position(l, il),
            0 if m is None else _position(m, im),
        )
        mass = self._table(given, False)[at]
        return (mass, self._table(given, True)[at]) if y else mass

    def _c_position(self, c):
        """Table position of a covariate cell, elementwise over cells; those
        of strata, or of an array that views all of it in order, are known."""
        strata = isinstance(c, np.ndarray) and (c is self.strata or c.base is self.strata)
        if strata and c.size == self.strata.size and c.flags.c_contiguous:
            return self._stratum_order[0].reshape(c.shape)
        return _position(c, self._cells[1][0])

    def _mass(self, named: dict) -> np.ndarray:
        get = named.get
        return self._query(get("c"), get("a"), get("l"), get("m"))

    def prob(self, *, c=None, a=None, l=None, m=None):
        return self._out(self._query(_cells(c), a, l, m))

    def cond_prob(self, *, of: dict, given: dict, where=True):
        """Pr(of | given); entries outside where are not checked and read
        0.0, and the result broadcasts against where."""
        where = _allowing(where)
        given = _named(given)
        denom = self._mass(given)
        _require_positive(denom, given, repr, where)
        return self._out(_divide(self._mass({**given, **_named(of)}), denom, where))

    def mean_y(self, *, c=None, a=None, l=None, m=None, where=True):
        """E(Y | the named values); entries outside where are not checked and
        read 0.0, and the result broadcasts against where."""
        where = _allowing(where)
        c = _cells(c)
        denom, num = self._query(c, a, l, m, y=True)
        _require_positive(denom, dict(c=c, a=a, l=l, m=m), lambda at: MEAN_Y_TEXT.format(**at),
                          where)
        return self._out(_divide(num, denom, where))


def law_cells(model: Model, p: Profiles,
              keep: bool = True) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Table cell of every unit (see table_cells), the first unit of each
    occupied cell in order of first occurrence, and the table's shape; once
    per structure (the supports are part of it; see shared_once for keep)."""

    def compute():
        names = (model.exposure_name, model.induced_name, model.mediator_name, model.outcome_name)
        supports = [model.var(name).support if name else None for name in names]
        cell, shape = table_cells(p.stratum, p.stratum_first.size, (p.a, p.l, p.m, p.y), supports)
        return cell, group_ids(cell)[1], shape

    return p.shared_once("law_cells", compute, keep)


def observational_law(model: Model) -> ObservedLaw:
    """Pushforward of unit weights through factual evaluation; exact pmf.
    Each cell's mass is summed in unit order, and the cells are keyed in
    order of first occurrence."""
    p = profiles(model)
    cell, first, shape = law_cells(model, p)
    return ObservedLaw(
        mass=np.bincount(cell, weights=p.weight, minlength=math.prod(shape)).reshape(shape),
        order=cell[first],
        c_cells=tuple(p.c_key(int(u)) for u in p.stratum_first),
        c_names=model.covariate_names,
        a_support=model.var(model.exposure_name).support,
        l_support=model.var(model.induced_name).support if model.has_l else None,
        m_support=model.m_support,
        y_support=model.var(model.outcome_name).support,
        exposure_levels=model.exposure_levels,
    )


# ---------------------------------------------------------------------------
# Randomized-draw means
# ---------------------------------------------------------------------------


class _DrawTables:
    """The per-stratum tables of the randomized draws over one
    stratification, under w: a model's unit weights, or a (P, units) block
    of them over p's columns, laid out as P * units virtual units, row r's
    unit u at r * units + u in stratum r * strata + stratum. Each table, and
    each arm's mass per stratum, is built on first use and kept; per-unit
    arrays are not kept, and neither is p. empty is the first stratum of no
    mass in that layout (the first row's first that has one), or None."""

    def __init__(self, p: Profiles, w: np.ndarray, strata: tuple[np.ndarray, np.ndarray]):
        stratum, self.first = strata
        n_s, a, self.levels = self.first.size, p.a, p.m_levels
        self.rows, self.size, self.k = None, n_s, len(self.levels)
        if w.ndim > 1:
            self.rows, self.size = len(w), len(w) * n_s
            stratum = (np.arange(self.rows)[:, None] * n_s + stratum).ravel()
            a, w = np.tile(a, self.rows), w.ravel()
        self.stratum, self.a, self.w = stratum, a, w
        self.w_s = np.bincount(stratum, weights=w, minlength=self.size)
        empty = np.flatnonzero(self.w_s <= 0.0)
        self.empty = int(empty[0]) if empty.size else None
        self._built: dict = {}

    def first_unit(self, s: int) -> int:
        """The first unit of stratum s of the layout (of any row)."""
        return int(self.first[s % self.first.size])

    def _tile(self, col: np.ndarray) -> np.ndarray:
        return col if self.rows is None else np.tile(col, self.rows)

    def _arm_w(self, arm: int | None) -> np.ndarray:
        """The weights of the units of exposure arm, all units for None."""
        return self.w if arm is None else self.w * (self.a == arm)

    def mass(self, arm: int) -> np.ndarray:
        """The mass of exposure arm in each stratum."""
        if ("mass", arm) not in self._built:
            self._built["mass", arm] = np.bincount(self.stratum, weights=self._arm_w(arm),
                                                   minlength=self.size)
        return self._built["mass", arm]

    def draw(self, key, draw_m: np.ndarray, arm: int | None) -> np.ndarray:
        """D[s, j], the mass of mediator level j in stratum s's law of draw_m,
        within arm and over the arm's mass there (which must be positive):
        one np.bincount over stratum * k + level position."""
        if ("draw", key, arm) not in self._built:
            share = self._arm_w(arm)
            if arm is not None:
                share = share / self.mass(arm)[self.stratum]
            bins = self.stratum * self.k + self._tile(level_positions(draw_m, self.levels))
            mass = np.bincount(bins, weights=share, minlength=self.size * self.k)
            self._built["draw", key, arm] = mass.reshape(self.size, self.k)
        return self._built["draw", key, arm]

    def outcome(self, key, out_y: np.ndarray, arm: int | None) -> np.ndarray:
        """O[s, j], the sum over stratum s of each unit's weight times out_y[j],
        its outcome at mediator level j, within arm and over the arm's mass
        there (which must be positive): one np.bincount per level."""
        if ("outcome", key, arm) not in self._built:
            arm_w = self._arm_w(arm)
            den = None if arm is None else self.mass(arm)[self.stratum]
            table = np.empty((self.size, self.k))
            for j in range(self.k):
                terms = arm_w * self._tile(out_y[j])
                table[:, j] = np.bincount(self.stratum, weights=terms if den is None else terms / den,
                                          minlength=self.size)
            self._built["outcome", key, arm] = table
        return self._built["outcome", key, arm]


def _draw_tables(p: Profiles, weight: np.ndarray | None, by,
                 strata: tuple[np.ndarray, np.ndarray]) -> _DrawTables:
    """The draw tables over the strata named by under weight; those of the
    model's own weights (weight None) are kept with its profiles."""
    if weight is None:
        return p.once(("draw tables", by), lambda: _DrawTables(p, p.weight, strata))
    return _DrawTables(p, weight, strata)


def _stratified_draw(
    tables: _DrawTables,
    draw: tuple[object, np.ndarray],
    out: tuple[object, np.ndarray],
    describe: Callable[[int], str],
    arms: tuple[int, int] | None = None,
    out_role: str = "outcome",
):
    """Mean outcome when, within each stratum, the mediator is set to a draw
    from the stratum's law of the draw column and the outcome at mediator
    level m_levels[j] is row j of the out column: one mean per row of the
    tables' weight block, a float for a model's own weights. draw and out
    are (key, column) pairs, the key naming the column among the tables.

    With arms = (a_draw, a_out) the draw law is taken among units of
    exposure a_draw and the outcome mean among units of exposure a_out, each
    normalised within the stratum; an empty arm raises DegenerateStratumError
    naming describe(first unit of the stratum), for the first row that has
    one, the draw arm first, before any table is built. Otherwise the whole
    stratum feeds both, and a stratum of no mass raises the same way.

    The mean contracts the draw table D[s, j] with the outcome table O[s, j]
    (see _DrawTables): each stratum adds D[s, j] * O[s, j] over the levels
    in order, is divided by (or, with arms, scaled by) its mass, and each
    row adds its strata in order with running_sum. The bits are those of
    the per-level loop this replaced, which summed share * (draw_m == m)
    over every unit of the stratum at every level m: D drops only the terms
    of units at another level, each +0.0, and as no share is negative no
    partial sum is -0.0, so adding +0.0 changed none. Tables are shared by
    key: the three draws behind nie_r build two draw and two outcome
    tables, and the pairs behind nie_r_L and h_contrast three each.
    """
    draw_arm, out_arm = arms or (None, None)
    if arms is None:
        if tables.empty is not None:
            where = describe(tables.first_unit(tables.empty))
            raise DegenerateStratumError(f"no mass within {where}")
    else:
        draw_den, out_den = tables.mass(draw_arm), tables.mass(out_arm)
        empty = np.flatnonzero((draw_den <= 0.0) | (out_den <= 0.0))
        if empty.size:
            s = empty[0]   # the first row that has one, then its first stratum
            where = describe(tables.first_unit(s))
            if draw_den[s] <= 0.0:
                raise DegenerateStratumError(f"draw arm A={draw_arm} within {where}")
            raise DegenerateStratumError(f"{out_role} arm A={out_arm} within {where}")
    inner = running_sum(tables.draw(*draw, draw_arm) * tables.outcome(*out, out_arm))
    per_stratum = inner / tables.w_s if arms is None else tables.w_s * inner
    if tables.rows is None:
        return float(running_sum(per_stratum))
    return running_sum(per_stratum.reshape(tables.rows, -1))


def g_draw_mean(model: Model, a_set: int, a_draw: int, conditioning: str = COND_C, *,
                weight: np.ndarray | None = None):
    """Mean outcome under exposure a_set with the mediator set to a random
    draw from the law of the counterfactual mediator under a_draw, the draw
    being independent of the unit within each conditioning stratum.

    conditioning selects the stratification of the draw: the covariates
    alone, the covariates plus the observed confounder (in which case the
    draw law and the outcome mean each condition on their own exposure arm,
    matching the corresponding identification functional), or the covariates
    plus the counterfactual confounder under the draw arm.

    A float for the model; given weight, a (P, units) block of unit weights
    over the model's profile columns (the weights of P models that share
    them), an array of one mean per row. A stratum of no mass in a row (or,
    conditioning on the observed confounder, an empty arm in one) raises
    DegenerateStratumError naming the first, of the first row with one.
    """
    p = profiles(model)
    arms = None
    if conditioning == COND_C:
        by, strata = COND_C, (p.stratum, p.stratum_first)
        describe = lambda u: f"c={p.c_key(u)!r}"   # noqa: E731
    elif not model.has_l:
        raise ShapeError(f"conditioning {conditioning!r} requires an induced confounder")
    elif conditioning == COND_C_L_DRAW:
        by, strata = (COND_C_L_DRAW, a_draw), p.cl_strata(a_draw)
        l_draw = p.l_cf[p.arm(a_draw)]
        describe = lambda u: f"(c, L({a_draw}))={(p.c_key(u), int(l_draw[u]))!r}"   # noqa: E731
    elif conditioning == COND_C_L_OBSERVED:
        by, strata, arms = COND_C_L_OBSERVED, p.cl_strata(), (a_draw, a_set)
        describe = lambda u: f"(c, l)={(p.c_key(u), int(p.l[u]))!r}"   # noqa: E731
    else:
        raise DomainError(f"unknown conditioning {conditioning!r}")
    draw = (("m_cf", a_draw), p.m_cf[p.arm(a_draw)])
    out = (("y_cf", a_set), p.y_cf[p.arm(a_set)])
    return _stratified_draw(_draw_tables(p, weight, by, strata), draw, out, describe, arms)


def h_draw_mean(model: Model, a_stratum: int, a_draw: int, *, weight: np.ndarray | None = None):
    """Mean outcome in the factual exposure stratum a_stratum when the
    mediator is set to a draw from its observed conditional law in arm
    a_draw, within covariate strata. Only the mediator is intervened on.
    A float for the model, or one mean per row of weight (see g_draw_mean)."""
    p = profiles(model)
    return _stratified_draw(
        _draw_tables(p, weight, COND_C, (p.stratum, p.stratum_first)),
        ("m", p.m),
        ("y_mfix", p.y_mfix),
        lambda u: f"c={p.c_key(u)!r}",
        (a_draw, a_stratum),
        out_role="stratum",
    )
