"""Seeded i.i.d. sampling, empirical laws, and plug-in estimation.

All randomness flows through counter-based Philox streams keyed by explicit
seeds (and, for the bootstrap, the replicate index), so identical inputs give
identical outputs regardless of execution order or parallelism. A bootstrap
replicate is one multinomial draw of cell counts, so its cost follows the
law's occupied cells, not the rows. Datasets interchange as plain integer
CSV.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import engine, identify
from .engine import ObservedLaw
from .errors import DegenerateStratumError, DomainError, EnumerationSizeError
from .model import Scm


@dataclass(frozen=True)
class Dataset:
    """Sampled rows in canonical column order (covariates..., A, [L,] M, Y)."""

    columns: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        # any integer dtype int64 holds, kept as int64 (no copy if it is one):
        # engine.group_ids codes value minus minimum in the rows' own dtype
        rows = self.rows
        if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "iu"
                and np.can_cast(rows.dtype, np.int64) and rows.shape[1] == len(self.columns)):
            got = (f"shape {rows.shape} of {rows.dtype}" if isinstance(rows, np.ndarray)
                   else type(rows).__name__)
            raise DomainError(f"dataset rows must be a 2-D integer array with one column "
                              f"per header name ({len(self.columns)}), got {got}")
        object.__setattr__(self, "rows", rows.astype(np.int64, copy=False))

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @cached_property
    def _indexed(self) -> ObservedLaw:
        """The empirical law with its exposure levels unset, computed once:
        rows are never modified in place."""
        return _index_rows(self)


@dataclass(frozen=True)
class Estimate:
    """A plug-in estimate with a percentile bootstrap interval (level 0.95);
    the interval is absent when n_boot is zero."""

    estimand: str
    value: float
    ci_low: float | None
    ci_high: float | None
    n_boot: int


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _integer(name: str, value, bits: int | None = None) -> int:
    """value as an int, nonnegative and, given bits, below 2**bits; anything
    else, a float or a bool included, is a DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if bits is None and value < 0:
        raise DomainError(f"{name} must be nonnegative, got {value}")
    if bits is not None and not 0 <= value < 2**bits:
        raise DomainError(f"{name} must lie in [0, 2**{bits}), got {value}")
    return value


def _canonical_columns(scm: Scm) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(variable names in draw order, canonical CSV header names)."""
    order = scm.topo_order
    header = []
    for name in order:
        role = scm.var(name).role
        header.append(name if role == "C" else role)
    if len(set(header)) != len(header):
        raise DomainError(
            "covariate names collide with the canonical A/L/M/Y column names"
        )
    return order, tuple(header)


def draw_samples(scm: Scm, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. rows from the observational law.

    Row k consumes the k-th block of a Philox counter-based stream keyed by
    seed, so the output is reproducible and independent of any chunking;
    the rows are drawn CSV_BLOCK at a time, so no temporary grows with n.
    n is a nonnegative integer and seed an integer in [0, 2**128); anything
    else is a DomainError. Rows over engine.PROFILE_BYTE_BUDGET bytes raise
    EnumerationSizeError before anything is allocated.
    """
    if not isinstance(scm, Scm):
        raise DomainError("sampling requires a structural-table model")
    scm.require_structure_noise()
    n, seed = _integer("n", n), _integer("seed", seed, 128)
    order, header = _canonical_columns(scm)
    need = n * len(order) * 8
    if need > engine.PROFILE_BYTE_BUDGET:
        raise EnumerationSizeError(
            f"a sample needs {need} bytes ({n} rows x {len(order)} columns), "
            f"over the {engine.PROFILE_BYTE_BUDGET}-byte budget"
        )
    structure = scm.structure
    edges = [_cdf_edges(scm.noise_for(name)) for name in order]
    supports = [np.asarray(structure.supports[name]) for name in order]
    gen = np.random.Generator(np.random.Philox(key=seed))
    rows = np.empty((n, len(order)), dtype=np.int64)
    for k in range(0, n, CSV_BLOCK):
        block = rows[k : k + CSV_BLOCK]
        uniforms = gen.random(block.shape)
        position: dict[str, np.ndarray] = {}   # of each value in its sorted support
        for j, name in enumerate(order):
            idx = _inverse_cdf(edges[j], uniforms[:, j].copy())
            parents = [position[p] for p in scm.table_for(name).parents]
            position[name] = structure.positions(name, idx, parents)
            block[:, j] = supports[j][position[name]]
    return Dataset(header, rows)


def _cdf_edges(noise) -> np.ndarray:
    """A noise law's CDF over its levels without the last entry, padded with
    inf to a power of two longer than it: the edges _inverse_cdf searches."""
    cum = np.cumsum([noise.pmf[lv] for lv in noise.levels()])
    size = 1 << (cum.size - 1).bit_length()
    return np.concatenate([cum[:-1], np.full(size - cum.size + 1, np.inf)])


def _inverse_cdf(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The noise position of each uniform u: how many edges lie at or below
    it. The edges are nondecreasing, so those form a prefix, and a branchless
    binary search finds its length, one comparison pass per halving."""
    step = edges.size // 2
    if not step:
        return np.zeros(u.size, dtype=np.int64)
    idx = (u >= edges[step - 1]) * step
    while step := step // 2:
        idx += (u >= edges.take(idx + step - 1)) * step
    return idx


# ---------------------------------------------------------------------------
# Empirical laws
# ---------------------------------------------------------------------------


def _column_roles(columns: tuple[str, ...]) -> tuple[list[int], int, int | None, int, int]:
    names = list(columns)
    for name in names:
        if names.count(name) > 1:
            raise DomainError(f"dataset repeats column {name}")
    for required in ("A", "M", "Y"):
        if required not in names:
            raise DomainError(f"dataset is missing required column {required}")
    c_idx = [i for i, c in enumerate(names) if c not in ("A", "L", "M", "Y")]
    l_idx = names.index("L") if "L" in names else None
    return c_idx, names.index("A"), l_idx, names.index("M"), names.index("Y")


def _index_rows(ds: Dataset) -> ObservedLaw:
    """The empirical law, its exposure levels unset: the rows' counts over
    their table cells (engine.table_cells).

    The rows are grouped once; supports, covariate cells, table cells and
    key order all come from the distinct rows, which are in order of first
    occurrence, and each group's count lands in its cell."""
    if ds.n == 0:
        raise DomainError("cannot build an empirical law from an empty dataset")
    c_idx, *factual = _column_roles(ds.columns)          # factual: A, L, M, Y columns
    factual = [-1 if i is None else i for i in factual]
    group, first = engine.group_ids(*ds.rows.T)
    distinct = ds.rows[first]
    cols = [*distinct.T, None]                            # cols[-1]: the missing L
    supports = [tuple(np.unique(col).tolist()) for col in cols[:-1]] + [None]
    c_cell, c_first = engine.group_ids(*(cols[i] for i in c_idx)) if c_idx else (0, [0])
    cell, shape = engine.table_cells(
        c_cell, len(c_first), [cols[i] for i in factual], [supports[i] for i in factual]
    )
    counts = np.zeros(math.prod(shape), dtype=np.int64)
    counts[cell] = np.bincount(group, minlength=first.size)
    c_values = distinct[c_first][:, c_idx]
    a, l, m, y = (supports[i] for i in factual)
    return ObservedLaw(
        mass=(counts / ds.n).reshape(shape),
        order=cell[np.lexsort(distinct.T[::-1])],         # key order: the sorted rows
        c_cells=tuple(map(tuple, c_values.tolist())),
        c_names=tuple(ds.columns[i] for i in c_idx),
        a_support=a,
        l_support=l,
        m_support=m,
        y_support=y,
        exposure_levels=None,
    )


def empirical_law(
    ds: Dataset, exposure_levels: tuple[int, int] | None = None
) -> ObservedLaw:
    """Empirical pmf of a dataset; supports are the observed value sets, and
    a required cell that happens to be empty in-sample surfaces later as a
    degenerate-stratum error from whichever functional needs it."""
    law = ds._indexed
    if exposure_levels is None:
        if len(law.a_support) < 2:
            raise DomainError("exposure takes a single value in-sample; specify exposure_levels")
        exposure_levels = (law.a_support[0], law.a_support[-1])
    if exposure_levels[0] == exposure_levels[1]:
        raise DomainError("exposure levels a* and a must differ")
    return dataclasses.replace(law, exposure_levels=exposure_levels)


# ---------------------------------------------------------------------------
# Plug-in estimation with percentile bootstrap
# ---------------------------------------------------------------------------

_PARAMETRIC = {"psi_cde", "psi_pe"}

# one block of bootstrap replicates holds mass tables of at most
# PROFILE_BYTE_BUDGET / BOOT_TABLE_FACTOR bytes, which leaves room within the
# budget for the marginal tables the functionals build from them
BOOT_TABLE_FACTOR = 64


def _functional(estimand: str, m: int | None):
    """The functional an estimand names and the arguments after the law."""
    if estimand not in identify.FUNCTIONALS:
        raise DomainError(
            f"unknown estimand {estimand!r}; expected one of {sorted(identify.FUNCTIONALS)}"
        )
    if estimand not in _PARAMETRIC:
        if m is not None:
            raise DomainError(f"estimand {estimand} takes no mediator level m; "
                              f"only {' and '.join(sorted(_PARAMETRIC))} do")
        return identify.FUNCTIONALS[estimand], ()
    if m is None:
        raise DomainError(f"estimand {estimand} requires a mediator level m")
    return identify.FUNCTIONALS[estimand], (m,)


def _score_batch(fn, law: ObservedLaw, args: tuple) -> np.ndarray:
    """fn over a batch of replicate laws; a degenerate replicate raises the
    error of the first one, as scoring them one at a time in order would."""
    try:
        return fn(law, *args)
    except DegenerateStratumError:
        for mass in law.mass:
            fn(law.with_mass(mass), *args)
        raise


def estimate(
    ds: Dataset,
    estimand: str,
    n_boot: int = 1000,
    seed: int = 0,
    *,
    m: int | None = None,
    exposure_levels: tuple[int, int] | None = None,
) -> Estimate:
    """Plug-in estimate of an identification functional with a seeded,
    counter-based nonparametric bootstrap.

    Resampling n rows with replacement and counting their table cells gives
    counts distributed Multinomial(n, empirical cell shares), so replicate r
    draws exactly that: one multinomial over the law's occupied cells, in
    key order, from a Philox stream keyed by (seed, r); every other cell
    counts zero. A replicate costs O(occupied cells), not O(n), and reads
    the rows only through their counts. The interval's sampling law is the
    row-resampling bootstrap's, but its Monte Carlo realisation is not the
    one drawing n row indices gave. Replicates are scored in blocks, each
    one batch of laws. n_boot is a nonnegative integer and seed an integer
    in [0, 2**64), the range of a Philox key word; anything else is a
    DomainError. More replicates than engine.PROFILE_BYTE_BUDGET
    bytes hold raise EnumerationSizeError before anything is allocated."""
    n_boot, seed = _integer("n_boot", n_boot), _integer("seed", seed, 64)
    if n_boot * 8 > engine.PROFILE_BYTE_BUDGET:
        raise EnumerationSizeError(
            f"{n_boot} bootstrap replicates need {n_boot * 8} bytes, "
            f"over the {engine.PROFILE_BYTE_BUDGET}-byte budget"
        )
    fn, args = _functional(estimand, m)
    law = empirical_law(ds, exposure_levels)
    value = fn(law, *args)
    label = f"{estimand}({m})" if args else estimand
    if n_boot == 0:
        return Estimate(label, value, None, None, 0)

    n, size, occupied = ds.n, law.mass.size, law.order
    shares = law.mass.ravel()[occupied]
    block = max(1, engine.PROFILE_BYTE_BUDGET // (8 * size * BOOT_TABLE_FACTOR))
    values = np.empty(n_boot)
    for start in range(0, n_boot, block):
        replicates = range(start, min(start + block, n_boot))
        counts = np.zeros((len(replicates), size), dtype=np.int64)
        for i, r in enumerate(replicates):
            key = np.array([seed, r], dtype=np.uint64)   # a list key rounds seeds >= 2**63
            gen = np.random.Generator(np.random.Philox(key=key))
            counts[i, occupied] = gen.multinomial(n, shares)
        batch = law.with_mass((counts / n).reshape(len(replicates), *law.mass.shape))
        values[start:replicates.stop] = _score_batch(fn, batch, args)
    lo, hi = np.quantile(values, [0.025, 0.975])
    if lo > hi:
        raise DomainError("bootstrap interval endpoints out of order")
    return Estimate(label, value, float(lo), float(hi), n_boot)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

CSV_BLOCK = 8192   # rows drawn, and formatted, per block


def write_csv(ds: Dataset, path: str) -> None:
    """The header, then one line of plain integers per row; \\n line ends.

    Each block of CSV_BLOCK rows numbers its distinct rows (engine.group_ids),
    formats them in one pass and joins the block's lines by group."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(ds.columns)
        line = ",".join(["%d"] * ds.rows.shape[1]) + "\n"
        for k in range(0, ds.n, CSV_BLOCK):
            block = ds.rows[k : k + CSV_BLOCK]
            group, first = engine.group_ids(*block.T)
            text = line * first.size % tuple(block[first].ravel().tolist())
            fh.write("".join(np.array(text.splitlines(keepends=True), dtype=object)[group]))


def read_csv(path: str) -> Dataset:
    """A header line, then rows of integers as many as its fields; blank
    lines are skipped. Anything else is a ValueError naming the file line."""
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), None)
        if not header:
            raise ValueError(f"{path}: line 1: no header line")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # no rows
                rows = np.loadtxt(fh, dtype=np.int64, delimiter=",", comments=None,
                                  quotechar='"', ndmin=2)
        except ValueError:
            rows = None
    if rows is None or (rows.size and rows.shape[1] != len(header)):
        raise ValueError(f"{path}: {_first_bad_line(path, len(header))}")
    if rows.size == 0:
        rows = np.zeros((0, len(header)), dtype=np.int64)
    return Dataset(tuple(header), rows)


_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")
_INT64 = np.iinfo(np.int64)


def _first_bad_line(path: str, fields: int) -> str:
    """'line N: why' for the first data line of a CSV file that is not as
    many integers as its header has fields."""
    with open(path, newline="") as fh:
        fh.readline()
        for number, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            row = next(csv.reader([line]))
            if len(row) != fields:
                return f"line {number}: the header has {fields} fields, this line {len(row)}"
            for j, field in enumerate(row, start=1):
                if not _INTEGER.fullmatch(field):
                    return f"line {number}: field {j} is {field!r}, not an integer"
                if not _INT64.min <= int(field) <= _INT64.max:
                    return f"line {number}: field {j} is {field.strip()}, outside int64"
    return "rows that are not integers"
