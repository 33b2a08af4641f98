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
import os
import re
import stat
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import engine, identify
from .engine import ObservedLaw
from .errors import DegenerateStratumError, DomainError, EnumerationSizeError
from .model import Model, _require_valid


@dataclass(frozen=True)
class Dataset:
    """Sampled rows in canonical column order (covariates..., A, [L,] M, Y)."""

    columns: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        # any integer dtype int64 holds, kept as int64 (no copy if it is one):
        # engine.row_key and _index_rows code value minus minimum in that dtype
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


def draw_samples(model: Model, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. rows from the observational law of a model of either
    type, by its draw method; a model validate rejects is a DomainError.

    Row k consumes the k-th block of a Philox counter-based stream keyed by
    seed, so the output is reproducible and independent of any chunking;
    the rows are drawn CSV_BLOCK at a time, so no temporary grows with n.
    n is a nonnegative integer and seed an integer in [0, 2**128); anything
    else is a DomainError. Rows over engine.PROFILE_BYTE_BUDGET bytes raise
    EnumerationSizeError before anything is allocated."""
    _require_valid(model)
    n, seed = _integer("n", n), _integer("seed", seed, 128)
    header = tuple(v.name if v.role == "C" else v.role for v in map(model.var, model.topo_order))
    if len(set(header)) != len(header):
        raise DomainError("covariate names collide with the canonical A/L/M/Y column names")
    need = n * len(header) * 8
    if need > engine.PROFILE_BYTE_BUDGET:
        raise EnumerationSizeError(
            f"a sample needs {need} bytes ({n} rows x {len(header)} columns), "
            f"over the {engine.PROFILE_BYTE_BUDGET}-byte budget"
        )
    gen = np.random.Generator(np.random.Philox(key=seed))
    rows = np.empty((n, len(header)), dtype=np.int64)
    for k in range(0, n, CSV_BLOCK):
        block = rows[k : k + CSV_BLOCK]
        model.draw(gen.random(block.shape), block)
    return Dataset(header, rows)


# ---------------------------------------------------------------------------
# Empirical laws
# ---------------------------------------------------------------------------


def _column_roles(columns: tuple[str, ...]) -> tuple[list[int], int, int, int, int]:
    names = list(columns)
    for name in names:
        if names.count(name) > 1:
            raise DomainError(f"dataset repeats column {name}")
    for required in ("A", "M", "Y"):
        if required not in names:
            raise DomainError(f"dataset is missing required column {required}")
    c_idx = [i for i, c in enumerate(names) if c not in ("A", "L", "M", "Y")]
    return c_idx, *(names.index(r) if r in names else -1 for r in ("A", "L", "M", "Y"))


def _index_rows(ds: Dataset) -> ObservedLaw:
    """The empirical law, its exposure levels unset: the rows' counts over
    their table cells (engine.table_cells).

    One count of a key rising with the rows' lexicographic order lists the
    distinct rows, sorted, with their counts. The key is the row read in
    base max - min + 1 if base**f fits engine.row_key's bound, else row_key;
    first rows are found only to read row_key's rows or number c cells."""
    if ds.n == 0:
        raise DomainError("cannot build an empirical law from an empty dataset")
    c_idx, *factual = _column_roles(ds.columns)          # A, L (-1: none), M, Y columns
    rows, n, f, lo = ds.rows, ds.n, ds.rows.shape[1], int(ds.rows.min())
    base = int(rows.max()) - lo + 1
    if one_base := base**f <= 2 * n + 64:
        key, size = (rows - lo if lo else rows) @ base ** np.arange(f - 1, -1, -1), base**f
    else:
        key, size = engine.row_key(*rows.T)
    tally = np.bincount(key, minlength=size)
    occupied = np.flatnonzero(tally)                      # the distinct rows' keys, rising
    if c_idx or not one_base:                             # each distinct row's first row
        first = np.full(size, n, dtype=np.int64)
        np.minimum.at(first, key, np.arange(n))
        first = first[occupied]
    distinct = (np.column_stack(np.unravel_index(occupied, (base,) * f)) + lo if one_base
                else rows[first])
    cols = [*distinct.T, None]                            # cols[-1]: the missing L
    supports = [tuple(np.unique(col).tolist()) for col in cols[:-1]] + [None]
    c_cell, c_values = 0, distinct[:1, c_idx]             # no covariates: one empty cell
    if c_idx:                                             # cells by first occurrence
        by_first = np.argsort(first)
        c_cell, c_first = engine.group_ids(*distinct[by_first][:, c_idx].T)
        c_cell, c_values = c_cell[np.argsort(by_first)], distinct[by_first[c_first]][:, c_idx]
    cell, shape = engine.table_cells(c_cell, len(c_values), [cols[i] for i in factual],
                                     [supports[i] for i in factual])
    counts = np.zeros(math.prod(shape), dtype=np.int64)
    counts[cell] = tally[occupied]
    a, l, m, y = (supports[i] for i in factual)
    return ObservedLaw(
        mass=(counts / n).reshape(shape), order=cell,     # key order: the sorted rows
        c_cells=tuple(map(tuple, c_values.tolist())), c_names=tuple(ds.columns[i] for i in c_idx),
        a_support=a, l_support=l, m_support=m, y_support=y, exposure_levels=None,
    )


def empirical_law(ds: Dataset, exposure_levels: tuple[int, int] | None = None) -> ObservedLaw:
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


def estimate(ds: Dataset, estimand: str, n_boot: int = 1000, seed: int = 0, *,
             m: int | None = None, exposure_levels: tuple[int, int] | None = None) -> Estimate:
    """Plug-in estimate of an identification functional with a seeded,
    counter-based nonparametric bootstrap.

    Resampling n rows with replacement and counting their table cells gives
    counts distributed Multinomial(n, empirical cell shares), so replicate r
    draws exactly that: one multinomial over the law's occupied cells, in
    key order, from the Philox stream keyed by (seed, r); one generator is
    re-keyed to that stream's fresh state per replicate. A replicate costs
    O(occupied cells), not O(n), and reads the rows only through their
    counts; its sampling law is the row-resampling bootstrap's, its Monte
    Carlo realisation not the one drawing n row indices gave. Replicates
    are scored in blocks, each one batch of laws. n_boot is a nonnegative
    integer and seed an integer in [0, 2**64), a Philox key word; anything
    else is a DomainError. More replicates than engine.PROFILE_BYTE_BUDGET
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
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))  # list keys round >= 2**63
    gen, fresh, values = np.random.Generator(bits), bits.state, np.empty(n_boot)
    for start in range(0, n_boot, block):
        replicates = range(start, min(start + block, n_boot))
        counts = np.zeros((len(replicates), size), dtype=np.int64)
        for i, r in enumerate(replicates):
            fresh["state"]["key"][1] = r
            bits.state = fresh                    # that of a fresh Philox(key=[seed, r])
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

CSV_BLOCK = 8192   # rows drawn, and written, per block


def write_csv(ds: Dataset, path: str) -> None:
    """The header, then one line of plain integers per row; \\n line ends.

    Rows whose every value is a digit 0-9 (every sample of a model whose
    levels are 0-9) write each block of CSV_BLOCK rows as one (rows, 2f)
    byte grid, f the columns: the digits in the even columns, a comma in
    the odd ones and a newline in the last. Any other rows, none included,
    write each block by numbering its distinct rows (engine.group_ids),
    formatting them in one pass and joining the block's lines by group.
    Both give the bytes csv.writer gives."""
    rows = ds.rows
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(ds.columns)
        if rows.size and 0 <= rows.min() and rows.max() <= 9:
            grid = np.full((min(ds.n, CSV_BLOCK), 2 * rows.shape[1]), ord(","), dtype=np.uint8)
            grid[:, -1] = ord("\n")
            for k in range(0, ds.n, CSV_BLOCK):
                block = rows[k : k + CSV_BLOCK]
                out = grid[: len(block)]
                out[:, ::2] = block + ord("0")
                fh.write(out.tobytes().decode("ascii"))
            return
        line = ",".join(["%d"] * rows.shape[1]) + "\n"
        for k in range(0, ds.n, CSV_BLOCK):
            block = rows[k : k + CSV_BLOCK]
            group, first = engine.group_ids(*block.T)
            text = line * first.size % tuple(block[first].ravel().tolist())
            fh.write("".join(np.array(text.splitlines(keepends=True), dtype=object)[group]))


def read_csv(path: str) -> Dataset:
    """A header line, then rows of integers as many as its fields; blank
    lines are skipped, and so is one byte-order mark before the header.
    Anything else is a ValueError naming the file line.

    A regular file whose rows are all lines of single digits, the files
    write_csv writes for rows of 0-9, is read as one byte grid
    (_digit_grid); any other file is parsed by np.loadtxt."""
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline().removeprefix("\ufeff")]), None)
        if not header:
            raise ValueError(f"{path}: line 1: no header line")
        source, skip = _row_source(fh, path)
        rows = _digit_grid(source, len(header)) if isinstance(source, str) else None
        if rows is None:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)   # no rows
                    rows = np.loadtxt(source, dtype=np.int64, delimiter=",", comments=None,
                                      quotechar='"', ndmin=2, skiprows=skip)
            except ValueError:
                pass
    if rows is None or (rows.size and rows.shape[1] != len(header)):
        raise ValueError(f"{path}: {_first_bad_line(path, len(header))}")
    if rows.size == 0:
        rows = np.zeros((0, len(header)), dtype=np.int64)
    return Dataset(tuple(header), rows)


def _digit_grid(path: str, fields: int) -> np.ndarray | None:
    """The rows of a file whose body, after its first line, is one or more
    lines of fields single digits joined by commas, each ending in \\n;
    None for any other file.

    Such a body is a (rows, 2 * fields) byte grid, and every byte of it is
    checked. The first line is skipped only if it ends in \\n and holds no
    \\r, so that it is the line the text handle read as the header."""
    with open(path, "rb") as fh:
        first, body = fh.readline(), fh.read()
    width = 2 * fields
    if not first.endswith(b"\n") or b"\r" in first or not body or len(body) % width:
        return None
    grid = np.frombuffer(body, dtype=np.uint8).reshape(-1, width)
    digits = grid[:, ::2] - np.uint8(ord("0"))   # a byte below '0' wraps past 9
    ends = np.frombuffer(b"," * (fields - 1) + b"\n", dtype=np.uint8)
    if not ((digits <= 9).all() and (grid[:, 1::2] == ends).all()):
        return None
    return digits.astype(np.int64)


# the suffixes numpy's DataSource decompresses when np.loadtxt opens a path
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _row_source(fh, path) -> tuple:
    """The source of the rows after the header line fh has read, a path or
    fh itself, and how many lines np.loadtxt skips first.

    numpy's C reader takes a str path in large chunks but iterates a handle
    one Python str per line, so a regular file is read again by path,
    joined to the working directory without folding '..' (the file the
    kernel opened, and never a URL). A pipe, FIFO or terminal keeps the
    handle, since reopening it loses what the header read buffered, and so
    does a name with a suffix numpy would decompress."""
    if (stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            and not os.fspath(path).lower().endswith(_COMPRESSED)):
        return os.path.join(os.getcwd(), path), 1
    return fh, 0


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
