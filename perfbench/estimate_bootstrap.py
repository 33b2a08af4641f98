"""estimate-bootstrap: `medscm sample` to CSV, then `medscm estimate
--estimand psi_nie_r_L` with a bootstrap, on two datasets.

t1(0.5, 0.9) at n = 100,000 has 8 law cells, so resampling O(n) rows per
replicate dominates its 100 replicates. A confounded random model with
C/L/M/Y levels 4/3/3/4 (288 law cells) at n = 50,000 takes 50 replicates,
each of which scans its law many times. Sampling and identification on
empirical laws do the work; the engine does none in the timed region.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import medscm as M

from common import Op, cli, csv_rows
from reference import GridModel

CELL_SE = 5.0        # cell frequencies within 5 binomial standard errors ...
CELL_SLACK = 5.0     # ... plus 5 counts for the skew of sparse cells
ESTIMATE_SE = 3.0    # |estimate - nie_r| <= 3 * (range of Y) / sqrt(n)

CHECKS = ("cells", "estimate_bound", "interval", "repeat")

TRACE_REQUIRED = (
    "model.build.s", "model.build.calls",
    "identify.psi_nie_r_L.s", "identify.law_queries",
    "sample.draw_samples.s", "sample.write_csv.s", "sample.read_csv.s",
    "sample.empirical_law.s", "sample.estimate.self_s", "sample.estimate.replicates",
    "cli.main.self_s",
)


@dataclass(frozen=True)
class Data:
    name: str
    model_argv: tuple      # the model part of `medscm sample` arguments
    n: int
    n_boot: int
    seed: int
    levels: tuple | None   # C/L/M/Y levels of the random model, None for t1
    csv: str

    def build(self):
        if self.levels is None:
            return M.thm1_counterexample(0.5, 0.9)
        c, l, m, y = self.levels
        return M.random_scm(self.seed, "confounded", with_c=True, c_levels=c,
                            l_levels=l, m_levels=m, y_levels=y)

    @property
    def y_range(self) -> int:
        return 1 if self.levels is None else self.levels[3] - 1


def setup(seed: int, tiny: bool, workdir: Path) -> list[Data]:
    levels = (2, 2, 2, 2) if tiny else (4, 3, 3, 4)
    model_path = workdir / "model.json"
    data = [
        Data("t1", ("t1", "--pi", "0.5", "--beta", "0.9"), 4000 if tiny else 100_000,
             10 if tiny else 100, seed, None, str(workdir / "t1.csv")),
        Data("random", (str(model_path),), 4000 if tiny else 50_000,
             5 if tiny else 50, seed, levels, str(workdir / "random.csv")),
    ]
    model_path.write_text(M.scm_to_json(data[1].build()))
    return data


def _sample(d: Data) -> str:
    return cli(["sample", *d.model_argv, "--n", str(d.n), "--sample-seed", str(d.seed),
                "--out", d.csv])


def _estimate(d: Data):
    return csv_rows(cli(["estimate", d.csv, "--estimand", "psi_nie_r_L",
                         "--n-boot", str(d.n_boot), "--sample-seed", str(d.seed),
                         "--format", "csv"]))


def operations(data: list[Data], lap) -> list:
    return [op for d in data for op in ((("sample", d), functools.partial(_sample, d)),
                                        (("estimate", d), functools.partial(_estimate, d)))]


def finish(op: Op) -> None:
    """Attach the hash of the CSV a sample command wrote, outside its time."""
    kind, d = op.key
    if kind == "sample" and op.error is None:
        op.output = (op.output, hashlib.sha256(Path(d.csv).read_bytes()).hexdigest())


def _cell_counts(d: Data) -> tuple[str, dict]:
    """Hash and cell counts of the CSV the last round left on disk."""
    raw = Path(d.csv).read_bytes()
    rows = np.loadtxt(d.csv, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    cells, counts = np.unique(rows, axis=0, return_counts=True)
    return hashlib.sha256(raw).hexdigest(), {tuple(int(v) for v in c): int(k)
                                              for c, k in zip(cells, counts)}


def check(data, op: Op, first: Op, c, refs: dict) -> None:
    kind, d = op.key
    if d not in refs:
        ref = GridModel(d.build())
        # exact law keyed like a CSV row: covariates..., A, [L,] M, Y
        law = {(*cell[0], *[v for v in cell[1:] if v is not None]): p
               for cell, p in ref.law().items()}
        refs[d] = (ref, law, *_cell_counts(d))
    ref, law, final_hash, counts = refs[d]
    c.equal("repeat", op.output, first.output)
    if kind == "sample":
        if op.output[1] != final_hash:
            return  # a different file; the repeat check has failed it already
        for cell in law.keys() | counts.keys():
            p = law.get(cell, 0.0)
            tol = (CELL_SE * math.sqrt(p * (1.0 - p) / d.n) + CELL_SLACK / d.n) if p else 0.0
            c.close("cells", counts.get(cell, 0) / d.n, p, tol)
    else:
        value = float(op.output["value"])
        bound = ESTIMATE_SE * d.y_range / math.sqrt(d.n)
        c.close("estimate_bound", value, ref.nie_r, bound)
        c.ordered("interval", float(op.output["ci_low"]), float(op.output["ci_high"]))


def rates(data, wall_s: float, refs: dict, ops: list[Op]) -> list[tuple[str, float, str]]:
    def seconds(kind):
        return sum(op.scaled for op in ops if op.key[0] == kind)

    rounds = len(ops) // (2 * len(data))
    rows = rounds * sum(d.n for d in data)
    replicates = rounds * sum(d.n_boot for d in data)
    return [
        ("sample_rows_per_s", rows / seconds("sample"), "rows/s"),
        ("estimate_replicates_per_s", replicates / seconds("estimate"), "replicates/s"),
        ("rows_per_round", sum(d.n for d in data), "rows"),
        ("replicates_per_round", sum(d.n_boot for d in data), "replicates"),
    ]
