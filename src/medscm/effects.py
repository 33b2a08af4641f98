"""Counterfactual-side effect measures on the difference scale.

Everything here is an exact weighted sum over the enumerated units of a
model, read from the engine's profile columns; no observational quantity
enters except through the randomized-draw operations, whose stratum
conditioning is documented in the engine.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import engine
from .engine import COND_C, COND_C_L_DRAW, COND_C_L_OBSERVED
from .errors import DomainError, InternalConsistencyError, ShapeError
from .model import Model

DECOMPOSITION_TOL = 1e-12


@dataclass(frozen=True)
class EffectReport:
    """All effect measures for one model.

    nie_r_L and nie_r_La are the confounder-conditioned randomized contrasts
    and are None when the graph has no induced confounder; int_ref is None
    unless the mediator is binary.
    """

    te: float
    nde: float
    nie: float
    te_r: float
    nde_r: float
    nie_r: float
    cde: Mapping[int, float]
    pe: Mapping[int, float]
    int_ref: Mapping[tuple[int, int], float] | None
    nie_r_L: float | None
    nie_r_La: float | None
    h_contrast: float

    def rows(self) -> list[tuple[str, float]]:
        out = [
            ("te", self.te),
            ("nde", self.nde),
            ("nie", self.nie),
            ("te_r", self.te_r),
            ("nde_r", self.nde_r),
            ("nie_r", self.nie_r),
        ]
        if self.nie_r_L is not None:
            out.append(("nie_r_L", self.nie_r_L))
        if self.nie_r_La is not None:
            out.append(("nie_r_La", self.nie_r_La))
        out.append(("h_contrast", self.h_contrast))
        out += [(f"cde({m})", v) for m, v in sorted(self.cde.items())]
        out += [(f"pe({m})", v) for m, v in sorted(self.pe.items())]
        if self.int_ref is not None:
            out += [
                (f"int_ref({m},{mp})", v)
                for (m, mp), v in sorted(self.int_ref.items())
            ]
        return out

    def value(self, name: str) -> float:
        for key, v in self.rows():
            if key == name:
                return v
        raise KeyError(name)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["effect", "value"])
        for name, v in self.rows():
            writer.writerow([name, f"{v:.12g}"])
        return buf.getvalue()


def _rows(model: Model, weight: np.ndarray | None) -> tuple[engine.Profiles, np.ndarray]:
    """The model's profile columns and weight, a (P, units) block of weights
    over them, or the model's own weights when weight is None."""
    p = engine.profiles(model)
    return p, p.weight if weight is None else weight


# Each measure is computed by a private function of the model and a block of
# weight rows, one value per row, or of the model's own weights (weight None),
# one value; the public function is the latter, as a float.


def _total(model: Model, weight=None):
    p, w = _rows(model, weight)
    a_star, a = p.arms
    return engine.unit_sum(w * (p.nested(a, a) - p.nested(a_star, a_star)))


def total_effect(model: Model) -> float:
    """E[Y(a)] - E[Y(a*)]."""
    return float(_total(model))


def _cde(model: Model, m: int, weight=None):
    if m not in model.m_support:
        raise DomainError(f"mediator level {m} outside support")
    p, w = _rows(model, weight)
    a_star, a = p.arms
    return engine.unit_sum(w * (p.y_at(a, m) - p.y_at(a_star, m)))


def controlled_direct_effect(model: Model, m: int) -> float:
    """E[Y(a, m)] - E[Y(a*, m)]."""
    return float(_cde(model, m))


def _natural(model: Model, weight=None):
    p, w = _rows(model, weight)
    a_star, a = p.arms
    e_aa = engine.unit_sum(w * p.nested(a, a))
    e_as = engine.unit_sum(w * p.nested(a, a_star))
    e_ss = engine.unit_sum(w * p.nested(a_star, a_star))
    return e_aa - e_as, e_as - e_ss


def natural_effects(model: Model) -> tuple[float, float]:
    """(nie, nde) from the nested counterfactual means."""
    nie, nde = _natural(model)
    return float(nie), float(nde)


def _randomized(model: Model, weight=None):
    a_star, a = model.exposure_levels
    g_aa = engine.g_draw_mean(model, a, a, COND_C, weight=weight)
    g_as = engine.g_draw_mean(model, a, a_star, COND_C, weight=weight)
    g_ss = engine.g_draw_mean(model, a_star, a_star, COND_C, weight=weight)
    return g_aa - g_as, g_as - g_ss, g_aa - g_ss


def randomized_effects(model: Model) -> tuple[float, float, float]:
    """(nie_r, nde_r, te_r) from covariate-stratified randomized draws."""
    return _randomized(model)


def _l_conditioned(model: Model, weight=None):
    if not model.has_l:
        raise ShapeError("confounder-conditioned contrasts require an induced confounder")
    a_star, a = model.exposure_levels
    nie_r_l = (
        engine.g_draw_mean(model, a, a, COND_C_L_OBSERVED, weight=weight)
        - engine.g_draw_mean(model, a, a_star, COND_C_L_OBSERVED, weight=weight)
    )
    nie_r_la = (
        engine.g_draw_mean(model, a, a, COND_C_L_DRAW, weight=weight)
        - engine.g_draw_mean(model, a, a_star, COND_C_L_DRAW, weight=weight)
    )
    return nie_r_l, nie_r_la


def l_conditioned_randomized_effects(model: Model) -> tuple[float, float]:
    """(nie_r_L, nie_r_La): indirect contrasts with the draw stratified on the
    observed confounder and on the counterfactual confounder respectively."""
    return _l_conditioned(model)


def _interaction(model: Model, m: int, m_prime: int, weight=None):
    msup = model.m_support
    if len(msup) != 2:
        raise DomainError("reference interaction is defined for binary mediators only")
    if m not in msup or m_prime not in msup:
        raise DomainError(f"mediator levels ({m}, {m_prime}) outside support")
    p, w = _rows(model, weight)
    a_star, a = p.arms
    interaction = p.y_at(a, m) - p.y_at(a, m_prime) - p.y_at(a_star, m) + p.y_at(a_star, m_prime)
    return engine.unit_sum(w * interaction * p.m_cf[p.arm(a_star)])


def reference_interaction(model: Model, m: int, m_prime: int) -> float:
    """E[{Y(a,m) - Y(a,m') - Y(a*,m) + Y(a*,m')} * M(a*)] for binary M."""
    return float(_interaction(model, m, m_prime))


def _h(model: Model, weight=None):
    a_star, a = model.exposure_levels
    return (engine.h_draw_mean(model, a, a, weight=weight)
            - engine.h_draw_mean(model, a, a_star, weight=weight))


def h_contrast(model: Model) -> float:
    """Marginal contrast of the observed-draw means within the treated arm."""
    return _h(model)


def effect_report(model: Model) -> EffectReport:
    """Compute every effect measure and enforce the decomposition identities."""
    return effect_reports(model)[0]


def effect_reports(model: Model, weight: np.ndarray | None = None) -> list[EffectReport]:
    """effect_report for each row of weight, a (P, units) block of unit
    weights over the model's profile columns: the weights of P models that
    share those columns, such as the points of a family grid. Without weight,
    the one report of the model itself. Each measure is one pass over the
    block, every row added in the order a model on its own adds, so report i
    is bitwise that of the i-th model; the decomposition identities are then
    checked report by report, in row order."""
    te = _total(model, weight)   # its profiles refuse a model validate rejects
    msup = model.m_support
    nie, nde = _natural(model, weight)
    nie_r, nde_r, te_r = _randomized(model, weight)
    cde = {m: _cde(model, m, weight) for m in msup}
    pe = {m: te - cde[m] for m in msup}
    int_ref = None
    if len(msup) == 2:
        int_ref = {(m, mp): _interaction(model, m, mp, weight) for m in msup for mp in msup}
    nie_r_l = nie_r_la = None
    if model.has_l:
        nie_r_l, nie_r_la = _l_conditioned(model, weight)
    h = _h(model, weight)
    rows = 1 if weight is None else len(weight)
    fields = (te, nde, nie, te_r, nde_r, nie_r, cde, pe, int_ref, nie_r_l, nie_r_la, h)
    reports = [EffectReport(*row) for row in zip(*(_column(value, rows) for value in fields))]
    for report in reports:
        _check_report(report)
    return reports


def _column(value, rows: int) -> list:
    """The value of a report field in each of rows rows, as floats."""
    if value is None:
        return [None] * rows
    if isinstance(value, dict):
        return [dict(zip(value, row)) for row in zip(*(_column(v, rows) for v in value.values()))]
    return value.tolist() if getattr(value, "ndim", 0) else [float(value)]


def _check_report(report: EffectReport) -> None:
    if abs(report.te - report.nie - report.nde) > DECOMPOSITION_TOL:
        raise InternalConsistencyError("te != nie + nde beyond tolerance")
    if abs(report.te_r - report.nie_r - report.nde_r) > DECOMPOSITION_TOL:
        raise InternalConsistencyError("te_r != nie_r + nde_r beyond tolerance")
    for m, v in report.pe.items():
        if abs(v - (report.te - report.cde[m])) > DECOMPOSITION_TOL:
            raise InternalConsistencyError(f"pe({m}) != te - cde({m}) beyond tolerance")
