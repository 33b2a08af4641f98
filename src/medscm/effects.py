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

    def to_text(self, fmt=lambda v: f"{v:.12g}") -> str:
        rows = self.rows()
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {fmt(v)}" for name, v in rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["effect", "value"])
        for name, v in self.rows():
            writer.writerow([name, f"{v:.12g}"])
        return buf.getvalue()


def _arms(model: Model) -> tuple[int, int]:
    return model.exposure_levels


def total_effect(model: Model) -> float:
    """E[Y(a)] - E[Y(a*)]."""
    a_star, a = _arms(model)
    p = engine.profiles(model)
    return engine.unit_sum(p.weight * (p.nested(a, a) - p.nested(a_star, a_star)))


def controlled_direct_effect(model: Model, m: int) -> float:
    """E[Y(a, m)] - E[Y(a*, m)]."""
    if m not in model.m_support:
        raise DomainError(f"mediator level {m} outside support")
    a_star, a = _arms(model)
    p = engine.profiles(model)
    return engine.unit_sum(p.weight * (p.y_at(a, m) - p.y_at(a_star, m)))


def natural_effects(model: Model) -> tuple[float, float]:
    """(nie, nde) from the nested counterfactual means."""
    a_star, a = _arms(model)
    p = engine.profiles(model)
    e_aa = engine.unit_sum(p.weight * p.nested(a, a))
    e_as = engine.unit_sum(p.weight * p.nested(a, a_star))
    e_ss = engine.unit_sum(p.weight * p.nested(a_star, a_star))
    return e_aa - e_as, e_as - e_ss


def randomized_effects(model: Model) -> tuple[float, float, float]:
    """(nie_r, nde_r, te_r) from covariate-stratified randomized draws."""
    a_star, a = _arms(model)
    g_aa = engine.g_draw_mean(model, a, a, COND_C)
    g_as = engine.g_draw_mean(model, a, a_star, COND_C)
    g_ss = engine.g_draw_mean(model, a_star, a_star, COND_C)
    return g_aa - g_as, g_as - g_ss, g_aa - g_ss


def l_conditioned_randomized_effects(model: Model) -> tuple[float, float]:
    """(nie_r_L, nie_r_La): indirect contrasts with the draw stratified on the
    observed confounder and on the counterfactual confounder respectively."""
    if not model.has_l:
        raise ShapeError("confounder-conditioned contrasts require an induced confounder")
    a_star, a = _arms(model)
    nie_r_l = (
        engine.g_draw_mean(model, a, a, COND_C_L_OBSERVED)
        - engine.g_draw_mean(model, a, a_star, COND_C_L_OBSERVED)
    )
    nie_r_la = (
        engine.g_draw_mean(model, a, a, COND_C_L_DRAW)
        - engine.g_draw_mean(model, a, a_star, COND_C_L_DRAW)
    )
    return nie_r_l, nie_r_la


def reference_interaction(model: Model, m: int, m_prime: int) -> float:
    """E[{Y(a,m) - Y(a,m') - Y(a*,m) + Y(a*,m')} * M(a*)] for binary M."""
    msup = model.m_support
    if len(msup) != 2:
        raise DomainError("reference interaction is defined for binary mediators only")
    if m not in msup or m_prime not in msup:
        raise DomainError(f"mediator levels ({m}, {m_prime}) outside support")
    a_star, a = _arms(model)
    p = engine.profiles(model)
    interaction = p.y_at(a, m) - p.y_at(a, m_prime) - p.y_at(a_star, m) + p.y_at(a_star, m_prime)
    return engine.unit_sum(p.weight * interaction * p.m_cf[p.arm(a_star)])


def h_contrast(model: Model) -> float:
    """Marginal contrast of the observed-draw means within the treated arm."""
    a_star, a = _arms(model)
    return engine.h_draw_mean(model, a, a) - engine.h_draw_mean(model, a, a_star)


def effect_report(model: Model) -> EffectReport:
    """Compute every effect measure and enforce the decomposition identities."""
    a_star, a = _arms(model)
    msup = model.m_support
    te = total_effect(model)
    nie, nde = natural_effects(model)
    nie_r, nde_r, te_r = randomized_effects(model)
    cde = {m: controlled_direct_effect(model, m) for m in msup}
    pe = {m: te - cde[m] for m in msup}
    int_ref = None
    if len(msup) == 2:
        int_ref = {
            (m, mp): reference_interaction(model, m, mp)
            for m in msup
            for mp in msup
        }
    nie_r_l = nie_r_la = None
    if model.has_l:
        nie_r_l, nie_r_la = l_conditioned_randomized_effects(model)
    report = EffectReport(
        te=te,
        nde=nde,
        nie=nie,
        te_r=te_r,
        nde_r=nde_r,
        nie_r=nie_r,
        cde=cde,
        pe=pe,
        int_ref=int_ref,
        nie_r_L=nie_r_l,
        nie_r_La=nie_r_la,
        h_contrast=h_contrast(model),
    )
    _check_report(report)
    return report


def _check_report(report: EffectReport) -> None:
    if abs(report.te - report.nie - report.nde) > DECOMPOSITION_TOL:
        raise InternalConsistencyError("te != nie + nde beyond tolerance")
    if abs(report.te_r - report.nie_r - report.nde_r) > DECOMPOSITION_TOL:
        raise InternalConsistencyError("te_r != nie_r + nde_r beyond tolerance")
    for m, v in report.pe.items():
        if abs(v - (report.te - report.cde[m])) > DECOMPOSITION_TOL:
            raise InternalConsistencyError(f"pe({m}) != te - cde({m}) beyond tolerance")
