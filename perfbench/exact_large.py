"""exact-large: a ladder of confounded random models, each taken through the
whole exact pipeline; nothing is sampled.

Rungs of C/L/M/Y levels 4/3/3/4, 8/4/4/4 and 16/5/5/5 give 960, 3,000 and
10,368 positive-weight noise units. On the top rung enumeration (profiles)
and the per-query scans of a 4,000-cell observed law take most of the time,
so engine and identify optimisations show here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import medscm as M
import medscm.engine

from common import Op
from reference import GridModel

RUNGS = ((4, 3, 3, 4), (8, 4, 4, 4), (16, 5, 5, 5))
TINY_RUNGS = ((2, 2, 2, 2),)
TOL = 1e-10

CHECKS = (
    "route_te", "route_cde", "route_pe", "route_nie_r", "route_nie_rl",
    "decomposition", "numpy_te", "numpy_cde", "numpy_nie_r", "repeat",
)

TRACE_REQUIRED = (
    "model.build.s", "model.build.calls",
    "engine.profiles.s", "engine.profiles.units", "engine.profiles.distinct",
    "engine.profiles.cache_hits", "engine.profiles.cache_misses",
    "engine.observational_law.s", "engine.law.cells", "engine.g_draw_mean.s",
    "engine.h_draw_mean.s", "engine.strata",
    "effects.effect_report.self_s",
    "identify.psi_te.s", "identify.psi_cde.s", "identify.psi_nie.s",
    "identify.psi_nie_r_L.s", "identify.psi_nie_rl.s", "identify.law_queries",
    "identify.check_assumption.s",
    "criteria.null_status.s",
)


@dataclass(frozen=True)
class Rung:
    seed: int
    c: int
    l: int
    m: int
    y: int

    def build(self):
        return M.random_scm(self.seed, "confounded", with_c=True, c_levels=self.c,
                            l_levels=self.l, m_levels=self.m, y_levels=self.y)


def setup(seed: int, tiny: bool, workdir) -> list[Rung]:
    return [Rung(seed * 1000 + i, *levels)
            for i, levels in enumerate(TINY_RUNGS if tiny else RUNGS)]


def analyse(rung: Rung, lap) -> dict:
    """One operation: a freshly built model through every exact stage. lap()
    between stages lets the clock calibrate inside this long operation."""
    scm = rung.build()
    medscm.engine.profiles(scm)
    lap()
    report = M.effect_report(scm)
    law = M.observational_law(scm)
    lap()
    levels = range(rung.m)
    out = {
        "te": report.te, "nie": report.nie, "nde": report.nde,
        "nie_r": report.nie_r, "nie_r_L": report.nie_r_L,
        "cde": {m: report.cde[m] for m in levels},
        "pe": {m: report.pe[m] for m in levels},
        "psi_te": M.psi_te(law), "psi_cde": {}, "psi_pe": {},
    }
    for m in levels:
        out["psi_cde"][m] = M.psi_cde(law, m)
        out["psi_pe"][m] = M.psi_pe(law, m)
        lap()
    for name in ("psi_nie", "psi_nie_r_L", "psi_nie_rl"):
        out[name] = getattr(M, name)(law)
        lap()
    out["assumptions"] = [(v.assumption, v.holds) for v in M.check_all_assumptions(scm)]
    status = M.null_status(scm)
    out["null_status"] = (status.sharp_null, status.sharper_null, status.monotonicity)
    return out


def _reference(refs: dict, rung: Rung) -> GridModel:
    if rung not in refs:
        refs[rung] = GridModel(rung.build())
    return refs[rung]


def operations(rungs: list[Rung], lap) -> list:
    return [(rung, functools.partial(analyse, rung, lap)) for rung in rungs]


def check(rungs, op: Op, first: Op, c, refs: dict) -> None:
    """Both routes against each other and the enumeration against numpy."""
    rung, out = op.key, op.output
    ref = _reference(refs, rung)
    c.close("route_te", out["psi_te"], out["te"], TOL)
    for m in range(rung.m):
        c.close("route_cde", out["psi_cde"][m], out["cde"][m], TOL)
        c.close("route_pe", out["psi_pe"][m], out["pe"][m], TOL)
        c.close("numpy_cde", out["cde"][m], ref.cde(m), TOL)
    c.close("route_nie_r", out["psi_nie_r_L"], out["nie_r"], TOL)
    c.close("route_nie_rl", out["psi_nie_rl"], out["nie_r_L"], TOL)
    c.close("decomposition", out["te"], out["nie"] + out["nde"], TOL)
    c.close("numpy_te", out["te"], ref.te, TOL)
    c.close("numpy_nie_r", out["nie_r"], ref.nie_r, TOL)
    c.equal("repeat", out, first.output)


def rates(rungs, wall_s: float, refs: dict, ops: list[Op]) -> list[tuple[str, float, str]]:
    units = sum(_reference(refs, r).w.size for r in rungs)
    return [("units_per_s", units / wall_s, "units/s"), ("units_per_round", units, "units")]
