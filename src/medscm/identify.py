"""Nonparametric identification functionals and exchangeability checks.

The functionals consume an ObservedLaw only, never a model, which enforces
the identification boundary at the type level: anything counterfactual must
arrive through the engine's enumeration instead. Assumption checks go the
other way; they interrogate the full counterfactual joint of a model by
exact factorization tests, each a grouped contingency table over the
engine's profile columns.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine
from .engine import MEAN_Y_TEXT, ObservedLaw, running_sum
from .errors import DegenerateStratumError, DomainError, ShapeError
from .model import Model, level_positions

INDEPENDENCE_TOL = 1e-9

ASSUMPTIONS = ("A1", "A2", "A3", "A4", "A6", "A7")


@dataclass(frozen=True)
class AssumptionVerdict:
    """Outcome of one exchangeability/positivity check.

    worst_violation is the maximum absolute deviation of a joint cell from
    the product of its marginals; for the positivity check it is the negated
    smallest required cell probability (1.0 when a required cell is empty),
    so 'holds' is worst_violation <= 1e-9 in both cases.
    """

    assumption: str
    holds: bool
    worst_violation: float
    witness: str


# ---------------------------------------------------------------------------
# Identification functionals
# ---------------------------------------------------------------------------
# Each functional is a fixed number of queries over the whole table: the
# strata on the first axis of every query, levels on the trailing axes. Level
# sums and stratum sums are running sums from 0.0 in level and c_strata()
# order, and the first failing entry in C order is the one the per-stratum,
# per-level loops would meet first, so values and errors are theirs. A batch
# of laws (bootstrap replicates) is scored at once along a leading axis.


def _strata(law: ObservedLaw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law's strata, their mass, and whether each law holds each one."""
    cells = law.strata
    w_c = law.prob(c=cells)
    return cells, w_c, w_c > 0.0


def _raise_first(bad: np.ndarray, describe: Callable[..., str]) -> None:
    """DegenerateStratumError describing the first bad entry in C order;
    describe takes its index."""
    if bad.any():
        raise DegenerateStratumError(describe(*np.unravel_index(np.argmax(bad), bad.shape)))


def _check_arm_positivity(law: ObservedLaw, cells: np.ndarray, live: np.ndarray,
                          empty: np.ndarray | None = None) -> None:
    """Every exposure arm occurs in every stratum; empty, if given, marks
    the (stratum, arm) cells known to be empty."""
    arms = law.exposure_levels
    if empty is None:
        empty = law.prob(c=cells[:, None], a=list(arms)) <= 0.0
    _raise_first(empty & live[..., None],
                 lambda *i: f"Pr(A={arms[i[-1]]} | c={cells[i[-2]]!r}) = 0")


def _check_mediator_positivity(law: ObservedLaw, cells: np.ndarray, live: np.ndarray) -> None:
    # In-sample analog of the mediator-density positivity requirement: every
    # mediator level must occur in both exposure arms within every covariate
    # stratum. An arm is empty exactly where all its mediator levels are.
    arms, levels = law.exposure_levels, law.m_support
    empty = law.prob(c=cells[:, None, None], a=[[ap] for ap in arms], m=list(levels)) <= 0.0
    _check_arm_positivity(law, cells, live, empty.all(axis=-1))
    _raise_first(empty & live[..., None, None],
                 lambda *i: f"Pr(M={levels[i[-1]]} | A={arms[i[-2]]}, c={cells[i[-3]]!r}) = 0")


def _l_standardised(law: ObservedLaw, c: np.ndarray, where: np.ndarray, a, m) -> np.ndarray:
    """sum_l Pr(l | a, c) E(Y | m, l, a, c) over the levels l of positive
    weight, where allows; cells c, levels a and m and where broadcast."""
    c, where, a, m = (np.asarray(x)[..., None] for x in (c, where, a, m))   # l on a new last axis
    levels = list(law.l_support)
    w_l = law.cond_prob(of={"l": levels}, given={"c": c, "a": a}, where=where)
    return running_sum(w_l * law.mean_y(c=c, a=a, l=levels, m=m, where=where & (w_l > 0.0)))


def psi_te(law: ObservedLaw) -> float:
    """E{E(Y|a,C)} - E{E(Y|a*,C)} as exact stratum sums."""
    cells, w_c, live = _strata(law)
    _check_arm_positivity(law, cells, live)
    a_star, a = law.exposure_levels
    y = law.mean_y(c=cells[:, None], a=[a, a_star], where=live[..., None])
    return law.stratum_sum(w_c * (y[..., 0] - y[..., 1]))


def psi_cde(law: ObservedLaw, m: int) -> float:
    """Controlled-direct-effect functional; adjusts for the observed
    confounder by the per-arm g-formula when the law has one."""
    if m not in law.m_support:
        raise DomainError(f"mediator level {m} outside support")
    cells, w_c, live = _strata(law)
    _check_arm_positivity(law, cells, live)
    a_star, a = law.exposure_levels
    if law.has_l:
        y = _l_standardised(law, cells[:, None], live[..., None], [a, a_star], m)
    else:
        y = law.mean_y(c=cells[:, None], a=[a, a_star], m=m, where=live[..., None])
    return law.stratum_sum(w_c * (y[..., 0] - y[..., 1]))


def psi_pe(law: ObservedLaw, m: int) -> float:
    """Portion-eliminated functional: psi_te - psi_cde at level m."""
    return psi_te(law) - psi_cde(law, m)


def psi_nie(law: ObservedLaw) -> float:
    """The mediation-formula functional
    E{E(Y|a,C)} - E[E{E(Y|M,a,C) | a*,C}]."""
    cells, w_c, live = _strata(law)
    _check_mediator_positivity(law, cells, live)
    a_star, a = law.exposure_levels
    levels = list(law.m_support)
    w_m = law.cond_prob(of={"m": levels}, given={"c": cells[:, None], "a": a_star},
                        where=live[..., None])
    inner = running_sum(w_m * law.mean_y(c=cells[:, None], a=a, m=levels, where=w_m > 0.0))
    return law.stratum_sum(w_c * (law.mean_y(c=cells, a=a, where=live) - inner))


def psi_nie_r_L(law: ObservedLaw) -> float:
    """Identification functional for the covariate-stratified randomized
    indirect contrast in the presence of an observed induced confounder:
    E[ sum_m sum_l E(Y|m,l,a,C) Pr(l|a,C) {Pr(m|a,C) - Pr(m|a*,C)} ]."""
    if not law.has_l:
        raise ShapeError("functional requires a law with an induced confounder")
    cells, w_c, live = _strata(law)
    _check_mediator_positivity(law, cells, live)
    a_star, a = law.exposure_levels
    levels = np.array(law.m_support)
    w_m = law.cond_prob(of={"m": list(levels)}, given={"c": cells[:, None, None],
                        "a": [[a], [a_star]]}, where=live[..., None, None])
    delta = w_m[..., 0, :] - w_m[..., 1, :]
    y = _l_standardised(law, cells[:, None], delta != 0.0, a, levels)
    return law.stratum_sum(w_c * running_sum(delta * y))


def psi_nie_rl(law: ObservedLaw) -> float:
    """Identification functional for the contrast whose draw is stratified on
    the observed confounder:
    E{E(Y|L,a,C)} - E[E{E(Y|M,L,a,C) | L,a*,C}], the outer expectation taken
    over the marginal (C, L) law."""
    if not law.has_l:
        raise ShapeError("functional requires a law with an induced confounder")
    a_star, a = law.exposure_levels
    cells = law.strata
    l_levels, m_levels = list(law.l_support), list(law.m_support)
    c, c_l, l_m = cells[:, None], cells[:, None, None], np.array(l_levels)[:, None]
    w_cl = law.prob(c=c, l=l_levels)
    on = w_cl > 0.0
    first_mass, draw_mass = (law.prob(c=c, a=ap, l=l_levels) for ap in (a, a_star))
    w_m = law.cond_prob(of={"m": m_levels}, given={"c": c_l, "a": a_star, "l": l_m},
                        where=(on & (draw_mass > 0.0))[..., None])
    second_mass = law.prob(c=c_l, a=a, l=l_m, m=m_levels)

    # each (c, l) in turn: E(Y | c, a, l), then Pr(. | c, a*, l), then E(Y | m, c, a, l)
    def describe(*i):
        cell, l, k = cells[i[-3]], l_levels[i[-2]], i[-1]
        if k == 1:
            return repr({"c": cell, "a": a_star, "l": l})
        return MEAN_Y_TEXT.format(c=cell, a=a, l=l, m=None if k == 0 else m_levels[k - 2])

    _raise_first(np.concatenate([(on & (first_mass <= 0.0))[..., None],
                                 (on & (draw_mass <= 0.0))[..., None],
                                 (w_m > 0.0) & (second_mass <= 0.0)], axis=-1), describe)
    first = law.mean_y(c=c, a=a, l=l_levels, where=on)
    second = running_sum(w_m * law.mean_y(c=c_l, a=a, l=l_m, m=m_levels, where=w_m > 0.0))
    return law.stratum_sum(w_cl * (first - second))


FUNCTIONALS = {
    "psi_te": psi_te,
    "psi_cde": psi_cde,
    "psi_pe": psi_pe,
    "psi_nie": psi_nie,
    "psi_nie_r_L": psi_nie_r_L,
    "psi_nie_rl": psi_nie_rl,
}


# ---------------------------------------------------------------------------
# Assumption checks on the counterfactual joint
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Strata:
    """The units one stratification scores, all of them (units None) or
    those of one exposure arm: the stratum of each, numbered as among all
    units (n_strata of them), the name of a unit's stratum, and each unit's
    share of its stratum's weight among them."""

    s: np.ndarray
    n_strata: int
    key_of: Callable[[int], object]
    units: np.ndarray | None
    share: np.ndarray


class _CheckTables:
    """What the assumption checks of one model read, each built on first use
    and kept by key: the level codes of A, M, M(a') and Y(a', m) over every
    unit; the strata of every unit by C, and of each arm's units by C or
    (C, L), with their shares; each arm's codes of a z column; and the
    marginal tables P(column | stratum) of the columns a check has scored.
    check_all_assumptions shares one set among its checks for that call
    only; a lone check builds its own. A check's x codes over an arm and its
    joint table are not kept."""

    def __init__(self, model: Model):
        self.model, self.p = model, engine.profiles(model)
        self._built: dict = {}

    def _once(self, key, compute: Callable[[], object]):
        if key not in self._built:
            self._built[key] = compute()
        return self._built[key]

    def codes(self, name: str) -> np.ndarray:
        """Level positions of column name ("a", "m", "m_cf" or "y_cf")."""
        return self._once(("codes", name), lambda: level_positions(getattr(self.p, name),
                                                                   self.levels(name)))

    def levels(self, name: str) -> tuple[int, ...]:
        """The levels of column name."""
        model = self.model
        if name in ("m", "m_cf"):
            return model.m_support
        return model.var(model.exposure_name if name == "a" else model.outcome_name).support

    def strata(self, arm: int | None = None, with_l: bool = False) -> _Strata:
        """The units of exposure arm (every unit for None) stratified by C, or
        with with_l by (C, L)."""
        return self._once(("strata", arm, with_l), lambda: self._stratify(arm, with_l))

    def _stratify(self, arm: int | None, with_l: bool) -> _Strata:
        p, w, units = self.p, self.p.weight, None
        s, n_strata, key_of = p.stratum, p.stratum_first.size, p.c_key
        if with_l:
            s, first = p.cl_strata(keep=False)
            n_strata, key_of = first.size, lambda u: (p.c_key(u), int(p.l[u]))
        if arm is not None:
            units = self.units(arm)
            s, w = s[units], w[units]
        share = w / np.bincount(s, weights=w, minlength=n_strata)[s]
        return _Strata(s, n_strata, key_of, units, share)

    def units(self, arm: int) -> np.ndarray:
        """The units of exposure arm."""
        return self._once(("units", arm), lambda: np.flatnonzero(self.p.a == arm))

    def column(self, arm: int | None, row: tuple) -> np.ndarray:
        """Codes of a column row (name, index...) over the units of exposure
        arm, every unit for None."""
        codes = self.codes(row[0])[row[1:]]
        if arm is None:
            return codes
        return self._once(("column", arm, row), lambda: codes[self.units(arm)])

    def marginal(self, by: tuple, row: tuple, bins: Callable[[], np.ndarray]) -> np.ndarray:
        """P(level of column row | stratum) under the strata by, (strata,
        levels): one np.bincount of the shares over bins() = stratum * levels
        + code, in unit order, on first use."""
        def count():
            st = self.strata(*by)
            ns, k = st.n_strata, len(self.levels(row[0]))
            return np.bincount(bins(), weights=st.share, minlength=ns * k).reshape(ns, k)
        return self._once(("marginal", by, row), count)


_TABLES: contextvars.ContextVar[_CheckTables | None] = contextvars.ContextVar(
    "check_tables", default=None)


def _search(t: _CheckTables, checks: list) -> tuple[float, str]:
    """Max |P(x,z | s) - P(x | s) P(z | s)| over checks, strata s and the
    cells (x, z) whose values both occur in s; the witness names the first
    check attaining it (its tag), then its first stratum and cell attaining
    it, strata and values in order of first occurrence. Each check is (tag,
    by, x row, z row): by = (arm, with_l) names the strata (see
    _CheckTables.strata), and x and z are column rows (name, index...).

    Each check is a table of its own: its bins stratum * nx + x are formed
    once, give P(x | s) unless the same strata have scored that row, then
    become (stratum * nx + x) * nz + z for the joint table, one np.bincount
    of the shares in unit order. The witness search runs once, over the
    winning check."""
    worst, winner = 0.0, None
    for tag, by, x_row, z_row in checks:
        st = t.strata(*by)
        if st.s.size == 0:
            continue   # an empty arm: nothing to test
        x_levels, z_levels = t.levels(x_row[0]), t.levels(z_row[0])
        ns, nx, nz = st.n_strata, len(x_levels), len(z_levels)
        xc = t.codes(x_row[0])[x_row[1:]]
        if st.units is not None:
            xc = xc[st.units]
        zc = t.column(by[0], z_row)
        bins = st.s * nx + xc
        px = t.marginal(by, x_row, lambda: bins)[:, :, None]
        pz = t.marginal(by, z_row, lambda: st.s * nz + zc)[:, None, :]
        bins *= nz
        bins += zc
        joint = np.bincount(bins, weights=st.share, minlength=ns * nx * nz).reshape(ns, nx, nz)
        # a value absent from a stratum has no units there, so its marginal
        # and its joint cells are 0.0 and deviate by 0.0
        dev = np.abs(joint - px * pz)
        top = float(dev.max())
        if top > worst:
            worst, winner = top, (st, tag, xc, zc, dev, x_levels, z_levels)
    if winner is None:
        return 0.0, ""
    st, tag, xc, zc, dev, x_levels, z_levels = winner
    # the first stratum attaining it: that of the first unit in a stratum that does
    tied = dev.max(axis=(1, 2)) == worst
    u = int(np.argmax(tied[st.s]))
    in_j = st.s == st.s[u]
    # its cells in visit order: by first occurrence of x, then of z
    n = st.s.size
    x_seen, z_seen = (_first_seen(code[in_j], len(levels), n)
                      for code, levels in ((xc, x_levels), (zc, z_levels)))
    visit = x_seen[:, None] * n + z_seen[None, :]
    visit[dev[st.s[u]] != worst] = visit.max() + 1
    xi, zi = np.unravel_index(np.argmin(visit), visit.shape)
    cell = f"cell (x={x_levels[xi]}, z={z_levels[zi]})"
    key = st.key_of(u if st.units is None else int(st.units[u]))
    return worst, f"{tag}: stratum {key!r}, {cell}"


def _first_seen(codes: np.ndarray, k: int, absent: int) -> np.ndarray:
    """Index of the first occurrence of each level 0..k-1 in codes, absent
    for a level that does not occur."""
    hit = codes == np.arange(k)[:, None]
    return np.where(hit.any(axis=1), hit.argmax(axis=1), absent)


def check_assumption(model: Model, which: str) -> AssumptionVerdict:
    """Exact factorization (or positivity) test of one assumption over the
    model's full counterfactual joint. Each independence check of an
    assumption is scored as a table of its own, and the witness names the
    first check, in the order listed here, that attains the largest
    deviation. Within check_all_assumptions it reads that call's tables;
    otherwise it builds what it reads itself."""
    if which not in ASSUMPTIONS:
        raise DomainError(f"unknown assumption {which!r}; expected one of {ASSUMPTIONS}")
    t = _TABLES.get()
    if t is None or t.model is not model:
        t = _CheckTables(model)
    if which == "A6":
        return _check_positivity(t)
    p = t.p
    a_star, a = arms = model.exposure_levels
    levels = p.m_levels
    if which == "A1":
        # Y(a', m) independent of the factual exposure given C
        checks = [(f"Y({ap},{m}) vs A", (None, False), ("y_cf", p.arm(ap), j), ("a",))
                  for ap in arms for j, m in enumerate(levels)]
    elif which == "A3":
        checks = [(f"M({ap}) vs A", (None, False), ("m_cf", p.arm(ap)), ("a",)) for ap in arms]
    elif which == "A4":
        # the cross-world independence: Y(a, m) vs M(a*) given C
        checks = [(f"Y({a},{m}) vs M({a_star})", (None, False), ("y_cf", p.arm(a), j),
                   ("m_cf", p.arm(a_star))) for j, m in enumerate(levels)]
    else:
        # A2: Y(a', m) independent of the factual mediator given C within arm
        # a'; A7 the same given (C, L), which coincides with A2 when there is
        # no induced confounder
        given_l = "L, " if which == "A7" else ""
        by_l = which == "A7" and model.has_l
        checks = [(f"Y({ap},{m}) vs M | {given_l}A={ap}", (ap, by_l), ("y_cf", p.arm(ap), j),
                   ("m",)) for ap in arms for j, m in enumerate(levels)]
    worst, witness = _search(t, checks)
    return AssumptionVerdict(which, worst <= INDEPENDENCE_TOL, worst, witness)


def _check_positivity(t: _CheckTables) -> AssumptionVerdict:
    # Cell probabilities of the exact observed law, summed cell by cell in
    # law order as ObservedLaw.prob does: the stratum, (stratum, arm) and
    # (stratum, arm, level) masses come from one np.bincount, each bin adding
    # its cells in that order (an exposure level off the arms in a third slot)
    model, p = t.model, t.p
    cell, first, _shape = engine.law_cells(model, p, keep=False)
    mass = np.bincount(cell, weights=p.weight)[cell[first]]
    a_star, a = arms = p.arms
    levels, k, ns = p.m_levels, len(p.m_levels), p.stratum_first.size
    s, on_a = p.stratum[first], p.a[first]
    sa = s * 3 + (on_a == a) + 2 * ((on_a != a_star) & (on_a != a))
    bins = np.concatenate([s, ns + sa, ns * 4 + sa * k + t.codes("m")[first]])
    counts = np.bincount(bins, weights=np.tile(mass, 3), minlength=ns * (4 + 3 * k))
    w_c = counts[:ns]
    w_arm = counts[ns:ns * 4].reshape(ns, 3)[:, :2].T                        # (arm, stratum)
    w_cell = counts[ns * 4:].reshape(ns, 3, k)[:, :2].transpose(1, 2, 0)     # (arm, level, stratum)
    pr_arm = w_arm / w_c
    f_cell = np.divide(w_cell, w_arm[:, None], out=np.zeros_like(w_cell),
                       where=w_arm[:, None] > 0.0)
    # mediator levels that must be observable in each arm: the factual
    # support united with the counterfactual support of M(a')
    seen = [np.bincount(col, minlength=k) > 0 for col in (t.codes("m"), *t.codes("m_cf"))]
    required = np.stack([seen[0] | seen[1 + i] for i in range(2)])       # (arm, level)
    min_cell = min(float(pr_arm.min()), float(f_cell[required].min()))

    def c(u):
        return repr(p.c_key(int(p.stratum_first[u])))

    names = [f"Pr(A={arms[i]} | c={c(u)})" for i, u in zip(*np.nonzero(pr_arm == min_cell))]
    names += [f"f(M={levels[j]} | A={arms[i]}, c={c(u)})"
              for i, j, u in zip(*np.nonzero(required[..., None] & (f_cell == min_cell)))]
    if min_cell <= 0.0:
        return AssumptionVerdict("A6", False, 1.0, f"empty required cell {min(names)}")
    return AssumptionVerdict("A6", True, -min_cell, f"smallest required cell {min(names)}")


def check_all_assumptions(model: Model) -> list[AssumptionVerdict]:
    """check_assumption of every assumption in ASSUMPTIONS order, the checks
    sharing one _CheckTables for this call only."""
    token = _TABLES.set(_CheckTables(model))
    try:
        return [check_assumption(model, which) for which in ASSUMPTIONS]
    finally:
        _TABLES.reset(token)
