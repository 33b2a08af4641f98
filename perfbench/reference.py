"""Reference computations the benchmark checks medscm against.

Nothing here calls medscm code. A model is read only through its public data
(variables, noise pmfs, structural tables, or the atoms of an explicit
counterfactual joint) and evaluated with plain numpy over the whole noise
grid. The closed forms are the paper's contrasts for its counterexample
families.
"""

from __future__ import annotations

import itertools

import numpy as np


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def t1_nie_r(pi: float, beta: float) -> float:
    """Randomized indirect contrast of the sharper-null model (Theorem 1)."""
    return pi * (1.0 - pi) * (2.0 * beta - 1.0)


def s1_nie_r_l(pi: float, beta: float) -> float:
    """Indirect contrast of the same model with the draw stratified on the
    observed confounder."""
    return beta - 0.5


def t3_nie_r(pi: float, b1: float, b2: float, b3: float, b4: float) -> float:
    """Randomized indirect contrast of the cross-world-dependent joint
    (Theorem 3)."""
    return ((1.0 - pi) * b4 - pi * b1) * (b3 - b2)


def pe_value(p: float, m: int) -> float:
    """Portion eliminated at mediator level m of the no-effect-on-M model."""
    return p - m


# ---------------------------------------------------------------------------
# Noise-grid evaluation
# ---------------------------------------------------------------------------


class GridModel:
    """Every positive-weight noise unit of a model with its counterfactuals.

    Arrays are indexed by unit: weight w, factual c (units x covariates), a,
    l (None without an induced confounder), m, y; m_cf[a'] = M(a'),
    l_cf[a'] = L(a'), y_cf[(a', m)] = Y(a', m), y_mfix[m] = Y under do(M=m).
    """

    def __init__(self, model):
        if hasattr(model, "joint"):
            self._from_joint(model)
        else:
            self._from_tables(model)

    # -- construction -------------------------------------------------------

    def _from_joint(self, spec) -> None:
        self.arms = tuple(spec.exposure_levels)
        self.msup = tuple(spec.m_support)
        labels = ["A"] + [f"M({ap})" for ap in self.arms]
        labels += [f"Y({ap},{m})" for ap in self.arms for m in self.msup]
        atoms = [(atom, w) for atom, w in spec.joint.items() if w > 0.0]
        cols = np.array([atom for atom, _w in atoms], dtype=np.int64).reshape(len(atoms), -1)
        col = {lab: cols[:, i] for i, lab in enumerate(labels)}
        self.w = np.array([w for _atom, w in atoms])
        self.c = np.zeros((len(atoms), 0), dtype=np.int64)
        self.a = col["A"]
        self.l = None
        self.l_cf = None
        self.m_cf = {ap: col[f"M({ap})"] for ap in self.arms}
        self.y_cf = {(ap, m): col[f"Y({ap},{m})"] for ap in self.arms for m in self.msup}
        self.m = self._pick(self.a, {ap: self.m_cf[ap] for ap in self.arms})
        self.y = self._nested_on(self.a, self.m)
        self.y_mfix = {m: self._pick(self.a, {ap: self.y_cf[(ap, m)] for ap in self.arms})
                       for m in self.msup}

    def _from_tables(self, scm) -> None:
        role = {v.name: v.role for v in scm.variables}
        self.support = {v.name: tuple(sorted(v.support)) for v in scm.variables}
        self.arms = tuple(scm.exposure_levels)
        (self.a_name,) = [n for n, r in role.items() if r == "A"]
        (self.m_name,) = [n for n, r in role.items() if r == "M"]
        (self.y_name,) = [n for n, r in role.items() if r == "Y"]
        l_names = [n for n, r in role.items() if r == "L"]
        self.l_name = l_names[0] if l_names else None
        self.c_names = [v.name for v in scm.variables if v.role == "C"]
        self.msup = self.support[self.m_name]

        noise = list(scm.noise)
        levels = [sorted(n.pmf) for n in noise]
        grids = np.meshgrid(*[np.arange(len(lv)) for lv in levels], indexing="ij")
        w = np.ones(grids[0].size)
        for n, lv, g in zip(noise, levels, grids):
            w = w * np.array([n.pmf[x] for x in lv])[g.ravel()]
        keep = w > 0.0
        self.w = w[keep]
        self._noise_pos = {n.name: g.ravel()[keep] for n, g in zip(noise, grids)}
        self._noise_levels = {n.name: lv for n, lv in zip(noise, levels)}

        self._tables = {t.variable: t for t in scm.tables}
        self._lookup = {name: self._dense(t) for name, t in self._tables.items()}
        self._order = self._topological()

        factual = self._evaluate({})
        self.c = np.stack([factual[c] for c in self.c_names], axis=1) if self.c_names \
            else np.zeros((self.w.size, 0), dtype=np.int64)
        self.a = factual[self.a_name]
        self.l = factual[self.l_name] if self.l_name else None
        self.m = factual[self.m_name]
        self.y = factual[self.y_name]
        self.m_cf, self.y_cf = {}, {}
        self.l_cf = {} if self.l_name else None
        for ap in self.arms:
            world = self._evaluate({self.a_name: ap})
            self.m_cf[ap] = world[self.m_name]
            if self.l_name:
                self.l_cf[ap] = world[self.l_name]
            for m in self.msup:
                self.y_cf[(ap, m)] = self._evaluate({self.a_name: ap, self.m_name: m})[self.y_name]
        self.y_mfix = {m: self._evaluate({self.m_name: m})[self.y_name] for m in self.msup}

    def _dense(self, table) -> np.ndarray:
        sups = [self.support[p] for p in table.parents]
        noise_levels = self._noise_levels[table.noise]
        out = np.empty([len(s) for s in sups] + [len(noise_levels)], dtype=np.int64)
        for idx in itertools.product(*[range(len(s)) for s in sups]):
            pv = tuple(s[i] for s, i in zip(sups, idx))
            for k, e in enumerate(noise_levels):
                out[idx + (k,)] = table.table[(pv, e)]
        return out

    def _topological(self) -> list[str]:
        order: list[str] = []
        pending = list(self._tables)
        while pending:
            ready = [n for n in pending if all(p in order for p in self._tables[n].parents)]
            if not ready:
                raise ValueError("structural tables are cyclic")
            order += ready
            pending = [n for n in pending if n not in ready]
        return order

    def _evaluate(self, fixed: dict) -> dict[str, np.ndarray]:
        values: dict[str, np.ndarray] = {}
        for name in self._order:
            if name in fixed:
                values[name] = np.full(self.w.size, fixed[name], dtype=np.int64)
                continue
            t = self._tables[name]
            idx = tuple(
                np.searchsorted(np.asarray(self.support[p]), values[p]) for p in t.parents
            ) + (self._noise_pos[t.noise],)
            values[name] = self._lookup[name][idx]
        return values

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _pick(selector: np.ndarray, by_value: dict) -> np.ndarray:
        out = np.zeros_like(selector)
        for v, arr in by_value.items():
            out = np.where(selector == v, arr, out)
        return out

    def _nested_on(self, arm, mediator: np.ndarray) -> np.ndarray:
        """Y(arm, mediator) per unit; arm is an exposure level or an array."""
        out = np.zeros(self.w.size, dtype=np.int64)
        for ap in self.arms:
            for m in self.msup:
                sel = (arm == ap) & (mediator == m)
                out = np.where(sel, self.y_cf[(ap, m)], out)
        return out

    def nested_mean(self, a_outer: int, a_inner: int) -> float:
        return float(self.w @ self._nested_on(a_outer, self.m_cf[a_inner]))

    @staticmethod
    def _key_ids(*cols: np.ndarray) -> np.ndarray:
        stacked = np.stack(cols, axis=1) if cols else None
        return np.unique(stacked, axis=0, return_inverse=True)[1].ravel()

    # -- effect measures ----------------------------------------------------

    @property
    def te(self) -> float:
        a_star, a = self.arms
        return self.nested_mean(a, a) - self.nested_mean(a_star, a_star)

    def cde(self, m: int) -> float:
        a_star, a = self.arms
        return float(self.w @ (self.y_cf[(a, m)] - self.y_cf[(a_star, m)]))

    @property
    def nie(self) -> float:
        a_star, a = self.arms
        return self.nested_mean(a, a) - self.nested_mean(a, a_star)

    def _g_draw_mean(self, a_set: int, a_draw: int) -> float:
        """Covariate-stratified draw: sum over c of sum_m D_c[m] O_c[m] / W_c."""
        key = self._key_ids(*self.c.T) if self.c.shape[1] else np.zeros(self.w.size, dtype=np.int64)
        n_key = int(key.max()) + 1
        w_c = np.bincount(key, weights=self.w, minlength=n_key)
        value = np.zeros(n_key)
        for m in self.msup:
            draw = np.bincount(key, weights=self.w * (self.m_cf[a_draw] == m), minlength=n_key)
            out = np.bincount(key, weights=self.w * self.y_cf[(a_set, m)], minlength=n_key)
            value += draw * out
        return float(np.sum(value / w_c))

    @property
    def nie_r(self) -> float:
        a_star, a = self.arms
        return self._g_draw_mean(a, a) - self._g_draw_mean(a, a_star)

    # -- counts -------------------------------------------------------------

    def law(self) -> dict[tuple, float]:
        """Exact observational pmf keyed (c tuple, a, l, m, y)."""
        cols = [*self.c.T, self.a, self.l if self.l is not None else np.zeros_like(self.a),
                self.m, self.y]
        cells, inverse = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)
        mass = np.bincount(inverse.ravel(), weights=self.w, minlength=len(cells))
        nc = self.c.shape[1]
        return {
            (tuple(int(v) for v in cell[:nc]), int(cell[nc]),
             int(cell[nc + 1]) if self.l is not None else None,
             int(cell[nc + 2]), int(cell[nc + 3])): float(p)
            for cell, p in zip(cells, mass)
        }

    def distinct_profiles(self) -> int:
        """Units with distinct counterfactual signatures (response types)."""
        cols = [*self.c.T, self.a, self.m, self.y]
        if self.l is not None:
            cols += [self.l, *self.l_cf.values()]
        cols += [*self.m_cf.values(), *self.y_cf.values(), *self.y_mfix.values()]
        return int(len(np.unique(np.stack(cols, axis=1), axis=0)))

    def strata(self, conditioning: str, a_draw: int) -> int:
        """Number of conditioning strata a randomized-draw mean visits."""
        cols = list(self.c.T)
        if conditioning == "C,L":
            cols.append(self.l)
        elif conditioning == "C,L(a_draw)":
            cols.append(self.l_cf[a_draw])
        if not cols:
            return 1
        return int(len(np.unique(np.stack(cols, axis=1), axis=0)))
