"""The errors of a randomized draw over a stratum of no mass.

Without arms, g_draw_mean(..., "C") and g_draw_mean(..., "C,L(a_draw)")
normalise each stratum by its whole mass. A weight row in which some
stratum has no mass raises DegenerateStratumError naming the first such
stratum of the first such row, as the arm-conditioned draws do; before,
the draw divided 0/0 and returned nan. A model's own weights never leave a
stratum empty.
"""

import numpy as np
import pytest

import medscm as M
from medscm import effects, engine
from medscm.engine import COND_C, COND_C_L_DRAW

PREFIX = "degenerate stratum: "


def _base():
    """A confounded model with four covariate strata, each holding both
    levels of L(0) and of L(1)."""
    return M.random_scm(0, "confounded", with_c=True, c_levels=4)


def _zeroed(*strata):
    """The base model's weights with every unit of the covariate strata zeroed."""
    base = _base()
    p = engine.profiles(base)
    w = p.weight.copy()
    w[np.isin(p.stratum, strata)] = 0.0
    return base, w


# (conditioning, a_set, a_draw, message)
CASES = [
    (COND_C, 1, 0, "no mass within c=(3,)"),
    (COND_C, 0, 1, "no mass within c=(3,)"),
    (COND_C_L_DRAW, 1, 0, "no mass within (c, L(0))=((3,), 0)"),
    (COND_C_L_DRAW, 0, 1, "no mass within (c, L(1))=((3,), 0)"),
]


@pytest.mark.parametrize("conditioning, a_set, a_draw, message", CASES)
def test_a_row_with_an_empty_stratum_names_it(conditioning, a_set, a_draw, message):
    base, row = _zeroed(3)
    w = engine.profiles(base).weight
    for weight in (row, np.stack([w, row, _zeroed(1)[1]])):   # 1-D, then row 1 of a block
        with pytest.raises(M.DegenerateStratumError) as err:
            M.g_draw_mean(base, a_set, a_draw, conditioning, weight=weight)
        assert str(err.value) == PREFIX + message
    # the rows around it are defined, and each equals the model's own mean
    means = M.g_draw_mean(base, a_set, a_draw, conditioning, weight=np.stack([w, w]))
    assert means.tolist() == [M.g_draw_mean(base, a_set, a_draw, conditioning)] * 2


def test_the_first_empty_stratum_of_a_row_is_named():
    base, row = _zeroed(2, 1)
    with pytest.raises(M.DegenerateStratumError) as err:
        M.g_draw_mean(base, 1, 0, COND_C, weight=row)
    assert str(err.value) == PREFIX + "no mass within c=(1,)"


def test_effect_reports_refuse_the_row():
    base, row = _zeroed(3)
    block = np.stack([engine.profiles(base).weight, row])
    with pytest.raises(M.DegenerateStratumError) as err:
        effects.effect_reports(base, block)
    assert str(err.value) == PREFIX + "no mass within c=(3,)"


def test_a_models_own_tables_have_no_empty_stratum():
    base = _base()
    M.effect_report(base)
    p = engine.profiles(base)
    kept = [tables for key, tables in p._memo.items() if key[0] == "draw tables"]
    assert kept and all(tables.empty is None for tables in kept)
