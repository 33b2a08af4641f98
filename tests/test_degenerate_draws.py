"""The errors of a randomized draw over an empty exposure arm.

With arms, g_draw_mean(..., COND_C_L_OBSERVED) and h_draw_mean normalise the
draw law within the draw arm and the outcome mean within the outcome (for h,
the stratum) arm of each stratum. An empty arm raises DegenerateStratumError
naming the first stratum that has one, of the first weight row that has one;
when both arms of that stratum are empty the draw arm is named. Every message
below was recorded from the kernel that summed every unit once per mediator
level.
"""

import numpy as np
import pytest

import medscm as M
from medscm import engine
from medscm.engine import COND_C_L_OBSERVED
from medscm.model import NoiseSpec, Scm

PREFIX = "degenerate stratum: "


def _base():
    """A confounded model with four covariate strata and eight (c, l) strata,
    both arms present in each."""
    return M.random_scm(0, "confounded", with_c=True, c_levels=4)


def _collapsed(level: int) -> Scm:
    """The base model with its exposure noise on one level: A is a function
    of C, so some strata lack one arm."""
    base = _base()
    noise = tuple(NoiseSpec(n.name, {v: float(v == level) for v in n.pmf})
                  if n.name == "eps_A" else n for n in base.noise)
    return Scm.of(base.variables, noise, base.tables, base.exposure_levels)


def _zeroed(*cells):
    """The base model's weights with the units of each (stratum kind, stratum,
    arm or None) cell zeroed; kind "cl" numbers (c, l) strata, "c" covariate
    strata."""
    base = _base()
    p = engine.profiles(base)
    w = p.weight.copy()
    for kind, s, arm in cells:
        stratum = p.cl_strata()[0] if kind == "cl" else p.stratum
        w[(stratum == s) & (True if arm is None else p.a == arm)] = 0.0
    return base, w


def _g(a_set, a_draw):
    return lambda model, weight: M.g_draw_mean(model, a_set, a_draw, COND_C_L_OBSERVED,
                                               weight=weight)


def _h(a_stratum, a_draw):
    return lambda model, weight: M.h_draw_mean(model, a_stratum, a_draw, weight=weight)


# (draw, its model and weights, message)
MODEL_CASES = {
    "g empty outcome arm": (_g(1, 0), lambda: (_collapsed(0), None),
                            "outcome arm A=1 within (c, l)=((0,), 0)"),
    "g empty draw arm": (_g(0, 1), lambda: (_collapsed(0), None),
                         "draw arm A=1 within (c, l)=((0,), 0)"),
    "g one arm, both roles": (_g(1, 1), lambda: (_collapsed(0), None),
                              "draw arm A=1 within (c, l)=((0,), 0)"),
    "h empty stratum arm": (_h(1, 0), lambda: (_collapsed(0), None),
                            "stratum arm A=1 within c=(0,)"),
    "h empty draw arm": (_h(0, 1), lambda: (_collapsed(0), None),
                         "draw arm A=1 within c=(0,)"),
    "h one arm, both roles": (_h(1, 1), lambda: (_collapsed(1), None),
                              "draw arm A=1 within c=(1,)"),
}

# an outcome arm empty in (c, l) stratum 1 and a draw arm empty in stratum 2
_MIXED = (("cl", 1, 1), ("cl", 2, 0))
_MIXED_C = (("c", 1, 1), ("c", 2, 0))

WEIGHT_CASES = {
    "g first stratum, outcome arm": (_g(1, 0), lambda: _zeroed(*_MIXED),
                                     "outcome arm A=1 within (c, l)=((0,), 1)"),
    "g first stratum, draw arm": (_g(0, 1), lambda: _zeroed(*_MIXED),
                                  "draw arm A=1 within (c, l)=((0,), 1)"),
    "h first stratum, stratum arm": (_h(1, 0), lambda: _zeroed(*_MIXED_C),
                                     "stratum arm A=1 within c=(1,)"),
    "h first stratum, draw arm": (_h(0, 1), lambda: _zeroed(*_MIXED_C),
                                  "draw arm A=1 within c=(1,)"),
    "g both arms empty": (_g(1, 0), lambda: _zeroed(("cl", 3, None)),
                          "draw arm A=0 within (c, l)=((1,), 1)"),
    "h both arms empty": (_h(1, 0), lambda: _zeroed(("c", 3, None)),
                          "draw arm A=0 within c=(3,)"),
}


@pytest.mark.parametrize("case", list(MODEL_CASES) + list(WEIGHT_CASES))
def test_an_empty_arm_names_the_first_stratum(case):
    draw, inputs, message = {**MODEL_CASES, **WEIGHT_CASES}[case]
    model, weight = inputs()
    with pytest.raises(M.DegenerateStratumError) as err:
        draw(model, weight)
    assert str(err.value) == PREFIX + message


@pytest.mark.parametrize("draw, message", [
    (_g(1, 0), "outcome arm A=1 within (c, l)=((2,), 1)"),
    (_g(0, 1), "draw arm A=1 within (c, l)=((2,), 1)"),
    (_h(1, 0), "stratum arm A=1 within c=(2,)"),
    (_h(0, 1), "draw arm A=1 within c=(2,)"),
])
def test_a_block_with_one_degenerate_row(draw, message):
    base, row_2 = _zeroed(("c", 2, 1))
    w = engine.profiles(base).weight
    block = np.stack([w, w, row_2, w])
    with pytest.raises(M.DegenerateStratumError) as err:
        draw(base, block)
    assert str(err.value) == PREFIX + message
    # the rows around it are defined, and each equals the model's own mean
    means = draw(base, block[[0, 1, 3]])
    assert means.tolist() == [draw(base, None)] * 3
