"""Bit patterns of the exact effects.

Each pin is float.hex() of a value, recorded when the draw kernel summed every
unit once per mediator level, so any change to how a sum is built or ordered
(not only a change of value beyond a tolerance) fails here. Covered:
effect_report of the four families and a 16/5/5/5 confounded random model,
the effect_reports rows of a t1 weight block, and the nie_r_L records of a t2
evaluate_points grid over two column tables (pi2 = 0 and pi2 > 0). The
check_all_assumptions verdicts of the same models and of a basic random
model with C (where A7 reads A2's tables) are pinned by worst_violation.hex()
and witness, recorded when an assumption's checks were scored side by side.
"""

import numpy as np
import pytest

import medscm as M
from medscm import criteria, effects, engine


def _hex(report) -> tuple[str, ...]:
    return tuple(f"{name}={float(v).hex()}" for name, v in report.rows())


MODELS = {
    "t1": lambda: M.thm1_counterexample(0.3, 0.6),
    "t2": lambda: M.thm2_counterexample(0.2, 0.3, 0.5, 0.9),
    "t3": lambda: M.thm3_counterexample(0.3, (0.1, 0.2, 0.3, 0.4), 0.6),
    "pe": lambda: M.pe_counterexample(0.35),
    "random_16_5_5_5": lambda: M.random_scm(2001, "confounded", with_c=True, c_levels=16,
                                            l_levels=5, m_levels=5, y_levels=5),
}

CHECK_MODELS = {**MODELS, "basic_c": lambda: M.random_scm(7, "basic", with_c=True, c_levels=4,
                                                          m_levels=3, y_levels=3)}

T1_BLOCK = [(pi, beta) for pi in (0.2, 0.5, 0.8) for beta in (0.1, 0.6, 0.9)]

T2_GRID = [dict(pi1=pi1, pi2=pi2, beta=beta)
           for pi1 in (0.1, 0.3, 0.6) for pi2 in (0.0, 0.2) for beta in (0.3, 0.9)]

REPORTS = {'t1': ('te=0x1.3333333333333p-2', 'nde=0x1.3333333333331p-2', 'nie=0x0.0p+0',
        'te_r=0x1.5e353f7ced915p-2', 'nde_r=0x1.3333333333333p-2', 'nie_r=0x1.5810624dd2f10p-5',
        'nie_r_L=0x1.99999999999a0p-4', 'nie_r_La=0x0.0p+0', 'h_contrast=0x1.5810624dd2f10p-5',
        'cde(0)=0x1.3333333333333p-2', 'cde(1)=0x1.3333333333333p-2', 'pe(0)=0x0.0p+0',
        'pe(1)=0x0.0p+0', 'int_ref(0,0)=0x0.0p+0', 'int_ref(0,1)=0x0.0p+0',
        'int_ref(1,0)=0x0.0p+0', 'int_ref(1,1)=0x0.0p+0'),
 't2': ('te=0x1.999999999999ap-1', 'nde=0x1.3333333333334p-2', 'nie=0x1.fffffffffffffp-2',
        'te_r=0x1.a2d0e56041893p-1', 'nde_r=0x1.3333333333332p-2', 'nie_r=0x1.09374bc6a7efap-1',
        'nie_r_L=0x1.6666666666666p-1', 'nie_r_La=0x1.0000000000000p-1',
        'h_contrast=0x1.09374bc6a7efap-1', 'cde(0)=0x1.3333333333333p-2',
        'cde(1)=0x1.3333333333333p-2', 'pe(0)=0x1.0000000000000p-1',
        'pe(1)=0x1.0000000000000p-1', 'int_ref(0,0)=0x0.0p+0', 'int_ref(0,1)=0x0.0p+0',
        'int_ref(1,0)=0x0.0p+0', 'int_ref(1,1)=0x0.0p+0'),
 't3': ('te=0x1.1eb851eb851ecp-4', 'nde=0x1.1eb851eb851e8p-4', 'nie=0x0.0p+0',
        'te_r=0x1.1eb851eb851f0p-4', 'nde_r=0x1.70a3d70a3d700p-5', 'nie_r=0x1.99999999999c0p-6',
        'h_contrast=0x1.99999999999c0p-6', 'cde(0)=0x1.999999999999ap-4',
        'cde(1)=-0x1.0000000000000p-56', 'pe(0)=-0x1.eb851eb851eb8p-6',
        'pe(1)=0x1.1eb851eb851edp-4', 'int_ref(0,0)=0x0.0p+0',
        'int_ref(0,1)=0x1.eb851eb851eb8p-6', 'int_ref(1,0)=-0x1.eb851eb851eb8p-6',
        'int_ref(1,1)=0x0.0p+0'),
 'pe': ('te=0x1.6666666666666p-2', 'nde=0x1.6666666666666p-2', 'nie=0x0.0p+0',
        'te_r=0x1.6666666666666p-2', 'nde_r=0x1.6666666666666p-2', 'nie_r=0x0.0p+0',
        'h_contrast=0x0.0p+0', 'cde(0)=0x0.0p+0', 'cde(1)=0x1.0000000000000p+0',
        'pe(0)=0x1.6666666666666p-2', 'pe(1)=-0x1.4cccccccccccdp-1', 'int_ref(0,0)=0x0.0p+0',
        'int_ref(0,1)=-0x1.6666666666666p-2', 'int_ref(1,0)=0x1.6666666666666p-2',
        'int_ref(1,1)=0x0.0p+0'),
 'random_16_5_5_5': ('te=-0x1.24f6e09006e8fp-8', 'nde=0x1.e361b29a37a00p-9',
                     'nie=-0x1.0b53dcee91200p-7', 'te_r=-0x1.16e3cda193e40p-6',
                     'nde_r=-0x1.14d7f98558f80p-7', 'nie_r=-0x1.18efa1bdced00p-7',
                     'nie_r_L=-0x1.c7d8b97799400p-8', 'nie_r_La=-0x1.0b53dcee92600p-7',
                     'h_contrast=-0x1.18efa1bdcec00p-7', 'cde(0)=-0x1.458afe0728604p-6',
                     'cde(1)=-0x1.6d533d5692144p-5', 'cde(2)=-0x1.c0973c4e48b72p-7',
                     'cde(3)=0x1.c59d708b564f6p-8', 'cde(4)=0x1.0c36ae80d9004p-7',
                     'pe(0)=0x1.f89a8bc64d4c0p-7', 'pe(1)=0x1.48b4614491372p-5',
                     'pe(2)=0x1.2e1bcc064542ap-7', 'pe(3)=-0x1.754a288dae9c2p-7',
                     'pe(4)=-0x1.9eb21ec8dc74cp-7')}

T1_BLOCK_REPORTS = (('te=0x1.999999999999ap-3', 'nde=0x1.999999999999ap-3', 'nie=0x0.0p+0',
  'te_r=0x1.26e978d4fdf3cp-4', 'nde_r=0x1.999999999999ap-3', 'nie_r=-0x1.0624dd2f1a9fcp-3',
  'nie_r_L=-0x1.999999999999cp-2', 'nie_r_La=0x0.0p+0', 'h_contrast=-0x1.0624dd2f1a9fap-3',
  'cde(0)=0x1.999999999999ap-3', 'cde(1)=0x1.999999999999ap-3', 'pe(0)=0x0.0p+0',
  'pe(1)=0x0.0p+0', 'int_ref(0,0)=0x0.0p+0', 'int_ref(0,1)=0x0.0p+0', 'int_ref(1,0)=0x0.0p+0',
  'int_ref(1,1)=0x0.0p+0'),
 ('te=0x1.999999999999ap-3', 'nde=0x1.99999999999a0p-3', 'nie=0x0.0p+0',
  'te_r=0x1.db22d0e56041cp-3', 'nde_r=0x1.999999999999cp-3', 'nie_r=0x1.0624dd2f1aa00p-5',
  'nie_r_L=0x1.9999999999998p-4', 'nie_r_La=0x0.0p+0', 'h_contrast=0x1.0624dd2f1a9e0p-5',
  'cde(0)=0x1.999999999999ap-3', 'cde(1)=0x1.999999999999ap-3', 'pe(0)=0x0.0p+0',
  'pe(1)=0x0.0p+0', 'int_ref(0,0)=0x0.0p+0', 'int_ref(0,1)=0x0.0p+0', 'int_ref(1,0)=0x0.0p+0',
  'int_ref(1,1)=0x0.0p+0'),
 ('te=0x1.999999999999ap-3', 'nde=0x1.9999999999998p-3', 'nie=0x0.0p+0',
  'te_r=0x1.4fdf3b645a1ccp-2', 'nde_r=0x1.999999999999cp-3', 'nie_r=0x1.0624dd2f1a9fcp-3',
  'nie_r_L=0x1.9999999999998p-2', 'nie_r_La=0x0.0p+0', 'h_contrast=0x1.0624dd2f1a9fcp-3',
  'cde(0)=0x1.999999999999ap-3', 'cde(1)=0x1.999999999999ap-3', 'pe(0)=0x0.0p+0',
  'pe(1)=0x0.0p+0', 'int_ref(0,0)=0x0.0p+0', 'int_ref(0,1)=0x0.0p+0', 'int_ref(1,0)=0x0.0p+0',
  'int_ref(1,1)=0x0.0p+0'),
 ('te=0x1.0000000000000p-1', 'nde=0x1.0000000000000p-1', 'nie=0x0.0p+0',
  'te_r=0x1.3333333333334p-2', 'nde_r=0x1.0000000000000p-1', 'nie_r=-0x1.9999999999998p-3',
  'nie_r_L=-0x1.9999999999998p-2', 'nie_r_La=0x0.0p+0', 'h_contrast=-0x1.9999999999998p-3',
  'cde(0)=0x1.0000000000000p-1', 'cde(1)=0x1.0000000000000p-1', 'pe(0)=0x0.0p+0',
  'pe(1)=0x0.0p+0', 'int_ref(0,0)=0x0.0p+0', 'int_ref(0,1)=0x0.0p+0', 'int_ref(1,0)=0x0.0p+0',
  'int_ref(1,1)=0x0.0p+0'),
 ('te=0x1.0000000000000p-1', 'nde=0x1.0000000000000p-1', 'nie=0x0.0p+0',
  'te_r=0x1.199999999999ap-1', 'nde_r=0x1.0000000000000p-1', 'nie_r=0x1.99999999999a0p-5',
  'nie_r_L=0x1.99999999999a0p-4', 'nie_r_La=0x0.0p+0', 'h_contrast=0x1.99999999999a0p-5',
  'cde(0)=0x1.0000000000000p-1', 'cde(1)=0x1.0000000000000p-1', 'pe(0)=0x0.0p+0',
  'pe(1)=0x0.0p+0', 'int_ref(0,0)=0x0.0p+0', 'int_ref(0,1)=0x0.0p+0', 'int_ref(1,0)=0x0.0p+0',
  'int_ref(1,1)=0x0.0p+0'),
 ('te=0x1.0000000000000p-1', 'nde=0x1.fffffffffffffp-2', 'nie=0x0.0p+0',
  'te_r=0x1.6666666666666p-1', 'nde_r=0x1.0000000000000p-1', 'nie_r=0x1.9999999999998p-3',
  'nie_r_L=0x1.9999999999998p-2', 'nie_r_La=0x0.0p+0', 'h_contrast=0x1.9999999999998p-3',
  'cde(0)=0x1.0000000000000p-1', 'cde(1)=0x1.0000000000000p-1', 'pe(0)=0x0.0p+0',
  'pe(1)=0x0.0p+0', 'int_ref(0,0)=0x0.0p+0', 'int_ref(0,1)=0x0.0p+0', 'int_ref(1,0)=0x0.0p+0',
  'int_ref(1,1)=0x0.0p+0'),
 ('te=0x1.999999999999ap-1', 'nde=0x1.999999999999ap-1', 'nie=0x0.0p+0',
  'te_r=0x1.5810624dd2f1cp-1', 'nde_r=0x1.999999999999bp-1', 'nie_r=-0x1.0624dd2f1a9fcp-3',
  'nie_r_L=-0x1.9999999999998p-2', 'nie_r_La=0x0.0p+0', 'h_contrast=-0x1.0624dd2f1aa00p-3',
  'cde(0)=0x1.999999999999ap-1', 'cde(1)=0x1.999999999999ap-1', 'pe(0)=0x0.0p+0',
  'pe(1)=0x0.0p+0', 'int_ref(0,0)=0x0.0p+0', 'int_ref(0,1)=0x0.0p+0', 'int_ref(1,0)=0x0.0p+0',
  'int_ref(1,1)=0x0.0p+0'),
 ('te=0x1.999999999999ap-1', 'nde=0x1.999999999999ap-1', 'nie=0x0.0p+0',
  'te_r=0x1.a9fbe76c8b43ap-1', 'nde_r=0x1.999999999999ap-1', 'nie_r=0x1.0624dd2f1aa00p-5',
  'nie_r_L=0x1.9999999999998p-4', 'nie_r_La=0x0.0p+0', 'h_contrast=0x1.0624dd2f1aa00p-5',
  'cde(0)=0x1.999999999999ap-1', 'cde(1)=0x1.999999999999ap-1', 'pe(0)=0x0.0p+0',
  'pe(1)=0x0.0p+0', 'int_ref(0,0)=0x0.0p+0', 'int_ref(0,1)=0x0.0p+0', 'int_ref(1,0)=0x0.0p+0',
  'int_ref(1,1)=0x0.0p+0'),
 ('te=0x1.999999999999ap-1', 'nde=0x1.999999999999ap-1', 'nie=0x0.0p+0',
  'te_r=0x1.db22d0e56041ap-1', 'nde_r=0x1.999999999999bp-1', 'nie_r=0x1.0624dd2f1a9fcp-3',
  'nie_r_L=0x1.9999999999998p-2', 'nie_r_La=0x0.0p+0', 'h_contrast=0x1.0624dd2f1a9f8p-3',
  'cde(0)=0x1.999999999999ap-1', 'cde(1)=0x1.999999999999ap-1', 'pe(0)=0x0.0p+0',
  'pe(1)=0x0.0p+0', 'int_ref(0,0)=0x0.0p+0', 'int_ref(0,1)=0x0.0p+0', 'int_ref(1,0)=0x0.0p+0',
  'int_ref(1,1)=0x0.0p+0'))

T2_GRID_NIE_R_L = ('-0x1.9999999999998p-3', '0x1.9999999999998p-2', '0x1.47ae147ae1470p-5',
 '0x1.0a3d70a3d70a4p-1', '-0x1.9999999999998p-3', '0x1.9999999999998p-2',
 '0x1.47ae147ae1480p-5', '0x1.0a3d70a3d70a4p-1', '-0x1.9999999999998p-3',
 '0x1.9999999999998p-2', '0x1.47ae147ae1480p-5', '0x1.0a3d70a3d70a4p-1')

VERDICTS = {
    "t1": (("A1", "0x1.0000000000000p-53", "Y(0,0) vs A: stratum (), cell (x=0, z=0)"),
           ("A2", "0x1.5810624dd2f1cp-5", "Y(0,1) vs M | A=0: stratum (), cell (x=0, z=0)"),
           ("A3", "0x1.0000000000000p-54", "M(1) vs A: stratum (), cell (x=1, z=0)"),
           ("A4", "0x1.5810624dd2f20p-5", "Y(1,0) vs M(0): stratum (), cell (x=0, z=0)"),
           ("A6", "-0x1.9999999999999p-2", "smallest required cell f(M=0 | A=1, c=())"),
           ("A7", "0x0.0p+0", "")),
    "t2": (("A1", "0x0.0p+0", ""),
           ("A2", "0x1.0e56041893750p-5", "Y(0,1) vs M | A=0: stratum (), cell (x=1, z=1)"),
           ("A3", "0x1.0000000000000p-56", "M(0) vs A: stratum (), cell (x=1, z=0)"),
           ("A4", "0x1.0e56041893750p-5", "Y(1,0) vs M(0): stratum (), cell (x=0, z=1)"),
           ("A6", "-0x1.9999999999998p-5", "smallest required cell f(M=0 | A=1, c=())"),
           ("A7", "0x0.0p+0", "")),
    "t3": (("A1", "0x1.0000000000000p-55", "Y(0,0) vs A: stratum (), cell (x=0, z=0)"),
           ("A2", "0x1.8000000000000p-53", "Y(0,0) vs M | A=0: stratum (), cell (x=1, z=1)"),
           ("A3", "0x1.0000000000000p-53", "M(1) vs A: stratum (), cell (x=0, z=0)"),
           ("A4", "0x1.0a3d70a3d70a5p-3", "Y(1,1) vs M(0): stratum (), cell (x=0, z=0)"),
           ("A6", "-0x1.3333333333333p-2", "smallest required cell f(M=1 | A=1, c=())"),
           ("A7", "0x1.8000000000000p-53", "Y(0,0) vs M | L, A=0: stratum (), cell (x=1, z=1)")),
    "pe": (("A1", "0x0.0p+0", ""),
           ("A2", "0x0.0p+0", ""),
           ("A3", "0x0.0p+0", ""),
           ("A4", "0x0.0p+0", ""),
           ("A6", "-0x1.6666666666666p-2", "smallest required cell f(M=1 | A=0, c=())"),
           ("A7", "0x0.0p+0", "")),
    "random_16_5_5_5": (
        ("A1", "0x1.0000000000000p-51", "Y(0,1) vs A: stratum (10,), cell (x=3, z=0)"),
        ("A2", "0x1.ad8acb7ab16d0p-7", "Y(1,4) vs M | A=1: stratum (7,), cell (x=3, z=1)"),
        ("A3", "0x1.2000000000000p-51", "M(0) vs A: stratum (7,), cell (x=0, z=1)"),
        ("A4", "0x1.6a136a509bb6cp-7", "Y(1,1) vs M(0): stratum (5,), cell (x=3, z=3)"),
        ("A6", "-0x1.f1972df66b186p-4", "smallest required cell f(M=4 | A=1, c=(10,))"),
        ("A7", "0x1.0000000000000p-53",
         "Y(0,1) vs M | L, A=0: stratum ((2,), 3), cell (x=1, z=0)")),
    "basic_c": (("A1", "0x1.0000000000000p-53", "Y(0,0) vs A: stratum (2,), cell (x=2, z=1)"),
                ("A2", "0x1.0000000000000p-53", "Y(0,1) vs M | A=0: stratum (0,), cell (x=1, z=2)"),
                ("A3", "0x1.0000000000000p-52", "M(0) vs A: stratum (2,), cell (x=1, z=1)"),
                ("A4", "0x1.0000000000000p-54", "Y(1,0) vs M(0): stratum (2,), cell (x=0, z=1)"),
                ("A6", "-0x1.45f52b4311e38p-3", "smallest required cell f(M=0 | A=0, c=(0,))"),
                ("A7", "0x1.0000000000000p-53",
                 "Y(0,1) vs M | L, A=0: stratum (0,), cell (x=1, z=2)")),
}


@pytest.mark.parametrize("name", list(MODELS))
def test_effect_report_bits(name):
    assert _hex(M.effect_report(MODELS[name]())) == REPORTS[name]


def test_weight_block_bits():
    models = [M.thm1_counterexample(pi, beta) for pi, beta in T1_BLOCK]
    block = np.stack([engine.profiles(model).weight for model in models])
    reports = effects.effect_reports(models[0], block)
    assert tuple(_hex(report) for report in reports) == T1_BLOCK_REPORTS
    # each row is also the report of its model on its own
    assert tuple(_hex(M.effect_report(model)) for model in models) == T1_BLOCK_REPORTS


def test_evaluate_points_bits():
    records = criteria.evaluate_points("t2", T2_GRID, "nie_r_L")
    assert tuple(record.effect_value.hex() for record in records) == T2_GRID_NIE_R_L


@pytest.mark.parametrize("name", list(CHECK_MODELS))
def test_check_verdict_bits(name):
    verdicts = M.check_all_assumptions(CHECK_MODELS[name]())
    assert tuple((v.assumption, v.worst_violation.hex(), v.witness) for v in verdicts) == \
        VERDICTS[name]
