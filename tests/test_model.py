import dataclasses
import itertools
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medscm as M
from medscm import criteria, engine, model
from medscm.model import NoiseSpec, Scm, StructuralTable


def test_factories_validate_clean():
    assert M.validate(M.thm1_counterexample(0.3, 0.8)) == []
    assert M.validate(M.thm2_counterexample(0.2, 0.3, 0.5, 0.9)) == []
    assert M.validate(M.thm3_counterexample(0.1, (0.1, 0.2, 0.4, 0.3), 0.5)) == []
    assert M.validate(M.pe_counterexample(0.5)) == []
    assert M.validate(M.random_separable_scm(0)) == []
    assert M.validate(M.random_additive_scm(0, shape="confounded")) == []


def test_noise_pmf_must_sum_to_one():
    scm = M.thm1_counterexample(0.5, 0.5)
    bad_noise = tuple(
        NoiseSpec(n.name, {0: 0.6, 1: 0.6}) if n.name == "eps_L" else n
        for n in scm.noise
    )
    bad = Scm.of(scm.variables, bad_noise, scm.tables, scm.exposure_levels)
    violations = M.validate(bad)
    assert any("sums to" in v for v in violations)


def test_outcome_into_exposure_edge_rejected():
    scm = M.pe_counterexample(0.5)
    # re-route A through Y: the shape check must reject the graph
    a_table = StructuralTable(
        "A", ("Y",), "eps_A", {((y,), e): e for y in (0, 1) for e in (0, 1)}
    )
    tables = tuple(a_table if t.variable == "A" else t for t in scm.tables)
    bad = Scm.of(scm.variables, scm.noise, tables, scm.exposure_levels)
    violations = M.validate(bad)
    assert any("not a supported mediation shape" in v for v in violations)


def test_partial_table_rejected():
    scm = M.pe_counterexample(0.5)
    y = scm.table_for("Y")
    rows = dict(y.table)
    rows.pop(((0, 0), 0))
    tables = tuple(
        StructuralTable("Y", y.parents, y.noise, rows) if t.variable == "Y" else t
        for t in scm.tables
    )
    bad = Scm.of(scm.variables, scm.noise, tables, scm.exposure_levels)
    assert any("not total" in v for v in M.validate(bad))


def test_exposure_levels_checked():
    scm = M.pe_counterexample(0.5)
    bad = Scm.of(scm.variables, scm.noise, scm.tables, (1, 1))
    assert any("must differ" in v for v in M.validate(bad))
    bad = Scm.of(scm.variables, scm.noise, scm.tables, (0, 7))
    assert any("exposure support" in v for v in M.validate(bad))


@pytest.mark.parametrize(
    "factory,args",
    [
        (M.thm1_counterexample, (0.0, 0.5)),
        (M.thm1_counterexample, (0.5, 1.0)),
        (M.thm2_counterexample, (0.5, 0.5, 0.2, 0.5)),
        (M.thm3_counterexample, (0.0, (0.25, 0.25, 0.25, 0.25), 0.5)),
        (M.thm3_counterexample, (0.5, (0.5, 0.5, 0.5, 0.5), 0.5)),
        (M.pe_counterexample, (1.0,)),
    ],
)
def test_factories_reject_out_of_domain(factory, args):
    with pytest.raises(M.DomainError):
        factory(*args)


@pytest.mark.parametrize("family", ["t1", "t2", "t3", "pe"])
@pytest.mark.parametrize("value", [Fraction(1, 2), Decimal("0.5"), "0.5"], ids=lambda v: type(v).__name__)
def test_factory_parameters_must_be_int_or_float(family, value):
    build = {
        "t1": lambda x: M.thm1_counterexample(0.5, x),
        "t2": lambda x: M.thm2_counterexample(0.25, x, 0.25, 0.5),
        "t3": lambda x: M.thm3_counterexample(0.5, (0.25, 0.25, x, 0.0), 0.5),
        "pe": M.pe_counterexample,
    }[family]
    build(0.5)
    build(np.float32(0.5))  # numpy scalars are ints and floats too
    with pytest.raises(M.DomainError, match=f"must be an int or a float, got {type(value).__name__}"):
        build(value)


def test_thm1_proof_case_split():
    # eps_L = 0 units: the exposure never moves the mediator;
    # eps_L = 1 units: the mediator never moves the outcome in either arm.
    scm = M.thm1_counterexample(0.37, 0.81)
    a_star, a = scm.exposure_levels
    for unit in M.enumerate_units(scm):
        m_treated = M.evaluate(scm, unit, {"A": a}).assignment["M"]
        m_control = M.evaluate(scm, unit, {"A": a_star}).assignment["M"]
        if unit.noise_assignment["eps_L"] == 0:
            assert m_treated == m_control
        else:
            for ap in (a_star, a):
                y0 = M.evaluate(scm, unit, {"A": ap, "M": 0}).assignment["Y"]
                y1 = M.evaluate(scm, unit, {"A": ap, "M": 1}).assignment["Y"]
                assert y0 == y1


def test_thm3_cross_world_dependence():
    spec = M.thm3_counterexample(0.3, (0.1, 0.2, 0.4, 0.3), 0.6)
    # one-world independences hold (validate is empty), yet the cross-world
    # independence of Y(a, m) and M(a*) fails
    assert M.validate(spec) == []
    verdict = M.check_assumption(spec, "A4")
    assert not verdict.holds
    assert verdict.worst_violation > 1e-9


def test_thm2_reduces_to_thm1_at_pi2_zero():
    t2 = M.thm2_counterexample(0.4, 0.6, 0.0, 0.7)
    t1 = M.thm1_counterexample(0.6, 0.7)
    assert abs(M.effect_report(t2).nie_r - M.effect_report(t1).nie_r) < 1e-12


def test_separable_requires_identity_components():
    scm = M.random_separable_scm(5)
    n = scm.table_for("N")
    flipped = {key: 1 - v for key, v in n.table.items()}
    tables = tuple(
        StructuralTable("N", n.parents, n.noise, flipped) if t.variable == "N" else t
        for t in scm.tables
    )
    bad = Scm.of(scm.variables, scm.noise, tables, scm.exposure_levels)
    assert any("deterministic copy" in v for v in M.validate(bad))


def test_additive_threshold_out_of_range_rejected():
    with pytest.raises(M.DomainError):
        M.additive_outcome_scm(
            f={(0,): 5, (1,): 5},
            g={(0,): 5, (1,): 5},
            denom=8,
            m_table={((a,), e): e for a in (0, 1) for e in (0, 1)},
            m_noise_pmf={0: 0.5, 1: 0.5},
        )


def test_json_round_trip_factories():
    for scm in (
        M.thm1_counterexample(0.25, 0.75),
        M.thm2_counterexample(0.2, 0.3, 0.5, 0.9),
        M.pe_counterexample(0.4),
        M.random_separable_scm(3),
        M.random_additive_scm(4, shape="confounded"),
    ):
        text = M.scm_to_json(scm)
        again = M.scm_from_json(text)
        assert M.scm_to_json(again) == text
        assert M.validate(again) == []


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), shape=st.sampled_from(["basic", "confounded"]),
       with_c=st.booleans())
def test_random_scm_valid_and_round_trips(seed, shape, with_c):
    scm = M.random_scm(seed, shape, with_c=with_c)
    assert M.validate(scm) == []
    assert M.scm_to_json(M.scm_from_json(M.scm_to_json(scm))) == M.scm_to_json(scm)


def test_edges_cross_checked_on_parse():
    scm = M.thm1_counterexample(0.5, 0.5)
    doc = M.model.scm_to_dict(scm)
    doc["edges"]["Y"] = ["A"]
    with pytest.raises(ValueError, match="edges disagree"):
        M.model.scm_from_dict(doc)


@pytest.mark.parametrize("field, value", [
    *(("edges", v) for v in ([], "x", 3, None, {"M": 5}, {"M": None}, {"M": ["Z"]})),
    *(("pmf", v) for v in ([0.5, 0.5], "x", None, 1.0)),
])
def test_malformed_edges_or_pmf_is_a_malformed_document(field, value):
    doc = M.model.scm_to_dict(M.thm1_counterexample(0.3, 0.6))
    (doc if field == "edges" else doc["noise"][0])[field] = value
    with pytest.raises(ValueError, match="malformed SCM document"):
        M.model.scm_from_dict(doc)


def test_ffrcistg_one_world_violation_detected():
    spec = M.thm3_counterexample(0.4, (0.1, 0.2, 0.4, 0.3), 0.5)
    # tie the factual exposure to M(a): breaks A independence in-world
    idx = spec.label_index()
    joint = {}
    for atom, w in spec.joint.items():
        forced = list(atom)
        forced[idx["A"]] = atom[idx[f"M({spec.a})"]]
        joint[tuple(forced)] = joint.get(tuple(forced), 0.0) + w
    bad = model.FfrcistgSpec.of(spec.m_support, spec.exposure_levels, joint)
    assert any("one-world independence fails" in v for v in M.validate(bad))


def _tied(spec, label, to):
    """spec's joint with coordinate label replaced by coordinate to."""
    idx, joint = spec.label_index(), {}
    for atom, w in spec.joint.items():
        forced = list(atom)
        forced[idx[label]] = atom[idx[to]]
        joint[tuple(forced)] = joint.get(tuple(forced), 0.0) + w
    return model.FfrcistgSpec.of(spec.m_support, spec.exposure_levels, joint)


def test_one_world_violation_messages_are_pinned():
    spec = M.thm3_counterexample(0.4, (0.1, 0.2, 0.4, 0.3), 0.5)
    assert M.validate(_tied(spec, "A", f"M({spec.a})")) == [
        "one-world independence fails for (a'=0, m=0) at cell (0, 0, 0) (deviation 7.200e-02)"]
    assert M.validate(_tied(spec, "Y(0,1)", "A")) == [
        "one-world independence fails for (a'=0, m=1) at cell (0, 0, 0) (deviation 1.150e-01)"]
    assert M.validate(M.thm3_counterexample(0.3, (0.1, 0.2, 0.4, 0.3), 0.6)) == []


def _one_world_scan(spec):
    """The first one-world violation by a scan of the atoms, one running sum
    per cell: the check as it was first written."""
    idx = spec.label_index()
    for ap in spec.exposure_levels:
        for m in spec.m_support:
            cols = (idx["A"], idx[f"M({ap})"], idx[f"Y({ap},{m})"])
            joint, marg = {}, [{}, {}, {}]
            for atom, w in zip(spec.structure.atoms, spec.masses):
                key = tuple(atom[c] for c in cols)
                joint[key] = joint.get(key, 0.0) + w
                for j, v in enumerate(key):
                    marg[j][v] = marg[j].get(v, 0.0) + w
            for vals in itertools.product(*(sorted(mg) for mg in marg)):
                prod = marg[0][vals[0]] * marg[1][vals[1]] * marg[2][vals[2]]
                dev = abs(joint.get(vals, 0.0) - prod)
                if dev > model.PROB_TOL:
                    return [f"one-world independence fails for (a'={ap}, m={m}) "
                            f"at cell {vals} (deviation {dev:.3e})"]
    return []


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 3), size=st.integers(1, 40),
       factory=st.booleans(), nudge=st.sampled_from([0.0, 1e-13, 1e-9]))
def test_one_world_check_is_the_atom_by_atom_scan(seed, levels, size, factory, nudge):
    # t3 points satisfy every one-world independence; a nudge of one mass
    # lands below or above the tolerance, and random joints mostly fail
    rng = np.random.default_rng(seed)
    if factory:
        betas = rng.dirichlet(np.ones(4))
        spec = M.thm3_counterexample(rng.uniform(0.05, 0.95), tuple(betas),
                                     rng.uniform(0.05, 0.95))
        masses = list(spec.masses)
        masses[0] += nudge
        masses[-1] -= nudge
        atoms = spec.structure.atoms
    else:
        atoms = [tuple(row) for row in rng.integers(0, levels, size=(size, 7)).tolist()]
        masses = (rng.random(size) / size).tolist()
    spec = model.FfrcistgSpec.of((0, 1), (0, 1), dict(zip(atoms, masses)))
    assert model._one_world_violations(spec) == _one_world_scan(spec)


def test_level_positions_consecutive_gapped_and_unsorted_levels():
    from medscm.model import level_positions

    values = np.array([[3, 4], [5, 3]])
    for levels in ((3, 4, 5), (5, 3, 4), (3, 4, 5, 9)):
        pos = level_positions(values, levels)
        assert (np.asarray(levels)[pos] == values).all()
        assert level_positions(4, levels) == levels.index(4)
        with pytest.raises(M.DomainError):
            level_positions(np.array([3, 6]), levels)
        with pytest.raises(M.DomainError):
            level_positions(2, levels)


def test_cyclic_covariates_reported_and_lookups_cached():
    scm = M.random_scm(3, "basic", with_c=True)
    assert scm.topo_order is scm.topo_order   # computed once per instance
    assert scm.m_support is scm.m_support
    b = (0, 1)
    variables = (
        M.VariableSpec("C1", b, "C"), M.VariableSpec("C2", b, "C"),
        M.VariableSpec("A", b, "A"), M.VariableSpec("M", b, "M"), M.VariableSpec("Y", b, "Y"),
    )
    tables = (
        StructuralTable("C1", ("C2",), "eps_C1", {((c,), 0): c for c in b}),
        StructuralTable("C2", ("C1",), "eps_C2", {((c,), 0): c for c in b}),
        StructuralTable("A", (), "eps_A", {((), e): e for e in b}),
        StructuralTable("M", ("A",), "eps_M", {((a,), 0): a for a in b}),
        StructuralTable("Y", ("M",), "eps_Y", {((m,), 0): m for m in b}),
    )
    noise = (NoiseSpec("eps_C1", {0: 1.0}), NoiseSpec("eps_C2", {0: 1.0}),
             NoiseSpec("eps_A", {0: 0.5, 1: 0.5}), NoiseSpec("eps_M", {0: 1.0}),
             NoiseSpec("eps_Y", {0: 1.0}))
    cyclic = Scm.of(variables, noise, tables, (0, 1))
    assert "covariate subgraph is cyclic" in M.validate(cyclic)
    for _ in range(2):   # a lookup that raises is not cached
        with pytest.raises(M.DomainError, match="cyclic"):
            cyclic.topo_order


# -- family structures: built and validated once, masses checked per point ------

def test_family_points_share_read_only_structure():
    pairs = (
        (M.thm1_counterexample(0.3, 0.6), M.thm1_counterexample(0.7, 0.2)),
        (M.thm2_counterexample(0.2, 0.3, 0.5, 0.9), M.thm2_counterexample(0.5, 0.5, 0.0, 0.1)),
        (M.pe_counterexample(0.4), M.pe_counterexample(0.8)),
    )
    for one, other in pairs:
        assert one.variables is other.variables and one.tables is other.tables
        assert one.noise != other.noise
        table = one.tables[-1].table
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = 1 - table[key]
        assert table is other.tables[-1].table


def _outcome(fn):
    """repr of fn()'s value (bitwise for floats), or its error."""
    try:
        return "ok", repr(fn())
    except M.MedscmError as exc:
        return type(exc).__name__, str(exc)


def _observed(scm) -> list:
    """What the engine, effects and criteria make of scm, from a cold cache."""
    engine.profiles.cache_clear()
    p = engine.profiles(scm)
    columns = [(col.dtype.str, col.shape, col.tobytes()) if isinstance(col, np.ndarray) else col
               for col in (getattr(p, f.name) for f in dataclasses.fields(p)
                           if not f.name.startswith("_"))]
    return [M.validate(scm), columns,
            _outcome(lambda: M.effect_report(scm)), _outcome(lambda: criteria.null_status(scm))]


T2_POINTS = st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.2, 0.5]),
                      st.floats(0.01, 0.99)).filter(lambda t: t[0] + t[1] <= 1.0)


T3_BETAS = st.sampled_from([(0.1, 0.2, 0.3, 0.4), (0.25, 0.25, 0.5, 0.0), (0.0, 0.5, 0.0, 0.5)])


@settings(deadline=None, max_examples=60)
@given(family=st.sampled_from(["t1", "t2", "t3", "pe", "random", "additive", "separable",
                               "null_mediator"]),
       t1=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
       t2=T2_POINTS, t3=T3_BETAS, p=st.floats(0.01, 0.99), seed=st.integers(0, 10**6),
       with_c=st.booleans(), shape=st.sampled_from(["basic", "confounded"]))
def test_family_models_match_their_rebuilt_copies(family, t1, t2, t3, p, seed, with_c, shape):
    if family == "t1":
        scm = M.thm1_counterexample(*t1)
    elif family == "t2":
        pi1, pi2, beta = t2
        scm = M.thm2_counterexample(max(0.0, 1.0 - pi1 - pi2), pi1, pi2, beta)
    elif family == "t3":
        scm = M.thm3_counterexample(t1[0], t3, p)
    elif family == "pe":
        scm = M.pe_counterexample(p)
    elif family == "random":
        scm = M.random_scm(seed, shape, with_c=with_c, m_levels=2 + seed % 2)
    elif family == "additive":
        scm = model.random_additive_scm(seed, shape, with_c=with_c)
    elif family == "separable":
        scm = model.random_separable_scm(seed, with_c=with_c, m_levels=2 + seed % 2)
    else:
        scm = model.random_null_mediator_scm(seed, with_c=with_c)
    # a copy built on the spot, from objects of its own
    if family == "t3":
        copy = model.FfrcistgSpec.of(scm.m_support, scm.exposure_levels, dict(scm.joint))
    else:
        copy = model.scm_from_dict(model.scm_to_dict(scm))
        assert copy.tables is not scm.tables and copy.variables is not scm.variables
    assert copy.structure is not scm.structure
    observed = _observed(scm)
    assert observed[0] == []
    assert observed == _observed(copy)


def test_family_structure_validated_once_per_process(monkeypatch):
    calls = []
    real = model._validate_scm
    monkeypatch.setattr(model, "_validate_scm", lambda scm: calls.append(scm) or real(scm))
    builders = (model._thm1_structure, model._thm2_structure, model._pe_structure)
    for build in builders:
        build.cache_clear()
    for i in range(50):
        x = 0.01 + 0.98 * i / 49
        M.thm1_counterexample(x, 1.0 - x)
        M.thm2_counterexample(0.0, x, 1.0 - x, x)
        M.pe_counterexample(x)
    assert len(calls) == 3
    assert all(scm.tables is build().tables for scm, build in zip(calls, builders))


def test_factory_mass_check_stays_live(monkeypatch):
    monkeypatch.setattr(model, "_check_open_unit", lambda value, name: None)
    with pytest.raises(M.DomainError,
                       match=r"thm1_counterexample: invalid model: .*negative probability"):
        M.thm1_counterexample(1.5, 0.6)
    with pytest.raises(M.DomainError, match=r"pe_counterexample: invalid model: .*non-finite"):
        M.pe_counterexample(float("nan"))
    monkeypatch.setattr(model, "_check_simplex", lambda values, name: None)
    with pytest.raises(M.DomainError, match=r"thm2_counterexample: invalid model: .*sums to"):
        M.thm2_counterexample(0.5, 0.5, 0.5, 0.5)


@pytest.mark.parametrize("mass", [float("nan"), float("inf"), float("-inf")])
def test_validate_rejects_non_finite_masses(mass):
    scm = M.thm1_counterexample(0.3, 0.6)
    noise = tuple(NoiseSpec(n.name, {0: mass, 1: 0.6}) if n.name == "eps_M" else n
                  for n in scm.noise)
    violations = M.validate(Scm.of(scm.variables, noise, scm.tables, scm.exposure_levels))
    assert "noise eps_M: non-finite probability at level 0" in violations
    assert any(v.startswith("noise eps_M: pmf sums to") for v in violations)
    spec = M.thm3_counterexample(0.4, (0.1, 0.2, 0.4, 0.3), 0.5)
    bad = dataclasses.replace(spec, masses=(mass,) + spec.masses[1:])
    assert "joint pmf has a non-finite mass" in M.validate(bad)


def test_a_model_is_its_structure_and_masses():
    fields = {cls: [f.name for f in dataclasses.fields(cls)] for cls in (Scm, model.FfrcistgSpec)}
    assert fields == {Scm: ["structure", "noise"], model.FfrcistgSpec: ["structure", "masses"]}
    assert not any(hasattr(cls, "__post_init__") for cls in fields)


def test_noise_other_than_the_structure_is_a_violation():
    one = M.thm1_counterexample(0.3, 0.6)
    mismatch = "noise names or levels differ from the structure"
    # the same laws in another order: only their positions disagree
    assert M.validate(Scm(one.structure, tuple(reversed(one.noise)))) == [mismatch]
    two_level = one.noise[:-1] + (NoiseSpec("eps_Y", {0: 0.5, 1: 0.5}),)
    assert mismatch in M.validate(Scm(one.structure, two_level))
    with pytest.raises(M.DomainError, match=f"t1 point: invalid model: .*{mismatch}"):
        one.structure.model(two_level, "t1 point")
    assert one.structure.model(one.noise, "t1 point").structure is one.structure
    # the engine refuses them where it first reads the masses: a law that
    # lacks a level, and two laws of the same levels swapped, which read by
    # position would weight the wrong noise
    swapped = (one.noise[1], one.noise[0], *one.noise[2:])
    assert [n.levels() for n in swapped] == [n.levels() for n in one.noise]
    for noise in (tuple(reversed(one.noise)), swapped):
        for read in (M.effect_report, M.enumerate_units, lambda m: M.draw_samples(m, 10, 0)):
            with pytest.raises(M.DomainError, match=f"^invalid model: .*{mismatch}"):
                read(Scm(one.structure, noise))


@pytest.mark.parametrize("read", [
    M.effect_report, M.observational_law, lambda m: M.draw_samples(m, 10, 0),
    M.check_all_assumptions, M.null_status,
])
def test_a_table_on_no_noise_law_is_refused_with_validates_text(read):
    """A table whose noise is none of the model's noise laws (t1 with M's
    table on eps_Q) is refused where the engine first reads the noise, with
    validate's message, not a KeyError from a noise lookup."""
    one = M.thm1_counterexample(0.5, 0.9)
    tables = tuple(dataclasses.replace(t, noise="eps_Q") if t.variable == "M" else t
                   for t in one.tables)
    bad = Scm.of(one.variables, one.noise, tables, one.exposure_levels)
    bijection = "noise terms are not in bijection with variables"
    assert M.validate(bad) == [bijection]
    with pytest.raises(M.DomainError) as err:
        read(bad)
    assert str(err.value) == f"invalid model: [{bijection!r}]"


def test_replace_masses_keeps_the_structure():
    spec = M.thm3_counterexample(0.4, (0.1, 0.2, 0.4, 0.3), 0.5)
    other = M.thm3_counterexample(0.7, (0.3, 0.1, 0.2, 0.4), 0.2)
    moved = dataclasses.replace(spec, masses=other.masses)
    assert moved.structure is spec.structure and M.validate(moved) == []
    assert dict(moved.joint) == dict(other.joint)
    assert M.effect_report(moved) == M.effect_report(other)
    halved = dataclasses.replace(spec, masses=tuple(w / 2 for w in spec.masses))
    assert halved.structure is spec.structure
    assert any(v.startswith("joint pmf sums to 0.5") for v in M.validate(halved))
    # one mass too few, or one (positive) too many: the engine refuses both
    # with validate's text, where it would otherwise weight the wrong atoms
    n = len(spec.masses)
    for masses in (spec.masses[1:], spec.masses + (0.1,)):
        wrong = dataclasses.replace(spec, masses=masses)
        violation = f"{len(masses)} masses for {n} atoms"
        assert M.validate(wrong) == [violation]
        for read in (M.effect_report, M.enumerate_units):
            with pytest.raises(M.DomainError, match=re.escape(f"invalid model: ['{violation}']")):
                read(wrong)
    with pytest.raises(TypeError):
        spec.joint[next(iter(spec.joint))] = 0.0


def test_of_builds_a_structure_of_its_own():
    scm = M.thm1_counterexample(0.3, 0.6)
    built = [Scm.of(scm.variables, scm.noise, scm.tables, scm.exposure_levels) for _ in range(2)]
    assert len({id(m.structure) for m in (scm, *built)}) == 3
    for m in built:
        assert m.variables is scm.variables and m.tables is scm.tables and m.noise is scm.noise
        assert m.structure.noise == scm.structure.noise and M.validate(m) == []
    spec = M.thm3_counterexample(0.4, (0.1, 0.2, 0.4, 0.3), 0.5)
    copies = [model.FfrcistgSpec.of(spec.m_support, spec.exposure_levels, spec.joint)
              for _ in range(2)]
    assert len({id(m.structure) for m in (spec, *copies)}) == 3
    for m in copies:
        assert m.structure.atoms == spec.structure.atoms and m.masses == spec.masses
        assert M.validate(m) == []


# -- structural tables: each checked and compiled in one pass ---------------------

def _reference_lookup(table, supports, noise_levels) -> np.ndarray:
    """A table's lookup by the per-key walk the one pass replaced."""
    position = {v: i for i, v in enumerate(supports[table.variable])}
    out = []
    for pv in itertools.product(*(supports[p] for p in table.parents)):
        for e in noise_levels:
            out.append(position[table.table[pv, e]])
    return np.array(out, dtype=np.int64)


def _with_table(scm, name: str, rows: dict, parents=None) -> Scm:
    """scm on a structure of its own, with name's table holding rows."""
    t = scm.table_for(name)
    table = StructuralTable(name, t.parents if parents is None else parents, t.noise, rows)
    tables = tuple(table if u.variable == name else u for u in scm.tables)
    return Scm.of(scm.variables, scm.noise, tables, scm.exposure_levels)


READERS = (M.effect_report, M.observational_law, lambda m: M.draw_samples(m, 10, 0))


def test_table_faults_are_reported_by_validate_and_every_reader():
    one = M.thm1_counterexample(0.3, 0.6)
    rows = dict(one.table_for("M").table)
    missing = {k: v for k, v in rows.items() if k != ((0, 0), 0)}
    extra = {**rows, ((0, 0), 5): 0}
    off = {**rows, ((0, 1), 1): 7}
    cases = (
        (_with_table(one, "M", missing), "table for M: not total over parents x noise "
                                         "(7 rows, expected 8)"),
        (_with_table(one, "M", extra), "table for M: not total over parents x noise "
                                       "(9 rows, expected 8)"),
        (_with_table(one, "M", off), "table for M: value 7 at ((0, 1), 1) outside support"),
        (_with_table(one, "M", rows, parents=("A", "Q")), "table for M: unknown parent Q"),
    )
    for bad, violation in cases:
        assert M.validate(bad) == [violation]
        assert bad.structure._compiled["M"] is None
        for read in READERS:
            with pytest.raises(M.DomainError, match=f"^{re.escape('invalid model: ' + violation)}$"):
                read(bad)


def test_table_rows_in_any_order_compile_alike():
    for scm in (M.thm1_counterexample(0.3, 0.6), M.random_scm(5, "confounded", with_c=True)):
        tables = tuple(StructuralTable(t.variable, t.parents, t.noise,
                                       dict(reversed(list(t.table.items()))))
                       for t in scm.tables)
        flipped = Scm.of(scm.variables, scm.noise, tables, scm.exposure_levels)
        assert [list(t.table) for t in tables] != [list(t.table) for t in scm.tables]
        for name in scm.topo_order:
            assert (flipped.structure._lookups[name][1].tobytes()
                    == scm.structure._lookups[name][1].tobytes())
        assert _observed(flipped) == _observed(scm)


def test_compiled_tables_match_the_per_key_walk():
    models = [M.random_scm(s, shape, with_c=c) for s in range(4)
              for shape in ("basic", "confounded") for c in (False, True)]
    models += [M.random_scm(9, "confounded", with_c=True, c_levels=3, l_levels=3,
                            m_levels=4, y_levels=3)]
    models += [M.random_additive_scm(s, shape, with_c=c) for s in range(3)
               for shape in ("basic", "confounded") for c in (False, True)]
    models += [M.random_separable_scm(s, with_c=c, m_levels=k) for s in range(3)
               for c in (False, True) for k in (2, 3)]
    models += [M.scm_from_json(M.scm_to_json(m)) for m in models[::3]]
    for scm in models:
        s = scm.structure
        for name in s.topo_order:
            levels = s.noise[s.noise_position[name]][1]
            want = _reference_lookup(s.table_for(name), s.supports, levels)
            got = s._lookups[name][1]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_each_table_is_walked_once_per_structure(monkeypatch):
    calls = []

    def counted(table, supports, noise_levels):
        calls.append(table.variable)
        return compile_table(table, supports, noise_levels)

    compile_table = model._compile
    monkeypatch.setattr(model, "_compile", counted)
    scm = M.random_scm(4, "confounded", with_c=True)
    fresh = Scm.of(scm.variables, scm.noise, scm.tables, scm.exposure_levels)
    assert sorted(calls) == sorted(scm.topo_order)   # the factory's validate
    calls.clear()
    assert M.validate(fresh) == []
    M.effect_report(fresh)
    M.draw_samples(fresh, 10, 0)
    assert sorted(calls) == sorted(fresh.topo_order)
    for name, (_, lookup) in fresh.structure._lookups.items():
        assert lookup is fresh.structure._compiled[name]


def _table_by_shuffle_and_choice(rng, parent_supports, support, n_noise):
    """The rows of a random table as random.Random draws them: per parent
    stratum, the support shuffled, then n_noise - len(support) choices."""
    rows = {}
    for pv in itertools.product(*parent_supports):
        col = list(support)
        rng.shuffle(col)
        col += [rng.choice(support) for _ in range(n_noise - len(support))]
        for e, value in enumerate(col):
            rows[(pv, e)] = value
    return rows


@pytest.mark.parametrize("size", range(1, 10))
def test_random_tables_draw_what_shuffle_and_choice_draw(size):
    support = tuple(3 * v - 4 for v in range(size))   # gapped levels, some negative
    parent_supports = ((0, 1, 2), (5, 7))
    for seed in range(25):
        for n_noise in (size, size + 1, size + 4):
            ours, theirs = random.Random(seed), random.Random(seed)
            table = model._random_table(ours, "V", ("P", "Q"), parent_supports, support, n_noise)
            expected = _table_by_shuffle_and_choice(theirs, parent_supports, support, n_noise)
            assert list(table.table.items()) == list(expected.items())
            assert ours.getstate() == theirs.getstate()   # the same bits consumed
