"""One acceptance gate for every model.

validate's list, made once per model, is what every reader of a model
refuses it with; and no module but model.py tests the model type, so each
reader serves both model types through the methods they share. Likewise no
module compares a theorem id outside criteria.THEOREMS, so each theorem is
one row of that table.
"""

import ast
import dataclasses
import pathlib

import pytest

import medscm as M
from medscm import criteria, model
from medscm.model import FfrcistgSpec, NoiseSpec, Scm, StructuralTable, Structure, VariableSpec


def _t1():
    return M.thm1_counterexample(0.5, 0.9)


def _with_variable(scm, name, **changes):
    variables = tuple(dataclasses.replace(v, **changes) if v.name == name else v
                      for v in scm.variables)
    return Scm.of(variables, scm.noise, scm.tables, scm.exposure_levels)


def _with_table(scm, name, **changes):
    tables = tuple(dataclasses.replace(t, **changes) if t.variable == name else t
                   for t in scm.tables)
    return Scm.of(scm.variables, scm.noise, tables, scm.exposure_levels)


def _m_rows(edit):
    one = _t1()
    return _with_table(one, "M", table=edit(dict(one.table_for("M").table)))


def _t3_moved():
    """t3 with 0.05 moved from its second largest mass to its largest: every
    mass stays positive and they still sum to 1, but one world's
    independence fails."""
    spec = M.thm3_counterexample(0.1, (0.1, 0.2, 0.4, 0.3), 0.5)
    masses = list(spec.masses)
    lo, hi = sorted(range(len(masses)), key=masses.__getitem__)[-2:]
    masses[hi] += 0.05
    masses[lo] -= 0.05
    return dataclasses.replace(spec, masses=tuple(masses))


def _cyclic_covariates():
    b = (0, 1)
    variables = (VariableSpec("C1", b, "C"), VariableSpec("C2", b, "C"),
                 VariableSpec("A", b, "A"), VariableSpec("M", b, "M"), VariableSpec("Y", b, "Y"))
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
    return Scm.of(variables, noise, tables, (0, 1))


def _outcome_into_exposure():
    pe = M.pe_counterexample(0.5)
    return _with_table(pe, "A", parents=("Y",),
                       table={((y,), e): e for y in (0, 1) for e in (0, 1)})


def _separable_not_a_copy():
    scm = M.random_separable_scm(5)
    return _with_table(scm, "N", table={k: 1 - v for k, v in scm.table_for("N").table.items()})


def _plus(scm, *variables):
    """scm with variables added and its tables kept: a fault in the roles
    ends validate's list before the tables are read."""
    return Scm.of(scm.variables + variables, scm.noise, scm.tables, scm.exposure_levels)


def _joint(m_support=None, exposure_levels=None, atoms=None, masses=None):
    """t3's counterfactual joint with the given parts in place of its own."""
    spec = M.thm3_counterexample(0.1, (0.1, 0.2, 0.4, 0.3), 0.5)
    s = spec.structure
    return FfrcistgSpec(
        Structure.of_joint(s.m_support if m_support is None else m_support,
                           s.exposure_levels if exposure_levels is None else exposure_levels,
                           s.atoms if atoms is None else atoms),
        spec.masses if masses is None else masses)


def _separable_n_without_parent():
    scm = M.random_separable_scm(5)
    return _with_table(scm, "N", parents=(), table={((), 0): 0})


def _pe_levels(levels):
    pe = M.pe_counterexample(0.5)
    return Scm.of(pe.variables, pe.noise, pe.tables, levels)


def _negative_mass():
    one = _t1()
    noise = tuple(NoiseSpec("eps_M", {0: 1.5, 1: -0.5}) if n.name == "eps_M" else n
                  for n in one.noise)
    return Scm(one.structure, noise)


TABLE_M = "table for M: "
INVALID = {
    "exposure levels (0, 2)": (lambda: Scm.of(_t1().variables, _t1().noise, _t1().tables, (0, 2)),
                               ["exposure levels must lie in the exposure support"]),
    "exposure levels (1, 1)": (lambda: _pe_levels((1, 1)),
                               ["exposure levels a* and a must differ"]),
    "exposure levels (0, 7)": (lambda: _pe_levels((0, 7)),
                               ["exposure levels must lie in the exposure support"]),
    "unknown role on L": (lambda: _with_variable(_t1(), "L", role="Q"),
                          ["variable L: unknown role 'Q'"]),
    "two M variables": (lambda: _with_variable(_t1(), "L", role="M"),
                        ["exactly one variable must have role M, found 2"]),
    "no M variable": (lambda: _with_variable(_t1(), "M", role="C"),
                      ["exactly one variable must have role M, found 0"]),
    "Y support (0, 1, 1)": (lambda: _with_variable(_t1(), "Y", support=(0, 1, 1)),
                            ["variable Y: support has duplicates"]),
    "eps_M at 1.5 and -0.5": (_negative_mass, ["noise eps_M: negative probability at level 1"]),
    "t3 masses moved": (_t3_moved, ["one-world independence fails for (a'=0, m=0) "
                                    "at cell (0, 0, 0) (deviation 1.600e-02)"]),
    "cyclic covariates": (_cyclic_covariates, ["covariate subgraph is cyclic"]),
    "outcome into exposure": (_outcome_into_exposure, [
        "graph not a supported mediation shape: A (role A) has disallowed parents ['Y']"]),
    "separable not a copy": (_separable_not_a_copy, [
        "separable component N is not a deterministic copy of the exposure"]),
    "M table on eps_Q": (lambda: _with_table(_t1(), "M", noise="eps_Q"),
                         ["noise terms are not in bijection with variables"]),
    "M row missing": (lambda: _m_rows(lambda r: {k: v for k, v in r.items() if k != ((0, 0), 0)}),
                      [TABLE_M + "not total over parents x noise (7 rows, expected 8)"]),
    "M row extra": (lambda: _m_rows(lambda r: {**r, ((0, 0), 5): 0}),
                    [TABLE_M + "not total over parents x noise (9 rows, expected 8)"]),
    "M value off": (lambda: _m_rows(lambda r: {**r, ((0, 1), 1): 7}),
                    [TABLE_M + "value 7 at ((0, 1), 1) outside support"]),
    "M parent unknown": (lambda: _with_table(_t1(), "M", parents=("A", "Q")),
                         [TABLE_M + "unknown parent Q"]),
    "L support ()": (lambda: _with_variable(_t1(), "L", support=()),
                     ["variable L: empty support"]),
    "two L variables": (lambda: _plus(_t1(), VariableSpec("L2", (0, 1), "L")),
                        ["at most one induced-confounder variable is supported"]),
    "N without O": (lambda: _with_variable(M.random_separable_scm(5), "O", role="C"),
                    ["separable-component variables must appear as an N/O pair"]),
    "two N/O pairs": (lambda: _plus(M.random_separable_scm(5), VariableSpec("N2", (0, 1), "N"),
                                    VariableSpec("O2", (0, 1), "O")),
                      ["at most one separable-component pair is supported"]),
    "separable with L": (lambda: _plus(M.random_separable_scm(5), VariableSpec("L", (0, 1), "L")),
                         ["separable-component and induced-confounder variables cannot coexist"]),
    "Y table missing": (lambda: Scm.of(_t1().variables, _t1().noise, _t1().tables[:-1], (0, 1)),
                        ["structural tables do not cover the variables exactly once each"]),
    "N without parent": (_separable_n_without_parent,
                         ["separable component N must have the exposure as sole parent"]),
    "joint exposure levels (1, 1)": (lambda: _joint(exposure_levels=(1, 1)),
                                     ["exposure levels a* and a must differ"]),
    "joint M support (0, 0)": (lambda: _joint(m_support=(0, 0)),
                               ["mediator support must be non-empty and duplicate-free"]),
    "joint M support ()": (lambda: _joint(m_support=()),
                           ["mediator support must be non-empty and duplicate-free",
                            "atoms must assign all 3 counterfactual coordinates"]),
    "joint without atoms": (lambda: _joint(atoms=(), masses=()), ["joint pmf is empty"]),
    "joint atoms one short": (lambda: _joint(atoms=tuple(a[:-1] for a in _joint().structure.atoms)),
                              ["atoms must assign all 7 counterfactual coordinates"]),
}

READERS = {
    "effect_report": M.effect_report,
    "observational_law": M.observational_law,
    "draw_samples": lambda m: M.draw_samples(m, 10, 0),
    "check_all_assumptions": M.check_all_assumptions,
    "null_status": M.null_status,
    "enumerate_units": M.enumerate_units,
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_every_reader_refuses_an_invalid_model_with_validates_list(case):
    build, violations = INVALID[case]
    bad = build()
    assert M.validate(bad) == violations
    for name, read in READERS.items():
        M.engine.profiles.cache_clear()
        with pytest.raises(M.DomainError) as err:
            read(bad)
        assert str(err.value) == f"invalid model: {violations}", name


@pytest.mark.parametrize("role, lookups", [("A", ["exposure_name", "topo_order"]),
                                           ("M", ["mediator_name", "m_support", "labels", "topo_order"]),
                                           ("Y", ["outcome_name", "topo_order"])])
def test_a_lookup_of_a_missing_role_refuses_with_validates_list(role, lookups):
    bad = _with_variable(_t1(), role, role="C")
    violations = [f"exactly one variable must have role {role}, found 0"]
    assert M.validate(bad) == violations
    for name in lookups:
        for _ in range(2):   # a lookup that raises is not cached
            with pytest.raises(M.DomainError) as err:
                getattr(bad, name)
            assert str(err.value) == f"invalid model: {violations}", name


def test_validate_is_made_once_per_model(monkeypatch):
    calls = []
    real = model._validate_structure
    monkeypatch.setattr(model, "_validate_structure", lambda s: calls.append(s) or real(s))
    scm = M.random_scm(4, "confounded", with_c=True)
    fresh = Scm.of(scm.variables, scm.noise, scm.tables, scm.exposure_levels)
    # the role lookups of a valid model make no findings
    assert (fresh.exposure_name, fresh.mediator_name, fresh.outcome_name) == ("A", "M", "Y")
    assert fresh.m_support and fresh.labels and calls == [scm.structure]
    for _ in range(3):
        assert M.validate(fresh) == []
    M.effect_report(fresh)
    M.draw_samples(fresh, 10, 0)
    assert calls == [scm.structure, fresh.structure]
    assert fresh.violations is fresh.violations == ()
    # each model of one structure checks its own masses on the structure's findings
    other = fresh.structure.model(scm.noise, "again")
    assert other.violations == () and calls == [scm.structure, fresh.structure]


def _model_type_tests(source: str) -> list[int]:
    """Lines of source that call isinstance against a model type."""
    names = {"Scm", "FfrcistgSpec", "Model"}
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            named = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if named & names:
                lines.append(node.lineno)
    return sorted(lines)


def test_no_module_but_model_tests_the_model_type():
    planted = ("def f(m):\n    if not isinstance(m, Scm):\n        pass\n"
               "    return isinstance(m, (int, model.FfrcistgSpec))\n")
    assert _model_type_tests(planted) == [2, 4]
    package = pathlib.Path(M.__file__).parent
    found = {path.name: lines for path in sorted(package.glob("*.py"))
             if path.name != "model.py" and (lines := _model_type_tests(path.read_text()))}
    assert found == {}


def _theorem_id_tests(source: str) -> list[int]:
    """Lines of source that compare a theorem id, by a name tid or
    theorem_id or by a theorem id's literal, outside the THEOREMS table; the
    table itself may be named in a comparison (tid not in THEOREMS)."""
    ids, id_names = set(criteria.THEOREMS), {"tid", "theorem_id"}
    tree = ast.parse(source)
    table = {id(n) for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
             and "THEOREMS" in {t.id for t in ast.walk(node) if isinstance(t, ast.Name)
                                and isinstance(t.ctx, ast.Store)}
             for n in ast.walk(node.value)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or id(node) in table:
            continue
        parts = [n for operand in (node.left, *node.comparators) for n in ast.walk(operand)]
        names = {n.id if isinstance(n, ast.Name) else n.attr for n in parts
                 if isinstance(n, (ast.Name, ast.Attribute))}
        literals = {n.value for n in parts if isinstance(n, ast.Constant)}
        if literals & ids or (names & id_names and "THEOREMS" not in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_compares_a_theorem_id_outside_the_registry():
    planted = ('THEOREMS = {"T1": 1 if x == "T2" else 2}\n'
               'def f(tid, theorem_id):\n'
               '    if tid == "PE":\n        pass\n'
               '    return theorem_id.upper() in ("S1", "T3") or tid not in THEOREMS\n'
               'g = lambda t: t.tid != other\n')
    assert _theorem_id_tests(planted) == [3, 5, 6]
    package = pathlib.Path(M.__file__).parent
    found = {path.name: lines for path in sorted(package.glob("*.py"))
             if (lines := _theorem_id_tests(path.read_text()))}
    assert found == {}


@pytest.mark.parametrize("generate, shape, says", [
    (M.random_scm, "separable", "unsupported random shape 'separable'"),
    (M.random_additive_scm, "separable", "unsupported additive shape 'separable'"),
])
def test_a_generator_refuses_a_shape_it_cannot_build(generate, shape, says):
    with pytest.raises(M.DomainError, match=says):
        generate(0, shape)


def test_a_model_file_holds_only_a_structural_model():
    joint = _joint()
    with pytest.raises(M.DomainError, match=r"model files hold only structural \(Scm\) models"):
        M.scm_to_json(joint)
    with pytest.raises(M.DomainError, match="^FfrcistgSpec: model files hold only"):
        model.scm_to_dict(joint)
