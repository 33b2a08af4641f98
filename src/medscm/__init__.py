"""Exact mediation analysis for discrete structural causal models.

Counterfactual enumeration, effect measures on the difference scale,
nonparametric identification functionals, per-unit null-criterion checks,
and seeded plug-in estimation.
"""

from .effects import (
    EffectReport,
    controlled_direct_effect,
    effect_report,
    l_conditioned_randomized_effects,
    natural_effects,
    randomized_effects,
    reference_interaction,
    total_effect,
)
from .engine import (
    COND_C,
    COND_C_L_DRAW,
    COND_C_L_OBSERVED,
    Intervention,
    ObservedLaw,
    Unit,
    World,
    enumerate_units,
    evaluate,
    g_draw_mean,
    h_draw_mean,
    nested_outcome,
    observational_law,
)
from .criteria import (
    CriterionVerdict,
    NullStatus,
    ReproductionRecord,
    criterion_verdicts,
    m_always_affects_y_check,
    no_interaction_check,
    null_status,
    reproduce,
    search_violations,
)
from .errors import (
    DegenerateStratumError,
    DomainError,
    EnumerationSizeError,
    MedscmError,
    ReproductionError,
    ShapeError,
)
from .identify import (
    AssumptionVerdict,
    check_all_assumptions,
    check_assumption,
    psi_cde,
    psi_nie,
    psi_nie_r_L,
    psi_nie_rl,
    psi_pe,
    psi_te,
)
from .model import (
    FfrcistgSpec,
    NoiseSpec,
    Scm,
    StructuralTable,
    Structure,
    VariableSpec,
    additive_outcome_scm,
    pe_counterexample,
    random_additive_scm,
    random_null_mediator_scm,
    random_scm,
    random_separable_scm,
    scm_from_json,
    scm_to_json,
    separable_scm,
    thm1_counterexample,
    thm2_counterexample,
    thm3_counterexample,
    validate,
)
from .sample import Dataset, Estimate, draw_samples, empirical_law, estimate, read_csv, write_csv

__all__ = [name for name in dir() if not name.startswith("_")]
