"""twinvest: contracts, investment regimes and dynamics for trainable AI twins.

A worker can train an AI system on their own work.  Training raises the
quality of outcomes (with and without the worker in the loop) and lowers
the worker's cost of effort, but it also erodes the wage the worker can
command and can make the standalone system good enough to replace them.
This package solves the resulting two-outcome limited-liability
contracting game end to end: optimal contracts, investment regimes,
displacement thresholds, two-period myopic dynamics, degradation/rehire
cycles, and a continuous-effort variant, each certified against
brute-force oracles.
"""

import types

from .contracts import (
    Contract,
    SurplusBreakdown,
    agent_surplus,
    displacement_deterrent_check,
    displacement_deterrent_margin,
    effort_inducement_check,
    optimal_contract,
    outcome_separability,
    principal_surplus,
    should_offer_twin,
    social_total_surplus,
    surpluses,
)
from .continuous import (
    ContinuousEffortModel,
    EffortSolution,
    contract_for_effort,
    foc_residual,
    principal_optimal_effort,
    validate_continuous,
)
from .dynamics import (
    AgentKind,
    EffortLevel,
    PeriodRecord,
    TimelineTrace,
    degradation_deterrent_check,
    myopic_investment,
    rehire_cycle_length,
    sample_outcomes,
    simulate_cycles,
    simulate_two_period,
)
from .families import ParametricFamily
from .investment import (
    InvestmentSolution,
    RegimeLabel,
    classify_regime,
    deterrent_sign_change_roots,
    displacement_threshold,
    optimal_investment,
)
from .model import (
    InvalidModelError,
    ModelPrimitives,
    ValidationReport,
    evaluate,
    validate,
)
from .oracle import (
    OracleReport,
    brute_force_contract,
    brute_force_investment,
    brute_force_two_period,
    run_certification,
)
from .sweep import RegimeMap, SweepAxis, SweepAxisError, regime_sweep

__version__ = "0.1.0"

# every public name imported above; the submodules those imports bind are not
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
