"""Entanglement-based strong coin tossing: exact simulation and cheating analysis."""

from .analysis import (
    ANALYTIC_BOUND,
    KITAEV_REFERENCE,
    BiasReport,
    MonteCarloReport,
    OptimizationResult,
    SensitivityPoint,
    alice_fidelity_bound,
    alice_objective,
    exact_win_probability,
    monte_carlo,
    optimize_alice,
    phase_sweep,
    sensitivity_scan,
)
from .protocol import (
    ProtocolOutcome,
    Transcript,
    run_honest,
)
from .qstate import (
    A1,
    A2,
    B1,
    B2,
    StateVector,
    SubsystemLabel,
    bell_state,
    branch_probabilities,
    make_state,
    schmidt_coefficients,
    tensor,
)
from .strategies import (
    AliceCheatStrategy,
    AliceCoefficients,
    BobCheatStrategy,
    coefficient_strategy,
    measure_and_pick_bob,
    optimal_alice,
    parse_strategy_id,
    random_bob_strategy,
)

__version__ = "0.1.0"
