"""Exact cheating probabilities, the 3/4 bound, and Monte Carlo cross-checks.

Cheating probabilities are computed two independent ways: a closed-form
quadratic objective for Alice's aligned strategy family, and exhaustive
branch enumeration through the state engine (every choice, coin outcome
and verification branch with its exact probability). Monte Carlo sampling
adds a statistical check: the protocol engine runs every trial through
the state machine, while the kernel engine draws all trials' counts in one
multinomial sample from the enumerated leaf probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .protocol import (
    ProtocolOutcome,
    coin_labels,
    honest_preparation,
    run_cheating_alice,
    run_cheating_bob,
    run_honest,
    verification_labels,
)
from .qstate import (
    ZeroNormError,
    apply_unitary,
    bob_ancilla,
    branch_probabilities,
    collapse,
    make_state,
    project_bell,
    tensor,
)
from .strategies import (
    AliceCheatStrategy,
    AliceCoefficients,
    BobCheatStrategy,
    StrategyRegisterMismatchError,
    aligned_strategy,
    honest_alice,
    parse_strategy_id,
)

# Both parties are bounded by 3/4; the reference constant is the analytic
# floor on the bias of any protocol of this kind, shown for comparison only.
ANALYTIC_BOUND = 0.75
KITAEV_REFERENCE = 1.0 / math.sqrt(2.0) - 0.5

_BRANCH_ATOL = 1e-12


class DegenerateBranchError(Exception):
    """Fidelity bound requested on a branch with no probability mass."""


class InvariantViolationError(Exception):
    """An internal consistency guarantee failed; results are not trustworthy."""


def alice_fidelity_bound(a00: float, a01: float) -> float:
    """Best probability of passing verification after Bob reads 0.

    Equals ``(a00+a01)^2 / (2*(a00^2+a01^2))``: the conditional state's two
    branch weights cap the overlap any locally-reachable state can have
    with the verification target.
    """
    if abs(a00) < _BRANCH_ATOL and abs(a01) < _BRANCH_ATOL:
        raise DegenerateBranchError("both branch weights vanish; bound is vacuous")
    return (a00 + a01) ** 2 / (2.0 * (a00**2 + a01**2))


def alice_objective(c: AliceCoefficients) -> float:
    """Alice's overall success probability for target 0, in closed form.

    ``(2*a00^2 + 2*a00*a01 + 2*a00*a10 + a01^2 + a10^2) / 4``; its maximum
    over the normalized nonnegative coefficients is 3/4.
    """
    return kernels._objective(c.a00, c.a01, c.a10)


@dataclass(frozen=True)
class BiasReport:
    """Exact win/abort probabilities for one cheating party and target."""

    party: str
    target: int
    strategy_id: str
    p_win_exact: float
    p_abort_exact: float
    analytic_bound: float = ANALYTIC_BOUND
    kitaev_reference: float = KITAEV_REFERENCE

    def __post_init__(self) -> None:
        if not (-1e-12 <= self.p_win_exact <= self.analytic_bound + 1e-9):
            raise InvariantViolationError(
                f"win probability {self.p_win_exact!r} escapes [0, bound] for "
                f"{self.strategy_id}"
            )

    @property
    def epsilon(self) -> float:
        """Bias toward the target: excess of the win probability over 1/2."""
        return self.p_win_exact - 0.5

    def as_mapping(self) -> dict:
        return {
            "party": self.party,
            "target": self.target,
            "strategy": self.strategy_id,
            "p_win_exact": self.p_win_exact,
            "p_abort_exact": self.p_abort_exact,
            "epsilon": self.epsilon,
            "analytic_bound": self.analytic_bound,
            "kitaev_reference": self.kitaev_reference,
        }


@dataclass(frozen=True)
class AliceBranchTable:
    """Exact branch probabilities of an Alice-side run.

    ``p_bit[c, b]`` is the probability Bob's coin measurement reads ``b``
    given he chose pair ``c+1``; ``p_pass[c, b]`` the verification pass
    probability on that branch.
    """

    p_bit: np.ndarray
    p_pass: np.ndarray


@dataclass(frozen=True)
class BobBranchTable:
    """Exact branch probabilities of a Bob-side run.

    One row per classical result Bob can obtain: its probability, the
    choice he then announces, and the probability Alice's coin
    measurement reads 0.
    """

    p_result: np.ndarray
    choices: np.ndarray
    p_bit0: np.ndarray


def alice_branch_table(strategy: AliceCheatStrategy) -> AliceBranchTable:
    p_bit = np.zeros((2, 2))
    p_pass = np.zeros((2, 2))
    state = strategy.initial_state
    for ci, choice in enumerate((1, 2)):
        _, bob_coin = coin_labels(choice)
        _, bob_keep = verification_labels(choice)
        response = strategy.responses[choice]
        p_bit[ci] = branch_probabilities(state, bob_coin)
        for b in (0, 1):
            if p_bit[ci, b] < _BRANCH_ATOL:
                continue
            _, posterior = collapse(state, bob_coin, b)
            if response.operation is not None:
                posterior = apply_unitary(
                    posterior, response.operation.labels, response.operation.matrix
                )
            try:
                p_pass[ci, b], _ = project_bell(posterior, (response.send, bob_keep))
            except ZeroNormError:
                p_pass[ci, b] = 0.0
    return AliceBranchTable(p_bit=p_bit, p_pass=p_pass)


def bob_branch_table(strategy: BobCheatStrategy) -> BobBranchTable:
    state = honest_preparation()
    if strategy.ancilla_count:
        register = tuple(bob_ancilla(i) for i in range(strategy.ancilla_count))
        zeros = np.zeros(2**strategy.ancilla_count)
        zeros[0] = 1.0
        state = tensor(state, make_state(register, zeros))
    if strategy.operation is not None:
        state = apply_unitary(state, strategy.operation.labels, strategy.operation.matrix)

    branches = [(1.0, state, ())]
    for label in strategy.measured:
        grown = []
        for probability, branch_state, outcomes in branches:
            marginals = branch_probabilities(branch_state, label)
            for b in (0, 1):
                if marginals[b] < _BRANCH_ATOL:
                    continue
                _, posterior = collapse(branch_state, label, b)
                grown.append((probability * marginals[b], posterior, outcomes + (b,)))
        branches = grown

    p_result = np.zeros(len(branches))
    choices = np.zeros(len(branches), dtype=np.int64)
    p_bit0 = np.zeros(len(branches))
    for row, (probability, branch_state, outcomes) in enumerate(branches):
        choice = strategy.announce(outcomes)
        alice_coin, _ = coin_labels(choice)
        p_result[row] = probability
        choices[row] = choice
        p_bit0[row], _ = branch_probabilities(branch_state, alice_coin)
    return BobBranchTable(p_result=p_result, choices=choices, p_bit0=p_bit0)


def leaf_probabilities(strategy: AliceCheatStrategy | BobCheatStrategy) -> np.ndarray:
    """Exact probabilities of the run's three leaves: heads, tails, abort."""
    if isinstance(strategy, AliceCheatStrategy):
        table = alice_branch_table(strategy)
        passed = table.p_bit * table.p_pass
        heads, tails = (0.5 * float(passed[0, b] + passed[1, b]) for b in (0, 1))
        abort = 0.5 * float(np.sum(table.p_bit * (1.0 - table.p_pass)))
    elif isinstance(strategy, BobCheatStrategy):
        table = bob_branch_table(strategy)
        heads = float(np.sum(table.p_result * table.p_bit0))
        tails = float(np.sum(table.p_result * (1.0 - table.p_bit0)))
        abort = 0.0
    else:
        raise StrategyRegisterMismatchError(f"not a strategy: {strategy!r}")
    return np.array([heads, tails, abort])


def exact_win_probability(
    strategy: AliceCheatStrategy | BobCheatStrategy, target: int
) -> BiasReport:
    """Deterministic branch enumeration of one strategy's win and abort mass."""
    if target not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {target!r}")
    leaves = leaf_probabilities(strategy)
    return BiasReport(
        party="A" if isinstance(strategy, AliceCheatStrategy) else "B",
        target=target,
        strategy_id=strategy.name,
        p_win_exact=float(leaves[target]),
        p_abort_exact=float(leaves[2]),
    )


@dataclass(frozen=True)
class OptimizationResult:
    argmax: AliceCoefficients
    value: float
    grid_resolution: int
    refinement_tolerance: float

    def as_mapping(self) -> dict:
        return {
            "value": self.value,
            "argmax.a00": self.argmax.a00,
            "argmax.a01": self.argmax.a01,
            "argmax.a10": self.argmax.a10,
            "argmax.a11": self.argmax.a11,
            "grid_resolution": self.grid_resolution,
            "refinement_tolerance": self.refinement_tolerance,
            "analytic_bound": ANALYTIC_BOUND,
            "kitaev_reference": KITAEV_REFERENCE,
        }


def _objective_at_angles(angles: Sequence[float]) -> float:
    a00, a01, a10, _ = kernels.angles_to_coefficients(*angles)
    return float(kernels._objective(a00, a01, a10))


def optimize_alice(
    grid_resolution: int = 100, refinement_tolerance: float = 1e-10
) -> OptimizationResult:
    """Maximize the closed-form objective over the nonnegative unit sphere.

    Dense scan over a ``grid_resolution^3`` polar-angle grid, then
    coordinate-wise pattern refinement with a halving step until a full
    sweep improves the value by less than `refinement_tolerance`. The
    reported argmax is canonicalized to ``a01 >= a10`` (the objective is
    symmetric under swapping them).
    """
    if grid_resolution < 20:
        raise ValueError(f"grid_resolution must be >= 20, got {grid_resolution}")
    best_value, t1, t2, t3 = kernels.objective_grid_scan(grid_resolution)

    half_pi = math.pi / 2.0
    angles = [t1, t2, t3]
    step = half_pi / (grid_resolution - 1)
    while step > 1e-13:
        swept_gain = 0.0
        for axis in range(3):
            for delta in (step, -step):
                candidate = list(angles)
                candidate[axis] = min(half_pi, max(0.0, candidate[axis] + delta))
                value = _objective_at_angles(candidate)
                if value > best_value:
                    swept_gain += value - best_value
                    best_value = value
                    angles = candidate
        if swept_gain < refinement_tolerance:
            step /= 2.0

    coefficients = kernels.angles_to_coefficients(*angles)
    if coefficients[1] < coefficients[2]:
        coefficients = coefficients[[0, 2, 1, 3]]
    argmax = AliceCoefficients.from_array(coefficients)
    return OptimizationResult(
        argmax=argmax,
        value=alice_objective(argmax),
        grid_resolution=grid_resolution,
        refinement_tolerance=refinement_tolerance,
    )


def phase_sweep(
    c: AliceCoefficients, samples: int, seed: int = 0
) -> float:
    """Largest exact win probability over random phase decorations of `c`.

    Phases are applied to the a01, a10 and a11 branches (a global phase on
    a00 is irrelevant); the zero-phase point is always included. Confirms
    that allowing complex weights does not beat the nonnegative optimum.
    """
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    rng = np.random.default_rng(seed)
    weights = c.as_array()
    best = exact_win_probability(aligned_strategy(weights, name="phase:0,0,0"), 0).p_win_exact
    for _ in range(samples):
        phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        decorated = weights * np.exp(1j * np.concatenate(([0.0], phases)))
        strategy = aligned_strategy(decorated, name="phase-sample")
        best = max(best, exact_win_probability(strategy, 0).p_win_exact)
    return best


@dataclass(frozen=True)
class SensitivityPoint:
    strategy_id: str
    p_win: float
    p_detect: float


def sensitivity_scan(
    steps: int,
    start: AliceCoefficients | None = None,
    end: AliceCoefficients | None = None,
) -> list[SensitivityPoint]:
    """Win vs detection probability along the honest-to-optimal path.

    Linear interpolation between the two coefficient tuples, renormalized
    at every step; each point is evaluated by exact branch enumeration.
    Any point that wins more often than 1/2 shows a strictly positive
    detection probability.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    start_values = (start or AliceCoefficients.honest()).as_array()
    end_values = (end or AliceCoefficients.optimal()).as_array()
    points = []
    for t in np.linspace(0.0, 1.0, steps):
        raw = (1.0 - t) * start_values + t * end_values
        weights = raw / np.linalg.norm(raw)
        strategy = aligned_strategy(weights, name=f"path:t={t:.6f}")
        report = exact_win_probability(strategy, 0)
        lose = 1.0 - report.p_win_exact - report.p_abort_exact
        if lose < -1e-10:
            raise InvariantViolationError(
                f"branch probabilities at t={t} sum past 1 ({lose!r} residual)"
            )
        points.append(
            SensitivityPoint(
                strategy_id=strategy.name,
                p_win=report.p_win_exact,
                p_detect=report.p_abort_exact,
            )
        )
    return points


@dataclass(frozen=True)
class MonteCarloReport:
    """Outcome frequencies over independent protocol runs."""

    run_kind: str
    strategy_id: str
    target: int
    trials: int
    root_seed: int
    engine: str
    heads: int
    tails: int
    aborts: int

    @property
    def win_frequency(self) -> float:
        wins = self.heads if self.target == 0 else self.tails
        return wins / self.trials

    @property
    def abort_frequency(self) -> float:
        return self.aborts / self.trials

    def standard_error(self, frequency: float) -> float:
        return math.sqrt(max(frequency * (1.0 - frequency), 0.0) / self.trials)

    def as_mapping(self) -> dict:
        return {
            "run_kind": self.run_kind,
            "strategy": self.strategy_id,
            "target": self.target,
            "trials": self.trials,
            "root_seed": self.root_seed,
            "engine": self.engine,
            "heads": self.heads,
            "tails": self.tails,
            "aborts": self.aborts,
            "heads_frequency": self.heads / self.trials,
            "tails_frequency": self.tails / self.trials,
            "abort_frequency": self.abort_frequency,
            "win_frequency": self.win_frequency,
            "win_standard_error": self.standard_error(self.win_frequency),
            "abort_standard_error": self.standard_error(self.abort_frequency),
            "analytic_bound": ANALYTIC_BOUND,
            "kitaev_reference": KITAEV_REFERENCE,
        }


RUN_KINDS = ("honest", "cheat-alice", "cheat-bob")


def _resolve_run(run_kind: str, strategy_id: str, target: int):
    if run_kind not in RUN_KINDS:
        raise ValueError(f"run_kind must be one of {RUN_KINDS}, got {run_kind!r}")
    if run_kind == "honest":
        return honest_alice()
    strategy = parse_strategy_id(strategy_id, target)
    if run_kind == "cheat-alice" and not isinstance(strategy, AliceCheatStrategy):
        raise StrategyRegisterMismatchError(
            f"{strategy_id!r} is a Bob strategy; run_kind cheat-alice needs Alice's"
        )
    if run_kind == "cheat-bob" and not isinstance(strategy, BobCheatStrategy):
        raise StrategyRegisterMismatchError(
            f"{strategy_id!r} is an Alice strategy; run_kind cheat-bob needs Bob's"
        )
    return strategy


def monte_carlo(
    run_kind: str,
    strategy_id: str = "honest",
    target: int = 0,
    trials: int = 100_000,
    root_seed: int = 0,
    engine: str = "kernel",
) -> MonteCarloReport:
    """Run `trials` independent protocol executions and tally outcomes.

    The default engine draws the (heads, tails, abort) counts of all trials
    at once, as one multinomial sample over the run's exact leaf
    probabilities: O(1) time and memory for any `trials`. Leaves with less
    than ``_BRANCH_ATOL`` mass count as impossible, so their count is exactly
    0. ``engine="protocol"`` instead executes each trial through the full
    message-driven state machine with a per-trial seed split from
    `root_seed`. Both are deterministic given `root_seed` and agree in
    distribution.
    """
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    if engine not in ("kernel", "protocol"):
        raise ValueError(f"engine must be 'kernel' or 'protocol', got {engine!r}")
    strategy = _resolve_run(run_kind, strategy_id, target)
    label = strategy.name if run_kind != "honest" else "honest"

    if engine == "kernel":
        # One draw over the leaves with mass; the last of them takes the
        # remainder, so a leaf whose exact mass is roundoff stays exactly 0.
        leaves = leaf_probabilities(strategy)
        live = leaves >= _BRANCH_ATOL
        counts = np.zeros(3, dtype=np.int64)
        counts[live] = np.random.default_rng(root_seed).multinomial(trials, leaves[live])
        heads, tails, aborts = counts
    else:
        seeds = np.random.SeedSequence(root_seed).generate_state(trials, np.uint64)
        heads = tails = aborts = 0
        for trial_seed in seeds:
            if run_kind == "honest":
                outcome, _ = run_honest(int(trial_seed))
            elif isinstance(strategy, AliceCheatStrategy):
                outcome, _ = run_cheating_alice(strategy, target, int(trial_seed))
            else:
                outcome, _ = run_cheating_bob(strategy, target, int(trial_seed))
            if outcome is ProtocolOutcome.HEADS:
                heads += 1
            elif outcome is ProtocolOutcome.TAILS:
                tails += 1
            else:
                aborts += 1

    return MonteCarloReport(
        run_kind=run_kind,
        strategy_id=label,
        target=target,
        trials=trials,
        root_seed=root_seed,
        engine=engine,
        heads=int(heads),
        tails=int(tails),
        aborts=int(aborts),
    )


# ---------------------------------------------------------------------------
# Report serialization: flat key-value lines, and CSV tables for the scan
# and optimizer outputs. Probabilities carry 12 significant digits.
# ---------------------------------------------------------------------------


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def structured_lines(mapping: dict) -> list[str]:
    return [f"{key}: {format_value(value)}" for key, value in mapping.items()]


def csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(value) for value in row))
    return lines


def scan_rows(points: Sequence[SensitivityPoint]) -> list[tuple]:
    return [(p.strategy_id, p.p_win, p.p_detect) for p in points]
