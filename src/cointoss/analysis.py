"""Exact cheating probabilities, the 3/4 bound, and Monte Carlo cross-checks.

Cheating probabilities are computed two independent ways: closed-form
quadratic forms for Alice's aligned strategy family (her win and detection
probabilities; the optimum is the win form's top eigenvector, and the
sensitivity scan evaluates both forms along a path), and sums over the
leaves of the protocol's branch tree (every choice, coin outcome and
verification branch with its exact probability). Monte Carlo
sampling adds a statistical check: the protocol engine splits the trials
down the tree by one binomial draw per chance node, at the first child's
probability that a transcript's walk compares with, while the kernel engine
draws all trials' counts in one multinomial sample from the summed leaf
probabilities. Neither cost grows with the number of trials, and neither
counts a run on a branch below `qstate.ZERO_ATOL`, whose mass is exactly 0.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .protocol import (
    Branch,
    ProtocolOutcome,
    ProtocolTree,
    build_tree,
    leaves,
)
from .strategies import (
    AliceCheatStrategy,
    AliceCoefficients,
    BobCheatStrategy,
    StrategyRegisterMismatchError,
    aligned_strategy,
    parse_strategy_id,
)

# Both parties are bounded by 3/4; the reference constant is the analytic
# floor on the bias of any protocol of this kind, shown for comparison only.
ANALYTIC_BOUND = 0.75
KITAEV_REFERENCE = 1.0 / math.sqrt(2.0) - 0.5

# numpy's binomial and multinomial draws take counts up to int64's maximum.
_MAX_TRIALS = 2**63 - 1

# Alice's win probability for target 0 is x^T M x in x = (a00, a01, a10, a11),
# against an honest Bob; `_objective` is its expanded form.
_OBJECTIVE_FORM = np.array([[2, 1, 1, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]]) / 4.0

# The sensitivity scan evaluates and prints this many points at a time; a
# chunk's floats and text take about 15 MB.
SCAN_CHUNK = 32_768


class InvariantViolationError(Exception):
    """An internal consistency guarantee failed; results are not trustworthy."""


def _objective(a00, a01, a10):
    """Alice's success probability for target 0; accepts scalars or arrays."""
    return (2.0 * a00 * a00 + 2.0 * a00 * a01 + 2.0 * a00 * a10 + a01 * a01 + a10 * a10) / 4.0


def _detection(a00, a01, a10, a11):
    """Alice's abort probability against an honest Bob; accepts scalars or arrays.

    The abort mass of the coin pair's outcome i is ``(a_i0 - a_i1)^2 / 4``
    when Bob picks pair 1, and of outcome j ``(a_0j - a_1j)^2 / 4`` when he
    picks pair 2.
    """
    d0, d1, d2, d3 = a00 - a01, a10 - a11, a00 - a10, a01 - a11
    return (d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3) / 4.0


def leaf_probabilities(tree: ProtocolTree) -> np.ndarray:
    """Exact probabilities of the run's three leaves: heads, tails, abort.

    Each is the sum of the masses of the tree's leaves with that outcome;
    a dead branch counts toward none of them.
    """
    sums = dict.fromkeys(ProtocolOutcome, 0.0)
    for mass, leaf in leaves(tree):
        if leaf.outcome is not None:
            sums[leaf.outcome] += mass
    return np.array(list(sums.values()))


def exact_win_probability(
    strategy: AliceCheatStrategy | BobCheatStrategy, target: int
) -> dict:
    """One strategy's exact win and abort mass, summed over its branch tree,
    as the `bias` report's result; epsilon is the win's excess over 1/2."""
    exact = leaf_probabilities(build_tree(strategy, target))
    p_win = float(exact[target])
    if not (-1e-12 <= p_win <= ANALYTIC_BOUND + 1e-9):
        raise InvariantViolationError(
            f"win probability {p_win!r} escapes [0, bound] for {strategy.name}"
        )
    return {
        "party": "A" if isinstance(strategy, AliceCheatStrategy) else "B",
        "target": target,
        "strategy": strategy.name,
        "p_win_exact": p_win,
        "p_abort_exact": float(exact[2]),
        "epsilon": p_win - 0.5,
    }


def optimize_alice() -> dict:
    """Maximize the win probability over the nonnegative unit sphere, in closed form.

    The objective is ``x^T M x``. M is nonnegative, so by Perron-Frobenius
    its top eigenvalue is the maximum and its top eigenvector, taken
    entrywise nonnegative, attains it: 3/4 at (sqrt(2/3), sqrt(1/6),
    sqrt(1/6), 0). The `optimize` report's result certifies itself with the
    residual ``||M x - value x||``, the gap to the next eigenvalue (1/2, so
    the optimum is unique) and the detection probability there (1/6). The
    argmax is canonicalized to ``a01 >= a10`` (the objective is symmetric
    under swapping them).
    """
    values, vectors = np.linalg.eigh(_OBJECTIVE_FORM)
    x = np.abs(vectors[:, -1])
    if x[1] < x[2]:
        x = x[[0, 2, 1, 3]]
    value = float(values[-1])
    a00, a01, a10, a11 = x.tolist()
    return {
        "value": value,
        "argmax.a00": a00,
        "argmax.a01": a01,
        "argmax.a10": a10,
        "argmax.a11": a11,
        "residual": float(np.linalg.norm(_OBJECTIVE_FORM @ x - value * x)),
        "spectral_gap": float(values[-1] - values[-2]),
        "p_detect": float(_detection(*x)),
    }


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
    best = exact_win_probability(aligned_strategy(weights, name="phase:0,0,0"), 0)["p_win_exact"]
    for _ in range(samples):
        phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        decorated = weights * np.exp(1j * np.concatenate(([0.0], phases)))
        strategy = aligned_strategy(decorated, name="phase-sample")
        best = max(best, exact_win_probability(strategy, 0)["p_win_exact"])
    return best


def scan_chunks(steps: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(t, win, detection) arrays along the honest-to-optimal path, by chunk.

    Linear interpolation from the honest to the optimal weights, renormalized
    at every step; t runs over ``np.linspace(0, 1, steps)``. Every point is
    an aligned strategy, whose win and detection probabilities against an
    honest Bob are the closed forms `_objective` and `_detection`, so each
    chunk of up to `SCAN_CHUNK` points is one vectorized pass. Takes 2 to
    10**6 steps. The whole path is checked before this returns, so a point
    whose probabilities sum past 1 raises here, and the iterator returned
    evaluates the chunks again as it is read: memory stays O(SCAN_CHUNK).
    """
    # The cap bounds the time: printing 10**6 points takes about 2 s.
    if not 2 <= steps <= 10**6:
        raise ValueError(f"steps must be between 2 and 1000000, got {steps}")
    start_values = AliceCoefficients.honest().as_array()
    end_values = AliceCoefficients.optimal().as_array()

    def chunks():
        for first in range(0, steps, SCAN_CHUNK):
            # np.linspace(0, 1, steps)[first:last], element for element.
            t = np.arange(first, min(first + SCAN_CHUNK, steps)) * (1.0 / (steps - 1))
            if first + t.size == steps:
                t[-1] = 1.0
            raw = (1.0 - t)[:, None] * start_values + t[:, None] * end_values
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            a00, a01, a10, a11 = raw.T
            yield t, _objective(a00, a01, a10), _detection(a00, a01, a10, a11)

    for t, win, detect in chunks():
        lose = 1.0 - win - detect
        bad = np.flatnonzero(lose < -1e-10)
        if bad.size:
            first = bad[0]
            raise InvariantViolationError(
                f"branch probabilities at t={float(t[first])} sum past 1 "
                f"({float(lose[first])!r} residual)"
            )
    return chunks()


def scan_csv(chunks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> Iterator[str]:
    """The scan's CSV rows, one string per chunk.

    Each row reads ``path:t=<t>,<p_win>,<p_detect>`` with `format_value`'s
    12 significant digits; one %-format per chunk keeps printing fast.
    """
    for t, win, detect in chunks:
        flat = np.column_stack((t, win, detect)).ravel().tolist()
        yield ("path:t=%.6f,%.12g,%.12g\n" * t.size) % tuple(flat)


def resolve_run(run_kind: str | None, strategy_id: str, target: int) -> tuple[str, ProtocolTree]:
    """The run kind and branch tree of the runs `monte_carlo` samples, and
    that a transcript walks.

    `strategy_id` is parsed once. A `run_kind` of None infers the kind:
    ``honest`` is an all-honest run, any other id a run against the party
    whose strategy it names.
    """
    if run_kind == "honest" or (run_kind is None and strategy_id == "honest"):
        return "honest", build_tree(None, None)
    strategy = parse_strategy_id(strategy_id, target)
    kind = "cheat-alice" if isinstance(strategy, AliceCheatStrategy) else "cheat-bob"
    if run_kind not in (None, kind):
        owner, needed = ("an Alice", "Bob's") if kind == "cheat-alice" else ("a Bob", "Alice's")
        raise StrategyRegisterMismatchError(
            f"{strategy_id!r} is {owner} strategy; run_kind {run_kind} needs {needed}"
        )
    return kind, build_tree(strategy, target)


def _split_down_tree(tree: ProtocolTree, trials: int, rng: np.random.Generator) -> list[int]:
    """(heads, tails, aborts) counts of `trials` runs sampled down the tree.

    The runs that reach a chance node split between its children by one
    binomial draw at the first child's probability, depth first, first
    child first; a dead child's 0.0 or its sibling's 1.0 sends it no runs.
    The counts have the law of `trials` independent `sample_path` walks,
    since a multinomial over the leaves factorizes into these conditional
    binomials.
    """
    counts = dict.fromkeys(ProtocolOutcome, 0)

    def split(node: Branch, runs: int) -> None:
        if not node.children:
            counts[node.outcome] += runs
            return
        first, second = node.children
        taken = int(rng.binomial(runs, first.probability))
        for child, share in ((first, taken), (second, runs - taken)):
            if share:
                split(child, share)

    split(tree.root, trials)
    return list(counts.values())


def monte_carlo(
    run_kind: str, tree: ProtocolTree, target: int, trials: int, root_seed: int, engine: str
) -> dict:
    """Tally `trials` independent runs of a `resolve_run` run as the sampled
    commands' report result.

    The kernel engine draws the (heads, tails, abort) counts of all trials
    at once, as one multinomial sample over the run's exact leaf
    probabilities: O(1) time and memory for any `trials`. ``engine="protocol"``
    instead samples the counts down the run's branch tree, one binomial
    split per chance node at its first child's probability (the one
    `sample_path` walks), so it costs O(tree nodes) for any `trials`. An
    outcome of exact mass 0, such as an honest run's abort, gets no runs on
    either engine. Both engines are deterministic given `root_seed`, agree
    in distribution, and take 1000 to 2**63 - 1 trials, the largest count
    numpy's samplers hold.
    """
    if not 1000 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be between 1000 and {_MAX_TRIALS}, got {trials}")

    if engine == "kernel":
        leaf_mass = leaf_probabilities(tree)
        # One draw over the outcomes with mass; the last of them takes the
        # remainder, so an outcome of mass 0 stays at exactly 0 runs.
        live = leaf_mass > 0.0
        counts = np.zeros(3, dtype=np.int64)
        counts[live] = np.random.default_rng(root_seed).multinomial(trials, leaf_mass[live])
    else:
        counts = _split_down_tree(tree, trials, np.random.default_rng(root_seed))
    heads, tails, aborts = (int(count) for count in counts)
    win_frequency = (heads if target == 0 else tails) / trials
    abort_frequency = aborts / trials

    def standard_error(frequency: float) -> float:
        return math.sqrt(max(frequency * (1.0 - frequency), 0.0) / trials)

    return {
        "run_kind": run_kind,
        "strategy": tree.bob.behavior if run_kind == "cheat-bob" else tree.alice.behavior,
        "target": target,
        "trials": trials,
        "root_seed": root_seed,
        "engine": engine,
        "heads": heads,
        "tails": tails,
        "aborts": aborts,
        "heads_frequency": heads / trials,
        "tails_frequency": tails / trials,
        "abort_frequency": abort_frequency,
        "win_frequency": win_frequency,
        "win_standard_error": standard_error(win_frequency),
        "abort_standard_error": standard_error(abort_frequency),
    }


# ---------------------------------------------------------------------------
# Report serialization: flat key-value lines, and CSV tables for the scan
# and optimizer outputs. Probabilities carry 12 significant digits.
# ---------------------------------------------------------------------------


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    """The table's CSV lines; a field holding a comma, such as a
    ``coefficients:`` strategy id, is quoted as RFC 4180 says."""
    import csv  # only tabular reports use it; the CLI starts without it
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(format_value, row) for row in rows)
    return out.getvalue().splitlines()
