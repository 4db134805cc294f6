"""Exact cheating probabilities, the 3/4 bound, and Monte Carlo cross-checks.

Cheating probabilities are exact sums over the leaves of the protocol's
branch tree (every choice, coin outcome and verification branch with its
exact probability), rounded to floats only where a report prints them.
For Alice's aligned family they are also two quadratic forms in her four
weights; `forms` holds them, her optimum and the sensitivity scan, none
of which needs a tree. Monte Carlo sampling adds a statistical check:
`_split_down_tree` splits the trials at every chance node by one
`_binomial` draw at its first child's probability. Every draw reads
`random.Random(seed).random()`, a stream that Python keeps the same across
releases.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import ANALYTIC_BOUND, InvariantViolationError
from .protocol import Branch, ProtocolOutcome, ProtocolTree, build_tree, leaves
from .strategies import AliceCheatStrategy, BobCheatStrategy, parse_strategy_id

# The --trials cap, int64's maximum: the documented range, which the
# 2**63 - 1 tests and CI pin. `_binomial` itself draws larger counts too.
_MAX_TRIALS = 2**63 - 1


def leaf_probabilities(tree: ProtocolTree) -> list[Fraction]:
    """Exact probabilities of the run's three leaves: heads, tails, abort.

    Each is the sum of the masses of the tree's leaves with that outcome;
    a dead branch counts toward none of them. The three sum to exactly 1.
    """
    totals = dict.fromkeys([*ProtocolOutcome, None], Fraction(0))
    for mass, leaf in leaves(tree):
        totals[leaf.outcome] += mass  # a dead leaf's outcome is None, its mass 0
    return [totals[outcome] for outcome in ProtocolOutcome]


def exact_win_probability(
    strategy: AliceCheatStrategy | BobCheatStrategy, target: int
) -> dict:
    """One strategy's exact win and abort mass, summed over its branch tree,
    as the `bias` report's result; epsilon is the win's excess over 1/2.
    Each is rounded to a float once, from its exact value. The masses are
    exact for the operation as given, but a float `LocalOperation` is
    unitary only to rounding, so a win may pass 3/4 by about an ulp: the
    check keeps its slack of 1e-12 below 0 and 1e-9 above 3/4."""
    exact = leaf_probabilities(build_tree(strategy, target))
    p_win = exact[target]
    if not (-1e-12 <= p_win <= ANALYTIC_BOUND + 1e-9):
        raise InvariantViolationError(
            f"win probability {float(p_win)!r} escapes [0, bound] for {strategy.name}"
        )
    return {
        "party": "A" if isinstance(strategy, AliceCheatStrategy) else "B",
        "target": target,
        "strategy": strategy.name,
        "p_win_exact": float(p_win),
        "p_abort_exact": float(exact[2]),
        "epsilon": float(p_win - Fraction(1, 2)),
    }


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
        raise ValueError(
            f"{strategy_id!r} is {owner} strategy; run_kind {run_kind} needs {needed}"
        )
    return kind, build_tree(strategy, target)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_factorial_tail(i: int) -> float:
    """``lgamma(i + 1) - i log i + i - log(2 pi) / 2``: what Stirling's
    leading terms leave of log i!, about ``log(i) / 2 + 1 / (12 i)``.

    From 30 on it is that series, to 1e-14; below, lgamma's terms are
    small enough to subtract directly.
    """
    if i < 30:
        return math.lgamma(i + 1) - (i * math.log(i) if i else 0.0) + i - _HALF_LOG_2PI
    x = float(i)
    return 0.5 * math.log(x) + (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x * x)) / (x * x)) / x


def _bd0(x: float, delta: float, mean: float) -> float:
    """``x log(x / mean) + mean - x`` at ``x = mean + delta``, from the exact `delta`.

    This is how far the log-likelihood of a count x falls below that of its
    mean. Near the mean, Loader's (2000) series in ``v = delta / (x + mean)``
    keeps full relative precision where the direct form cancels.
    """
    if abs(delta) >= 0.1 * (x + mean):
        return (x * math.log(x / mean) if x else 0.0) - delta
    v = delta / (x + mean)
    total, term, v2, j = delta * v, 2.0 * x * v, v * v, 3
    while True:
        term *= v2
        step = total + term / j
        if step == total:
            return total
        total, j = step, j + 2


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw, read from `rng.random()` alone.

    p = 0 gives 0 and p = 1 gives n, exactly; p > 1/2 draws the n - k
    failures instead. Below n p = 10 the draw counts the successes whose
    geometric gaps fit in n trials (Devroye 1986, X.4). Above, it is
    Hormann's (1993) BTRS rejection sampler, which draws the offset
    d = k - m from the mode m. Its acceptance test compares with
    log f(k) / f(m), built from d as differences of `_log_factorial_tail`
    and `_bd0` terms that are each O(1), so no two logarithms of counts
    near 2**63 are ever subtracted.
    """
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n * p < 10.0:
        log_q = math.log1p(-p)
        successes, left = 0, n
        while True:
            # The failures before the next success, as a real number.
            gap = math.log(1.0 - rng.random()) / log_q
            if gap >= left:
                return successes
            successes, left = successes + 1, left - math.floor(gap) - 1

    q = 1.0 - p
    num, den = p.as_integer_ratio()
    m = (n + 1) * num // den  # the mode, floor((n + 1) p), exactly
    excess = (n * num - m * den) / den  # n p - m, rounded once
    mean, failures_mean = n * p, n * q
    spq = math.sqrt(mean * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    # The mode's terms of -log f; log f(k) / f(m) subtracts k's from them.
    at_mode = (
        _log_factorial_tail(m)
        + _log_factorial_tail(n - m)
        + _bd0(float(m), -excess, mean)
        + _bd0(float(n - m), excess, failures_mean)
    )
    while True:
        u, v = rng.random() - 0.5, rng.random()
        us = 0.5 - abs(u)
        if us == 0.0:
            continue  # the hat's pole, u = -1/2
        d = math.floor((2.0 * a / us + b) * u + excess + 0.5)
        k = m + d
        if not 0 <= k <= n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        delta = d - excess  # k - n p
        log_ratio = at_mode - (
            _log_factorial_tail(k)
            + _log_factorial_tail(n - k)
            + _bd0(float(k), delta, mean)
            + _bd0(float(n - k), -delta, failures_mean)
        )
        # m is the mode, so f(k) / f(m) <= 1 and exp cannot overflow.
        if v * alpha / (a / (us * us) + b) <= math.exp(log_ratio):
            return k


def _split_down_tree(tree: ProtocolTree, trials: int, rng: random.Random) -> list[int]:
    """(heads, tails, aborts) counts of `trials` runs sampled down the tree.

    Of the runs that reach a chance node, one `_binomial` draw at the first
    child's probability p, the p that `sample_path` compares with, rounded
    to the nearest float, sends k down the first child and the other runs
    down the second; depth first, first child first. A child of chance 0
    gets no runs and no draw. The counts have the law of `trials`
    independent walks, since a multinomial over the leaves factorizes into
    these conditional splits.
    """
    counts = dict.fromkeys(ProtocolOutcome, 0)

    def split(node: Branch, runs: int) -> None:
        if not node.children:
            counts[node.outcome] += runs
            return
        first, second = node.children
        k = _binomial(rng, runs, float(first.probability))
        for child, share in ((first, k), (second, runs - k)):
            if share:
                split(child, share)

    split(tree.root, trials)
    return list(counts.values())


def monte_carlo(
    run_kind: str, tree: ProtocolTree, target: int, trials: int, root_seed: int
) -> dict:
    """Tally `trials` independent runs of a `resolve_run` run as the sampled
    commands' report result.

    `_split_down_tree` draws the counts at the tree's own per-node
    probabilities, so the cost does not grow with `trials`, and a branch of
    exact mass 0, such as an honest run's abort, gets no runs. It takes
    1000 to 2**63 - 1 trials and is deterministic given `root_seed`. The
    report's ``engine`` always reads ``protocol``, the one engine.
    """
    if not 1000 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be between 1000 and {_MAX_TRIALS}, got {trials}")

    heads, tails, aborts = _split_down_tree(tree, trials, random.Random(root_seed))
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
        "engine": "protocol",
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
