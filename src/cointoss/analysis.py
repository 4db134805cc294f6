"""The tree's sampled readers: Monte Carlo counts and a run's transcript.

Only the sampled commands load this module; exact probabilities are
`protocol`'s. `monte_carlo` draws heads, tails and aborts as one
multinomial at `leaf_probabilities`' three masses, and `walk` follows one
root-to-leaf path, whose records, framed by a header record (the seed and
each party's behavior and registers) and an outcome record, are the run's
transcript, which `to_jsonl` writes. Both name the run from the tree alone.
Every draw reads `random.Random(seed).random()`, a stream that Python
keeps the same across releases, so runs replay per seed.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, NamedTuple

from .protocol import Branch, ProtocolOutcome, ProtocolTree, leaf_probabilities
from .qstate import A1, A2, B1, B2, bob_ancilla

TRANSCRIPT_SCHEMA = "cointoss.transcript/2"

# The --trials cap, int64's maximum: the documented range, which the
# 2**63 - 1 tests and CI pin. `_binomial` itself draws larger counts too.
_MAX_TRIALS = 2**63 - 1


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


def monte_carlo(tree: ProtocolTree, target: int, trials: int, root_seed: int) -> dict:
    """Tally `trials` independent runs of `tree` as the sampled commands'
    report result, whose run kind and strategy name the tree's cheater.

    The counts are a multinomial at the three exact outcome masses, drawn
    as conditional binomials (Devroye 1986): in `ProtocolOutcome` order,
    each outcome takes a `_binomial` draw of the runs not yet assigned at
    its mass over the mass not yet drawn. So the last outcome of nonzero
    mass takes the rest at chance exactly 1, and an outcome of mass 0, such
    as an honest run's abort, takes no runs, each with no draw. Summing the
    masses is O(tree nodes) and the draws O(1) in `trials`, which runs from
    1000 to 2**63 - 1. The counts are deterministic given `root_seed`; the
    report's ``engine`` always reads ``protocol``, the one engine.
    """
    if not 1000 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be between 1000 and {_MAX_TRIALS}, got {trials}")

    rng, masses, left = random.Random(root_seed), leaf_probabilities(tree), trials
    rest, counts = sum(masses), []
    for mass in masses:
        counts.append(_binomial(rng, left, mass / rest) if mass else 0)
        left, rest = left - counts[-1], rest - mass
    heads, tails, aborts = counts
    win_frequency = (heads if target == 0 else tails) / trials
    abort_frequency = aborts / trials

    def standard_error(frequency: float) -> float:
        return math.sqrt(max(frequency * (1.0 - frequency), 0.0) / trials)

    kind, cheater = ("cheat-alice", tree.alice) if tree.bob is None else ("cheat-bob", tree.bob)
    return {
        "run_kind": "honest" if cheater is None else kind,
        "strategy": "honest" if cheater is None else cheater.name,
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


class TranscriptRecord(NamedTuple):
    """One transcript line: (index, sender, kind, payload, probability)."""

    index: int
    sender: str
    kind: str
    payload: dict
    probability: float | None


def to_jsonl(records: Iterable[TranscriptRecord]) -> str:
    """A transcript's JSON lines: each record an object keyed by its fields."""
    import json  # only transcripts use it; the CLI starts without it

    return "\n".join(json.dumps(record._asdict()) for record in records) + "\n"


def sample_path(tree: ProtocolTree, seed: int) -> list[Branch]:
    """The root-to-leaf path that a run with this seed takes: one uniform
    u = n / d of ``random.Random(seed).random()`` per chance node, below
    the first child's exact chance or not, compared in integers."""
    rng = random.Random(seed)
    path = [tree.root]
    while path[-1].children:
        first, second = path[-1].children
        n, d = rng.random().as_integer_ratio()
        path.append(first if n * path[-1].mass < first.mass * d else second)
    return path


def walk(tree: ProtocolTree, seed: int) -> tuple[ProtocolOutcome, list[TranscriptRecord]]:
    """One run: the outcome and transcript records of the path this seed draws.

    The header names each party's behavior, its strategy's name or
    ``honest``, and its registers. The first record of each non-root node
    on the path, the event of the chance that entered it, carries that
    chance, the node's mass over its parent's, rounded to the nearest
    float, and every other record None.
    """
    alice, bob = ("honest" if party is None else party.name for party in (tree.alice, tree.bob))
    ancillas = [bob_ancilla(i) for i in range(0 if tree.bob is None else tree.bob.ancilla_count)]
    header = {
        "schema": TRANSCRIPT_SCHEMA,
        "seed": seed,
        "alice": {"behavior": alice, "registers": [A1, A2]},
        "bob": {"behavior": bob, "registers": [B1, B2, *ancillas]},
    }
    if tree.target is not None:
        header["target"] = tree.target
    records = [TranscriptRecord(0, "-", "run_header", header, None)]
    path = sample_path(tree, seed)
    for parent, node in zip([None] + path, path):
        for position, line in enumerate(node.lines):
            probability = node.mass / parent.mass if parent is not None and not position else None
            records.append(TranscriptRecord(len(records), *line, probability))
    return path[-1].outcome, records
