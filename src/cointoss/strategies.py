"""Honest and adversarial party behaviors.

A cheating Alice is the global state she prepares over ``A1, B1, A2, B2``;
after Bob's choice she sends her half of the unchosen pair, as the
protocol's step 4 says. Every Alice strategy an id names is aligned: a
4-tuple of branch weights (a00, a01, a10, a11) on those qubits, as
`HONEST_WEIGHTS` and `OPTIMAL_WEIGHTS` are.
Bob's cheating strategies are a local operation on ``{B1, B2,
AncillaB[i]...}``, a set of qubits he measures, and a rule mapping the
classical result to the pair he announces; his verdict is always "pass",
so he can never be caught. The Haar-random ``random-bob:<seed>`` family is
in `random_bob`, which `parse_strategy_id` loads only for such an id.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from . import HONEST_WEIGHTS, OPTIMAL_WEIGHTS, UnknownStrategyError
from .qstate import A1, A2, B1, B2, StateVector, make_state

COEFFICIENT_NORM_ATOL = 1e-10


class LocalOperation(NamedTuple):
    """A unitary acting on the named qubits, as its rows of entries."""

    labels: tuple[str, ...]
    matrix: list[list[complex]]


ALICE_CORE = (A1, B1, A2, B2)


class AliceCheatStrategy(NamedTuple):
    name: str
    initial_state: StateVector


class BobCheatStrategy(NamedTuple):
    name: str
    ancilla_count: int
    operation: LocalOperation | None
    measured: tuple[str, ...]
    announce_rule: Mapping[tuple[int, ...], int]

    def announce(self, outcomes: tuple[int, ...]) -> int:
        return self.announce_rule[outcomes]


def _bit_tuples(n: int):
    for value in range(2**n):
        yield tuple((value >> (n - 1 - i)) & 1 for i in range(n))


def aligned_strategy(amplitudes, name: str = "aligned") -> AliceCheatStrategy:
    """Cheating state sum_ij c_ij |i i j j> on (A1, B1, A2, B2).

    Each branch mirrors Alice's kept qubit onto Bob's, so the pair left
    unused by the coin toss is as close to the verification target as the
    weights allow. `HONEST_WEIGHTS` give the honest preparation, the state
    every all-honest run starts from. Accepts complex weights.
    """
    amps = [0j] * 16
    for ket, weight in zip((0b0000, 0b0011, 0b1100, 0b1111), amplitudes, strict=True):
        amps[ket] = weight
    return AliceCheatStrategy(name, make_state(ALICE_CORE, amps))


def coefficient_strategy(weights: tuple[float, float, float, float]) -> AliceCheatStrategy:
    """The aligned cheating state with `weights`, under its canonical id.

    The name is ``coefficients:`` and the four weights, each with every
    digit of its repr, so it parses back to the same weights.
    """
    name = "coefficients:" + ",".join(repr(float(x)) for x in weights)
    return aligned_strategy(weights, name=name)


def optimal_alice(target: int) -> AliceCheatStrategy:
    """The four-qubit state achieving the 3/4 cheating bound with equality.

    For target 0 the state is sqrt(2/3)|0000> + (|0011> + |1100>)/sqrt(6)
    on (A1, B1, A2, B2); target 1 uses the global bit-flip, which reverses
    the weights (a_ij -> a_{!i!j}).
    """
    weights = OPTIMAL_WEIGHTS[::-1] if target == 1 else OPTIMAL_WEIGHTS
    return aligned_strategy(weights, name=f"optimal-alice:target={target}")


def honest_alice() -> AliceCheatStrategy:
    """The honest preparation, two shared pairs, in the cheating-strategy form."""
    return aligned_strategy(HONEST_WEIGHTS, name="honest")


def measure_and_pick_bob(target: int) -> BobCheatStrategy:
    """Measure both received qubits, announce a pair that showed `target`.

    Ties (both match or both miss) go to pair 1. Wins with probability 3/4
    and never aborts.
    """
    rule = {}
    for b1, b2 in _bit_tuples(2):
        if b1 == target:
            rule[(b1, b2)] = 1
        elif b2 == target:
            rule[(b1, b2)] = 2
        else:
            rule[(b1, b2)] = 1
    return BobCheatStrategy(
        name=f"measure-and-pick:target={target}",
        ancilla_count=0,
        operation=None,
        measured=(B1, B2),
        announce_rule=rule,
    )


def parse_strategy_id(
    text: str, target: int = 0
) -> AliceCheatStrategy | BobCheatStrategy:
    """Resolve a CLI strategy identifier.

    Known identifiers: ``honest``, ``optimal-alice``,
    ``coefficients:<a00,a01,a10,a11>``, ``measure-and-pick``,
    ``random-bob:<seed>``.
    """
    if text == "honest":
        return honest_alice()
    if text == "optimal-alice":
        return optimal_alice(target)
    if text == "measure-and-pick":
        return measure_and_pick_bob(target)
    if text.startswith("coefficients:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 4:
            raise UnknownStrategyError(
                f"coefficients strategy needs 4 comma-separated values, got {text!r}"
            )
        try:
            # float() also reads whitespace, `_` separators, a leading `+`
            # and non-ASCII digits, which the report's echo of the id would
            # print verbatim.
            if any(not p.isascii() or p != p.strip() or "_" in p or p[:1] == "+" for p in parts):
                raise ValueError("a weight holds a leading '+', '_', whitespace or non-ASCII text")
            # Adding 0.0 reads -0 as 0.0, so one state has one canonical id.
            values = [float(p) + 0.0 for p in parts]
        except ValueError as exc:
            raise UnknownStrategyError(f"bad coefficient in {text!r}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"coefficients must be finite, got {values}")
        if any(x < 0 for x in values):
            raise ValueError(f"coefficients must be nonnegative, got {values}")
        # A huge weight's x * x is inf, which the check names; x ** 2 would
        # raise, and so does fsum when finite squares sum past the largest float.
        try:
            total = math.fsum(x * x for x in values)
        except OverflowError:
            total = math.inf
        if abs(total - 1.0) > COEFFICIENT_NORM_ATOL:
            raise ValueError(
                f"squared coefficients sum to {total!r}, expected 1 within 1e-10"
            )
        return coefficient_strategy(tuple(values))
    if text.startswith("random-bob:"):
        # Only the canonical decimal form, so one seed has one id.
        seed_text = text.split(":", 1)[1]
        try:
            seed = int(seed_text)
        except ValueError:
            seed = -1
        if seed < 0 or str(seed) != seed_text:
            raise UnknownStrategyError(f"bad random-bob seed {seed_text!r}")
        from .random_bob import _DefaultRng, random_bob_strategy

        return random_bob_strategy(_DefaultRng(seed))._replace(name=text)
    raise UnknownStrategyError(f"unknown strategy identifier {text!r}")
