"""The coin-tossing protocol as one branch tree per pair of behaviours.

`build_tree` writes the four protocol steps out once, for an all-honest
run or one cheater's, whose strategy the tree keeps, so that it names its
run; Bob's choice, each measurement and the verification are chance nodes.
Every branch holds its mass, an integer at the root's scale, so a chance is
a ratio of two masses and an exact probability an integer sum over leaves:
`leaf_probabilities` forms them, `exact_win_probability(tree)` rounds them
once for `bias`, and `analysis`, which `bias` never loads, samples the tree
that `cli.dispatch` builds for every command.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import ANALYTIC_BOUND, InvariantViolationError
from .qstate import (
    A1,
    A2,
    B1,
    B2,
    append_qubits,
    apply_unitary,
    bell_overlap,
    bob_ancilla,
    measure,
    squared_norm,
)
from .strategies import AliceCheatStrategy, BobCheatStrategy, honest_alice

# Transcript senders.
_ALICE, _BOB = "alice", "bob"


class ProtocolOutcome(Enum):
    HEADS = "heads"
    TAILS = "tails"
    ABORT = "abort"


# Two shared pairs, each ``|00> + |11>`` normalized, on (A1,B1) and (A2,B2).
_HONEST_PREPARATION = honest_alice().initial_state


def coin_labels(choice: int) -> tuple[str, str]:
    """(Alice's, Bob's) halves of the pair picked for the coin toss."""
    return (A1, B1) if choice == 1 else (A2, B2)


def verification_labels(choice: int) -> tuple[str, str]:
    """(Alice's, Bob's) halves of the pair left over for verification."""
    return (A2, B2) if choice == 1 else (A1, B1)


# A transcript record without the index and probability that `analysis.walk` adds.
Line = tuple[str, str, dict]


class Branch(NamedTuple):
    """One node of the protocol tree.

    `mass` is the integer mass of the runs through this branch, at the
    scale where the root's mass is probability 1: its chance given its
    parent is ``mass / parent.mass``. `lines` are the transcript records a
    run emits on entering it, the first being the event of that chance (the
    root's lines are no chance's). A chance node's two children's masses
    sum to exactly its own. A branch of mass exactly 0, and only such a
    branch, is dead: it is `_DEAD`, whose `lines` are None, so no walk and
    no sampled run enters it. A leaf has no children and, unless it is
    dead, the run's outcome.
    """

    mass: int
    lines: tuple[Line, ...] | None
    children: tuple["Branch", ...]
    outcome: ProtocolOutcome | None


class ProtocolTree(NamedTuple):
    """Every way one run can go; `alice` and `bob` are strategies, None if honest."""

    alice: AliceCheatStrategy | None
    bob: BobCheatStrategy | None
    target: int | None
    root: Branch


_DEAD = Branch(0, None, (), None)


def _leaf(mass: int, lines: tuple[Line, ...], outcome: ProtocolOutcome) -> Branch:
    if mass == 0:
        return _DEAD
    lines += (("-", "outcome", {"outcome": outcome.value}),)
    return Branch(mass, lines, (), outcome)


def build_tree(
    cheater: AliceCheatStrategy | BobCheatStrategy | None, target: int | None
) -> ProtocolTree:
    """The branch tree of a run against `cheater`, or of an all-honest run.

    The party whose strategy `cheater` is cheats and the other plays
    honestly; None makes both honest. `target` is the cheater's target
    bit, written to the transcript header (None for an all-honest run).
    Bob's choice, every measurement and the verification are chance nodes.
    The root's mass is 4 |psi|^2 for the state psi a run starts from, so
    every split is exact in integers: an honest Bob's choice halves it,
    each node below has mass 2 |state|^2 (4 |state|^2 against a cheating
    Bob, who makes no choice), and its children take that factor times
    `measure`'s squared norms, or pass with the pair's squared overlap
    with |00> + |11>, `bell_overlap`. Every non-root node is entered
    through one chance, and its first line is that chance's event: a
    `choice_announcement` from an honest Bob, a `measurement`, or a verdict.
    """
    alice = cheater if isinstance(cheater, AliceCheatStrategy) else None
    bob = cheater if isinstance(cheater, BobCheatStrategy) else None

    state = _HONEST_PREPARATION if alice is None else alice.initial_state
    if bob is not None:
        state = append_qubits(state, tuple(bob_ancilla(i) for i in range(bob.ancilla_count)))
        if bob.operation is not None:
            state = apply_unitary(state, bob.operation.labels, bob.operation.matrix)

    factor = 2 if bob is None else 4  # a node's mass over its state's squared norm

    def read(state, steps, bits, mass, lines, then) -> Branch:
        # Chance nodes for `steps`, (sender, label) pairs measured in order;
        # then(state, bits, mass, lines) continues each path.
        if not steps:
            return then(state, bits, mass, lines)
        (sender, label), rest = steps[0], steps[1:]
        children = []
        for bit, (kept, posterior) in enumerate(measure(state, label)):
            if kept == 0:
                children.append(_DEAD)
                continue
            line = (sender, "measurement", {"label": label, "outcome": bit})
            children.append(read(posterior, rest, bits + (bit,), factor * kept, (line,), then))
        return Branch(mass, lines, tuple(children), None)

    def announce(state, choice, mass, lines) -> Branch:
        lines += ((_BOB, "choice_announcement", {"choice": choice}),)
        alice_coin, bob_coin = coin_labels(choice)
        alice_keep, bob_keep = verification_labels(choice)
        if bob is not None:
            coins = ((_ALICE, alice_coin),)
        elif alice is None:
            coins = ((_BOB, bob_coin), (_ALICE, alice_coin))
        else:
            coins = ((_BOB, bob_coin),)
        # Step 4: Alice sends her half of the pair Bob did not choose.
        transfer = (_ALICE, "qubit_transfer", {"label": alice_keep})
        checked = {"pair": [alice_keep, bob_keep]}

        def verify(state, bits, mass, lines) -> Branch:
            # The first coin measurement's bit is the protocol outcome.
            outcome = (ProtocolOutcome.HEADS, ProtocolOutcome.TAILS)[bits[0]]
            lines += (transfer,)
            if bob is not None:
                # A cheating Bob holds the verdict, and this family always passes.
                lines += ((_BOB, "verdict_pass", {"pair": []}),)
                return _leaf(mass, lines, outcome)
            # This node's mass is 2 |state|^2, so the pair's squared overlap
            # with |00> + |11> is the pass mass: the chance is their ratio.
            passed = bell_overlap(state, (alice_keep, bob_keep))
            verdicts = (
                _leaf(passed, ((_BOB, "verdict_pass", checked),), outcome),
                _leaf(mass - passed, ((_BOB, "verdict_abort", checked),), ProtocolOutcome.ABORT),
            )
            return Branch(mass, lines, verdicts, None)

        return read(state, coins, (), mass, lines, verify)

    def choose(state, bits, mass, lines) -> Branch:
        return announce(state, bob.announce(bits), mass, lines)

    lines = ((_ALICE, "state_transfer", {"labels": ["B1", "B2"]}),)
    total = 4 * squared_norm(state)
    if bob is None:
        # An honest Bob's step-2 choice is a fair coin.
        choices = tuple(announce(state, choice, total // 2, ()) for choice in (1, 2))
        root = Branch(total, lines, choices, None)
    else:
        steps = tuple((_BOB, label) for label in bob.measured)
        root = read(state, steps, (), total, lines, choose)
    return ProtocolTree(alice, bob, target, root)


def leaves(tree: ProtocolTree) -> list[Branch]:
    """Every leaf, first children first."""
    found, nodes = [], [tree.root]
    while nodes:
        node = nodes.pop()
        nodes += reversed(node.children)
        if not node.children:
            found.append(node)
    return found


def leaf_probabilities(tree: ProtocolTree) -> list[int]:
    """The masses of the run's three outcomes: heads, tails, abort.

    Each sums the masses of the tree's leaves with that outcome; a dead
    branch counts toward none of them. The three sum to exactly the root's
    mass, and each over it is that outcome's exact probability.
    """
    totals = dict.fromkeys([*ProtocolOutcome, None], 0)
    for leaf in leaves(tree):
        totals[leaf.outcome] += leaf.mass  # a dead leaf's outcome is None, its mass 0
    return [totals[outcome] for outcome in ProtocolOutcome]


def exact_win_probability(tree: ProtocolTree) -> dict:
    """A cheater's tree's exact win and abort probability, summed over its
    leaves, as the `bias` report's result, whose party is read off the tree;
    epsilon is the win's excess over 1/2. Each is a ratio of integers,
    rounded to a float once. The masses are exact for the operation as
    given, but a float `LocalOperation` is unitary only to rounding, so a win
    may pass 3/4 by about an ulp: the check, exact in integers, keeps its
    slack of 1e-12 below 0 and 1e-9 above 3/4."""
    party, strategy = ("A", tree.alice) if tree.bob is None else ("B", tree.bob)
    masses = leaf_probabilities(tree)
    win, total = masses[tree.target], sum(masses)
    low, high = (bound.as_integer_ratio() for bound in (-1e-12, ANALYTIC_BOUND + 1e-9))
    if not (low[0] * total <= win * low[1] and win * high[1] <= high[0] * total):
        raise InvariantViolationError(
            f"win probability {win / total!r} escapes [0, bound] for {strategy.name}"
        )
    return {
        "party": party,
        "target": tree.target,
        "strategy": strategy.name,
        "p_win_exact": win / total,
        "p_abort_exact": masses[2] / total,
        "epsilon": (2 * win - total) / (2 * total),
    }
