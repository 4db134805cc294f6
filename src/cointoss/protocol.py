"""The coin-tossing protocol as one branch tree per pair of behaviours.

`build_tree` writes the four protocol steps out once, for an all-honest
run or a run with one cheating party. Bob's choice, each measurement and
the verification are chance nodes; every branch holds its exact
probability once, a `Fraction`, and the transcript records it emits; it
is dead exactly when that probability is 0. Three readers share the tree:
exact probabilities are sums over its leaves, sampled counts split runs
down its chance nodes, and a run walks one root-to-leaf path with the
run's RNG, whose records are the run's transcript, each chance's event
carrying the float of the probability the walk took. A transcript is
framed by a header record (carrying the seed and both parties' roles)
and an outcome record. Messages always appear in protocol order: state
transfer, choice announcement, qubit transfer, verdict. Runs are
deterministic per seed.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .qstate import (
    A1,
    A2,
    B1,
    B2,
    StateVector,
    apply_unitary,
    bell_pass_probability,
    bob_ancilla,
    measure,
)
from .strategies import AliceCheatStrategy, BobCheatStrategy, honest_alice

TRANSCRIPT_SCHEMA = "cointoss.transcript/2"

# Transcript senders.
_ALICE, _BOB = "alice", "bob"


class ProtocolOutcome(Enum):
    HEADS = "heads"
    TAILS = "tails"
    ABORT = "abort"


class PartyRole(NamedTuple):
    """Who a party is in a run: honest, or playing a named strategy."""

    behavior: str
    registers: tuple[str, ...]


class TranscriptRecord(NamedTuple):
    """One transcript line: (index, sender, kind, payload, probability)."""

    index: int
    sender: str
    kind: str
    payload: dict
    probability: float | None


class Transcript(NamedTuple):
    """A run's records, from its header to its outcome record."""

    records: tuple[TranscriptRecord, ...]

    def to_jsonl(self) -> str:
        import json  # only transcripts use it; the CLI starts without it

        # A record's fields, in order, are its JSON object's keys.
        return "\n".join(json.dumps(record._asdict()) for record in self.records) + "\n"


# Two shared pairs, each ``|00> + |11>`` normalized, on (A1,B1) and (A2,B2).
_HONEST_PREPARATION = honest_alice().initial_state


def coin_labels(choice: int) -> tuple[str, str]:
    """(Alice's, Bob's) halves of the pair picked for the coin toss."""
    return (A1, B1) if choice == 1 else (A2, B2)


def verification_labels(choice: int) -> tuple[str, str]:
    """(Alice's, Bob's) halves of the pair left over for verification."""
    return (A2, B2) if choice == 1 else (A1, B1)


# A transcript record without the index and probability that `walk` adds.
Line = tuple[str, str, dict]


class Branch(NamedTuple):
    """One node of the protocol tree.

    `probability` is the exact chance of this branch given its parent, and
    `lines` the transcript records a run emits on entering it; the first is
    the event of the chance that enters it, and `walk` records this
    probability's float on it (the root's lines on none). A chance node has
    two children whose probabilities are p and 1 - p; a run continues to
    ``children[0]`` when ``rng.random() < children[0].probability`` and to
    ``children[1]`` otherwise. A branch of chance exactly 0, and only such
    a branch, is dead: it is `_DEAD`, whose `lines` are None, so no walk and
    no sampled run enters it. A leaf has no children and, unless it is
    dead, the run's outcome.
    """

    probability: Fraction
    lines: tuple[Line, ...] | None
    children: tuple["Branch", ...]
    outcome: ProtocolOutcome | None


class ProtocolTree(NamedTuple):
    """Every way one run can go, for a fixed cheater (or none)."""

    alice: PartyRole
    bob: PartyRole
    target: int | None
    root: Branch


_DEAD = Branch(Fraction(0), None, (), None)


def _leaf(probability: Fraction, lines: tuple[Line, ...], outcome: ProtocolOutcome) -> Branch:
    if probability == 0:
        return _DEAD
    lines += (("-", "outcome", {"outcome": outcome.value}),)
    return Branch(probability, lines, (), outcome)


def build_tree(
    cheater: AliceCheatStrategy | BobCheatStrategy | None, target: int | None
) -> ProtocolTree:
    """The branch tree of a run against `cheater`, or of an all-honest run.

    The party whose strategy `cheater` is cheats and the other plays
    honestly; None makes both honest. `target` is the cheater's target
    bit, written to the transcript header (None for an all-honest run).
    Bob's choice, every measurement and the verification are chance nodes.
    Each has one exact probability p, its first child's, and its second
    child has 1 - p: 1/2 for the choice, reading 0 by `measure`, passing by
    `bell_pass_probability`. Every non-root node is entered through one
    chance, and its first line is that chance's event: a
    `choice_announcement` from an honest Bob, a `measurement`, or a
    verdict. No line carries a probability; `walk` adds the node's.
    """
    alice = cheater if isinstance(cheater, AliceCheatStrategy) else None
    bob = cheater if isinstance(cheater, BobCheatStrategy) else None

    alice_role = PartyRole("honest" if alice is None else alice.name, ("A1", "A2"))
    bob_role = PartyRole("honest", ("B1", "B2"))
    state = _HONEST_PREPARATION if alice is None else alice.initial_state
    if bob is not None:
        ancillas = tuple(bob_ancilla(i) for i in range(bob.ancilla_count))
        bob_role = PartyRole(bob.name, ("B1", "B2") + ancillas)
        # Bob's ancillas join the register in |0...0>: each amplitude is
        # followed by the 2^k - 1 zeros of the kets where an ancilla reads 1.
        pad = ((0, 0),) * (2 ** len(ancillas) - 1)
        amplitudes = tuple(x for a in state.amplitudes for x in (a, *pad))
        state = StateVector(state.register + ancillas, amplitudes)
        if bob.operation is not None:
            state = apply_unitary(state, bob.operation.labels, bob.operation.matrix)

    def read(state, steps, bits, probability, lines, then) -> Branch:
        # Chance nodes for `steps`, (sender, label) pairs measured in order;
        # then(state, bits, probability, lines) continues each path.
        if not steps:
            return then(state, bits, probability, lines)
        (sender, label), rest = steps[0], steps[1:]
        children = []
        for bit, (mass, posterior) in enumerate(measure(state, label)):
            if mass == 0:
                children.append(_DEAD)
                continue
            line = (sender, "measurement", {"label": label, "outcome": bit})
            children.append(read(posterior, rest, bits + (bit,), mass, (line,), then))
        return Branch(probability, lines, tuple(children), None)

    def announce(state, choice, probability, lines) -> Branch:
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

        def verify(state, bits, probability, lines) -> Branch:
            # The first coin measurement's bit is the protocol outcome.
            outcome = (ProtocolOutcome.HEADS, ProtocolOutcome.TAILS)[bits[0]]
            lines += (transfer,)
            if bob is not None:
                # A cheating Bob holds the verdict, and this family always passes.
                lines += ((_BOB, "verdict_pass", {"pair": []}),)
                return _leaf(probability, lines, outcome)
            passed = bell_pass_probability(state, (alice_keep, bob_keep))
            verdicts = (
                _leaf(passed, ((_BOB, "verdict_pass", checked),), outcome),
                _leaf(1 - passed, ((_BOB, "verdict_abort", checked),), ProtocolOutcome.ABORT),
            )
            return Branch(probability, lines, verdicts, None)

        return read(state, coins, (), probability, lines, verify)

    def choose(state, bits, probability, lines) -> Branch:
        return announce(state, bob.announce(bits), probability, lines)

    lines = ((_ALICE, "state_transfer", {"labels": ["B1", "B2"]}),)
    if bob is None:
        # An honest Bob's step-2 choice is a fair coin.
        choices = tuple(announce(state, choice, Fraction(1, 2), ()) for choice in (1, 2))
        root = Branch(Fraction(1), lines, choices, None)
    else:
        steps = tuple((_BOB, label) for label in bob.measured)
        root = read(state, steps, (), Fraction(1), lines, choose)
    return ProtocolTree(alice_role, bob_role, target, root)


def sample_path(tree: ProtocolTree, seed: int) -> list[Branch]:
    """The root-to-leaf path that a run with this seed takes: one uniform
    of ``random.Random(seed).random()`` per chance node, below the first
    child's exact probability or not."""
    rng = random.Random(seed)
    path = [tree.root]
    while path[-1].children:
        first, second = path[-1].children
        path.append(first if rng.random() < first.probability else second)
    return path


def leaves(tree: ProtocolTree) -> list[tuple[Fraction, Branch]]:
    """Every leaf with its exact mass, first children first."""
    found = []

    def visit(node: Branch, mass: Fraction) -> None:
        mass *= node.probability
        for child in node.children:
            visit(child, mass)
        if not node.children:
            found.append((mass, node))

    visit(tree.root, Fraction(1))
    return found


def walk(tree: ProtocolTree, seed: int) -> tuple[ProtocolOutcome, Transcript]:
    """One run: the outcome and transcript of the path this seed draws.

    The first record of each non-root node on the path, the event of the
    chance that entered it, carries that node's probability, rounded to the
    nearest float, and every other record None.
    """
    header = {
        "schema": TRANSCRIPT_SCHEMA,
        "seed": seed,
        "alice": {"behavior": tree.alice.behavior, "registers": list(tree.alice.registers)},
        "bob": {"behavior": tree.bob.behavior, "registers": list(tree.bob.registers)},
    }
    if tree.target is not None:
        header["target"] = tree.target
    records = [TranscriptRecord(0, "-", "run_header", header, None)]
    path = sample_path(tree, seed)
    for depth, node in enumerate(path):
        for position, line in enumerate(node.lines):
            probability = float(node.probability) if depth and not position else None
            records.append(TranscriptRecord(len(records), *line, probability))
    return path[-1].outcome, Transcript(tuple(records))
