"""The protocol's branch tree: leaf masses, sampled paths and transcripts."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cointoss.analysis import _split_down_tree, exact_win_probability, leaf_probabilities
from cointoss.protocol import (
    ZERO_ATOL,
    ProtocolOutcome,
    build_tree,
    leaves,
    sample_path,
    walk,
)
from cointoss.qstate import B1, B2, bob_ancilla, make_state
from cointoss.strategies import (
    ALICE_CORE,
    AliceCheatStrategy,
    BobCheatStrategy,
    LocalOperation,
    aligned_strategy,
    coefficient_strategy,
    measure_and_pick_bob,
    optimal_alice,
    parse_strategy_id,
)
from test_closed_forms import outcome_operators
from test_golden import REPORTS, TRANSCRIPTS

# Every strategy id that a golden file pins.
GOLDEN_IDS = sorted(
    {argv[argv.index("--strategy") + 1] for _, argv in REPORTS + TRANSCRIPTS if "--strategy" in argv}
)

# Fixed examples, so every run of the suite checks the same cases.
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

weights = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda w: math.fsum(x * x for x in w) > 1e-6
)


# Any Alice state on (A1, B1, A2, B2), with complex amplitudes: no strategy
# id names most of them, and the protocol takes them all.
core_states = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=16,
    max_size=16,
).filter(lambda amplitudes: math.fsum(abs(a) ** 2 for a in amplitudes) > 1e-6).map(
    lambda amplitudes: AliceCheatStrategy("drawn", make_state(ALICE_CORE, amplitudes))
)


def unit(w):
    """The weights `w` scaled to unit norm, as a 4-tuple."""
    return tuple((np.asarray(w) / np.linalg.norm(w)).tolist())


def alice_tree(w):
    return build_tree(coefficient_strategy(unit(w)), 0)


def bob_tree(seed):
    return build_tree(parse_strategy_id(f"random-bob:{seed}"), 0)


def golden_tree(strategy_id, target):
    return build_tree(parse_strategy_id(strategy_id, target), target)


def trees():
    return st.one_of(
        st.builds(alice_tree, weights),
        st.builds(build_tree, core_states, st.just(0)),
        st.builds(bob_tree, st.integers(0, 10**6)),
        st.just(build_tree(None, None)),
        st.builds(golden_tree, st.sampled_from(GOLDEN_IDS), st.sampled_from([0, 1])),
    )


@SETTINGS
@given(core_states, st.sampled_from([0, 1]))
def test_leaf_masses_are_the_outcome_operators(strategy, target):
    # The operators read the protocol from the same wire labels as the tree,
    # so any state's win and abort masses agree up to the tree's clamps.
    psi = np.array(strategy.initial_state.amplitudes)
    win, abort = map(np.array, outcome_operators(target))
    exact = leaf_probabilities(build_tree(strategy, target))
    assert abs(exact[target] - np.vdot(psi, win @ psi).real) < 1e-12
    assert abs(exact[2] - np.vdot(psi, abort @ psi).real) < 1e-12


@SETTINGS
@given(trees())
def test_leaf_masses_sum_to_one(tree):
    total = math.fsum(mass for mass, _ in leaves(tree))
    assert abs(total - 1.0) < 1e-12
    # Dead leaves (mass below 1e-12) count toward no outcome.
    assert math.fsum(leaf_probabilities(tree)) == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("target", [0, 1])
@pytest.mark.parametrize("strategy_id", GOLDEN_IDS)
def test_each_leaf_sum_is_correctly_rounded(strategy_id, target):
    tree = build_tree(parse_strategy_id(strategy_id, target), target)
    exact = dict.fromkeys(ProtocolOutcome, Fraction(0))
    for mass, leaf in leaves(tree):
        if leaf.outcome is not None:
            exact[leaf.outcome] += Fraction(mass)
    assert leaf_probabilities(tree) == [float(total) for total in exact.values()]


def test_optimal_alice_coin_readings_are_the_floats_nearest_one_sixth_and_five_sixths():
    # Against target 1, whichever pair Bob picks, he reads his coin qubit as
    # 0 with chance 1/6 and as 1 with chance 5/6. Not every chance is the
    # float nearest its rational: the weights' square roots and the
    # posterior's square root and division still round.
    tree = build_tree(optimal_alice(1), 1)
    for choice in tree.root.children:
        assert [reading.probability for reading in choice.children] == [
            float(Fraction(1, 6)),
            float(Fraction(5, 6)),
        ]


@SETTINGS
@given(trees())
def test_every_chance_node_splits_one_probability(tree):
    # Children carry p and 1 - p, which sum to 1.0 exactly, p is 0, 1 or at
    # least ZERO_ATOL from both, and a branch is dead, with no lines,
    # exactly when it carries 0, so no sampler or walk can ever reach it.
    # A live child's first line is the event of the chance that enters it,
    # on which `walk` records the child's probability.
    events = {"choice_announcement", "measurement", "verdict_pass", "verdict_abort"}
    nodes = [tree.root]
    while nodes:
        node = nodes.pop()
        if node.children:
            first, second = node.children
            assert first.probability + second.probability == 1.0
            p = first.probability
            assert p in (0.0, 1.0) or ZERO_ATOL <= p <= 1.0 - ZERO_ATOL
            nodes += node.children
            assert all(c.lines[0][1] in events for c in node.children if c.lines)
        assert (node.probability == 0.0) == (node.lines is None)


@SETTINGS
@given(trees(), st.integers(0, 2**63))
# Paths that read an outcome of 1, recorded as 1 - p.
@example(golden_tree("measure-and-pick", 1), 0)
@example(golden_tree("optimal-alice", 1), 0)
def test_transcript_probabilities_multiply_to_the_leaf_mass(tree, seed):
    path = sample_path(tree, seed)
    outcome, transcript = walk(tree, seed)
    # Each chance's event records the probability the walk took, once.
    recorded = math.prod(r.probability for r in transcript.records if r.probability is not None)
    assert recorded == math.prod(node.probability for node in path)
    assert outcome is path[-1].outcome
    assert transcript.records[-1].payload == {"outcome": outcome.value}


@SETTINGS
@given(trees(), st.integers(0, 2**63))
def test_split_counts_lie_within_five_sigma_of_the_leaf_masses(tree, seed):
    trials = 10**6
    counts = _split_down_tree(tree, trials, random.Random(seed))
    assert sum(counts) == trials
    for count, p in zip(counts, leaf_probabilities(tree)):
        assert abs(count - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))


def test_one_tree_serves_many_seeds():
    tree = build_tree(optimal_alice(0), 0)
    for seed in range(20):
        fresh = build_tree(optimal_alice(0), 0)
        assert walk(tree, seed)[1].to_jsonl() == walk(fresh, seed)[1].to_jsonl()


def test_leaf_probabilities_of_the_paper_strategies():
    alice = leaf_probabilities(build_tree(optimal_alice(0), 0))
    bob = leaf_probabilities(build_tree(measure_and_pick_bob(0), 0))
    assert alice == pytest.approx([0.75, 1 / 12, 1 / 6], abs=1e-12)
    assert bob == pytest.approx([0.75, 0.25, 0.0], abs=1e-12)
    assert bob[2] == 0.0


def test_honest_run_is_exactly_fair():
    # Both parties honest start from the two shared pairs with amplitudes of
    # exactly 1/2, so heads and tails each carry exactly 1/2.
    assert leaf_probabilities(build_tree(None, None)) == [0.5, 0.5, 0.0]


@pytest.mark.parametrize("target", [0, 1])
def test_measure_and_pick_wins_exactly_three_quarters(target):
    assert exact_win_probability(measure_and_pick_bob(target), target)["p_win_exact"] == 0.75


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weights)
def test_bias_is_the_same_for_both_targets(w):
    # Flipping every bit maps the aligned weights (a00, a01, a10, a11) to
    # their reverse and swaps heads and tails. A chance node's first child
    # always reads 0, so the two trees sum in different orders and agree to
    # roundoff, not bit for bit.
    w = unit(w)
    heads, tails, aborts = leaf_probabilities(build_tree(coefficient_strategy(w), 0))
    flipped = leaf_probabilities(build_tree(coefficient_strategy(w[::-1]), 1))
    assert np.max(np.abs(np.subtract([tails, heads, aborts], flipped))) <= 1e-15


def test_bob_ancillas_join_the_register_in_zero():
    # An idle ancilla reads 0 with chance exactly 1; one that Bob flips reads
    # 1; and one entangled with B1 by a CNOT reads B1's fair coin.
    x = [[0, 1], [1, 0]]
    cnot = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    ancillas = (bob_ancilla(0), bob_ancilla(1))
    for labels, matrix, first in (
        ((ancillas[0],), [[1, 0], [0, 1]], 1.0),
        ((ancillas[1],), x, 0.0),
        ((B1, ancillas[1]), cnot, 0.5),
    ):
        rule = {(0,): 1, (1,): 2}
        bob = BobCheatStrategy("ancillas", 2, LocalOperation(labels, matrix), (labels[-1],), rule)
        tree = build_tree(bob, 0)
        assert tree.bob.registers == (B1, B2) + ancillas
        assert [child.probability for child in tree.root.children] == [first, 1.0 - first]


def test_draws_per_run():
    # choice, Bob's coin, Alice's coin, verdict / choice, coin, verdict /
    # one per measured label and Alice's coin.
    assert len(sample_path(build_tree(None, None), 3)) == 5
    assert len(sample_path(build_tree(optimal_alice(0), 0), 3)) == 4
    assert len(sample_path(build_tree(measure_and_pick_bob(0), 0), 3)) == 4


def test_unreachable_verification_aborts_instead_of_crashing():
    # The pair (A1, B1) holds (|00>+|11>)/sqrt(2) and (A2, B2) holds
    # (|00>-|11>)/sqrt(2). After choice 1, Bob's check of (A2, B2) never
    # passes; after choice 2, his check of (A1, B1) always does. Each pass
    # chance is clamped to exactly 0 or 1.
    tree = build_tree(aligned_strategy([0.5, -0.5, 0.5, -0.5]), 0)
    assert leaf_probabilities(tree)[2] == 0.5
    for seed in range(40):
        outcome, transcript = walk(tree, seed)
        if transcript.records[2].payload == {"choice": 1}:
            assert outcome is ProtocolOutcome.ABORT
            assert transcript.records[-2].kind == "verdict_abort"
        else:
            assert outcome is not ProtocolOutcome.ABORT
            assert transcript.records[-2].kind == "verdict_pass"
        assert transcript.records[-2].probability == 1.0
