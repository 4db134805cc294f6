"""The protocol's branch tree: leaf masses, sampled paths and transcripts."""

import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cointoss import analysis
from cointoss.analysis import monte_carlo, sample_path, to_jsonl, walk
from cointoss.protocol import (
    _DEAD,
    Branch,
    ProtocolOutcome,
    ProtocolTree,
    build_tree,
    exact_win_probability,
    leaf_probabilities,
    leaves,
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
from test_closed_forms import normalized, outcome_chances, outcome_operators
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
    # so any state's win and abort masses agree, to the oracle's rounding.
    psi = normalized(strategy.initial_state)
    win, abort = map(np.array, outcome_operators(target))
    exact = outcome_chances(build_tree(strategy, target))
    assert abs(exact[target] - np.vdot(psi, win @ psi).real) < 1e-12
    assert abs(exact[2] - np.vdot(psi, abort @ psi).real) < 1e-12


@SETTINGS
@given(trees())
def test_leaf_masses_sum_to_one(tree):
    # Exactly, for any Alice state and any Bob: each chance node's children
    # split their parent's integer mass exactly, so the leaves' masses sum
    # to the root's, and the outcomes' chances to 1. Dead leaves, of mass
    # exactly 0, count toward no outcome.
    assert sum(leaf.mass for leaf in leaves(tree)) == tree.root.mass
    assert sum(leaf_probabilities(tree)) == tree.root.mass
    assert sum(outcome_chances(tree)) == 1


@pytest.mark.parametrize("target", [0, 1])
@pytest.mark.parametrize("strategy_id", GOLDEN_IDS)
def test_each_leaf_sum_is_correctly_rounded(strategy_id, target):
    # The leaf sums are exact, and the report rounds each once.
    strategy = parse_strategy_id(strategy_id, target)
    tree = build_tree(strategy, target)
    exact = dict.fromkeys(ProtocolOutcome, Fraction(0))
    for leaf in leaves(tree):
        if leaf.outcome is not None:
            exact[leaf.outcome] += Fraction(leaf.mass, tree.root.mass)
    assert all(type(mass) is int for mass in leaf_probabilities(tree))
    sums = outcome_chances(tree)
    assert sums == list(exact.values())
    report = exact_win_probability(tree)
    assert report["p_win_exact"] == float(sums[target])
    assert report["p_abort_exact"] == float(sums[2])
    assert report["epsilon"] == float(sums[target] - Fraction(1, 2))


def test_optimal_alice_coin_readings_are_the_floats_nearest_one_sixth_and_five_sixths():
    # Against target 1, whichever pair Bob picks, he reads his coin qubit as
    # 0 with chance exactly 1/6 and as 1 with chance exactly 5/6: the
    # weights' square roots round, but sqrt(2/3) rounds to exactly twice
    # sqrt(1/6), and nothing else does. A transcript records their floats.
    tree = build_tree(optimal_alice(1), 1)
    for choice in tree.root.children:
        assert [Fraction(reading.mass, choice.mass) for reading in choice.children] == [
            Fraction(1, 6),
            Fraction(5, 6),
        ]


@SETTINGS
@given(trees())
def test_every_chance_node_splits_one_probability(tree):
    # Children carry integer masses that sum to exactly their parent's, so
    # their chances are p and 1 - p, and a branch is dead, with no lines,
    # exactly when its mass is 0, so no sampler or walk can ever reach it;
    # any other chance keeps its branch. A live child's first line is the
    # event of the chance that enters it, on which `walk` records it.
    events = {"choice_announcement", "measurement", "verdict_pass", "verdict_abort"}
    nodes = [tree.root]
    while nodes:
        node = nodes.pop()
        if node.children:
            first, second = node.children
            assert type(first.mass) is type(second.mass) is int
            assert first.mass + second.mass == node.mass
            nodes += node.children
            assert all(c.lines[0][1] in events for c in node.children if c.lines)
        assert (node.mass == 0) == (node.lines is None)


@SETTINGS
@given(trees(), st.integers(0, 2**63))
# Paths that read an outcome of 1, recorded as 1 - p.
@example(golden_tree("measure-and-pick", 1), 0)
@example(golden_tree("optimal-alice", 1), 0)
def test_transcript_probabilities_multiply_to_the_leaf_mass(tree, seed):
    path = sample_path(tree, seed)
    outcome, transcript = walk(tree, seed)
    # The exact chances on the path multiply to its leaf's exact mass, and
    # each chance's event records the float of the chance the walk took, once.
    chances = [Fraction(node.mass, parent.mass) for parent, node in zip(path, path[1:])]
    leaf = next(leaf for leaf in leaves(tree) if leaf is path[-1])
    assert math.prod(chances) == Fraction(leaf.mass, tree.root.mass)
    recorded = [r.probability for r in transcript if r.probability is not None]
    assert recorded == [float(chance) for chance in chances]
    assert outcome is path[-1].outcome
    assert transcript[-1].payload == {"outcome": outcome.value}


@SETTINGS
@given(trees(), st.integers(0, 2**63))
def test_split_counts_lie_within_five_sigma_of_the_leaf_masses(tree, seed):
    trials = 10**6
    report = monte_carlo(tree, 0, trials, seed)
    counts = [report[key] for key in ("heads", "tails", "aborts")]
    assert sum(counts) == trials
    for count, p in zip(counts, outcome_chances(tree)):
        assert abs(count - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))


def branch(mass, children=(), outcome=None):
    """A live node of this mass, or `_DEAD` at mass 0."""
    return Branch(mass, (), children, outcome) if mass else _DEAD


@SETTINGS
@given(trees())
def test_counts_read_the_tree_only_through_its_outcome_masses(tree):
    # The same three masses in another shape: heads against the rest at the
    # root, then tails against abort.
    heads, tails, aborts = leaf_probabilities(tree)
    heads_leaf = branch(heads, outcome=ProtocolOutcome.HEADS)
    tails_leaf = branch(tails, outcome=ProtocolOutcome.TAILS)
    abort_leaf = branch(aborts, outcome=ProtocolOutcome.ABORT)
    rest = branch(tails + aborts, (tails_leaf, abort_leaf))
    reshaped = tree._replace(root=branch(heads + tails + aborts, (heads_leaf, rest)))
    assert leaf_probabilities(reshaped) == [heads, tails, aborts]
    for seed in (0, 1, 7, 2**63 - 1):
        for trials in (1000, 10**6, 2**63 - 1):
            assert monte_carlo(reshaped, 1, trials, seed) == monte_carlo(tree, 1, trials, seed)


def test_one_tree_serves_many_seeds():
    tree = build_tree(optimal_alice(0), 0)
    for seed in range(20):
        fresh = build_tree(optimal_alice(0), 0)
        assert to_jsonl(walk(tree, seed)[1]) == to_jsonl(walk(fresh, seed)[1])


def test_leaf_probabilities_of_the_paper_strategies():
    # Exactly, although the optimal weights are rounded square roots.
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    sixth, twelfth = Fraction(1, 6), Fraction(1, 12)
    assert outcome_chances(build_tree(optimal_alice(0), 0)) == [3 * quarter, twelfth, sixth]
    assert outcome_chances(build_tree(optimal_alice(1), 1)) == [twelfth, 3 * quarter, sixth]
    assert outcome_chances(build_tree(measure_and_pick_bob(0), 0)) == [3 * quarter, quarter, 0]
    assert outcome_chances(build_tree(measure_and_pick_bob(1), 1)) == [quarter, 3 * quarter, 0]
    assert outcome_chances(build_tree(None, None)) == [half, half, 0]


def test_honest_run_is_exactly_fair():
    # Both parties honest start from the two shared pairs with amplitudes of
    # exactly 1/2, so heads and tails each carry exactly 1/2.
    assert outcome_chances(build_tree(None, None)) == [Fraction(1, 2), Fraction(1, 2), 0]


@pytest.mark.parametrize("target", [0, 1])
def test_measure_and_pick_wins_exactly_three_quarters(target):
    report = exact_win_probability(build_tree(measure_and_pick_bob(target), target))
    assert report["p_win_exact"] == 0.75


def leaf_masses(tree, flip=False):
    """The tree's leaves as a multiset of (exact chance, outcome), with heads
    and tails swapped when `flip`."""
    heads, tails = ProtocolOutcome.HEADS, ProtocolOutcome.TAILS
    swap = {heads: tails, tails: heads} if flip else {}
    return Counter(
        (Fraction(leaf.mass, tree.root.mass), swap.get(leaf.outcome, leaf.outcome))
        for leaf in leaves(tree)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weights)
def test_bias_is_the_same_for_both_targets(w):
    # Flipping every bit maps the aligned weights (a00, a01, a10, a11) to
    # their reverse and swaps heads and tails. A chance node's first child
    # always reads 0, so the two trees list their leaves in different
    # orders, but each leaf of one has a leaf of exactly its mass in the other.
    w = unit(w)
    flipped = build_tree(coefficient_strategy(w[::-1]), 1)
    assert leaf_masses(flipped) == leaf_masses(build_tree(coefficient_strategy(w), 0), flip=True)


def test_measure_and_pick_is_the_same_for_both_targets():
    # Measure-and-pick for target 1 is target 0's rule with every bit flipped.
    flipped = build_tree(measure_and_pick_bob(1), 1)
    assert leaf_masses(flipped) == leaf_masses(build_tree(measure_and_pick_bob(0), 0), flip=True)


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
        assert walk(tree, 0)[1][0].payload["bob"]["registers"] == [B1, B2, *ancillas]
        chances = [Fraction(child.mass, tree.root.mass) for child in tree.root.children]
        assert chances == [first, 1.0 - first]


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
    # chance is exactly 0 or 1.
    tree = build_tree(aligned_strategy([0.5, -0.5, 0.5, -0.5]), 0)
    assert outcome_chances(tree)[2] == 0.5
    for seed in range(40):
        outcome, transcript = walk(tree, seed)
        if transcript[2].payload == {"choice": 1}:
            assert outcome is ProtocolOutcome.ABORT
            assert transcript[-2].kind == "verdict_abort"
        else:
            assert outcome is not ProtocolOutcome.ABORT
            assert transcript[-2].kind == "verdict_pass"
        assert transcript[-2].probability == 1.0


def drawn_path(first, total, uniform):
    """The path `sample_path` takes through a one-chance tree of root mass
    `total` whose first child has mass `first`, when its draw is `uniform`."""
    children = (Branch(first, (), (), ProtocolOutcome.HEADS), Branch(total - first, (), (), None))
    tree = ProtocolTree(None, None, None, Branch(total, (), children, None))
    stream = SimpleNamespace(random=lambda: uniform)
    with mock.patch.object(analysis, "random", SimpleNamespace(Random=lambda seed: stream)):
        return sample_path(tree, 0)


@pytest.mark.parametrize("first, total", [(1, 2), (3, 8), (1, 2**60), (2**53 - 1, 2**53)])
def test_a_draw_at_the_exact_chance_takes_the_second_child(first, total):
    # A run takes the first child when its uniform is below the chance: at
    # the chance itself it takes the second, one ulp below it the first.
    chance = first / total
    assert Fraction(chance) == Fraction(first, total)
    assert drawn_path(first, total, chance)[-1].outcome is None
    below = math.nextafter(chance, 0.0)
    assert drawn_path(first, total, below)[-1].outcome is ProtocolOutcome.HEADS


# (first, total): a first child's mass and its parent's.
mass_pairs = st.integers(1, 2**200).flatmap(
    lambda total: st.tuples(st.integers(0, total), st.just(total))
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mass_pairs, st.floats(0.0, 1.0, exclude_max=True))
@example((1, 6), 1 / 6)
@example((1, 6), math.nextafter(1 / 6, 1.0))
@example((0, 5), 0.0)
@example((5, 5), math.nextafter(1.0, 0.0))
def test_the_integer_comparison_is_the_exact_one(masses, uniform):
    # The draw is compared with the exact chance first / total in integers,
    # as `Fraction` compares them, even where no float equals the chance.
    first, total = masses
    took_first = drawn_path(first, total, uniform)[-1].outcome is ProtocolOutcome.HEADS
    assert took_first == (Fraction(uniform) < Fraction(first, total))
