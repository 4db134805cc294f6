"""State-engine tests: construction, measurement, projection, norms."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointoss import protocol
from cointoss.qstate import (
    A1,
    A2,
    B1,
    B2,
    _squared_norm,
    append_qubits,
    apply_unitary,
    bob_ancilla,
    bell_overlap,
    make_state,
    measure,
    squared_norm,
)
from cointoss.random_bob import haar_unitary
from cointoss.strategies import honest_alice, optimal_alice

from test_closed_forms import embed, normalized

SQRT_HALF = 1.0 / np.sqrt(2.0)

# The paper's shared pair (|00> + |11>)/sqrt(2), as a numpy oracle.
BELL = np.array([SQRT_HALF, 0.0, 0.0, SQRT_HALF])


def bell(left, right):
    return make_state((left, right), BELL)


def probabilities(state, label):
    """The exact probabilities of reading `label` as 0 and as 1: `measure`'s
    squared norms over the state's."""
    return tuple(Fraction(mass, squared_norm(state)) for mass, _ in measure(state, label))


def pass_probability(state, pair):
    """The exact chance that the pair passes the shared-pair verification."""
    return Fraction(bell_overlap(state, pair), 2 * squared_norm(state))


def floats(state, label):
    """`probabilities`, rounded, for a numpy comparison."""
    return [float(p) for p in probabilities(state, label)]


def random_state(rng, labels):
    amps = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return make_state(labels, amps / np.linalg.norm(amps))


def eq3_state():
    return optimal_alice(0).initial_state


class TestMakeState:
    def test_bell_constant(self):
        state = make_state((B1, B2), (SQRT_HALF, 0, 0, SQRT_HALF))
        np.testing.assert_allclose(normalized(state), [SQRT_HALF, 0, 0, SQRT_HALF], atol=1e-15)
        assert state.register == (B1, B2)

    def test_single_qubit_basis(self):
        state = make_state((A1,), (1, 0))
        assert state.amplitudes == ((1, 0), (0, 0))

    def test_every_float_is_held_exactly(self):
        # One power of two, 2**53 here, makes every part an integer.
        state = make_state((A1,), (complex(0.5, 2.0**-53), -3))
        assert state.amplitudes == ((2**52, 1), (-3 * 2**53, 0))

    def test_small_norm_slack_renormalized_exactly(self):
        # A state is held up to scale: a norm that misses 1 cancels from
        # every chance, which is a ratio of squared norms.
        assert probabilities(make_state((A1,), (1.0 + 5e-9, 0.0)), A1) == (1, 0)
        assert probabilities(make_state((A1,), (3, 4)), A1) == (Fraction(9, 25), Fraction(16, 25))

    def test_amplitudes_are_immutable(self):
        state = bell(A1, B1)
        with pytest.raises(TypeError):
            state.amplitudes[0] = 0.0


class TestLabels:
    def test_str_round_trip(self):
        # A wire is the name transcripts print.
        labels = (A1, B1, A2, B2, bob_ancilla(3))
        assert labels == ("A1", "B1", "A2", "B2", "AncillaB[3]")

    def test_position_is_register_order(self):
        # Register position 0 is the most significant bit of a basis ket.
        state = make_state((B2, A1), (0, 0, 1, 0))  # |10>: B2 = 1, A1 = 0
        assert probabilities(state, B2) == (0.0, 1.0)
        assert probabilities(state, A1) == (1.0, 0.0)


class TestHonestState:
    def test_two_shared_pairs(self):
        # Honest Alice's aligned state is exactly the paper's two EPR pairs on
        # (A1, B1) and (A2, B2): 1/2 on |0000>, |0011>, |1100> and |1111>.
        # An all-honest run starts from the same state.
        state = honest_alice().initial_state
        assert protocol._HONEST_PREPARATION == state
        assert state.register == (A1, B1, A2, B2)
        aligned = (0, 3, 12, 15)  # 0000, 0011, 1100, 1111
        assert state.amplitudes == tuple((int(i in aligned), 0) for i in range(16))
        np.testing.assert_allclose(normalized(state), np.kron(BELL, BELL), rtol=0, atol=1e-15)


class TestBranchProbabilities:
    def test_bell_marginal_uniform(self):
        assert probabilities(bell(A1, B1), B1) == (Fraction(1, 2), Fraction(1, 2))

    def test_optimal_state_marginal(self):
        p0, p1 = probabilities(eq3_state(), B1)
        assert p0 == pytest.approx(5 / 6, abs=1e-12)
        assert p1 == pytest.approx(1 / 6, abs=1e-12)

    def test_basis_state(self):
        assert probabilities(make_state((A1,), (1, 0)), A1) == (1.0, 0.0)

    def test_invariant_under_disjoint_local_operations(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            state = random_state(rng, (A1, B1, A2, B2))
            before = floats(state, B1)
            rotated = apply_unitary(state, (A1, A2, B2), haar_unitary(8, rng))
            after = floats(rotated, B1)
            np.testing.assert_allclose(after, before, atol=1e-10)


class TestMeasure:
    """A measurement's outcomes, as `measure` forms them."""

    def test_bell_perfect_correlation(self):
        for b in (0, 1):
            _, posterior = measure(bell(A1, B1), B1)[b]
            assert probabilities(bell(A1, B1), B1)[b] == Fraction(1, 2)
            expected = np.zeros(4)
            expected[b * 3] = 1.0  # |bb>
            np.testing.assert_allclose(normalized(posterior), expected, atol=1e-12)

    def test_outcome_probabilities_on_optimal_state(self):
        state = eq3_state()
        p0, p1 = probabilities(state, B1)
        assert p0 == pytest.approx(5 / 6, abs=1e-12)
        assert p1 == pytest.approx(1 / 6, abs=1e-12)

    def test_posterior_collapsed_and_normalized(self):
        # The posterior keeps the outcome's amplitudes at the state's scale,
        # so its squared norm is the outcome's mass, and measuring the qubit
        # again reads the outcome with chance exactly 1.
        rng = np.random.default_rng(8)
        for _ in range(10):
            state = random_state(rng, (A1, B1, B2))
            for outcome in (0, 1):
                mass, posterior = measure(state, B2)[outcome]
                kept = [a if i % 2 == outcome else (0, 0) for i, a in enumerate(state.amplitudes)]
                assert posterior.amplitudes == tuple(kept)
                assert _squared_norm(kept) == squared_norm(posterior) == mass
                assert probabilities(posterior, B2)[outcome] == 1

    def test_impossible_outcome_has_no_posterior(self):
        state = make_state((A1, B1), (0, 0, 0.6, 0.8))  # A1 reads 1
        assert measure(state, A1) == ((0, None), (squared_norm(state), state))

    def test_appended_qubits_read_zero(self):
        # Each appended qubit reads 0 with chance exactly 1, and the other
        # qubits read as before: the state's kets gain trailing zeros.
        state = make_state((A1, B1), (0.6, 0, 0, 0.8))
        grown = append_qubits(state, (bob_ancilla(0), bob_ancilla(1)))
        assert grown.register == (A1, B1, bob_ancilla(0), bob_ancilla(1))
        assert squared_norm(grown) == squared_norm(state)
        for label in grown.register[2:]:
            assert probabilities(grown, label) == (1, 0)
        assert probabilities(grown, B1) == probabilities(state, B1)
        np.testing.assert_allclose(normalized(grown)[::4], normalized(state), rtol=0, atol=0)


class TestProjectBell:
    """The Bell-pair verification's pass probability."""

    def test_projecting_bell_onto_itself(self):
        state = bell(A1, B1)
        assert pass_probability(state, (A1, B1)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_half(self):
        state = make_state((A1, B1), (1, 0, 0, 0))
        assert pass_probability(state, (A1, B1)) == pytest.approx(0.5, abs=1e-12)

    def test_skewed_pair_nine_tenths(self):
        state = make_state((A1, B1), (np.sqrt(4 / 5), 0, 0, np.sqrt(1 / 5)))
        assert pass_probability(state, (A1, B1)) == pytest.approx(0.9, abs=1e-12)

    def test_orthogonal_state_signaled(self):
        state = make_state((A1, B1), (0, 1, 0, 0))
        assert pass_probability(state, (A1, B1)) == 0.0

    def test_embedded_pair_in_larger_register(self):
        state = honest_alice().initial_state
        assert pass_probability(state, (A2, B2)) == pytest.approx(1.0, abs=1e-12)


class TestEngineInvariants:
    def test_pass_probability_bounded_by_schmidt_sum(self):
        # For a two-qubit state the Bell overlap cannot beat (l1+l2)^2 / 2.
        rng = np.random.default_rng(42)
        for _ in range(100):
            state = random_state(rng, (A1, B1))
            # The two-qubit state's Schmidt coefficients.
            coeffs = np.linalg.svd(np.reshape(normalized(state), (2, 2)), compute_uv=False)
            bound = (coeffs[0] + coeffs[1]) ** 2 / 2.0
            assert pass_probability(state, (A1, B1)) <= bound + 1e-9

    def test_collapse_probabilities_match_marginals(self):
        rng = np.random.default_rng(43)
        state = random_state(rng, (A1, B1, B2))
        psi = np.reshape(normalized(state), (2, 2, 2))
        marginals = (np.abs(psi) ** 2).sum(axis=(0, 2))
        for b in (0, 1):
            assert probabilities(state, B1)[b] == pytest.approx(marginals[b], abs=1e-12)


CORE = (A1, B1, A2, B2)

core_states = (
    st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)
    .filter(lambda v: math.fsum(x * x for x in v) > 1e-3)
    .map(lambda v: np.asarray(v[:16]) + 1j * np.asarray(v[16:]))
    .map(lambda amps: make_state(CORE, amps / np.linalg.norm(amps)))
)


# Fixed examples, so every run of the suite checks the same cases.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    core_states,
    st.sampled_from(list(combinations(CORE, 2))),
    st.integers(0, 2**32 - 1),
)
def test_every_operation_keeps_the_norm_at_one(state, pair, seed):
    # A state's norm is a scale that no chance reads: a measurement's two
    # posteriors split the state's squared norm exactly, so its chances sum
    # to exactly 1, and the pass chance lies in [0, 1] exactly. A unitary
    # keeps the normalized state a unit vector, to its float entries' rounding.
    for label in CORE:
        outcomes = measure(state, label)
        assert sum(probabilities(state, label)) == 1
        masses = [0 if post is None else squared_norm(post) for _, post in outcomes]
        assert sum(masses) == squared_norm(state)
        assert [mass for mass, _ in outcomes] == masses
    assert 0 <= pass_probability(state, pair) <= 1
    unitary = haar_unitary(4, np.random.default_rng(seed))
    rotated = apply_unitary(state, pair, unitary)
    operator = np.asarray(embed(state.register, pair, unitary))
    assert np.linalg.norm(operator @ normalized(state)) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(normalized(rotated), operator @ normalized(state), atol=1e-12)


REGISTER = (A1, B1, A2, B2, bob_ancilla(0))


def as_tensor(state):
    """The normalized amplitudes as an array with one axis per qubit, register order."""
    return np.reshape(normalized(state), (2,) * len(state.register))


@st.composite
def states_and_qubits(draw):
    """A state on 2 to 5 qubits, its qubit positions in a drawn order, and a
    Haar unitary on the first 1 to 3 of them."""
    n = draw(st.integers(2, 5))
    values = draw(
        st.lists(st.floats(-1.0, 1.0), min_size=2 * 2**n, max_size=2 * 2**n)
        .filter(lambda v: math.fsum(x * x for x in v) > 1e-3)
    )
    amplitudes = np.asarray(values[: 2**n]) + 1j * np.asarray(values[2**n :])
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, min(3, n)))
    unitary = haar_unitary(2**k, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return make_state(REGISTER[:n], amplitudes), amplitudes, order, order[:k], unitary


# The array expressions below, numpy's moveaxis and tensordot, are an
# independent reference for the engine's bit arithmetic on basis indices.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(states_and_qubits())
def test_every_operation_matches_an_array_reference(case):
    state, amplitudes, order, positions, unitary = case
    n = len(state.register)
    expected = amplitudes / np.linalg.norm(amplitudes)
    np.testing.assert_allclose(normalized(state), expected, atol=1e-12)
    psi = as_tensor(state)
    for pos, label in enumerate(state.register):
        marginal = (np.abs(psi) ** 2).sum(axis=tuple(i for i in range(n) if i != pos))
        np.testing.assert_allclose(floats(state, label), marginal, atol=1e-12)
        for outcome in (0, 1):
            if marginal[outcome] < 1e-6:
                continue
            index = tuple(outcome if i == pos else slice(None) for i in range(n))
            kept = np.zeros_like(psi)
            kept[index] = psi[index]
            posterior = measure(state, label)[outcome][1]
            assert abs(probabilities(state, label)[outcome] - marginal[outcome]) < 1e-12
            expected = kept / np.linalg.norm(kept)
            np.testing.assert_allclose(as_tensor(posterior), expected, atol=1e-12)
    a, b = order[:2]
    overlap = np.tensordot(np.eye(2) / np.sqrt(2.0), psi, axes=([0, 1], [a, b]))
    passed = pass_probability(state, (state.register[a], state.register[b]))
    assert abs(passed - np.vdot(overlap, overlap).real) < 1e-12
    k, labels = len(positions), [state.register[p] for p in positions]
    gate = np.reshape(unitary, (2,) * (2 * k))
    rotated = np.moveaxis(
        np.tensordot(gate, psi, axes=(list(range(k, 2 * k)), list(positions))), range(k), positions
    )
    rotated_state = apply_unitary(state, labels, unitary)
    np.testing.assert_allclose(as_tensor(rotated_state), rotated, atol=1e-12)
    operator = np.asarray(embed(state.register, labels, unitary))
    np.testing.assert_allclose(operator @ psi.reshape(-1), rotated.reshape(-1), atol=1e-12)
