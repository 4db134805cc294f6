"""Strategy construction, and identifier parsing with its checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cointoss import HONEST_WEIGHTS, OPTIMAL_WEIGHTS, UnknownStrategyError
from cointoss.qstate import A1, A2, B1, B2
from cointoss.random_bob import _DefaultRng, dot, haar_unitary, random_bob_strategy
from cointoss.strategies import (
    AliceCheatStrategy,
    BobCheatStrategy,
    coefficient_strategy,
    honest_alice,
    measure_and_pick_bob,
    optimal_alice,
    parse_strategy_id,
)

from test_closed_forms import normalized


# The aligned kets |i i j j> on (A1, B1, A2, B2) that carry the weights a_ij.
ALIGNED_KETS = (0b0000, 0b0011, 0b1100, 0b1111)


def weights(strategy):
    """The aligned weights (a00, a01, a10, a11) an Alice strategy prepares,
    as exact integer (re, im) pairs at its state's scale."""
    return tuple(strategy.initial_state.amplitudes[ket] for ket in ALIGNED_KETS)


class TestAliceWeights:
    def test_named_tuples_normalized(self):
        for c in (HONEST_WEIGHTS, OPTIMAL_WEIGHTS):
            assert np.sum(np.square(c)) == pytest.approx(1.0, abs=1e-12)

    def test_not_normalized_rejected(self):
        # The squared weights may miss 1 by 1e-10: 2.5e-11 passes, 4e-10 does not.
        assert parse_strategy_id("coefficients:0.6,0.8,0,0.000005").name.endswith(",5e-06")
        with pytest.raises(ValueError, match="expected 1 within 1e-10"):
            parse_strategy_id("coefficients:0.6,0.8,0,0.00002")

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            parse_strategy_id("coefficients:-0.5,0.5,0.5,0.5")

    def test_negative_zero_is_zero(self):
        # -0 and 0 name one state, so they must give it one canonical id.
        for text in ("coefficients:-0,1,0,0", "coefficients:0,1,-0.0,0"):
            strategy = parse_strategy_id(text)
            assert strategy.name == "coefficients:0.0,1.0,0.0,0.0"
            assert parse_strategy_id(strategy.name).name == strategy.name

    def test_flipped_reverses_branch_labels(self):
        # Target 1's optimum is target 0's with every bit flipped: a_ij -> a_{!i!j}.
        a00, a01, a10, a11 = OPTIMAL_WEIGHTS[::-1]
        assert a11 == pytest.approx(np.sqrt(2 / 3))
        assert a00 == 0.0
        assert weights(optimal_alice(1)) == weights(optimal_alice(0))[::-1]


class TestOptimalAlice:
    def test_target_zero_amplitudes(self):
        state = optimal_alice(0).initial_state
        assert state.register == (A1, B1, A2, B2)
        psi = normalized(state)
        assert psi[0b0000] == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
        assert psi[0b0011] == pytest.approx(1 / np.sqrt(6), abs=1e-12)
        assert psi[0b1100] == pytest.approx(1 / np.sqrt(6), abs=1e-12)
        assert np.count_nonzero(np.abs(psi) > 1e-14) == 3

    def test_target_one_is_global_bit_flip(self):
        psi = normalized(optimal_alice(1).initial_state)
        assert psi[0b1111] == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
        assert psi[0b1100] == pytest.approx(1 / np.sqrt(6), abs=1e-12)
        assert psi[0b0011] == pytest.approx(1 / np.sqrt(6), abs=1e-12)


class TestCoefficientStrategy:
    def test_aligned_honest_is_honest_preparation(self):
        strategy = coefficient_strategy(HONEST_WEIGHTS)
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(normalized(strategy.initial_state), np.kron(bell, bell), atol=1e-12)

    def test_registers_are_exactly_the_core(self):
        # The tree names Alice's registers A1, A2 on this ground.
        for strategy in (
            optimal_alice(0),
            honest_alice(),
            coefficient_strategy(OPTIMAL_WEIGHTS),
        ):
            assert strategy.initial_state.register == (A1, B1, A2, B2)
            assert np.linalg.norm(normalized(strategy.initial_state)) == pytest.approx(1.0, abs=1e-10)


class TestMeasureAndPick:
    def test_announce_rule_target_zero(self):
        rule = measure_and_pick_bob(0).announce_rule
        assert rule[(0, 1)] == 1  # first pair showed the target
        assert rule[(1, 0)] == 2
        assert rule[(0, 0)] == 1  # both match: tie-break to pair 1
        assert rule[(1, 1)] == 1  # both miss: forced loss, tie-break to pair 1

    def test_announce_rule_target_one(self):
        rule = measure_and_pick_bob(1).announce_rule
        assert rule[(1, 0)] == 1
        assert rule[(0, 1)] == 2
        assert rule[(1, 1)] == 1
        assert rule[(0, 0)] == 1

    def test_measures_both_received_qubits(self):
        strategy = measure_and_pick_bob(0)
        assert strategy.measured == (B1, B2)
        assert strategy.operation is None


class TestRandomBob:
    def test_acts_only_on_bob_labels(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            strategy = random_bob_strategy(rng)
            for label in strategy.operation.labels:
                assert label in (B1, B2) or label.startswith("AncillaB[")
            for label in strategy.measured:
                assert label.startswith("AncillaB[")
            assert set(strategy.announce_rule.values()) <= {1, 2}

    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(51)
        for dim in (2, 4, 8):
            u = np.array(haar_unitary(dim, rng))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-10)

    @pytest.mark.parametrize("dim", [4, 8])
    def test_haar_unitary_is_the_phase_fixed_qr_of_its_draws(self, dim):
        # numpy's QR, with R's diagonal made real and positive, is the reference.
        for seed in range(200):
            rng = _DefaultRng(seed)
            z = np.array(rng.normal(size=(dim, dim))) + 1j * np.array(rng.normal(size=(dim, dim)))
            q, r = np.linalg.qr(z)
            expected = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            ours = haar_unitary(dim, _DefaultRng(seed))
            np.testing.assert_allclose(ours, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 9, 2**200],
                             ids=["0", "7", "2^32", "2^64+9", "2^200"])
    def test_default_rng_draws_numpys_stream(self, seed):
        ours, numpys = _DefaultRng(seed), np.random.default_rng(seed)
        for _ in range(20):
            # Interleaved, so the kept upper half of a 64-bit draw is checked too.
            assert [ours.integers(0, 2), ours.integers(3, 1000)] == [
                int(numpys.integers(0, 2)), int(numpys.integers(3, 1000))
            ]
            np.testing.assert_allclose(ours.normal(size=(7, 9)), numpys.normal(size=(7, 9)),
                                       rtol=1e-13, atol=0)

    def test_random_bob_ids_name_numpys_strategies(self):
        for seed in range(40):
            ours = parse_strategy_id(f"random-bob:{seed}")
            numpys = random_bob_strategy(np.random.default_rng(seed))
            assert (ours.ancilla_count, ours.announce_rule) == (numpys.ancilla_count, numpys.announce_rule)
            np.testing.assert_allclose(ours.operation.matrix, numpys.operation.matrix, rtol=0, atol=1e-13)

    def test_honest_bob_is_identity_constant(self):
        strategy = BobCheatStrategy(
            name="honest-bob",
            ancilla_count=0,
            operation=None,
            measured=(),
            announce_rule={(): 1},
        )
        assert strategy.operation is None
        assert strategy.measured == ()
        assert strategy.announce(()) == 1


class TestParseStrategyId:
    def test_known_identifiers(self):
        assert parse_strategy_id("honest").name == "honest"
        assert parse_strategy_id("optimal-alice", target=1).name == "optimal-alice:target=1"
        assert parse_strategy_id("measure-and-pick").name == "measure-and-pick:target=0"
        custom = parse_strategy_id("coefficients:0.5,0.5,0.5,0.5")
        assert isinstance(custom, AliceCheatStrategy)

    def test_random_bob_reproducible(self):
        first = parse_strategy_id("random-bob:7")
        second = parse_strategy_id("random-bob:7")
        assert first.ancilla_count == second.ancilla_count
        assert first.announce_rule == second.announce_rule
        np.testing.assert_array_equal(first.operation.matrix, second.operation.matrix)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownStrategyError):
            parse_strategy_id("telepathy")

    def test_malformed_coefficients(self):
        with pytest.raises(UnknownStrategyError):
            parse_strategy_id("coefficients:1,2,3")
        with pytest.raises(UnknownStrategyError):
            parse_strategy_id("coefficients:a,b,c,d")

    def test_non_normalized_coefficients_rejected(self):
        with pytest.raises(ValueError, match="squared coefficients sum to 1.01"):
            parse_strategy_id("coefficients:0.6,0.8,0,0.1")


# Fixed examples, so every run of the suite checks the same cases.
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

unit_weights = (
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
    .filter(lambda w: math.fsum(x * x for x in w) > 1e-6)
    .map(lambda w: (np.asarray(w) / np.linalg.norm(w)).tolist())
)


def _not_a(convert):
    def rejects(text):
        try:
            convert(text)
        except ValueError:
            return True
        return False

    return rejects


class TestStrategyIdRoundTrip:
    @SETTINGS
    @given(unit_weights)
    def test_coefficients_id_builds_its_weights(self, coefficients):
        text = "coefficients:" + ",".join(map(repr, coefficients))
        strategy = parse_strategy_id(text)
        assert strategy.name == text
        psi = normalized(strategy.initial_state)
        np.testing.assert_allclose(psi[list(ALIGNED_KETS)], coefficients, rtol=0, atol=1e-15)

    @SETTINGS
    @given(
        st.one_of(
            st.just(OPTIMAL_WEIGHTS),
            unit_weights.map(tuple),
        )
    )
    def test_coefficients_name_parses_back_to_itself(self, coefficients):
        strategy = coefficient_strategy(coefficients)
        assert parse_strategy_id(strategy.name).name == strategy.name

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.floats(),
                st.sampled_from([-0.0, 1e200, 1e-200, 5e-324, math.inf, -math.inf, math.nan]),
            ).map(repr),
            min_size=4,
            max_size=4,
        )
    )
    @example(["0.6", "0.8", "0", "0"])
    @example(["1e200", "0", "0", "0"])
    @example(["1e154", "1e154", "0", "0"])
    def test_coefficient_weights_parse_or_raise_a_configuration_error(self, parts):
        # main maps each of these to exit 2 or 3 with one line; anything
        # else, such as an OverflowError from squaring a weight, would end
        # in a traceback.
        try:
            strategy = parse_strategy_id("coefficients:" + ",".join(parts))
        except (UnknownStrategyError, ValueError):
            return
        assert isinstance(strategy, AliceCheatStrategy)

    @SETTINGS
    @given(st.integers(0, 2**64))
    def test_random_bob_id_is_its_name(self, seed):
        strategy = parse_strategy_id(f"random-bob:{seed}")
        assert strategy.name == f"random-bob:{seed}"
        again = parse_strategy_id(strategy.name)
        assert again.announce_rule == strategy.announce_rule
        np.testing.assert_array_equal(again.operation.matrix, strategy.operation.matrix)

    @SETTINGS
    @given(
        st.one_of(
            st.text().filter(
                lambda t: t not in ("honest", "optimal-alice", "measure-and-pick")
                and not t.startswith(("coefficients:", "random-bob:"))
            ),
            st.lists(st.floats(0.0, 1.0).map(repr), max_size=8)
            .filter(lambda parts: len(parts) != 4)
            .map(lambda parts: "coefficients:" + ",".join(parts)),
            st.lists(
                st.text(alphabet=st.characters(exclude_characters=",")), min_size=4, max_size=4
            )
            .filter(lambda parts: any(map(_not_a(float), parts)))
            .map(lambda parts: "coefficients:" + ",".join(parts)),
            st.one_of(st.text().filter(_not_a(int)), st.integers(max_value=-1).map(str))
            .map(lambda seed: "random-bob:" + seed),
        )
    )
    # Seeds that int() reads but that are not the canonical decimal text.
    @example("random-bob:+7")
    @example("random-bob:007")
    @example("random-bob: 7")
    @example("random-bob:7_0")
    @example("random-bob:\u0667")
    @example("random-bob:-0")
    # Weights that float() reads but that the report would echo verbatim:
    # whitespace, '_', a leading '+' and a non-ASCII digit.
    @example("coefficients:0.6,0.8,0,0\n")
    @example("coefficients: 0.6,0.8,0,0")
    @example("coefficients:0.6 ,0.8,0,0")
    @example("coefficients:0_6,0.8,0,0")
    @example("coefficients:+1,0,0,0")
    @example("coefficients:\u0661,0,0,0")
    def test_malformed_ids_are_unknown(self, text):
        with pytest.raises(UnknownStrategyError):
            parse_strategy_id(text)


# Magnitudes up to 1e100, so no product or sum overflows.
entries = st.complex_numbers(max_magnitude=1e100, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(entries, entries), max_size=16))
def test_dot_rounds_as_fsum_of_the_products(pairs):
    # `haar_unitary`'s inner products, written plainly: one `math.fsum` of
    # the products' real parts and one of their imaginary parts.
    left, right = [a for a, _ in pairs], [b for _, b in pairs]
    terms = [a * b for a, b in pairs]
    expected = complex(math.fsum([t.real for t in terms]), math.fsum([t.imag for t in terms]))
    # The same bits, a signed zero's sign included.
    assert repr(dot(left, right)) == repr(expected)
    assert repr(dot(iter(left), iter(right))) == repr(expected)
