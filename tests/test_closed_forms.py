"""Exact checks of both parties' 3/4 bounds, and Alice's closed forms.

`outcome_operators` gives Alice's win and abort operators on
(A1, B1, A2, B2); `_aligned_forms` restricts them to the aligned kets as M
and D, and `forms._objective` and `forms._detection` are the expanded
quadratic forms x^T M x and x^T D x. `optimize` and the scan read M and D
back off those forms alone, so the tree's operators are their certificate.
They read 4M, 4D and 4(M + D)'s integer spectra with `forms._spectrum`,
which sympy's eigenvalues check. The win operator's spectrum bounds every
Alice state by 3/4.

Bob faces an honest Alice, so his whole strategy is a two-outcome POVM
{E_1, E_2} on the qubits (B1, B2) she sends, and he wins with
sum_c tr(E_c A_c). `bob_povm` reads that POVM off a strategy record, and
a diagonal Y with Y - A_c >= 0 for both c bounds every such POVM by
sum_c tr(E_c Y) = tr Y = 3/4 (weak duality of the semidefinite program).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cointoss import InvariantViolationError
from cointoss.forms import (
    _detection,
    _objective,
    _polarize,
    _quadrupled,
    _spectrum,
    optimize_alice,
)
from cointoss.protocol import build_tree, coin_labels, leaf_probabilities, verification_labels
from cointoss.qstate import B1, B2, bob_ancilla
from cointoss.strategies import (
    ALICE_CORE,
    BobCheatStrategy,
    aligned_strategy,
    measure_and_pick_bob,
    parse_strategy_id,
)


def outcome_chances(tree):
    """The exact chances of heads, tails and abort: each outcome's mass over the root's."""
    return [Fraction(mass, tree.root.mass) for mass in leaf_probabilities(tree)]


def normalized(state):
    """The state's exact integer (re, im) pairs as a unit complex array: how
    a numpy oracle reads a state. Each part is divided by one power of two
    first, so no integer is too large for a float."""
    top = 1 << max(abs(x) for pair in state.amplitudes for x in pair).bit_length()
    amplitudes = np.array([complex(re / top, im / top) for re, im in state.amplitudes])
    return amplitudes / np.linalg.norm(amplitudes)


def embed(register, labels, matrix):
    """The operator on `register` that is `matrix` on the wires `labels` and
    the identity elsewhere; register position 0 is a ket's leftmost bit."""
    n, k = len(register), len(labels)
    positions = [register.index(label) for label in labels]
    rest = [i for i in range(n) if i not in positions]
    operator = np.kron(np.asarray(matrix), np.eye(2 ** (n - k))).reshape((2,) * (2 * n))
    axes = np.argsort(positions + rest).tolist()
    return operator.transpose(axes + [n + a for a in axes]).reshape(2**n, 2**n)


def outcome_operators(target):
    """Alice's win and abort operators (W, Q) on `ALICE_CORE` against an honest Bob.

    Her state psi there wins with <psi|W|psi> and aborts with <psi|Q|psi>:
    for each choice, at chance 1/2, Bob's coin qubit reads `target` and the
    verification pair passes the check against ``(|00>+|11>)/sqrt(2)``. The
    wires are the ones the tree reads, and every entry is a multiple of 1/4,
    exactly.
    """
    reading = np.diag([1.0 - target, float(target)])
    bell = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]) / 2.0
    win, abort = np.zeros((16, 16)), np.zeros((16, 16))
    for c in (1, 2):
        check = embed(ALICE_CORE, verification_labels(c), bell)
        kept = embed(ALICE_CORE, coin_labels(c)[1:], reading)
        win += kept @ check / 2.0
        abort += (np.eye(16) - check) / 2.0
    return win, abort


def _aligned_forms() -> tuple[list[list[float]], list[list[float]]]:
    """M and D, as rows: `outcome_operators` at target 0 on the aligned kets,
    so the weights x = (a00, a01, a10, a11) win with x^T M x and abort with x^T D x."""
    units = [[float(i == k) for i in range(4)] for k in range(4)]
    kets = [normalized(aligned_strategy(e).initial_state).tolist().index(1.0) for e in units]
    return tuple(form[np.ix_(kets, kets)].tolist() for form in outcome_operators(0))


M, D = map(np.array, _aligned_forms())

unit_vectors = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda w: math.fsum(x * x for x in w) > 1e-6
).map(lambda w: np.asarray(w) / np.linalg.norm(w))


def argmax(result):
    """The optimizer's argmax, read back from its report's keys."""
    return np.array([result[f"argmax.{name}"] for name in ("a00", "a01", "a10", "a11")])


class TestClosedForms:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(unit_vectors)
    def test_closed_forms_are_the_quadratic_forms(self, x):
        assert abs(x @ M @ x - _objective(*x[:3])) < 1e-15
        assert abs(x @ D @ x - _detection(*x)) < 1e-15

    def test_polarized_closed_forms_are_the_tree_operators_exactly(self):
        # `optimize` reads M and D off the closed forms, not off the tree. At
        # `_polarize`'s ten points x, the exact tree's win and abort masses
        # times |x|^2 are x^T M x and x^T D x, so polarizing them gives M and
        # D, entry for entry; so do the closed forms, evaluated in Fractions.
        def tree_form(outcome):
            def form(*x):
                chance = outcome_chances(build_tree(aligned_strategy(x), 0))[outcome]
                return chance * sum(Fraction(w) ** 2 for w in x)

            return form

        def exact_form(form):
            return lambda *x: form(*map(Fraction, x))

        for outcome, closed_form in ((0, _objective), (2, _detection)):
            form = _polarize(exact_form(closed_form))
            assert all(type(entry) is Fraction for row in form for entry in row)
            assert _polarize(tree_form(outcome)) == form

    def test_top_eigenvalue_certifies_three_quarters(self):
        # M is nonnegative, so by Perron-Frobenius its top eigenvalue is the
        # objective's maximum over the nonnegative unit sphere, attained at
        # its (nonnegative) top eigenvector.
        values, vectors = np.linalg.eigh(M)
        top = vectors[:, -1] * np.sign(vectors[0, -1])
        assert abs(values[-1] - 0.75) < 1e-15
        np.testing.assert_allclose(top, argmax(optimize_alice()), atol=1e-15)
        assert _detection(*top) == pytest.approx(1 / 6, abs=1e-15)

    def test_scan_check_reads_m_plus_d_which_never_passes_one(self):
        # The scan's check polarizes the sum of the closed forms into M + D,
        # entry for entry. Exactly, I - (M + D) = (v1 v1^T + v2 v2^T) / 4 is
        # positive semidefinite, so 1 - win - detect = ((a01 + a11)^2 +
        # (a10 + a11)^2) / 4 >= 0 at every unit weight vector, with equality
        # at a00 = 1.
        assert _polarize(lambda *x: _objective(*x) + _detection(*x)) == (M + D).tolist()
        v1, v2 = sympy.Matrix([0, 1, 0, 1]), sympy.Matrix([0, 0, 1, 1])
        assert sympy.eye(4) - exact(M + D) == (v1 * v1.T + v2 * v2.T) / 4


def exact(matrix):
    """The float matrix as a sympy matrix of the same (dyadic) rationals."""
    return sympy.Matrix(np.asarray(matrix).tolist()).applyfunc(sympy.Rational)


# The 4x4 Sylvester Hadamard matrix: H H^T = 4 I, so H diag(d) H^T / 4 has
# spectrum d, and it is an integer matrix when all d_i agree mod 4.
HADAMARD = sympy.Matrix([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


class TestSpectrum:
    @pytest.mark.parametrize(
        "form, matrix",
        [(_objective, M), (_detection, D), (lambda *x: _objective(*x) + _detection(*x), M + D)],
        ids=["M", "D", "M+D"],
    )
    def test_quadrupled_forms_match_sympy(self, form, matrix):
        # 4M, 4D and 4(M + D) are the tree's operators times 4, and their
        # spectra are sympy's eigenvalues, with multiplicity.
        quadrupled = _quadrupled(form)
        assert sympy.Matrix(quadrupled) == 4 * exact(matrix)
        eigenvalues = sympy.Matrix(quadrupled).eigenvals()
        assert _spectrum(quadrupled) == sorted(
            itertools.chain.from_iterable([value] * k for value, k in eigenvalues.items()),
            reverse=True,
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 3), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    def test_integer_spectra_are_read_exactly(self, residue, multiples):
        d = [residue + 4 * m for m in multiples]
        a = (HADAMARD * sympy.diag(*d) * HADAMARD.T / 4).tolist()
        assert all(x.is_integer for row in a for x in row)
        assert _spectrum([[int(x) for x in row] for row in a]) == sorted(d, reverse=True)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-3, 3), min_size=10, max_size=10))
    def test_non_integer_spectra_raise(self, entries):
        a = [[0] * 4 for _ in range(4)]
        for (i, j), x in zip(itertools.combinations_with_replacement(range(4), 2), entries):
            a[i][j] = a[j][i] = x
        # A monic integer polynomial's rational roots are integers, so the
        # spectrum is all integers exactly when sympy splits it into linear factors.
        _, factors = sympy.Matrix(a).charpoly().factor_list()
        integers = sum(k for factor, k in factors if factor.degree() == 1)
        assume(integers < 4)
        with pytest.raises(InvariantViolationError, match=f"^{4 - integers} eigenvalues of "):
            _spectrum(a)


class TestOutcomeOperators:
    @pytest.mark.parametrize("target", [0, 1])
    def test_win_spectrum_tops_out_at_three_quarters(self, target):
        # Every Alice state on the four qubits, with any phases, wins with
        # <psi|W|psi> <= 3/4, and one state attains it.
        win = exact(outcome_operators(target)[0])
        assert win.is_symmetric()
        half, quarter = sympy.Rational(1, 2), sympy.Rational(1, 4)
        assert win.eigenvals() == {3 * quarter: 1, half: 2, quarter: 1, 0: 12}


def bob_povm(bob):
    """{c: E_c}: Bob's strategy as the POVM on (B1, B2) whose outcome c he announces.

    His operation acts on B1, B2 and his ancillas, which start in |0...0>,
    and each result o of his measurement announces ``bob.announce(o)``.
    """
    k = bob.ancilla_count
    register = (B1, B2) + tuple(bob_ancilla(i) for i in range(k))
    identity, operation = np.eye(2 ** len(register)), bob.operation
    unitary = identity if operation is None else embed(register, operation.labels, operation.matrix)
    isometry = unitary[:, [i << k for i in range(4)]]
    povm = {c: np.zeros((4, 4), complex) for c in (1, 2)}
    for result in itertools.product((0, 1), repeat=len(bob.measured)):
        projector = identity
        for label, bit in zip(bob.measured, result):
            projector = projector @ embed(register, (label,), np.diag([1.0 - bit, float(bit)]))
        povm[bob.announce(result)] += isometry.conj().T @ projector @ isometry
    return povm


def bob_readings(target):
    """{c: A_c} on (B1, B2), where an honest Alice leaves I/4: her coin qubit
    of pair c reads `target` exactly when Bob's half of that pair would."""
    reading = np.diag([1.0 - target, float(target)])
    return {c: embed((B1, B2), coin_labels(c)[1:], reading) / 4.0 for c in (1, 2)}


def povm_win(povm, target):
    """Bob's win with the POVM `povm`: sum_c tr(E_c A_c)."""
    readings = bob_readings(target)
    return float(sum(np.trace(povm[c] @ readings[c]).real for c in (1, 2)))


# Bob's dual, in quarters on |00>, |01>, |10>, |11> of (B1, B2): every ket
# but the one where both of his qubits miss the target.
BOB_DUALS = {0: np.diag([1, 1, 1, 0]) / 4.0, 1: np.diag([0, 1, 1, 1]) / 4.0}

# Bob announces pair 1 whatever happens, as an honest Bob may.
HONEST_BOB = BobCheatStrategy("honest-bob", 0, None, (), {(): 1})


class TestBobPovm:
    # One case per strategy, so that a failure names the strategy at fault.
    @pytest.mark.parametrize("target", [0, 1])
    @pytest.mark.parametrize(
        "name", [f"random-bob:{k}" for k in range(100)] + ["measure-and-pick", "honest-bob"]
    )
    def test_every_tree_is_its_povm(self, name, target):
        bob = HONEST_BOB if name == "honest-bob" else parse_strategy_id(name, target)
        povm = bob_povm(bob)
        np.testing.assert_allclose(povm[1] + povm[2], np.eye(4), rtol=0, atol=1e-12)
        chances = outcome_chances(build_tree(bob, target))
        assert abs(chances[target] - povm_win(povm, target)) < 1e-12
        assert chances[2] == 0.0  # Bob holds the verdict

    @pytest.mark.parametrize("target", [0, 1])
    def test_dual_certifies_three_quarters(self, target):
        # tr(E_c (Y - A_c)) >= 0 for every POVM element, so Bob wins at most
        # tr Y whatever he does; measure-and-pick attains it.
        dual = exact(BOB_DUALS[target])
        quarter = sympy.Rational(1, 4)
        for reading in bob_readings(target).values():
            assert (dual - exact(reading)).eigenvals() == {0: 3, quarter: 1}
        assert dual.trace() == 3 * quarter
        win = outcome_chances(build_tree(measure_and_pick_bob(target), target))[target]
        assert abs(win - 0.75) < 1e-15
