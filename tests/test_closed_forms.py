"""Alice's outcome operators and closed forms, and a dense grid scan that
cross-checks the optimum.

`protocol.outcome_operators` gives her win and abort operators on
(A1, B1, A2, B2); `analysis._aligned_forms` restricts them to the aligned
kets as M and D, and `analysis._objective` and `analysis._detection` are
the expanded quadratic forms x^T M x and x^T D x. `optimize_alice` solves
the objective in closed form; the grid scan here walks a polar-angle grid
over the nonnegative unit sphere instead, as an independent numeric check
of that solution.
"""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cointoss.analysis import _aligned_forms, _detection, _objective, optimize_alice
from cointoss.protocol import outcome_operators

M, D = _aligned_forms()

unit_vectors = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda w: math.fsum(x * x for x in w) > 1e-6
).map(lambda w: np.asarray(w) / np.linalg.norm(w))


def argmax(result):
    """The optimizer's argmax, read back from its report's keys."""
    return np.array([result[f"argmax.{name}"] for name in ("a00", "a01", "a10", "a11")])


def angles_to_coefficients(t1, t2, t3):
    """Map three polar angles in [0, pi/2] to (a00, a01, a10, a11) on the unit sphere."""
    return np.array([
        np.cos(t1),
        np.sin(t1) * np.cos(t2),
        np.sin(t1) * np.sin(t2) * np.cos(t3),
        np.sin(t1) * np.sin(t2) * np.sin(t3),
    ])


def grid_scan(resolution):
    """Best objective value and its three angles over the ``resolution^3`` grid,
    one t1 slab at a time."""
    angles = np.linspace(0.0, np.pi / 2.0, resolution)
    cos, sin = np.cos(angles), np.sin(angles)
    best, best_index = -np.inf, (0, 0, 0)
    for i1 in range(resolution):
        a01 = sin[i1] * cos[:, None]
        a10 = (sin[i1] * sin[:, None]) * cos
        value = _objective(cos[i1], a01, a10)
        flat = int(np.argmax(value))
        if value.flat[flat] > best:
            best = float(value.flat[flat])
            best_index = (i1, *np.unravel_index(flat, value.shape))
    i1, i2, i3 = best_index
    return best, float(angles[i1]), float(angles[i2]), float(angles[i3])


class TestClosedForms:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(unit_vectors)
    def test_closed_forms_are_the_quadratic_forms(self, x):
        assert abs(x @ M @ x - _objective(*x[:3])) < 1e-15
        assert abs(x @ D @ x - _detection(*x)) < 1e-15

    def test_top_eigenvalue_certifies_three_quarters(self):
        # M is nonnegative, so by Perron-Frobenius its top eigenvalue is the
        # objective's maximum over the nonnegative unit sphere, attained at
        # its (nonnegative) top eigenvector.
        values, vectors = np.linalg.eigh(M)
        top = vectors[:, -1] * np.sign(vectors[0, -1])
        assert abs(values[-1] - 0.75) < 1e-15
        np.testing.assert_allclose(top, argmax(optimize_alice()), atol=1e-15)
        assert _detection(*top) == pytest.approx(1 / 6, abs=1e-15)


def exact(matrix):
    """The float matrix as a sympy matrix of the same (dyadic) rationals."""
    return sympy.Matrix(matrix.tolist()).applyfunc(sympy.Rational)


class TestOutcomeOperators:
    @pytest.mark.parametrize("target", [0, 1])
    def test_win_spectrum_tops_out_at_three_quarters(self, target):
        # Every Alice state on the four qubits, with any phases, wins with
        # <psi|W|psi> <= 3/4, and one state attains it.
        win = exact(outcome_operators(target)[0])
        assert win.is_symmetric()
        half, quarter = sympy.Rational(1, 2), sympy.Rational(1, 4)
        assert win.eigenvals() == {3 * quarter: 1, half: 2, quarter: 1, 0: 12}


class TestGridScan:
    @pytest.mark.parametrize("resolution", [20, 37, 50, 100])
    def test_grid_converges_on_the_closed_form(self, resolution):
        # The grid never beats the eigenvalue, and with a spectral gap of
        # 1/2 its best point lies within one grid step of the eigenvector.
        step = (np.pi / 2.0) / (resolution - 1)
        result = optimize_alice()
        value, *angles = grid_scan(resolution)
        assert 0.0 <= result["value"] - value <= step**2 / 2.0
        coefficients = angles_to_coefficients(*angles)
        if coefficients[1] < coefficients[2]:
            coefficients = coefficients[[0, 2, 1, 3]]
        assert np.max(np.abs(coefficients - argmax(result))) <= step
