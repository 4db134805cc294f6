"""Alice's cheating objective, her detection probability, and the grid scan.

Against an honest Bob, an aligned strategy sum_ij a_ij |i i j j> wins for
target 0 with `_objective` and is caught with `_detection`, two quadratic
forms in the four real weights. Each is written once, so every caller
rounds the same way: `_objective` serves the closed form, the angle
refinement, the grid scan and the sensitivity scan; `_detection` the
sensitivity scan. The grid scan walks the ``resolution^3`` polar-angle grid
one t1 slab at a time, so it holds O(resolution^2) floats, never the whole
cube.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Dense grid scan of the cheating-success quadratic form over the nonnegative
# unit 3-sphere, parameterized by three polar angles in [0, pi/2]:
#   a00 = cos t1, a01 = sin t1 cos t2,
#   a10 = sin t1 sin t2 cos t3, a11 = sin t1 sin t2 sin t3.
# Objective: (2*a00^2 + 2*a00*a01 + 2*a00*a10 + a01^2 + a10^2) / 4.
# ---------------------------------------------------------------------------


def _objective(a00, a01, a10):
    """Alice's success probability for target 0; accepts scalars or arrays."""
    return (2.0 * a00 * a00 + 2.0 * a00 * a01 + 2.0 * a00 * a10 + a01 * a01 + a10 * a10) / 4.0


def _detection(a00, a01, a10, a11):
    """Alice's abort probability against an honest Bob; accepts scalars or arrays.

    The abort mass of the coin pair's outcome i is ``(a_i0 - a_i1)^2 / 4``
    when Bob picks pair 1, and of outcome j ``(a_0j - a_1j)^2 / 4`` when he
    picks pair 2.
    """
    d0, d1, d2, d3 = a00 - a01, a10 - a11, a00 - a10, a01 - a11
    return (d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3) / 4.0


def objective_grid_scan(resolution: int) -> tuple[float, float, float, float]:
    """Best objective value and its three angles over the dense grid.

    Ties resolve to the first grid point in (t1, t2, t3) row-major order: a
    later slab replaces the best only when it is strictly greater.
    """
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


def angles_to_coefficients(t1: float, t2: float, t3: float) -> np.ndarray:
    """Map the three polar angles to (a00, a01, a10, a11) on the unit sphere."""
    a00 = np.cos(t1)
    a01 = np.sin(t1) * np.cos(t2)
    a10 = np.sin(t1) * np.sin(t2) * np.cos(t3)
    a11 = np.sin(t1) * np.sin(t2) * np.sin(t3)
    return np.array([a00, a01, a10, a11])
