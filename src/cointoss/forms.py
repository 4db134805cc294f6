"""Alice's closed forms: her optimum, and the sensitivity scan that evaluates them.

In her four aligned weights x = (a00, a01, a10, a11), Alice wins against an
honest Bob with ``x^T M x`` and is detected with ``x^T D x``. `_objective`
and `_detection` are those forms expanded, and `_polarize` reads M and D
back off them; the tests check that both equal, entry for entry, the
protocol's win and abort operators restricted to the aligned kets. Her
optimum is M's top eigenvector. The scan evaluates both forms along the
path from the honest weights to the optimal ones, one chunk at a time,
behind one O(1) check that M + D never passes 1. Neither needs a strategy
or a tree, so this module loads only the package root.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from operator import mul
from typing import Callable, Iterable, Iterator

from . import HONEST_WEIGHTS, OPTIMAL_WEIGHTS, InvariantViolationError

# The sensitivity scan evaluates and prints this many points at a time; a
# chunk's floats and text take about 15 MB.
SCAN_CHUNK = 32_768


def _eigh(matrix: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """A small symmetric matrix's eigenvalues, ascending, and eigenvectors, as
    rows, by cyclic Jacobi rotations: each zeroes one off-diagonal entry, and
    ten sweeps leave a 4x4 matrix diagonal to rounding. A zero row and column
    stay exactly zero, since no rotation touches them."""
    a = [list(row) for row in matrix]
    n = len(a)
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _sweep in range(10):
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p][q] == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # A <- J^T A J and V <- V J, J the rotation by (c, s) in the (p, q) plane.
                for rows in (a, v):
                    for row in rows:
                        row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                a[p], a[q] = (
                    [c * x - s * y for x, y in zip(a[p], a[q])],
                    [s * x + c * y for x, y in zip(a[p], a[q])],
                )
    order = sorted(range(n), key=lambda i: a[i][i])
    return [a[i][i] for i in order], [[row[i] for row in v] for i in order]


def _objective(a00, a01, a10, a11=0.0):
    """x^T M x, Alice's win for target 0, exact on Fractions; a11 does not enter it."""
    return (2 * a00 * a00 + 2 * a00 * a01 + 2 * a00 * a10 + a01 * a01 + a10 * a10) / 4


def _detection(a00, a01, a10, a11):
    """x^T D x, Alice's abort probability against an honest Bob; exact on Fractions.

    The abort mass of the coin pair's outcome i is ``(a_i0 - a_i1)^2 / 4``
    when Bob picks pair 1, and of outcome j ``(a_0j - a_1j)^2 / 4`` when he
    picks pair 2.
    """
    d0, d1, d2, d3 = a00 - a01, a10 - a11, a00 - a10, a01 - a11
    return (d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3) / 4


def _polarize(q: Callable[..., float]) -> list[list[float]]:
    """The symmetric matrix of the quadratic form `q` on the four weights, as
    rows, polarized at four unit vectors and six pair sums: q(e_i) on the
    diagonal, and (q(e_i + e_j) - q(e_i) - q(e_j)) / 2 off it; exact if q is."""
    units = [[float(i == k) for i in range(4)] for k in range(4)]
    diagonal = [q(*u) for u in units]
    form = [[diagonal[i] if i == j else 0.0 for j in range(4)] for i in range(4)]
    for i, j in combinations(range(4), 2):
        x = [a + b for a, b in zip(units[i], units[j])]
        form[i][j] = form[j][i] = (q(*x) - diagonal[i] - diagonal[j]) / 2
    return form


def optimize_alice() -> dict:
    """Maximize the win probability over the nonnegative unit sphere, in closed form.

    The objective is ``x^T M x``. M is nonnegative, so by Perron-Frobenius
    its top eigenvalue is the maximum and its top eigenvector, taken
    entrywise nonnegative, attains it: 3/4 at (sqrt(2/3), sqrt(1/6),
    sqrt(1/6), 0). The `optimize` report's result certifies itself with the
    residual ``||M x - value x||``, the gap to the next eigenvalue (1/2, so
    the optimum is unique) and the detection probability there (1/6). The
    argmax is canonicalized to ``a01 >= a10`` (the objective is symmetric
    under swapping them). Every sum of products is correctly rounded.
    """
    objective, detection = _polarize(_objective), _polarize(_detection)
    values, vectors = _eigh(objective)
    a00, a01, a10, a11 = map(abs, vectors[-1])
    if a01 < a10:
        a01, a10 = a10, a01
    x, value = [a00, a01, a10, a11], values[-1]
    error = [math.fsum(map(mul, row, x)) - value * xi for row, xi in zip(objective, x)]
    return {
        "value": value,
        "argmax.a00": a00,
        "argmax.a01": a01,
        "argmax.a10": a10,
        "argmax.a11": a11,
        "residual": math.sqrt(math.fsum(map(mul, error, error))),
        "spectral_gap": values[-1] - values[-2],
        "p_detect": math.fsum(map(mul, x, [math.fsum(map(mul, row, x)) for row in detection])),
    }


def scan_chunks(steps: int) -> Iterator[list[tuple[float, float, float]]]:
    """(t, win, detection) rows along the honest-to-optimal path, by chunk.

    Linear interpolation from the honest to the optimal weights, renormalized
    at every step; t runs over ``linspace(0, 1, steps)``. Every point is
    an aligned strategy, whose win and detection probabilities against an
    honest Bob are the closed forms `_objective` and `_detection`. Each point
    is evaluated once, as its chunk of up to `SCAN_CHUNK` points is read.
    Takes 2 to 10**6 steps. One O(1) check before this returns bounds the
    whole path: the top eigenvalue of M + D, polarized from the sum of the
    closed forms, must be at most 1, so that win + detection <= 1 at every
    unit weight vector.
    """
    # The cap bounds the time: printing 10**6 points takes about 1.6 s.
    if not 2 <= steps <= 10**6:
        raise ValueError(f"steps must be between 2 and 1000000, got {steps}")
    top = _eigh(_polarize(lambda *x: _objective(*x) + _detection(*x)))[0][-1]
    if top > 1.0 + 1e-10:
        raise InvariantViolationError(f"win + detection reaches {top!r} on a unit weight vector")
    s00, s01, s10, s11 = HONEST_WEIGHTS
    e00, e01, e10, e11 = OPTIMAL_WEIGHTS
    spacing = 1.0 / (steps - 1)

    def chunk(first: int) -> list[tuple[float, float, float]]:
        rows = []
        for i in range(first, min(first + SCAN_CHUNK, steps)):
            t = 1.0 if i == steps - 1 else i * spacing
            u = 1.0 - t
            a00, a01 = u * s00 + t * e00, u * s01 + t * e01
            a10, a11 = u * s10 + t * e10, u * s11 + t * e11
            # The squares add left to right: the scan goldens pin this order.
            norm = math.sqrt(a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11)
            a00, a01, a10, a11 = a00 / norm, a01 / norm, a10 / norm, a11 / norm
            rows.append((t, _objective(a00, a01, a10), _detection(a00, a01, a10, a11)))
        return rows

    return map(chunk, range(0, steps, SCAN_CHUNK))


def scan_csv(chunks: Iterable[list[tuple[float, float, float]]]) -> Iterator[str]:
    """The scan's CSV rows, one string per chunk.

    Each row reads ``path:t=<t>,<p_win>,<p_detect>`` with `cli.format_value`'s
    12 significant digits; one %-format per chunk keeps printing fast.
    """
    for rows in chunks:
        yield ("path:t=%.6f,%.12g,%.12g\n" * len(rows)) % tuple(chain.from_iterable(rows))
