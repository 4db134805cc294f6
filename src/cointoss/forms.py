"""Alice's closed forms, and the sensitivity scan that evaluates them.

In her four aligned weights x = (a00, a01, a10, a11), Alice wins against an
honest Bob with ``x^T M x`` and is detected with ``x^T D x``; `analysis`
restricts M and D from `protocol.outcome_operators`, and `_objective` and
`_detection` are their expanded evaluators. The scan evaluates both along
the path from the honest weights to the optimal ones, one chunk at a time,
behind one O(1) check that M + D never passes 1. It needs no strategy and
no tree, so this module loads only the package root.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Iterable, Iterator, NamedTuple

from . import InvariantViolationError

# The sensitivity scan evaluates and prints this many points at a time; a
# chunk's floats and text take about 15 MB.
SCAN_CHUNK = 32_768


class AliceCoefficients(NamedTuple):
    """Nonnegative weights (a00, a01, a10, a11) of the four B1B2 branches."""

    a00: float
    a01: float
    a10: float
    a11: float

    def flipped(self) -> "AliceCoefficients":
        """Coefficients of the globally bit-flipped state (a_ij -> a_{!i!j})."""
        return AliceCoefficients(self.a11, self.a10, self.a01, self.a00)

    @classmethod
    def honest(cls) -> "AliceCoefficients":
        return cls(0.5, 0.5, 0.5, 0.5)

    @classmethod
    def optimal(cls) -> "AliceCoefficients":
        return cls(math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 6.0), 0.0)


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


def _objective(a00, a01, a10):
    """x^T M x, Alice's success probability for target 0; accepts scalars or arrays."""
    return (2.0 * a00 * a00 + 2.0 * a00 * a01 + 2.0 * a00 * a10 + a01 * a01 + a10 * a10) / 4.0


def _detection(a00, a01, a10, a11):
    """x^T D x, Alice's abort probability against an honest Bob; accepts scalars or arrays.

    The abort mass of the coin pair's outcome i is ``(a_i0 - a_i1)^2 / 4``
    when Bob picks pair 1, and of outcome j ``(a_0j - a_1j)^2 / 4`` when he
    picks pair 2.
    """
    d0, d1, d2, d3 = a00 - a01, a10 - a11, a00 - a10, a01 - a11
    return (d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3) / 4.0


def _form_sum() -> list[list[float]]:
    """M + D as rows, polarized from q = `_objective` + `_detection` at four
    unit vectors and six pair sums: q(e_i) on the diagonal, and
    (q(e_i + e_j) - q(e_i) - q(e_j)) / 2 off it."""
    units = [[float(i == k) for i in range(4)] for k in range(4)]
    q = [_objective(*u[:3]) + _detection(*u) for u in units]
    form = [[q[i] if i == j else 0.0 for j in range(4)] for i in range(4)]
    for i, j in combinations(range(4), 2):
        x = [a + b for a, b in zip(units[i], units[j])]
        form[i][j] = form[j][i] = (_objective(*x[:3]) + _detection(*x) - q[i] - q[j]) / 2.0
    return form


def scan_chunks(steps: int) -> Iterator[list[tuple[float, float, float]]]:
    """(t, win, detection) rows along the honest-to-optimal path, by chunk.

    Linear interpolation from the honest to the optimal weights, renormalized
    at every step; t runs over ``linspace(0, 1, steps)``. Every point is
    an aligned strategy, whose win and detection probabilities against an
    honest Bob are the closed forms `_objective` and `_detection`. Each point
    is evaluated once, as its chunk of up to `SCAN_CHUNK` points is read.
    Takes 2 to 10**6 steps. One O(1) check before this returns bounds the
    whole path: the top eigenvalue of M + D (`_form_sum`) must be at most 1,
    so that win + detection <= 1 at every unit weight vector.
    """
    # The cap bounds the time: printing 10**6 points takes about 1.6 s.
    if not 2 <= steps <= 10**6:
        raise ValueError(f"steps must be between 2 and 1000000, got {steps}")
    top = _eigh(_form_sum())[0][-1]
    if top > 1.0 + 1e-10:
        raise InvariantViolationError(f"win + detection reaches {top!r} on a unit weight vector")
    s00, s01, s10, s11 = AliceCoefficients.honest()
    e00, e01, e10, e11 = AliceCoefficients.optimal()
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
