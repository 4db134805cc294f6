"""Alice's closed forms: her optimum, and the sensitivity scan that evaluates them.

In her four aligned weights x = (a00, a01, a10, a11), Alice wins against an
honest Bob with ``x^T M x`` and is detected with ``x^T D x``. `_objective`
and `_detection` are those forms expanded, and `_polarize` reads M and D
back off them; the tests check that both equal, entry for entry, the
protocol's win and abort operators restricted to the aligned kets. Her
optimum is M's top eigenvector, read exactly off 4M's integer spectrum. The
scan evaluates both forms from the honest weights to the optimal ones, one
chunk at a time, behind one exact check that M + D never passes 1. Neither
needs a strategy or a tree, so this module loads only the package root.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, combinations
from operator import mul
from typing import Callable, Iterable, Iterator

from . import HONEST_WEIGHTS, OPTIMAL_WEIGHTS, InvariantViolationError

# The sensitivity scan evaluates and prints this many points at a time; a
# chunk's floats and text take about 15 MB.
SCAN_CHUNK = 32_768


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


def _quadrupled(q: Callable[..., float]) -> list[list[int]]:
    """4 times the polarized matrix of `q`, as ints. Every entry of M, D and
    M + D is a quarter-integer; raises `InvariantViolationError` if one is not."""
    form = [[4 * x for x in row] for row in _polarize(q)]
    if any(x != int(x) for row in form for x in row):
        raise InvariantViolationError(f"4 times a polarized form is not integral: {form}")
    return [[int(x) for x in row] for row in form]


def _product(a: list[list[int]], b: list[list[int]], mu: int = 0) -> list[list[int]]:
    """The integer matrix product a (b - mu I)."""
    return [[sum(map(mul, row, col)) - mu * row[j] for j, col in enumerate(zip(*b))] for row in a]


def _spectrum(a: list[list[int]]) -> list[int]:
    """An integer matrix's eigenvalues, descending and with multiplicity; raises
    `InvariantViolationError` if one is not an integer. Faddeev-LeVerrier gives
    the characteristic polynomial, each division exact; Horner's scheme divides
    out each integer within the largest absolute row sum (Gershgorin's bound on
    every root) as often as it is a root."""
    n = len(a)
    polynomial, product = [1], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # a M_k, where M_k = a M_(k-1) + c I and c is the last coefficient.
        product = _product(a, product, -polynomial[-1])
        polynomial.append(-sum(product[i][i] for i in range(n)) // k)
    bound, roots = max(sum(map(abs, row)) for row in a), []
    for mu in range(bound, -bound - 1, -1):
        while not (division := list(accumulate(polynomial, lambda acc, c: acc * mu + c)))[-1]:
            polynomial = division[:-1]
            roots.append(mu)
    if len(roots) < n:
        raise InvariantViolationError(f"{n - len(roots)} eigenvalues of {a} are not integers")
    return roots


def optimize_alice() -> dict:
    """Maximize the win probability over the nonnegative unit sphere, in closed form.

    The objective is ``x^T M x``. M is nonnegative, so by Perron-Frobenius
    its top eigenvalue, 3/4, is the maximum, attained at its top eigenvector
    (2, 1, 1, 0) / sqrt(6). Both are read off 4M in integers: the product of
    4M - mu I over its other roots mu is a positive multiple of the top
    eigenvector's projector. The result certifies itself with the residual
    ``||M x - value x||`` (exactly 0), the gap to the next eigenvalue (1/2, so
    the optimum is unique) and the detection probability there (1/6).
    """
    objective, detection = _quadrupled(_objective), _quadrupled(_detection)
    roots = _spectrum(objective)
    top, projector = roots[0], [[int(i == j) for j in range(4)] for i in range(4)]
    for mu in set(roots) - {top}:
        projector = _product(projector, objective, mu)
    x = next(row for row in projector if any(row))
    # The forms are symmetric, so the row x times 4M - top I is (4M x - top x)^T.
    (error,), (dx,) = _product([x], objective, top), _product([x], detection)
    squared_norm = sum(map(mul, x, x))
    norm = math.sqrt(squared_norm)
    return {
        "value": top / 4,
        **{f"argmax.{name}": xi / norm for name, xi in zip(("a00", "a01", "a10", "a11"), x)},
        "residual": math.sqrt(sum(map(mul, error, error)) / squared_norm) / 4,
        "spectral_gap": (top - roots[1]) / 4,
        "p_detect": sum(map(mul, x, dx)) / (4 * squared_norm),
    }


def scan_chunks(steps: int) -> Iterator[list[tuple[float, float, float]]]:
    """(t, win, detection) rows along the honest-to-optimal path, by chunk.

    Linear interpolation from the honest to the optimal weights, renormalized
    at every step; t runs over ``linspace(0, 1, steps)``. Every point is
    an aligned strategy, whose win and detection probabilities against an
    honest Bob are the closed forms `_objective` and `_detection`. Each point
    is evaluated once, as its chunk of up to `SCAN_CHUNK` points is read.
    Takes 2 to 10**6 steps. One O(1) check before this returns bounds the
    whole path: the top root of 4(M + D), polarized from the sum of the
    closed forms, must be at most 4 in integers, so that win + detection
    <= 1 at every unit weight vector.
    """
    # The cap bounds the time: printing 10**6 points takes about 1.6 s.
    if not 2 <= steps <= 10**6:
        raise ValueError(f"steps must be between 2 and 1000000, got {steps}")
    top = _spectrum(_quadrupled(lambda *x: _objective(*x) + _detection(*x)))[0]
    if top > 4:
        raise InvariantViolationError(f"win + detection reaches {top / 4} on a unit weight vector")
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
