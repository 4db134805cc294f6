"""Dense state-vector engine for small labeled multi-qubit registers.

A qubit wire is its name, the string transcripts print: ``A1``, ``B1``,
``A2`` and ``B2`` for the two shared pairs and ``AncillaB[i]`` for Bob's
ancillas. States are immutable: every operation returns a new
:class:`StateVector` instead of mutating in place, so values can be
shared freely between threads and cached across protocol runs.
Qubit ordering convention: the label at register position 0 is the
leftmost (most significant) bit of a basis ket ``|q0 q1 ... q(n-1)>``.

Amplitudes are a tuple of Python complex numbers, one per basis ket, and
operations work on basis indices by bit arithmetic: five qubits, 32
amplitudes, are not worth an array library's import.
"""

from __future__ import annotations

import math
from operator import attrgetter, mul
from typing import Iterable, NamedTuple, Sequence


A1, B1, A2, B2 = "A1", "B1", "A2", "B2"


def bob_ancilla(index: int = 0) -> str:
    return f"AncillaB[{index}]"


class StateVector(NamedTuple):
    """A normalized pure state over an ordered register of labeled qubits."""

    register: tuple[str, ...]
    amplitudes: tuple[complex, ...]


_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


def dot(left: Iterable, right: Iterable) -> float | complex:
    """``sum(l * r)`` over the pairs, correctly rounded by `math.fsum`; complex
    terms sum their real and imaginary parts apart.

    Terms that start complex skip `fsum`'s attempt on the whole list, which
    would raise at the first of them.
    """
    terms = list(map(mul, left, right))
    if not terms or type(terms[0]) is not complex:
        try:
            return math.fsum(terms)
        except TypeError:  # a complex term after a real one
            pass
    return complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))


def _squared_norm(amplitudes: Iterable[complex]) -> float:
    """The sum of the squared magnitudes, correctly rounded from the parts' squares."""
    return math.fsum(x * x for a in amplitudes for x in (a.real, a.imag))


def _mask(register: Sequence[str], label: str) -> int:
    """The basis-index bit of `label`'s qubit."""
    return 1 << (len(register) - 1 - register.index(label))


def make_state(register: Iterable[str], amplitudes: Iterable[complex]) -> StateVector:
    """Build a state from labels and amplitudes, divided by their exact norm."""
    amps = [complex(a) for a in amplitudes]
    norm = math.sqrt(_squared_norm(amps))
    return StateVector(register=tuple(register), amplitudes=tuple(a / norm for a in amps))


def measure(state: StateVector, label: str) -> tuple[tuple[float, StateVector | None], ...]:
    """Measure `label` in the computational basis: for outcome 0 and then 1,
    the exact branch probability and the renormalized posterior (the measured
    qubit left in ``|outcome>``), or None where the probability is 0.
    """
    mask = _mask(state.register, label)
    outcomes = []
    for outcome in (0, 1):
        kept = [a if (i & mask != 0) == outcome else 0j for i, a in enumerate(state.amplitudes)]
        probability = _squared_norm(kept)
        if probability == 0.0:
            outcomes.append((0.0, None))
            continue
        norm = math.sqrt(probability)
        outcomes.append((probability, StateVector(state.register, tuple(a / norm for a in kept))))
    return tuple(outcomes)


def bell_pass_probability(state: StateVector, pair: tuple[str, str]) -> float:
    """Probability that projecting the pair onto ``(|00>+|11>)/sqrt(2)`` passes.

    It is the squared norm of the pair's overlap with that state, an
    amplitude vector over the rest of the register.
    """
    both = _mask(state.register, pair[0]) | _mask(state.register, pair[1])
    amps, half = state.amplitudes, 1.0 / math.sqrt(2.0)
    overlap = [(amps[i] + amps[i | both]) * half for i in range(len(amps)) if not i & both]
    return _squared_norm(overlap)


def apply_unitary(state: StateVector, labels: Sequence[str], matrix) -> StateVector:
    """Apply a ``2^k x 2^k`` unitary, given as rows, to the k qubits named by `labels`.

    Each basis index with the labels' bits clear starts one block: the
    ``2^k`` indices that set those bits as the matrix's rows order them.
    """
    masks = [_mask(state.register, label) for label in labels]
    offsets = [
        sum(m for j, m in enumerate(masks) if row >> (len(masks) - 1 - j) & 1)
        for row in range(len(matrix))
    ]
    amplitudes = state.amplitudes
    out = [0j] * len(amplitudes)
    for base in range(len(amplitudes)):
        if not base & offsets[-1]:
            block = [amplitudes[base | offset] for offset in offsets]
            for row, offset in zip(matrix, offsets):
                out[base | offset] = dot(row, block)
    return StateVector(register=state.register, amplitudes=tuple(out))
