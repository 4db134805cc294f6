"""Dense state-vector engine for small labeled multi-qubit registers.

A qubit wire is its name, the string transcripts print: ``A1``, ``B1``,
``A2`` and ``B2`` for the two shared pairs and ``AncillaB[i]`` for Bob's
ancillas. States are immutable: every operation returns a new
:class:`StateVector` instead of mutating in place, so values can be
shared freely between threads and cached across protocol runs.
Qubit ordering convention: the label at register position 0 is the
leftmost (most significant) bit of a basis ket ``|q0 q1 ... q(n-1)>``.

The engine is exact. It holds every amplitude and matrix entry, a float
or an integer and so a dyadic rational, as an ``(re, im)`` pair of
integers at one power-of-two scale; this module alone reads that format.
No state is normalized: `measure` and `bell_overlap` return integer
squared norms, and a chance is a ratio of two, in which the scale
cancels. Operations work on basis indices by bit arithmetic: five
qubits, 32 amplitudes, are not worth an array library's import.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


A1, B1, A2, B2 = "A1", "B1", "A2", "B2"


def bob_ancilla(index: int = 0) -> str:
    return f"AncillaB[{index}]"


class StateVector(NamedTuple):
    """A pure state over an ordered register of labeled qubits, up to a
    positive scale: one integer ``(re, im)`` pair per basis ket."""

    register: tuple[str, ...]
    amplitudes: tuple[tuple[int, int], ...]


def _integer_pairs(values: Iterable[complex]) -> list[tuple[int, int]]:
    """`values` as integer ``(re, im)`` pairs, every part multiplied by one
    power of two: the largest denominator of a part, each a power of two."""
    ratios = [x.as_integer_ratio() for c in map(complex, values) for x in (c.real, c.imag)]
    shift = max(d for _, d in ratios).bit_length()
    parts = [n << (shift - d.bit_length()) for n, d in ratios]
    return list(zip(parts[::2], parts[1::2]))


def _squared_norm(amplitudes: Iterable[tuple[int, int]]) -> int:
    return sum(re * re + im * im for re, im in amplitudes)


def squared_norm(state: StateVector) -> int:
    """The state's squared norm, at its scale: the integer every chance divides."""
    return _squared_norm(state.amplitudes)


def _mask(register: Sequence[str], label: str) -> int:
    """The basis-index bit of `label`'s qubit."""
    return 1 << (len(register) - 1 - register.index(label))


def make_state(register: Iterable[str], amplitudes: Iterable[complex]) -> StateVector:
    """Build a state from labels and amplitudes, floats or integers, held exactly."""
    return StateVector(register=tuple(register), amplitudes=tuple(_integer_pairs(amplitudes)))


def append_qubits(state: StateVector, labels: Sequence[str]) -> StateVector:
    """The state with `labels` appended to its register, each in |0>."""
    pad = ((0, 0),) * (2 ** len(labels) - 1)
    amplitudes = tuple(x for a in state.amplitudes for x in (a, *pad))
    return StateVector(state.register + tuple(labels), amplitudes)


def measure(state: StateVector, label: str) -> tuple[tuple[int, StateVector | None], ...]:
    """Measure `label` in the computational basis: for outcome 0 and then 1,
    the kept amplitudes' squared norm, which over the state's is the
    outcome's exact chance, and the posterior, those amplitudes at the
    state's scale, or None where the squared norm is 0."""
    mask = _mask(state.register, label)
    kept = [
        tuple(a if (i & mask != 0) == outcome else (0, 0) for i, a in enumerate(state.amplitudes))
        for outcome in (0, 1)
    ]
    masses = [_squared_norm(amplitudes) for amplitudes in kept]
    return tuple(
        (mass, StateVector(state.register, amplitudes) if mass else None)
        for mass, amplitudes in zip(masses, kept)
    )


def bell_overlap(state: StateVector, pair: tuple[str, str]) -> int:
    """The pair's squared overlap with the shared pair's ``|00> + |11>``:
    over twice the state's squared norm, the exact chance that projecting
    the pair onto the normalized shared pair passes. The overlap is an
    amplitude vector over the rest of the register, ``a_i + a_j`` for each
    ket i with both of the pair's bits clear, j being i with both set.
    """
    both = _mask(state.register, pair[0]) | _mask(state.register, pair[1])
    amps = state.amplitudes
    overlap = (
        (amps[i][0] + amps[i | both][0], amps[i][1] + amps[i | both][1])
        for i in range(len(amps))
        if not i & both
    )
    return _squared_norm(overlap)


def apply_unitary(state: StateVector, labels: Sequence[str], matrix) -> StateVector:
    """Apply a ``2^k x 2^k`` unitary, given as rows, to the k qubits named by `labels`.

    The entries are held as the amplitudes are, as integers at one
    power-of-two scale, so the result is exact, at the product of the two
    scales. Each basis index with the labels' bits clear starts one block:
    the ``2^k`` indices that set those bits as the matrix's rows order them.
    """
    masks = [_mask(state.register, label) for label in labels]
    offsets = [
        sum(m for j, m in enumerate(masks) if row >> (len(masks) - 1 - j) & 1)
        for row in range(len(matrix))
    ]
    entries = _integer_pairs(x for row in matrix for x in row)
    rows = [entries[r : r + len(offsets)] for r in range(0, len(entries), len(offsets))]
    amplitudes = state.amplitudes
    out = [(0, 0)] * len(amplitudes)
    for base in range(len(amplitudes)):
        if not base & offsets[-1]:
            block = [amplitudes[base | offset] for offset in offsets]
            for row, offset in zip(rows, offsets):
                out[base | offset] = (
                    sum(mr * br - mi * bi for (mr, mi), (br, bi) in zip(row, block)),
                    sum(mr * bi + mi * br for (mr, mi), (br, bi) in zip(row, block)),
                )
    return StateVector(register=state.register, amplitudes=tuple(out))
