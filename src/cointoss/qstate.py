"""Dense state-vector engine for small labeled multi-qubit registers.

A qubit wire is its name, the string transcripts print: ``A1``, ``B1``,
``A2`` and ``B2`` for the two shared pairs and ``AncillaB[i]`` for Bob's
ancillas. States are immutable: every operation returns a new
:class:`StateVector` instead of mutating in place, so values can be
shared freely between threads and cached across protocol runs.
Qubit ordering convention: the label at register position 0 is the
leftmost (most significant) bit of a basis ket ``|q0 q1 ... q(n-1)>``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

class NotNormalizedError(Exception):
    """Squared weights do not sum to 1 within tolerance."""


A1, B1, A2, B2 = "A1", "B1", "A2", "B2"


def bob_ancilla(index: int = 0) -> str:
    return f"AncillaB[{index}]"


class StateVector(NamedTuple):
    """A normalized pure state over an ordered register of labeled qubits."""

    register: tuple[str, ...]
    amplitudes: np.ndarray

    @property
    def n_qubits(self) -> int:
        return len(self.register)

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit, register order."""
        return self.amplitudes.reshape((2,) * self.n_qubits)


def _freeze(amplitudes: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(amplitudes, dtype=np.complex128)
    out.setflags(write=False)
    return out


def make_state(register: Iterable[str], amplitudes: Sequence[complex] | np.ndarray) -> StateVector:
    """Build a state from labels and amplitudes, divided by their exact norm."""
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(amps))
    return StateVector(register=tuple(register), amplitudes=_freeze(amps / norm))


BELL_AMPLITUDES = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def bell_state(left: str, right: str) -> StateVector:
    """The two-qubit state ``(|00> + |11>)/sqrt(2)`` on the given pair."""
    return make_state((left, right), BELL_AMPLITUDES)


def tensor(left: StateVector, right: StateVector) -> StateVector:
    """Tensor product; the combined register is `left` then `right`."""
    return StateVector(
        register=left.register + right.register,
        amplitudes=_freeze(np.kron(left.amplitudes, right.amplitudes)),
    )


def branch_probabilities(state: StateVector, label: str) -> tuple[float, float]:
    """Exact probabilities of measuring `label` as 0 and 1 (no sampling)."""
    pos = state.register.index(label)
    weights = np.abs(state.tensor_view()) ** 2
    axes = tuple(i for i in range(state.n_qubits) if i != pos)
    marginal = weights.sum(axis=axes) if axes else weights
    return float(marginal[0]), float(marginal[1])


def collapse(state: StateVector, label: str, outcome: int) -> tuple[float, StateVector]:
    """Project `label` onto `outcome` and renormalize.

    Returns the branch probability and the posterior (same register, the
    measured qubit left in ``|outcome>``). The branch must have nonzero
    probability.
    """
    pos = state.register.index(label)
    tensor_amps = state.tensor_view()
    kept = np.take(tensor_amps, outcome, axis=pos)
    branch_norm = float(np.linalg.norm(kept))
    projected = np.zeros_like(tensor_amps)
    index = [slice(None)] * state.n_qubits
    index[pos] = outcome
    # Renormalize by the exactly computed branch norm, not an accumulated one.
    projected[tuple(index)] = kept / branch_norm
    posterior = StateVector(register=state.register, amplitudes=_freeze(projected.reshape(-1)))
    return branch_norm**2, posterior


def bell_pass_probability(state: StateVector, pair: tuple[str, str]) -> float:
    """Probability that projecting the pair onto ``(|00>+|11>)/sqrt(2)`` passes.

    It is the squared norm of the pair's overlap with that state, an
    amplitude vector over the rest of the register.
    """
    pos_a = state.register.index(pair[0])
    pos_b = state.register.index(pair[1])
    amplitudes = state.tensor_view()
    index = [slice(None)] * state.n_qubits
    index[pos_a] = index[pos_b] = 0
    zeros = amplitudes[tuple(index)]
    index[pos_a] = index[pos_b] = 1
    ones = amplitudes[tuple(index)]
    overlap = (zeros + ones) / np.sqrt(2.0)
    return float(np.sum(np.abs(overlap) ** 2))


def _act(register: Sequence[str], labels: Sequence[str], matrix, amplitudes) -> np.ndarray:
    """`matrix` on the qubits `labels` of `register`, along the first axis of `amplitudes`."""
    positions = [register.index(l) for l in labels]
    k = len(positions)
    moved = np.moveaxis(amplitudes.reshape((2,) * len(register) + (-1,)), positions, range(k))
    transformed = (matrix @ moved.reshape(2**k, -1)).reshape(moved.shape)
    return np.moveaxis(transformed, range(k), positions).reshape(amplitudes.shape)


def apply_unitary(state: StateVector, labels: Sequence[str], matrix: np.ndarray) -> StateVector:
    """Apply a ``2^k x 2^k`` unitary to the k qubits named by `labels`."""
    result = _act(state.register, labels, matrix, state.amplitudes)
    return StateVector(register=state.register, amplitudes=_freeze(result))


def embed(register: Sequence[str], labels: Sequence[str], matrix: np.ndarray) -> np.ndarray:
    """The operator on `register` that is `matrix` on `labels` and the identity elsewhere."""
    return _act(register, labels, matrix, np.eye(2 ** len(register)))
