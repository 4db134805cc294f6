"""Exact reference values that depend on the workload seed.

Run as a child process, so the benchmark's own process never imports
numpy or cointoss while it launches the measured commands: a child's
``ru_maxrss`` starts from its parent's peak RSS.

    PYTHONPATH=src python3 perfbench/reference.py --seed 0

prints one JSON object: the ``random-bob:<k>`` id for the seed, its exact
win probability for target 1, and the kernel backend the package selects.
"""

from __future__ import annotations

import argparse
import json

import numpy as np
from cointoss.strategies import parse_strategy_id


def random_bob_id(seed: int) -> str:
    """``random-bob:<k>`` for a workload seed.

    k is the first value from ``7 + seed`` whose strategy has one ancilla,
    so every seed runs the same protocol steps.
    """
    k = 7 + seed
    while parse_strategy_id(f"random-bob:{k}").ancilla_count != 1:
        k += 1
    return f"random-bob:{k}"


def bob_win_probability(strategy, target: int) -> float:
    """Exact win probability of a Bob strategy against an honest Alice.

    Plain state-vector arithmetic on an array with one axis per wire, so it
    checks the program's own branch enumeration independently.
    """
    ancillas = [f"AncillaB[{i}]" for i in range(strategy.ancilla_count)]
    wires = ["A1", "B1", "A2", "B2"] + ancillas
    state = np.zeros((2,) * len(wires), dtype=np.complex128)
    for i in (0, 1):
        for j in (0, 1):
            state[(i, i, j, j) + (0,) * len(ancillas)] = 0.5
    if strategy.operation is not None:
        axes = [wires.index(str(l)) for l in strategy.operation.labels]
        moved = np.moveaxis(state, axes, range(len(axes)))
        shape = moved.shape
        moved = (strategy.operation.matrix @ moved.reshape(2 ** len(axes), -1)).reshape(shape)
        state = np.moveaxis(moved, range(len(axes)), axes)
    measured = [wires.index(str(l)) for l in strategy.measured]
    p_win = 0.0
    for value in range(2 ** len(measured)):
        outcome = tuple((value >> (len(measured) - 1 - i)) & 1 for i in range(len(measured)))
        index = [slice(None)] * len(wires)
        for axis, bit in zip(measured, outcome):
            index[axis] = slice(bit, bit + 1)
        branch = state[tuple(index)]
        coin = wires.index("A1" if strategy.announce(outcome) == 1 else "A2")
        p_win += float(np.sum(np.abs(np.take(branch, target, axis=coin)) ** 2))
    return p_win


def kernels_backend() -> str | None:
    try:
        from cointoss import kernels

        return kernels.backend_name()
    except (ImportError, AttributeError):
        return None


def main() -> None:
    parser = argparse.ArgumentParser(description="Print the seed's reference values as JSON.")
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args().seed
    bob = random_bob_id(seed)
    print(json.dumps({
        "bob": bob,
        "bob_p1": bob_win_probability(parse_strategy_id(bob, 1), 1),
        "kernels_backend": kernels_backend(),
    }))


if __name__ == "__main__":
    main()
