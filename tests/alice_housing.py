"""Alice's orthogonal housing: a state no strategy id names, built for tests.

It records the branch weights in an ancilla pair ``A[0], A[1]`` and
leaves her kept qubits A1, A2 in ``|0>``, so the verification pair is not
entangled with Bob's qubit. Tests use it for the ancilla path of
`build_tree` and for verifications that can never pass.
"""

import numpy as np

from cointoss.qstate import A1, A2, B1, B2, make_state
from cointoss.strategies import AliceCheatStrategy, AliceCoefficients


def orthogonal_housing(c: AliceCoefficients) -> AliceCheatStrategy:
    """``sum_ij c_ij |i j>_(A[0], A[1]) |0 i 0 j>_(A1, B1, A2, B2)``."""
    amps = np.zeros((2,) * 6)
    for (i, j), weight in zip(((0, 0), (0, 1), (1, 0), (1, 1)), c):
        amps[i, j, 0, i, 0, j] = weight
    register = ("A[0]", "A[1]", A1, B1, A2, B2)
    return AliceCheatStrategy("orthogonal", make_state(register, amps.reshape(-1)))
