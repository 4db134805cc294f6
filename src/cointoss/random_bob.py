"""Bob's ``random-bob:<seed>`` strategies, drawn from a plain-Python copy
of NumPy's ``default_rng(seed)`` stream.

`strategies.parse_strategy_id` loads this module only for a
``random-bob:`` id, so no other command compiles the generator.
"""

from __future__ import annotations

import functools
import math

from .qstate import B1, B2, bob_ancilla
from .strategies import BobCheatStrategy, LocalOperation, _bit_tuples

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
# NumPy's normal ziggurat: 256 layers of area V each, the base reaching out
# to R; V = R f(R) + (integral of f from R to infinity), f(x) = exp(-x*x/2).
_ZIGGURAT_R = 3.6541528853610087963519472518
_ZIGGURAT_INV_R = 0.27366123732975827203338247596
_ZIGGURAT_V = 0.004928673233974655


@functools.cache
def _ziggurat_tables() -> tuple[list[int], list[float], list[float]]:
    """NumPy's ``ki_double``, ``wi_double`` and ``fi_double``, to within 80 ulps."""
    scale = 2.0**52
    ki, wi, fi = [0] * 256, [0.0] * 256, [0.0] * 256
    x = last = _ZIGGURAT_R
    q = _ZIGGURAT_V / math.exp(-0.5 * x * x)
    ki[0], wi[0], fi[0] = int(x / q * scale), q / scale, 1.0
    wi[255], fi[255] = x / scale, math.exp(-0.5 * x * x)
    for i in range(254, 0, -1):
        x = math.sqrt(-2.0 * math.log(_ZIGGURAT_V / x + math.exp(-0.5 * x * x)))
        ki[i + 1], last = int(x / last * scale), x
        wi[i], fi[i] = x / scale, math.exp(-0.5 * x * x)
    return ki, wi, fi


class _DefaultRng:
    """The draws of NumPy's ``default_rng(seed)`` that `random_bob_strategy`
    makes, in plain Python.

    So ``random-bob:<seed>`` names the strategy NumPy's generator gives that
    seed, and no command imports NumPy. Each step is NumPy's:
    ``SeedSequence`` seeding, PCG64's XSL-RR output with the upper half of a
    64-bit draw kept for the next 32-bit one, Lemire's method for
    ``integers`` and the ziggurat for ``normal``. The ziggurat tables are
    computed here, so a normal agrees with NumPy's to about 3e-14, relative.
    """

    def __init__(self, seed: int):
        words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        mult = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal mult
            value ^= mult
            mult = (mult * 0x931E8875) & _M32
            value = (value * mult) & _M32
            return value ^ (value >> 16)

        def mix(x: int, y: int) -> int:
            value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return value ^ (value >> 16)

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        mult, state = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ mult
            mult = (mult * 0x58F38DED) & _M32
            value = (value * mult) & _M32
            state.append(value ^ (value >> 16))
        seed_hi, seed_lo, inc_hi, inc_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
        # PCG's srandom: one step from state 0, add the seed, one more step.
        self._inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _M128
        self._state = ((self._inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULTIPLIER + self._inc) & _M128
        self._half: int | None = None

    def _next64(self) -> int:
        self._state = (self._state * _PCG64_MULTIPLIER + self._inc) & _M128
        value, rot = ((self._state >> 64) ^ self._state) & _M64, self._state >> 122
        return ((value >> rot) | (value << (-rot & 63))) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        value = self._next64()
        self._half = value >> 32
        return value & _M32

    def _uniform(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """Uniform on ``low..high - 1``, for ``high - low`` up to 2**32."""
        span = high - low
        product = self._next32() * span
        if product & _M32 < span:
            threshold = ((1 << 32) - span) % span
            while product & _M32 < threshold:
                product = self._next32() * span
        return low + (product >> 32)

    def _standard_normal(self, ki: list[int], wi: list[float], fi: list[float]) -> float:
        while True:
            bits = self._next64()
            layer, bits = bits & 0xFF, bits >> 8
            rabs = (bits >> 1) & 0x000FFFFFFFFFFFFF
            x = -rabs * wi[layer] if bits & 1 else rabs * wi[layer]
            if rabs < ki[layer]:
                return x
            if layer == 0:
                while True:
                    xx = -_ZIGGURAT_INV_R * math.log1p(-self._uniform())
                    yy = -math.log1p(-self._uniform())
                    if yy + yy > xx * xx:
                        return -(_ZIGGURAT_R + xx) if (rabs >> 8) & 1 else _ZIGGURAT_R + xx
            elif (fi[layer - 1] - fi[layer]) * self._uniform() + fi[layer] < math.exp(-0.5 * x * x):
                return x

    def normal(self, size: tuple[int, int]) -> list[list[float]]:
        """Standard normals, as the rows of a ``size`` table drawn in C order."""
        tables = _ziggurat_tables()
        rows, columns = size
        return [[self._standard_normal(*tables) for _ in range(columns)] for _ in range(rows)]


def dot(left, right) -> complex:
    """``sum(l * r)``, its real and imaginary parts each correctly rounded by `math.fsum`."""
    terms = [a * b for a, b in zip(left, right)]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def haar_unitary(dim: int, rng: _DefaultRng) -> list[list[complex]]:
    """Haar-distributed unitary, as rows: the Q of a complex Gaussian matrix's
    QR decomposition whose R has a real, positive diagonal.

    That R makes Q unique. Modified Gram-Schmidt, run twice over each column
    so that Q is orthonormal to rounding, gives it column by column. `rng`
    is a `_DefaultRng` or a NumPy ``Generator``.
    """
    real, imag = rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim))
    q = []
    for j in range(dim):
        v = [complex(real[i][j], imag[i][j]) for i in range(dim)]
        for _ in range(2):
            for u in q:
                r = dot((x.conjugate() for x in u), v)
                v = [x - r * y for x, y in zip(v, u)]
        norm = math.sqrt(dot([x.conjugate() for x in v], v).real)
        q.append([x / norm for x in v])
    return [list(row) for row in zip(*q)]


def random_bob_strategy(rng: _DefaultRng) -> BobCheatStrategy:
    """The `random-bob:<seed>` CLI strategy, drawn from ``_DefaultRng(seed)``.

    Draws a Haar-random unitary on his two received qubits plus zero or one
    ancilla qubit, measures the ancilla (when present), and announces per a
    random rule on the result. `rng` is a `_DefaultRng` or a
    NumPy ``Generator``.
    """
    ancilla_count = int(rng.integers(0, 2))
    labels = (B1, B2) + tuple(bob_ancilla(i) for i in range(ancilla_count))
    operation = LocalOperation(labels=labels, matrix=haar_unitary(2 ** len(labels), rng))
    measured = tuple(bob_ancilla(i) for i in range(ancilla_count))
    rule = {
        outcome: int(rng.integers(1, 3)) for outcome in _bit_tuples(len(measured))
    }
    return BobCheatStrategy(
        name="random-bob",
        ancilla_count=ancilla_count,
        operation=operation,
        measured=measured,
        announce_rule=rule,
    )
