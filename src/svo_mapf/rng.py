"""Seedable, platform-stable random number generation.

Scenario generation and everything downstream must reproduce bit-identically
across runs, platforms, and reimplementations, so we use SplitMix64 instead of
any host-library generator. The full recurrence (all arithmetic mod 2^64):

    state  <- state + 0x9E3779B97F4A7C15
    z      <- state
    z      <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9
    z      <- (z XOR (z >> 27)) * 0x94D049BB133111EB
    output <- z XOR (z >> 31)

Floats in [0, 1) take the top 53 bits of an output word; bounded integers use
rejection sampling so results are unbiased and independent of word size.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_NORMALS_BLOCK = 1024


class SplitMix64:
    """Deterministic 64-bit generator; one instance per independent stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (no modulo bias)."""
        if n <= 0:
            raise ValueError("randrange() requires n >= 1")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("randint() requires lo <= hi")
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: swap i takes j = randrange(i + 1)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, order determined by the draw sequence."""
        if k > len(seq):
            raise ValueError("sample() larger than population")
        pool = list(seq)
        out = []
        for _ in range(k):
            out.append(pool.pop(self.randrange(len(pool))))
        return out

    def normal(self) -> float:
        """Standard normal via Box-Muller (polar form avoided for determinism)."""
        u1 = self.random()
        while u1 <= 0.0:
            u1 = self.random()
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, count: int) -> np.ndarray:
        """count draws of normal(), in order and with the same bits.

        The words come from a vectorised pass of the recurrence (numpy's
        uint64 arithmetic wraps mod 2^64), 2 * _NORMALS_BLOCK at a time so
        the arrays stay small; the transcendentals stay per element in math
        so no last bit moves. A block holding a zero u1, which normal() would
        redraw and so shift every later word, is drawn through normal().
        """
        out = np.empty(count)
        log, sqrt, cos, tau = math.log, math.sqrt, math.cos, 2.0 * math.pi
        for lo in range(0, count, _NORMALS_BLOCK):
            k = min(count - lo, _NORMALS_BLOCK)
            z = np.arange(1, 2 * k + 1, dtype=np.uint64)
            z *= np.uint64(_GOLDEN)
            z += np.uint64(self.state)
            u = (_mix(z) >> np.uint64(11)) * (2.0 ** -53)
            u1, u2 = u[0::2].tolist(), u[1::2].tolist()
            if 0.0 in u1:
                out[lo:lo + k] = [self.normal() for _ in range(k)]
                continue
            self.state = (self.state + 2 * k * _GOLDEN) & _MASK64
            out[lo:lo + k] = [sqrt(-2.0 * log(a)) * cos(tau * b) for a, b in zip(u1, u2)]
        return out


def derive_seed(seed: int, *indices: int) -> int:
    """Stable sub-stream seed from a master seed and index path.

    Used so batch workers can draw per-instance streams that do not depend on
    scheduling order: derive_seed(batch_seed, i) is a pure function.
    """
    g = SplitMix64(seed)
    out = g.next_u64()
    for idx in indices:
        g = SplitMix64(out ^ (idx & _MASK64))
        out = g.next_u64()
    return out


def derived_uniforms(seed: int, count: int) -> list[float]:
    """SplitMix64(derive_seed(seed, k)).random() for k in range(count), same bits.

    derive_seed(seed, k) is the first word of a generator seeded with
    derive_seed(seed) ^ k, and random() takes the first word of a generator
    seeded with that: two rounds of the recurrence, run here as one
    vectorised pass over all k. numpy's uint64 arithmetic wraps mod 2^64 and
    (z >> 11) * 2**-53 is exact in float64, so every bit matches.
    """
    z = np.arange(count, dtype=np.uint64)
    z ^= np.uint64(derive_seed(seed))
    z += np.uint64(_GOLDEN)
    _mix(z)
    z += np.uint64(_GOLDEN)
    return ((_mix(z) >> np.uint64(11)) * (2.0 ** -53)).tolist()


def _mix(z: np.ndarray) -> np.ndarray:
    """The output function of next_u64 on an array of states, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z

