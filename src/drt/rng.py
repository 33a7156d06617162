"""Deterministic pseudo-randomness with bit-identical scalar and vector paths.

Every random choice in this package flows through the counter-based generator
below instead of platform randomness, so a given seed produces the same bits
on every machine, Python version, and worker count.

The generator is SplitMix64 run in counter mode: draw ``i`` of the stream for
``seed`` is ``mix64((seed + (i+1) * GOLDEN_GAMMA) mod 2**64)``.  Constants:

    GOLDEN_GAMMA = 0x9E3779B97F4A7C15   (2**64 / golden ratio, odd)
    MIX_MULT_1   = 0xBF58476D1CE4E4B9
    MIX_MULT_2   = 0x94D049BB133111EB

Counter mode (rather than a chained state) is what lets the numpy block
functions reproduce the scalar stream exactly; the equivalence is covered by
tests.  Both map a draw to ``floor(k * hi32 / 2**32)``: coins (k = 2) take
its top bit (exact), trits (k = 3) have bias below 2**-32 and therefore
irrelevant for statistical sampling.
"""

from __future__ import annotations

import numpy as np

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E4B9
MIX_MULT_2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * MIX_MULT_1) & _MASK64
    x = ((x ^ (x >> 27)) * MIX_MULT_2) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for sub-experiment `index`, decorrelated from the parent stream."""
    return mix64((mix64(seed) + index) & _MASK64)


class SplitMix64:
    """Scalar view of the counter stream for `seed`, starting at draw `counter`."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK64
        self.counter = counter

    def u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * GOLDEN_GAMMA) & _MASK64)

    def coin(self) -> int:
        """Fair bit: the top bit of the next draw."""
        return self.u64() >> 63

    def trit(self) -> int:
        """Near-uniform value in {0, 1, 2} (bias < 2**-32)."""
        return (3 * (self.u64() >> 32)) >> 32


_SUB_BLOCK = 1 << 16  # draws per pass of _uniform_block: 512 KiB of uint64


def _finalize_in_place(z: np.ndarray, scratch: np.ndarray) -> None:
    """mix64 applied elementwise to the uint64 array `z`, overwriting it."""
    np.right_shift(z, 30, out=scratch)
    z ^= scratch
    z *= np.uint64(MIX_MULT_1)
    np.right_shift(z, 27, out=scratch)
    z ^= scratch
    z *= np.uint64(MIX_MULT_2)
    np.right_shift(z, 31, out=scratch)
    z ^= scratch


def _uniform_block(seed: int, start: int, count: int, k: int) -> np.ndarray:
    """floor(k * hi32 / 2**32) of draws start .. start + count - 1, as uint8.

    The draws are made _SUB_BLOCK at a time in two reused uint64 buffers, so
    the only count-sized array is the uint8 result.
    """
    out = np.empty(count, dtype=np.uint8)
    sub = min(count, _SUB_BLOCK)
    # Draw start + lo + i mixes base + steps[i], base = seed + (start + lo) * GAMMA.
    steps = np.arange(1, sub + 1, dtype=np.uint64)
    steps *= np.uint64(GOLDEN_GAMMA)
    z = np.empty(sub, dtype=np.uint64)
    scratch = np.empty(sub, dtype=np.uint64)
    for lo in range(0, count, _SUB_BLOCK):
        m = min(_SUB_BLOCK, count - lo)
        base = (seed + (start + lo) * GOLDEN_GAMMA) & _MASK64
        zz = z[:m]
        np.add(steps[:m], np.uint64(base), out=zz)
        _finalize_in_place(zz, scratch[:m])
        zz >>= np.uint64(32)
        zz *= np.uint64(k)
        zz >>= np.uint64(32)
        out[lo : lo + m] = zz
    return out


def coin_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized counterpart of SplitMix64.coin (uint8 array)."""
    return _uniform_block(seed, start, count, 2)


def trit_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized counterpart of SplitMix64.trit (uint8 array)."""
    return _uniform_block(seed, start, count, 3)
