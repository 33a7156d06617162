"""Deterministic pseudo-randomness with bit-identical scalar and vector paths.

Every random choice in this package flows through the counter-based generator
below instead of platform randomness, so a given seed produces the same bits
on every machine and Python version.

The generator is SplitMix64 run in counter mode: draw ``i`` of the stream for
``seed`` is ``mix64((seed + (i+1) * GOLDEN_GAMMA) mod 2**64)``.  Constants:

    GOLDEN_GAMMA = 0x9E3779B97F4A7C15   (2**64 / golden ratio, odd)
    MIX_MULT_1   = 0xBF58476D1CE4E4B9
    MIX_MULT_2   = 0x94D049BB133111EB

Counter mode (rather than a chained state) is what lets the numpy block
functions reproduce the scalar stream exactly; the equivalence is covered by
tests.  Both map a draw to ``floor(k * hi32 / 2**32)``: coins (k = 2) take
its top bit (exact), trits (k = 3) have bias below 2**-32 and therefore
irrelevant for statistical sampling.  The block functions reach the same
values by comparing the draw, one step before mix64 ends, against fixed
cuts (proved in `_uniform_block`), in 128 KiB sub-blocks; `trit_block` can
write into a caller's buffer.
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


# Draws per pass of _uniform_block: 128 KiB of uint64 per buffer, which
# glibc keeps on its heap between calls.  At 2**15 every call maps fresh
# pages: a 250,000-sample check on Paley 43 then takes 26,507 minor faults
# instead of 296.
_SUB_BLOCK = 1 << 14
_TRIT_CUT_1 = np.uint64(0x55555556 << 32)  # see _uniform_block
_TRIT_CUT_2 = np.uint64(0xAAAAAAAB << 32)
_COIN_CUT = np.uint64(1 << 63)
_BIT_32 = np.uint64(1 << 32)


def _uniform_block(
    seed: int, start: int, count: int, k: int, out: np.ndarray | None = None
) -> np.ndarray:
    """floor(k * hi32 / 2**32), k = 2 or 3, of draws start .. start + count - 1.

    The draws are written as uint8 into `out` (count elements, allocated when
    None), _SUB_BLOCK at a time through three uint64 buffers of 128 KiB; the
    result is the only count-sized array.

    The last step of mix64, w = z ^ (z >> 31), is never taken: two compares
    on z decide every draw.  The shifted term has its top 31 bits clear, so
    w and z share bits 63..33, and bit 32 of w is bit 32 of z xor bit 63.
    Write h(v) = v >> 32 and y = z ^ 2**32, so h(y) = h(z) ^ 1.

    Coins: the top bit of w is the top bit of z, so coin = 1 iff z >= 2**63.

    Trits: 2**32 = 3 * 0x55555555 + 1 and 2**33 = 3 * 0xAAAAAAAA + 2, so
    trit >= 1 iff h(w) >= c1 = 0x55555556, and trit = 2 iff h(w) >= c2 =
    0xAAAAAAAB.  The claim is that h(w) >= c iff h(y) >= c for both cuts:
    - bit 63 of z set: bit 32 of w is flipped, so h(w) = h(z) ^ 1 = h(y);
    - bit 63 clear: h(w) = h(z) = h(y) ^ 1, and both are below 2**31 < c2.
      For the even c1, flipping bit 0 keeps x // 2, and x >= c1 iff
      x // 2 >= c1 // 2, so h(w) >= c1 iff h(y) >= c1.
    Hence trit = [y >= c1 * 2**32] + [y >= c2 * 2**32].  The odd cut c2
    does not carry over to z itself: h(z) = 0xAAAAAAAB has bit 31 set, so
    h(w) = 0xAAAAAAAA < c2 and its trit is 1, while 0xAAAAAAAA and
    0xAAAAAAAC give 2.  The flip of bit 32 is what makes it one compare.
    """
    if out is None:
        out = np.empty(count, dtype=np.uint8)
    elif out.dtype != np.uint8 or out.shape != (count,):
        raise ValueError(f"out must be a uint8 array of shape ({count},)")
    sub = min(count, _SUB_BLOCK)
    # Draw start + lo + i mixes base + steps[i], base = seed + (start + lo) * GAMMA.
    steps = np.arange(1, sub + 1, dtype=np.uint64)
    steps *= np.uint64(GOLDEN_GAMMA)
    z = np.empty(sub, dtype=np.uint64)
    scratch = np.empty(sub, dtype=np.uint64)
    for lo in range(0, count, _SUB_BLOCK):
        m = min(_SUB_BLOCK, count - lo)
        base = (seed + (start + lo) * GOLDEN_GAMMA) & _MASK64
        zz, tmp, res = z[:m], scratch[:m], out[lo : lo + m]
        np.add(steps[:m], np.uint64(base), out=zz)
        np.right_shift(zz, 30, out=tmp)
        zz ^= tmp
        zz *= np.uint64(MIX_MULT_1)
        np.right_shift(zz, 27, out=tmp)
        zz ^= tmp
        zz *= np.uint64(MIX_MULT_2)
        if k == 2:
            np.greater_equal(zz, _COIN_CUT, out=res.view(np.bool_))
            continue
        zz ^= _BIT_32
        np.greater_equal(zz, _TRIT_CUT_1, out=res.view(np.bool_))
        two = tmp.view(np.bool_)[:m]
        np.greater_equal(zz, _TRIT_CUT_2, out=two)
        res += two.view(np.uint8)
    return out


def coin_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized counterpart of SplitMix64.coin (uint8 array)."""
    return _uniform_block(seed, start, count, 2)


def trit_block(
    seed: int, start: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized counterpart of SplitMix64.trit (uint8 array).

    With `out`, a uint8 array of shape (count,), the trits are written into
    it and it is returned, so a caller drawing many blocks keeps one buffer
    instead of allocating one per call.
    """
    return _uniform_block(seed, start, count, 3, out)
