from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from drt.rng import (
    _SUB_BLOCK,
    GOLDEN_GAMMA,
    MIX_MULT_1,
    MIX_MULT_2,
    SplitMix64,
    coin_block,
    derive_seed,
    mix64,
    trit_block,
)

SEEDS = [0, 1, 7, 42, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_and_block_streams_agree(seed):
    rng = SplitMix64(seed)
    scalar = [rng.trit() for _ in range(200)]
    block = trit_block(seed, 0, 200)
    assert scalar == list(block)


@pytest.mark.parametrize("seed", SEEDS)
def test_block_offsets_index_into_the_same_stream(seed):
    whole = list(trit_block(seed, 0, 100))
    assert list(trit_block(seed, 37, 50)) == whole[37:87]


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    start=st.integers(min_value=0, max_value=1000),
    a=st.integers(min_value=0, max_value=64),
    b=st.integers(min_value=0, max_value=64),
)
def test_block_concatenation(seed, start, a, b):
    joined = np.concatenate(
        [trit_block(seed, start, a), trit_block(seed, start + a, b)]
    )
    assert list(joined) == list(trit_block(seed, start, a + b))


def test_trits_match_scalar_path():
    rng = SplitMix64(99)
    scalar = [rng.trit() for _ in range(300)]
    assert scalar == list(trit_block(99, 0, 300))
    assert set(scalar) <= {0, 1, 2}


@pytest.mark.parametrize("seed", [7, 2**64 - 5])
def test_trits_across_sub_blocks_match_scalar_path(seed):
    # two full sub-blocks and a partial third, from an offset counter
    start, count = 12_345, 2 * _SUB_BLOCK + 1001
    for draw, block_fn in ((SplitMix64.trit, trit_block), (SplitMix64.coin, coin_block)):
        rng = SplitMix64(seed, counter=start)
        scalar = [draw(rng) for _ in range(count)]
        block = block_fn(seed, start, count)
        assert block.dtype == np.uint8
        assert block.tolist() == scalar
        assert block_fn(seed, start, 0).size == 0


def test_many_calls_draw_the_one_call_stream():
    # calls that end inside, at and just past a sub-block, and short calls
    # after long ones, all continue the counter stream of one call
    sizes = [1, _SUB_BLOCK - 1, _SUB_BLOCK, _SUB_BLOCK + 1, 1 << 18, 1, _SUB_BLOCK + 1, 1]
    seed, start = 2**64 - 3, 999
    bounds = list(itertools.accumulate(sizes, initial=0))
    for block_fn in (trit_block, coin_block):
        parts = [block_fn(seed, start + lo, m) for lo, m in zip(bounds, sizes)]
        assert np.array_equal(np.concatenate(parts), block_fn(seed, start, bounds[-1]))


def test_coin_is_top_bit():
    rng1, rng2 = SplitMix64(5), SplitMix64(5)
    for _ in range(100):
        assert rng1.coin() == (rng2.u64() >> 63)


def test_mix64_is_a_bijection_on_a_sample():
    xs = list(range(0, 10_000, 7))
    assert len({mix64(x) for x in xs}) == len(xs)
    assert mix64(0) != 0 or True  # value itself is unconstrained, only determinism
    assert mix64(12345) == mix64(12345)


def test_derive_seed_separates_streams():
    seeds = {derive_seed(3, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(3, 17) == derive_seed(3, 17)
    assert derive_seed(3, 17) != derive_seed(4, 17)


def test_seed_wraps_modulo_2_to_64():
    # both paths mask the seed the same way, so wide seeds stay coherent
    assert SplitMix64(-1).u64() == SplitMix64(2**64 - 1).u64()
    assert list(trit_block(-1, 0, 64)) == list(trit_block(2**64 - 1, 0, 64))


_MASK64 = (1 << 64) - 1


def _unxorshift(y: int, s: int) -> int:
    """The x with x ^ (x >> s) = y: each pass fixes s more top bits."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def _seed_whose_first_draw_has(z: int) -> int:
    """Invert mix64 up to its last xorshift: the first draw of the returned
    seed, mix64(seed + GOLDEN_GAMMA), is z ^ (z >> 31)."""
    x = z * pow(MIX_MULT_2, -1, 1 << 64) & _MASK64
    x = _unxorshift(x, 27)
    x = x * pow(MIX_MULT_1, -1, 1 << 64) & _MASK64
    x = _unxorshift(x, 30)
    return (x - GOLDEN_GAMMA) & _MASK64


# (z before mix64's last xorshift, trit, coin) at each cut -1, +0, +1.  The
# trit-2 set is not a cut on z: 0xAAAAAAAB << 32 has bit 63 set, so the last
# step flips its bit 32 and its trit is 1, between two runs of 2.
_CUT_DRAWS = [
    ((0x55555556 << 32) - 1, 0, 0), (0x55555556 << 32, 1, 0), ((0x55555556 << 32) + 1, 1, 0),
    ((0xAAAAAAAA << 32) - 1, 1, 1), (0xAAAAAAAA << 32, 2, 1), ((0xAAAAAAAA << 32) + 1, 2, 1),
    ((0xAAAAAAAB << 32) - 1, 2, 1), (0xAAAAAAAB << 32, 1, 1), ((0xAAAAAAAB << 32) + 1, 1, 1),
    ((0xAAAAAAAC << 32) - 1, 1, 1), (0xAAAAAAAC << 32, 2, 1), ((0xAAAAAAAC << 32) + 1, 2, 1),
    ((1 << 63) - 1, 1, 0), (1 << 63, 1, 1), ((1 << 63) + 1, 1, 1),
]


@pytest.mark.parametrize("z, trit, coin", _CUT_DRAWS, ids=[f"{z:#x}" for z, _, _ in _CUT_DRAWS])
def test_block_draws_match_scalar_at_the_compare_cuts(z, trit, coin):
    seed = _seed_whose_first_draw_has(z)
    assert SplitMix64(seed).u64() == z ^ (z >> 31)
    assert (SplitMix64(seed).trit(), SplitMix64(seed).coin()) == (trit, coin)
    # as the first draw of a block, and as draw _SUB_BLOCK, which opens the
    # second sub-block
    assert trit_block(seed, 0, 3)[0] == trit
    assert coin_block(seed, 0, 3)[0] == coin
    assert trit_block(seed - _SUB_BLOCK * GOLDEN_GAMMA, 0, _SUB_BLOCK + 1)[-1] == trit
    assert coin_block(seed - _SUB_BLOCK * GOLDEN_GAMMA, 0, _SUB_BLOCK + 1)[-1] == coin
