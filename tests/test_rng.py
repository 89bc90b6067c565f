"""Counter-based random stream: reference vectors and stream algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.rng import MASK64, MAX_BLOCK, BufferedDraws, SplitMix64, splitmix_block

# First outputs of the classic splitmix64 sequence for seed 0, as published
# alongside the xoshiro generators; pins the mixing constants.
SEED0_REFERENCE = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_seed0_reference_vector():
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == SEED0_REFERENCE


def test_outputs_are_64_bit():
    r = SplitMix64(987654321)
    for _ in range(1000):
        x = r.next_u64()
        assert 0 <= x <= MASK64


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=1, max_value=300))
@settings(max_examples=50)
def test_block_matches_scalar_stream(seed, count):
    scalar = SplitMix64(seed)
    block = SplitMix64(seed)
    expected = [scalar.next_u64() for _ in range(count)]
    got = block.block_u64(count)
    assert got.dtype == np.uint64
    assert [int(x) for x in got] == expected
    # both advance the counter identically, so the tails agree too
    assert scalar.next_u64() == int(block.block_u64(1)[0])


@given(st.integers(min_value=0, max_value=MASK64))
@settings(max_examples=30)
def test_block_split_is_seamless(seed):
    whole = SplitMix64(seed).block_u64(64)
    pieces = SplitMix64(seed)
    first = pieces.block_u64(20)
    second = pieces.block_u64(44)
    assert [int(x) for x in whole] == [int(x) for x in first] + [int(x) for x in second]


def test_floats_in_unit_interval():
    r = SplitMix64(5150)
    xs = [r.next_float() for _ in range(5000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 0.03


def test_block_floats_match_scalar():
    # the lockstep engine derives its floats from block draws as next_float does
    a = SplitMix64(31337)
    b = SplitMix64(31337)
    floats = (b.block_u64(100) >> np.uint64(11)) * 2.0**-53
    assert [a.next_float() for _ in range(100)] == [float(x) for x in floats]


def test_randrange_bounds_and_determinism():
    r = SplitMix64(777)
    xs = [r.randrange(7) for _ in range(2000)]
    assert set(xs) == set(range(7))
    replay = SplitMix64(777)
    assert xs == [replay.randrange(7) for _ in range(2000)]


def test_randrange_rejects_bad_bound():
    with pytest.raises(ValueError):
        SplitMix64(1).randrange(0)


def test_stream_derivation_is_xor():
    base, index = 123456, 42
    derived = SplitMix64.stream(base, index)
    manual = SplitMix64(base ^ index)
    assert [derived.next_u64() for _ in range(5)] == [manual.next_u64() for _ in range(5)]


def test_distinct_streams_disagree():
    a = SplitMix64.stream(99, 0)
    b = SplitMix64.stream(99, 1)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_shuffle_is_a_permutation():
    r = SplitMix64(2024)
    items = list(range(50))
    r.shuffle(items)
    assert sorted(items) == list(range(50))
    again = list(range(50))
    SplitMix64(2024).shuffle(again)
    assert again == items


def test_buffered_draws_match_direct():
    direct = SplitMix64(4096)
    buffered = BufferedDraws(SplitMix64(4096), block=16)
    assert [buffered.u64() for _ in range(100)] == [direct.next_u64() for _ in range(100)]
    direct2 = SplitMix64(8192)
    buffered2 = BufferedDraws(SplitMix64(8192), block=16)
    assert [(buffered2.u64() >> 11) * 2.0**-53 for _ in range(100)] == [direct2.next_float() for _ in range(100)]
    # 20500 draws cross every doubling of the block up to MAX_BLOCK and
    # refill at the cap at least once, from the default first block and from 1
    count = 20_500
    for kwargs in ({}, {"block": 1}):
        direct3 = SplitMix64(-77)
        buffered3 = BufferedDraws(SplitMix64(-77), **kwargs)
        assert [buffered3.u64() for _ in range(count)] == [direct3.next_u64() for _ in range(count)]


def test_buffered_draws_grow_blocks_up_to_the_cap():
    rng = SplitMix64(3)
    draws = BufferedDraws(rng)
    draws.u64()
    assert rng.counter == 64  # a one-draw run generates 64 draws, not MAX_BLOCK
    for _ in range(64):
        draws.u64()
    assert rng.counter == 64 + 128
    for _ in range(40_000):
        draws.u64()
    sizes = []
    while len(sizes) < 3:
        before = rng.counter
        for _ in range(MAX_BLOCK):
            draws.u64()
        sizes.append(rng.counter - before)
    assert sizes == [MAX_BLOCK] * 3


@given(
    st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=40)
def test_splitmix_block_rows_continue_each_stream(seeds, counter, m):
    block = splitmix_block(np.array(seeds, dtype=np.uint64), counter, m)
    assert block.shape == (len(seeds), m) and block.dtype == np.uint64
    for i, seed in enumerate(seeds):
        stream = SplitMix64(seed)
        stream.counter = counter
        assert [int(x) for x in block[i]] == [stream.next_u64() for _ in range(m)]


def test_state_is_serializable_by_value():
    r = SplitMix64(10)
    r.next_u64()
    clone = SplitMix64(r.seed)
    clone.counter = r.counter
    assert clone.next_u64() == r.next_u64()
