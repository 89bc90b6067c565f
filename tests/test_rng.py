"""Counter-based random stream: reference vectors and stream algebra, and
the blocks a scalar walk trial draws its stream in (`walks._play`)."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import walks
from walklab.graphs import build_graph, generate
from walklab.rng import MASK64, SplitMix64, splitmix_block, stream_seeds, to_unit
from walklab.walks import MAX_BLOCK, MIN_BLOCK, WalkSpec, _decode_pairs


def RAW(z):
    """srw's decode for a table read modulo each degree: the draws themselves."""
    return z, None


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


@given(st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=20))
@settings(max_examples=50)
def test_to_unit_decodes_ints_and_arrays_alike(zs):
    # (z >> 11) * 2**-53 by hand; the array path must stay uint64 under the shift
    expected = [(z >> 11) * 2.0**-53 for z in zs]
    assert [to_unit(z) for z in zs] == expected
    got = to_unit(np.array(zs, dtype=np.uint64))
    assert got.dtype == np.float64 and got.tolist() == expected
    assert all(0.0 <= x < 1.0 for x in expected)


@given(
    st.integers(min_value=-(2**70), max_value=2**70) | st.sampled_from([-1, -(2**64), 2**64, 2**64 + 3, MASK64]),
    st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=12),
)
@settings(max_examples=100)
def test_stream_seeds_match_the_scalar_streams(seed, indices):
    seeds = stream_seeds(seed, np.array(indices, dtype=np.int64))
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [SplitMix64.stream(seed, i).seed for i in indices]


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


def shuffle_per_item(rng, items):
    """Fisher-Yates with one randrange per item."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


@given(st.integers(0, 2000), st.integers(0, 2**66))
@settings(max_examples=60, deadline=None)
def test_shuffle_from_one_block_equals_the_per_item_loop(n, seed):
    # two shuffles in a row, so the second starts from a moved counter
    block, loop = SplitMix64(seed), SplitMix64(seed)
    for shuffles in (1, 2):
        got, want = list(range(n)), list(range(n))
        block.shuffle(got)
        shuffle_per_item(loop, want)
        assert got == want
        assert block.counter == loop.counter == shuffles * max(n - 1, 0)


def stepped_pair(rng, d, eps):
    """One biased step's (choice, r) from two next_float calls, as `walks.step`
    reads them: -1 when coin < eps, else neighbour min(int(r * d), d - 1)."""
    coin, r = rng.next_float(), rng.next_float()
    return (-1 if coin < eps else min(int(r * d), d - 1)), r


def played(monkeypatch, seed, count, size, decode=RAW, dps=1):
    """What `walks._play` serves one trial on `seed`'s stream from counter 0,
    with a batch block asked for `size` draws: the first `count` choices
    `_walk` reads, its queue of r's (None for srw) and the size of every
    block drawn."""
    seen, sizes = [], []
    block = walks.splitmix_block

    def walk(adj, choices, rs, *state):
        seen.append((list(islice(choices, count)), rs))
        return 0, 0, 0

    monkeypatch.setattr(walks, "_walk", walk)
    monkeypatch.setattr(walks, "splitmix_block", lambda seeds, at, m: sizes.append(m) or block(seeds, at, m))
    walks._play([], decode, dps, stream_seeds(seed, np.array([0])), [0], size, [(0, 0, None, 1, 0, None)])
    (choices, rs), = seen
    return choices, rs, sizes


def assert_pairs_match(monkeypatch, seed, count):
    """`count` choices of a 3-regular walk at eps 0.25, decoded by
    `_decode_pairs` from `splitmix_block` blocks as `walks._play` serves
    them, equal `stepped_pair`'s, and the queue, popped at each biased step
    as the walk loop pops it, gives those steps' r's."""
    direct = SplitMix64(seed)
    want = [stepped_pair(direct, 3, 0.25) for _ in range(count)]
    got, rs, _ = played(monkeypatch, seed, count, 0, lambda z: _decode_pairs(z, 3, 0.25), 2)
    assert all(type(c) is int for c in got)
    assert got == [c for c, _ in want]
    queued = [rs.popleft() for c in got if c < 0]
    assert all(type(r) is float for r in queued)
    assert queued == [r for c, r in want if c < 0]


def test_draws_match_direct(monkeypatch):
    direct = SplitMix64(4096)
    assert played(monkeypatch, 4096, 100, 0)[0] == [direct.next_u64() for _ in range(100)]
    assert_pairs_match(monkeypatch, 8192, 100)
    # 20500 draws cross every doubling of the block up to MAX_BLOCK and
    # refill at the cap at least once
    count = 20_500
    direct3 = SplitMix64(-77)
    assert played(monkeypatch, -77, count, 0)[0] == [direct3.next_u64() for _ in range(count)]
    assert_pairs_match(monkeypatch, 2**64 + 5, count // 2)


@pytest.mark.parametrize("decode, per_item", [(RAW, 1), (lambda z: _decode_pairs(z, 3, 0.25), 2)],
                         ids=["draws", "pair_draws"])
def test_draws_grow_blocks_up_to_the_cap(monkeypatch, decode, per_item):
    # a one-step run generates MIN_BLOCK = 64 draws, not MAX_BLOCK; a long
    # one goes on from blocks of its own that start at that size and double
    assert (MIN_BLOCK, MAX_BLOCK) == (64, 8192)
    assert played(monkeypatch, 3, 1, 0, decode, per_item)[2] == [64]
    sizes = [64, 64, 128, 256, 512, 1024, 2048, 4096, MAX_BLOCK, MAX_BLOCK, MAX_BLOCK]
    assert played(monkeypatch, 3, sum(sizes) // per_item, 0, decode, per_item)[2] == sizes


@pytest.mark.parametrize(
    "first, sizes",
    [
        (0, [64, 64, 128, 256]),
        (63, [64, 64, 128, 256]),
        (100, [100, 100, 200, 400, 800, 1600, 3200, 6400, MAX_BLOCK, MAX_BLOCK]),
        (5000, [5000, 5000, MAX_BLOCK, MAX_BLOCK]),
        (MAX_BLOCK, [MAX_BLOCK, MAX_BLOCK, MAX_BLOCK]),
        (10**6, [MAX_BLOCK, MAX_BLOCK, MAX_BLOCK]),
    ],
)
def test_blocks_start_at_the_first_size_clipped_to_the_bounds(monkeypatch, first, sizes):
    # the batch block holds `first` draws clipped to [MIN_BLOCK, MAX_BLOCK],
    # and the trial's own blocks start at that size
    got, _, drawn = played(monkeypatch, 11, sum(sizes), first)
    assert drawn == sizes
    direct = SplitMix64(11)
    assert got == [direct.next_u64() for _ in range(sum(sizes))]


# a graph for each srw table span, the lcm of its degrees: 1, 2, 2 and 3,
# and 7 down to 1; for span None the last one again, with a padded table
# too wide for _LOCKSTEP_CELLS, so its rows are read modulo each degree
SPAN_GRAPHS = {1: generate("complete", n=2), 2: generate("cycle", n=5),
               6: build_graph([(v, (v + 1) % 10) for v in range(10)] + [(0, 5), (2, 7)], 10),
               420: build_graph([(0, v) for v in range(1, 8)] + [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)], 8)}
SPAN_GRAPHS[None] = SPAN_GRAPHS[420]


@pytest.mark.parametrize("span", [None, 1, 2, 6, 420])
def test_draws_modulo_a_span_are_the_draws_modulo_the_span(monkeypatch, span):
    # an srw trial's choices are its draws mod the span of its table, or
    # the draws themselves for a table read modulo each degree
    g = SPAN_GRAPHS[span]
    if span is None:
        monkeypatch.setattr(walks, "_LOCKSTEP_CELLS", 8 * 420 - 1)
    assert walks._srw_table(g)[1] == span
    seen = []
    monkeypatch.setattr(walks, "_walk", lambda adj, choices, *state: seen.append(list(islice(choices, 1000))) or (0, 0, 0))
    walks._cover_trials(g, WalkSpec(kind="srw"), stream_seeds(-9, np.array([0])), 0, [0])
    direct = SplitMix64(-9)
    want = [direct.next_u64() for _ in range(1000)]
    assert seen == [[u if span is None else u % span for u in want]]


def test_negative_blocks_do_not_rewind_the_stream():
    r = SplitMix64(9)
    r.next_u64()
    r.next_u64()
    with pytest.raises(ValueError, match="m >= 0"):
        r.block_u64(-1)
    assert r.counter == 2
    assert r.next_u64() == SplitMix64(9).block_u64(3)[2]
    assert r.block_u64(0).shape == (0,) and r.counter == 3
    with pytest.raises(ValueError, match="m >= 0"):
        splitmix_block(np.array([1, 2], dtype=np.uint64), 5, -1)


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


@given(
    st.integers(min_value=0, max_value=40).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=MASK64),
                    st.integers(min_value=0, max_value=10_000)
                    | st.integers(min_value=MASK64 - m - 3, max_value=MASK64 - max(m - 1, 0)),
                ),
                min_size=1,
                max_size=6,
            ),
        )
    )
)
@settings(max_examples=60)
def test_splitmix_block_with_a_counter_per_stream_continues_each_stream(case):
    # row i is stream i's own block_u64(m) from counters[i], m = 0 included,
    # up to a counter m short of 2^64: draw k = 2^64 wraps to 0 in uint64,
    # as next_u64's mask wraps it
    m, streams = case
    seeds, counters = (np.array(col, dtype=np.uint64) for col in zip(*streams))
    block = splitmix_block(seeds, counters, m)
    assert block.shape == (len(streams), m) and block.dtype == np.uint64
    for row, (seed, counter) in zip(block, streams):
        stream = SplitMix64(seed)
        stream.counter = counter
        assert row.tolist() == stream.block_u64(m).tolist()
        stream.counter = counter
        assert row.tolist() == [stream.next_u64() for _ in range(m)]


@given(
    st.integers(min_value=0, max_value=MASK64),
    st.integers(min_value=2**64 - 50, max_value=2**64 + 50) | st.integers(min_value=2**64, max_value=2**70),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60)
def test_splitmix_block_takes_counters_of_any_size(seed, counter, m):
    # output k depends on k mod 2^64 only, so a counter near or past 2^64,
    # one for every stream or one per stream, continues next_u64's stream
    stream = SplitMix64(seed)
    stream.counter = counter
    want = [stream.next_u64() for _ in range(m)]
    seeds = np.array([seed, seed], dtype=np.uint64)
    assert splitmix_block(seeds, counter, m).tolist() == [want, want]
    assert splitmix_block(seeds, [counter, counter % 2**64], m).tolist() == [want, want]
    rng = SplitMix64(seed)
    rng.counter = counter
    assert rng.block_u64(m).tolist() == want and rng.counter == counter + m


def test_state_is_serializable_by_value():
    r = SplitMix64(10)
    r.next_u64()
    clone = SplitMix64(r.seed)
    clone.counter = r.counter
    assert clone.next_u64() == r.next_u64()
