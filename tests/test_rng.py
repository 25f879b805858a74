"""Block draws and the shuffle against scalar splitmix64 draws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcpart.rng import _LANES, SplitMix64, _lane_constants

COUNTS = (0, 1, 2, 63, 64, 65, 2047, 2048, 2049, 5000)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 0x0123456789ABCDEF])
def test_draws_equal_scalar_draws(seed, count):
    rng, scalar = SplitMix64(seed), SplitMix64(seed)
    assert rng.draws(count) == [scalar.next_u64() for _ in range(count)]
    assert rng.state == scalar.state


OPS = st.one_of(
    st.tuples(st.just("draws"), st.sampled_from(COUNTS) | st.integers(0, 300)),
    st.tuples(st.just("next_u64"), st.integers(1, 3)),
)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), ops=st.lists(OPS, max_size=6))
def test_draws_interleave_with_the_other_draws(seed, ops):
    """Each call leaves the state where as many `next_u64` calls would, so
    the calls after it read the same values."""
    rng, scalar = SplitMix64(seed), SplitMix64(seed)
    for op, arg in ops:
        if op == "draws":
            assert rng.draws(arg) == [scalar.next_u64() for _ in range(arg)]
        else:
            assert [rng.next_u64() for _ in range(arg)] == [scalar.next_u64() for _ in range(arg)]
        assert rng.state == scalar.state


def test_draws_cache_only_power_of_two_blocks():
    # a block of n draws takes the lanes of the next power of two, so at
    # most one set of lane constants per power of two up to _LANES is built
    rng = SplitMix64(3)
    for count in [*range(1, 300), 3 * _LANES + 5]:
        rng.draws(count)
    assert _lane_constants.cache_info().currsize <= _LANES.bit_length()


def _reference_shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", range(20))
def test_shuffle_matches_scalar_fisher_yates(seed):
    rng, scalar = SplitMix64(seed), SplitMix64(seed)
    for length in range(301):
        items, expected = list(range(length)), list(range(length))
        rng.shuffle(items)
        _reference_shuffle(scalar, expected)
        assert items == expected
        assert rng.state == scalar.state
