"""The v1 stream against random.Random itself, key by key.

RuntimeWarning is an error here: the uint32 arithmetic must wrap without an
overflow warning.
"""

import random
import tracemalloc

import pytest

from permac.stream import random_rows

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _random_rows(start, count, draws):
    """The stream as random.Random gives it, one generator per key."""
    rows = []
    for key in range(start, start + count):
        rng = random.Random(key)
        rows.append([rng.random() for _ in range(draws)])
    return rows


# past 113 draws the words read leave the first twist's in-place window of
# 227 words; past 312 they need a second twist
@pytest.mark.parametrize("draws", [1, 2, 113, 114, 312, 313])
def test_random_rows_equal_random_around_zero(draws):
    # Python seeds with |key|: keys -5..5 repeat 5..1 and cross 0 and 1
    got = random_rows(-5, 11, draws)
    assert got.shape == (11, draws)
    assert got.tolist() == _random_rows(-5, 11, draws)


@pytest.mark.parametrize("start", [2**32 - 4, 2**64 - 4, -(2**64) - 3, 2**97 + 12345,
                                   41 * 1_000_003],
                         ids=["crosses-2^32", "crosses-2^64", "crosses-minus-2^64",
                              "above-2^96", "sampler-key"])
def test_random_rows_equal_random_across_word_counts(start):
    # the first three blocks cross a change of the key's word count
    assert random_rows(start, 8, 3).tolist() == _random_rows(start, 8, 3)


def test_random_rows_refuse_keys_of_more_than_624_words():
    # init_by_array reads at most 624 key words
    with pytest.raises(ValueError, match="stream keys"):
        random_rows(1 << 32 * 624, 1, 1)


@pytest.mark.parametrize("keys, draws, most", [(10_922, 3, 128), (32_768, 1, 56)],
                         ids=["three-time-block", "one-time-block"])
def test_random_rows_peak_bytes_per_key(keys, draws, most):
    # the stream blocks of a three-time and a one-time sampler call: the
    # traced peak, result included, stays within ``most`` bytes per key
    random_rows(41 * 1_000_003, 8, draws)
    tracemalloc.start()
    try:
        xs = random_rows(41 * 1_000_003, keys, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xs.shape == (keys, draws)
    assert peak <= most * keys
