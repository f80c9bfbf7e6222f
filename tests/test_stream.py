"""The v2 stream against the pure-Python-int SplitMix64 of ``oracles``,
value by value.

RuntimeWarning is an error here: the uint64 arithmetic must wrap without an
overflow warning.
"""

import tracemalloc

import pytest

from oracles import splitmix64, stream_sample
from permac.stream import random_rows

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _random_rows(seed, start, count, draws):
    return [stream_sample(seed, k, draws) for k in range(start, start + count)]


def test_splitmix64_known_answers():
    # the generator's published first outputs; the stream's key is the
    # first, and its values the next ones of the key's generator
    assert splitmix64(0, 1) == [0xE220A8397B1DCDAF]
    assert splitmix64(1234567, 3) == [6457827717110365317, 3203168211198807973,
                                      9817491932198370423]
    assert splitmix64(1234567, 2, 1) == splitmix64(1234567, 3)[1:]
    (key,) = splitmix64(1234567, 1)
    assert random_rows(1234567, 0, 1, 2).tolist() == [
        [(w >> 11) * 2.0 ** -53 for w in splitmix64(key, 2)]]


@pytest.mark.parametrize("seed", [0, 1, 41, 2**32 - 1, 2**63, 2**64 - 1, 2**97 + 12345])
@pytest.mark.parametrize("start, count, draws", [(0, 5, 1), (3, 4, 3), (1000, 2, 7)])
def test_random_rows_equal_the_reference(seed, start, count, draws):
    got = random_rows(seed, start, count, draws)
    assert got.shape == (count, draws)
    assert got.tolist() == _random_rows(seed, start, count, draws)


def test_random_rows_do_not_depend_on_the_block_split():
    whole = random_rows(2026, 0, 1000, 3).tolist()
    assert whole == random_rows(2026, 0, 337, 3).tolist() + random_rows(2026, 337, 663, 3).tolist()
    assert whole[:50] == [row for k in range(50) for row in random_rows(2026, k, 1, 3).tolist()]


def test_random_rows_lie_in_the_unit_interval():
    xs = random_rows(7, 0, 20000, 5)
    assert xs.min() >= 0.0 and xs.max() < 1.0
    assert xs.min() < 1e-3 and xs.max() > 1 - 1e-3


def test_seeds_are_read_mod_2_to_the_64():
    assert random_rows(-1, 0, 9, 2).tolist() == random_rows(2**64 - 1, 0, 9, 2).tolist()
    assert random_rows(-1, 0, 9, 2).tolist() == _random_rows(-1, 0, 9, 2)
    assert random_rows(5 + 2**64, 4, 3, 2).tolist() == random_rows(5, 4, 3, 2).tolist()
    assert random_rows(5, 0, 3, 2).tolist() != random_rows(6, 0, 3, 2).tolist()


@pytest.mark.parametrize("samples, draws", [(10_922, 3), (32_768, 1)],
                         ids=["three-time-block", "one-time-block"])
def test_random_rows_peak_bytes_per_value(samples, draws):
    # the stream blocks of a three-time and a one-time sampler call: the
    # traced peak, result included, stays within 24 bytes per value (the
    # counters, one shifted copy of them, then the doubles)
    random_rows(41, 0, 8, draws)
    tracemalloc.start()
    try:
        xs = random_rows(41, 0, samples, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xs.shape == (samples, draws)
    assert peak <= 24 * samples * draws
