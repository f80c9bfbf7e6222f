from fractions import Fraction

import pytest

from permac.macdonald import macdonald_P_p
from permac.partitions import z_qt
from permac.point import MAX_POINTS, memo

POINTS = [(Fraction(1, k + 2), Fraction(2, k + 5)) for k in range(MAX_POINTS + 1)]


def test_the_least_recently_used_point_is_dropped_whole(fresh_memos):
    for k, (q, t) in enumerate(POINTS):
        memo(q, t, "a")[k] = "a"
        memo(q, t, "b")[k] = "b"
    # the newest MAX_POINTS points keep both memos, newest first so that no
    # probe evicts another
    for k, (q, t) in reversed(list(enumerate(POINTS))[1:]):
        assert memo(q, t, "a") == {k: "a"} and memo(q, t, "b") == {k: "b"}
    q, t = POINTS[0]
    assert memo(q, t, "a") == {} and memo(q, t, "b") == {}


def test_touching_a_point_keeps_it(fresh_memos):
    for k, (q, t) in enumerate(POINTS[:-1]):
        memo(q, t, "a")[k] = "a"
    memo(*POINTS[0], "b")  # any memo of a point marks the point as just used
    memo(*POINTS[-1], "a")
    assert memo(*POINTS[0], "a") == {0: "a"}
    assert memo(*POINTS[1], "a") == {}


def test_values_held_across_eviction_stay_valid(fresh_memos):
    q, t = Fraction(43, 97), Fraction(59, 89)
    lam = (2, 1)
    held = macdonald_P_p(lam, q, t)
    snapshot = dict(held)
    table = memo(q, t, "a")
    for q2, t2 in POINTS[:MAX_POINTS]:
        z_qt(lam, q2, t2)
    assert held == snapshot
    # the point was dropped: the value is built again, equal to the one held
    fresh = macdonald_P_p(lam, q, t)
    assert fresh is not held and fresh == held
    # a write into a dict of an evicted point is lost, not an error
    table["x"] = 1
    assert memo(q, t, "a") == {}


def test_a_float_point_is_refused_and_leaves_the_exact_memo_clean(fresh_memos):
    lam, q, t = (2, 1), Fraction(1, 2), Fraction(1, 4)
    with pytest.raises(TypeError):
        z_qt(lam, 0.5, 0.25)
    z = z_qt(lam, q, t)
    assert type(z) is Fraction
    assert z == 2 * (1 - q**2) / (1 - t**2) * (1 - q) / (1 - t)
    assert all(type(c) is Fraction for c in macdonald_P_p(lam, q, t).values())


def test_an_int_point_shares_the_memo_of_the_equal_fraction(fresh_memos):
    assert memo(1, 0, "a") is memo(Fraction(1), Fraction(0), "a")


def test_an_int_point_puts_only_exact_values_in_the_memo(fresh_memos):
    # an int q or t reaches the memoised function as a Fraction, so the
    # values that the equal Fraction point then reads are exact
    from permac.macdonald import observable
    from permac.point import qt_ratio

    assert type(qt_ratio(1, 2, 3)) is Fraction
    assert type(observable("E", 1, (1,), Fraction(1, 3), 2)) is Fraction
    assert observable("E", 1, (1,), Fraction(1, 3), Fraction(2)) == Fraction(4, 3)
