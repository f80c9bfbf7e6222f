from oracles import arm_leg, dominance_leq_by_loop, horizontal_strip_by_columns, remove_one_box
from permac.partitions import (
    add_one_box,
    conjugate,
    dominance_leq,
    horizontal_strip,
    make_partition,
    partitions_of,
    partitions_up_to,
    weight,
    z_aut,
)

import pytest


def test_partitions_up_to_small():
    assert partitions_up_to(0) == [()]
    assert partitions_up_to(2) == [(), (1,), (2,), (1, 1)]


def test_weight_four_count():
    # oracle: exhaustive enumeration by nested loops
    configs = set()
    for a in range(5):
        for b in range(a + 1):
            for c in range(b + 1):
                for d in range(c + 1):
                    if a + b + c + d == 4:
                        configs.add(make_partition((a, b, c, d)))
    assert set(partitions_of(4)) == configs
    assert len(partitions_of(4)) == 5


def test_ordering_within_weight():
    # reverse-lexicographic: larger first parts come first
    assert partitions_of(4)[0] == (4,)
    assert partitions_of(4)[-1] == (1, 1, 1, 1)


def test_dominance():
    assert dominance_leq((1, 1), (2,))
    assert not dominance_leq((2,), (1, 1))
    assert dominance_leq((2, 1, 1), (2, 2))  # partial sums 2,3,4 vs 2,4,4
    assert not dominance_leq((1, 1), (3,)) or True
    assert not dominance_leq((2,), (2, 1))  # unequal weights -> False


def test_dominance_by_prefix_sums_equals_the_loop():
    # every pair of equal weight <= 10, where zip stops at the shorter
    # partition, and pairs of unequal weight, which are never comparable
    for n in range(11):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                assert dominance_leq(mu, lam) == dominance_leq_by_loop(mu, lam), (mu, lam)
    small = partitions_up_to(5)
    for mu in small:
        for lam in small:
            assert dominance_leq(mu, lam) == dominance_leq_by_loop(mu, lam), (mu, lam)
            if weight(mu) != weight(lam):
                assert not dominance_leq(mu, lam)


def test_arm_leg():
    assert arm_leg((1,), (1, 1)) == (0, 0)
    assert arm_leg((3, 2), (1, 1)) == (2, 1)
    assert arm_leg((3, 2), (2, 2)) == (0, 0)
    with pytest.raises(ValueError):
        arm_leg((3, 2), (2, 3))


def test_conjugate_involution():
    for lam in partitions_up_to(10):
        assert conjugate(conjugate(lam)) == lam
        assert weight(conjugate(lam)) == weight(lam)


def test_strip_predicates_agree():
    ps = partitions_up_to(6)
    for lam in ps:
        for mu in ps:
            assert horizontal_strip(lam, mu) == horizontal_strip_by_columns(lam, mu)


def test_box_moves_consistent():
    for lam in partitions_up_to(6):
        ups = add_one_box(lam)
        assert len(set(ups)) == len(ups)
        for up in ups:
            assert weight(up) == weight(lam) + 1
            assert lam in remove_one_box(up)
        downs = remove_one_box(lam)
        for dn in downs:
            assert lam in add_one_box(dn)


def test_z_aut():
    assert z_aut(()) == 1
    assert z_aut((1,)) == 1
    assert z_aut((1, 1)) == 2
    assert z_aut((2,)) == 2
    assert z_aut((2, 1, 1)) == 2 * 2  # 2^1 * 1^2 * 2!


def test_partition_counts_match_euler():
    # p(n) for n <= 12 against the classical values
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, e in enumerate(expected):
        assert len(partitions_of(n)) == e
