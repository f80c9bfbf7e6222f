"""Integer partitions as plain tuples of weakly decreasing positive parts.

The empty partition is ``()``.  Tuples keep everything hashable, so partitions
serve directly as dictionary keys across the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .point import per_point, qt_ratio


def make_partition(parts) -> tuple:
    """Normalize an iterable of nonnegative integers into a partition tuple."""
    raw = tuple(int(p) for p in parts)
    if any(p < 0 for p in raw):
        raise ValueError(f"negative part in {raw}")
    ps = tuple(p for p in raw if p)
    if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError(f"parts not weakly decreasing: {raw}")
    return ps


def weight(lam: tuple) -> int:
    return sum(lam)


def length(lam: tuple) -> int:
    return len(lam)


def part(lam: tuple, i: int) -> int:
    """The i-th part (1-indexed), zero beyond the length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def multiplicity(lam: tuple, k: int) -> int:
    return sum(1 for p in lam if p == k)


def conjugate(lam: tuple) -> tuple:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def contains(lam: tuple, mu: tuple) -> bool:
    """Containment of Young diagrams: mu subset of lam."""
    return len(mu) <= len(lam) and all(mu[i] <= lam[i] for i in range(len(mu)))


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple:
    """All partitions of weight exactly n, in descending lexicographic order."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def partitions_up_to(n: int) -> list:
    """All partitions of weight <= n, ordered by (weight, reverse-lex)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for k in range(n + 1):
        out.extend(partitions_of(k))
    return out


@lru_cache(maxsize=None)
def partitions_inside(lam: tuple) -> tuple:
    """All partitions whose diagram lies inside lam's, in partitions_up_to order."""
    return tuple(mu for mu in partitions_up_to(weight(lam)) if contains(lam, mu))


def dominance_leq(mu: tuple, lam: tuple) -> bool:
    """True iff mu <= lam in dominance order (false across unequal weights)."""
    if weight(mu) != weight(lam):
        return False
    # past the shorter partition its prefix sums stay at the common weight,
    # which the other's never exceed
    return all(a <= b for a, b in zip(accumulate(mu), accumulate(lam)))


def dominance_key(lam: tuple):
    """Sort key whose lexicographic order refines dominance within a weight."""
    acc, out = 0, []
    for p in lam:
        acc += p
        out.append(acc)
    return tuple(out)


def horizontal_strip(lam: tuple, mu: tuple) -> bool:
    """True iff mu subset lam and lam/mu has at most one cell per column.

    Checked through the interleaving inequalities
    lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...
    """
    if not contains(lam, mu):
        return False
    for i in range(1, len(lam) + 1):
        if part(mu, i) < part(lam, i + 1):
            return False
    return True


def add_one_box(lam: tuple):
    """All partitions covering lam in the Young graph."""
    out = []
    # row i (1-indexed) can grow iff doing so keeps parts weakly decreasing
    for i in range(1, len(lam) + 2):
        if i == 1 or part(lam, i) + 1 <= part(lam, i - 1):
            grown = list(lam) + [0] * max(0, i - len(lam))
            grown[i - 1] += 1
            out.append(make_partition(grown))
    return out


def z_aut(lam: tuple) -> int:
    """Size of the centralizer: prod_i m_i! * i^(m_i)."""
    out = 1
    for k in set(lam):
        m = multiplicity(lam, k)
        f = 1
        for j in range(2, m + 1):
            f *= j
        out *= f * (k ** m)
    return out


@per_point
def z_qt(lam: tuple, q: Fraction, t: Fraction):
    """The (q,t)-deformed z factor used by the power-sum pairing (memoised)."""
    out = Fraction(z_aut(lam))
    for p in lam:
        out *= qt_ratio(p, q, t)
    return out
