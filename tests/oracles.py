"""Independent predicates and values that several tests check the library against."""

from fractions import Fraction

from permac.macdonald import pieri
from permac.partitions import conjugate, contains, horizontal_strip, make_partition, part


def horizontal_strip_by_columns(lam: tuple, mu: tuple) -> bool:
    """Independent strip predicate via conjugate column counts."""
    if not contains(lam, mu):
        return False
    lc, mc = conjugate(lam), conjugate(mu)
    return all(part(lc, j) - part(mc, j) <= 1 for j in range(1, len(lc) + 1))


def remove_one_box(lam: tuple):
    """All partitions covered by lam in the Young graph."""
    out = []
    for i in range(1, len(lam) + 1):
        if part(lam, i) - 1 >= part(lam, i + 1):
            shrunk = list(lam)
            shrunk[i - 1] -= 1
            out.append(make_partition(shrunk))
    return out


def skew_single_alpha(kind: str, lam: tuple, mu: tuple, q, t) -> Fraction:
    """Coefficient of a^{|lam|-|mu|} in the one-variable skew value.

    P_{lam/mu}(a) = psi * a^d and Q_{lam/mu}(a) = phi * a^d on horizontal
    strips, zero otherwise; an independent oracle for the Fock route.
    """
    if not horizontal_strip(lam, mu):
        return Fraction(0)
    psi, phi = pieri(lam, mu, q, t)
    return psi if kind == "P" else phi
