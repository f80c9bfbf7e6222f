"""Charged Fock space: charge bookkeeping, fermion fields, Schur limit."""

from fractions import Fraction

import pytest

from permac.fock import (
    extended_E_apply,
    fermion_apply,
    fermion_bilinear_apply,
    two_point_fermion_trace,
)
from permac.laurent import LaurentPoly
from permac.partitions import partitions_up_to
from permac.series import SeriesRing

T0 = Fraction(1, 2)


def test_fermion_field_shifts_charge_down():
    ring = SeriesRing([("v", 1)], 4)
    zvars = ("x", "y")
    start = {((), 0): LaurentPoly.constant(zvars, ring.one())}
    out = fermion_apply(False, "x", start, ring, zvars, T0, T0, grade_cap=3)
    assert out
    assert all(n == -1 for (_, n) in out)
    out2 = fermion_apply(True, "y", start, ring, zvars, T0, T0, grade_cap=3)
    assert all(n == 1 for (_, n) in out2)


def test_fermion_fields_require_schur_point():
    ring = SeriesRing([("v", 1)], 2)
    zvars = ("x",)
    start = {((), 0): LaurentPoly.constant(zvars, ring.one())}
    with pytest.raises(ValueError):
        fermion_apply(False, "x", start, ring, zvars, Fraction(1, 3), T0, 2)


@pytest.mark.parametrize("zeta, t, window", [
    (Fraction(2, 5), T0, 3),
    (Fraction(2, 5), T0, 2),
    (Fraction(-3, 2), Fraction(2, 3), 2),
])
def test_two_point_trace_matches_closed_form(zeta, t, window):
    out = two_point_fermion_trace(v_cutoff=6, window=window, zeta=zeta, t=t)
    assert out["match"], (out["brute"].terms, out["closed"].terms)


def test_extended_operator_equals_fermion_bilinear_at_schur_point():
    # matrix elements over grades <= 3 and charges |n| <= 2, r = 1
    t = Fraction(3, 7)
    ring = SeriesRing([], 0)
    for n in (-2, -1, 0, 1, 2):
        for lam in partitions_up_to(3):
            start = {(lam, n): Fraction(1)}
            via_extended = extended_E_apply(1, start, t, t)
            via_fermions = fermion_bilinear_apply(start, t, ring)
            fb = {k: v.constant_term() if hasattr(v, "constant_term") else v
                  for k, v in via_fermions.items()}
            fb = {k: v for k, v in fb.items() if v}
            assert via_extended == fb, (lam, n)
