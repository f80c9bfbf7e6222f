"""Charged Fock space: charge bookkeeping, fermion fields, Schur limit."""

from fractions import Fraction

import pytest

from permac import fock
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


@pytest.mark.parametrize("zeta, t, v_cutoff, window", [
    (Fraction(2, 5), T0, 6, 3),
    (Fraction(2, 5), T0, 6, 2),
    (Fraction(-3, 2), Fraction(2, 3), 6, 2),
    # v_cutoff past the window: the closed side's cuts follow both
    (Fraction(2, 3), Fraction(1, 3), 7, 1),
    (Fraction(2, 3), Fraction(1, 3), 8, 1),
    (Fraction(2, 3), Fraction(1, 3), 10, 1),
    (Fraction(2, 3), Fraction(1, 3), 9, 2),
], ids=["w3", "w2", "w2-zeta-3_2", "v7-w1", "v8-w1", "v10-w1", "v9-w2"])
def test_two_point_trace_matches_closed_form(zeta, t, v_cutoff, window):
    out = two_point_fermion_trace(v_cutoff=v_cutoff, window=window, zeta=zeta, t=t)
    assert out["match"], (out["brute"].terms, out["closed"].terms)


@pytest.mark.parametrize("v_cutoff, window", [(6, 2), (5, 2)], ids=["v6-w2", "v5-w2"])
def test_fermion_mode_cut_is_half_the_v_cutoff(monkeypatch, v_cutoff, window):
    # the closed side's modes x^n, y^-n stop at v_cutoff // 2, past which
    # their weight u^n/(1-u^n) = v^2n/(1-v^2n) vanishes: one mode more
    # (1..3) leaves the report as it is, one fewer breaks the match.  The
    # closed side's modes are the z_vertex_spec calls with coefficients
    # (1, 1); the brute side's carry opposite signs.
    spec = fock.z_vertex_spec
    zeta, t = Fraction(2, 3), Fraction(1, 3)

    def shifted(k):
        def call(zvars, ring, zvar, coeffs):
            if set(coeffs.values()) == {(1, 1)}:
                coeffs = {n: (1, 1) for n in range(1, max(coeffs) + k + 1)}
            return spec(zvars, ring, zvar, coeffs)
        return call

    report = two_point_fermion_trace(v_cutoff, window, zeta, t)
    assert report["match"]
    for k in (1, 2, 3):
        monkeypatch.setattr(fock, "z_vertex_spec", shifted(k))
        assert two_point_fermion_trace(v_cutoff, window, zeta, t) == report, k
    monkeypatch.setattr(fock, "z_vertex_spec", shifted(-1))
    assert not two_point_fermion_trace(v_cutoff, window, zeta, t)["match"]


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
