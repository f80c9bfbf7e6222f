"""Ring laws of the exact arithmetic: QRho, TruncSeries and LaurentPoly.

Associativity, commutativity, distributivity and the unit hold exactly; a
QRho over a non-square radicand and a series with an invertible constant
term have an inverse.  Series and Laurent coefficients are Fractions.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permac.laurent import LaurentPoly
from permac.scalars import QRho
from permac.series import SeriesRing, TruncSeries

RADICAND = Fraction(2, 3)  # not the square of a rational
RING = SeriesRing([("u", 1), ("v", 2)], 4)
ZVARS = ("x", "y")

fractions = st.fractions(-3, 3, max_denominator=4)
qrhos = st.builds(lambda a, b: QRho(a, b, RADICAND), fractions, fractions)


@st.composite
def series(draw, ring=RING):
    exps = st.tuples(st.integers(0, ring.cutoff), st.integers(0, ring.cutoff // 2)) \
        .filter(lambda e: ring.degree_of(e) <= ring.cutoff)
    terms = draw(st.dictionaries(exps, fractions, max_size=4))
    return TruncSeries(ring, {e: c for e, c in terms.items() if c})


@st.composite
def laurents(draw):
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    terms = draw(st.dictionaries(exps, series(), max_size=3))
    return LaurentPoly(ZVARS, RING, {e: c for e, c in terms.items() if c})


def ring_laws(a, b, c, one):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * one == a


@given(qrhos, qrhos, qrhos)
def test_qrho_ring_laws_and_inverse(a, b, c):
    ring_laws(a, b, c, QRho(1, 0, RADICAND))
    assume(a)
    assert a * a.inverse() == 1
    assert b / a * a == b


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_series_ring_laws(a, b, c):
    ring_laws(a, b, c, RING.one())


@settings(max_examples=60, deadline=None)
@given(series(), fractions.filter(bool))
def test_series_inverse_with_invertible_constant_term(a, c0):
    a = a - a.constant_term() + c0
    assert a * a.inverse() == RING.one()


@settings(max_examples=40, deadline=None)
@given(laurents(), laurents(), laurents())
def test_laurent_ring_laws(a, b, c):
    ring_laws(a, b, c, LaurentPoly.constant(ZVARS, RING.one()))
