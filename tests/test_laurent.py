import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permac.laurent import (
    LaurentPoly,
    cauchy_sym_prefactor,
    laurent_exp,
    laurent_log,
    _elimination_order,
    product_coefficient,
    ratio_sym_factor,
)
from permac.scalars import QRho
from permac.series import SeriesRing, TruncSeries

from oracles import plain_laurent_product

Q0, T0 = Fraction(1, 3), Fraction(1, 5)


def test_constant_term_examples():
    ring = SeriesRing(["u"], 4)
    z = ("z1", "z2")
    p = LaurentPoly.constant(z, ring.scalar(Fraction(3))) \
        + LaurentPoly.monomial(z, ring, Fraction(2), {"z1": 1})
    assert p.coeff((0, 0)) == ring.scalar(Fraction(3))
    assert LaurentPoly.monomial(z, ring, Fraction(1),
                                {"z1": 1, "z2": -1}).coeff((0, 0)) == ring.zero()
    a = LaurentPoly.constant(z, ring.one()) \
        + LaurentPoly.monomial(z, ring, Fraction(1), {"z1": 1}) * ring.gen("u")
    b = LaurentPoly.constant(z, ring.one()) \
        + LaurentPoly.monomial(z, ring, Fraction(1), {"z1": -1}) * ring.gen("u")
    prod = a * b
    assert prod.coeff((0, 0)) == ring.one() + ring.monomial(Fraction(1), u=2)


def test_exp_log_roundtrip():
    ring = SeriesRing(["u"], 4)
    z = ("z",)
    arg = LaurentPoly.monomial(z, ring, Fraction(2), {"z": 1}) * ring.gen("u") \
        + LaurentPoly.monomial(z, ring, Fraction(-1), {"z": -1}) * ring.gen("u")
    e = laurent_exp(arg, clip=6)
    back = laurent_log(e, clip=6)
    assert back == arg


def symmetric_test_function(z, ring):
    one = LaurentPoly.constant(z, ring.one())
    up = one + LaurentPoly.monomial(z, ring, Fraction(3), {"z1": 1}) \
        + LaurentPoly.monomial(z, ring, Fraction(3), {"z2": 1}) \
        + LaurentPoly.monomial(z, ring, Fraction(5), {"z1": 1, "z2": 1})
    dn = one + LaurentPoly.monomial(z, ring, Fraction(2), {"z1": -1}) \
        + LaurentPoly.monomial(z, ring, Fraction(2), {"z2": -1}) \
        + LaurentPoly.monomial(z, ring, Fraction(7), {"z1": -1, "z2": -1})
    return up * dn


@pytest.mark.parametrize("c", [Fraction(1, 5) ** -1, Fraction(1, 3),
                               Fraction(5, 2)])
def test_symmetrized_determinant_matches_minor_expansion_r2(c):
    """The product form replacing det(1/(z_i - c z_j)) is validated against
    a literal 2x2 minor expansion.  Diagonal entries carry the regularized
    geometric value 1/((1-c) z_i); the off-diagonal pair expands in the
    stated opposite directions, and the paired sums over equal powers resum
    to closed form per monomial: coefficient c^(2 k0 - b - 1)/(1 - c^2) at
    z1^a z2^b with a + b = -2, k0 = max(0, b + 1)."""
    ring = SeriesRing([], 0)
    z = ("z1", "z2")
    F = symmetric_test_function(z, ring)

    offdiag_pair = LaurentPoly(z, ring, {
        (a, -2 - a): ring.scalar(
            c ** (2 * max(0, (-2 - a) + 1) - (-2 - a) - 1) / (1 - c * c))
        for a in range(-4, 3)})
    diag = LaurentPoly.monomial(z, ring, 1 / (1 - c), {"z1": -1}) \
        * LaurentPoly.monomial(z, ring, 1 / (1 - c), {"z2": -1})
    det = diag - offdiag_pair
    lhs = (det * F).coeff((-1, -1)).constant_term() / 2

    pref = cauchy_sym_prefactor(c, 2)
    ratio = ratio_sym_factor(z, ring, 0, 1, c, 10)
    rhs = (ratio * F).coeff((0, 0)).constant_term() * pref
    assert lhs == rhs


def test_product_coefficient_prunes_correctly():
    ring = SeriesRing(["u"], 3)
    z = ("z1", "z2")
    f1 = ratio_sym_factor(z, ring, 0, 1, Fraction(1, 2), 6)
    f2 = symmetric_test_function(z, ring)
    direct = plain_laurent_product(f1, f2).coeff((0, 0))
    pruned = product_coefficient([f1, f2], (0, 0))
    assert direct == pruned


@given(terms=st.dictionaries(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.fractions(max_denominator=5).filter(bool), max_size=12),
    w=st.integers(0, 6))
def test_window_keeps_exactly_the_terms_inside(terms, w):
    ring = SeriesRing(["u"], 2)
    lp = LaurentPoly(("x", "y"), ring,
                     {e: ring.scalar(c) for e, c in terms.items()})
    kept = lp.window(w)
    assert kept.zvars == lp.zvars
    for e, c in lp.terms.items():
        inside = -w <= e[0] <= w and -w <= e[1] <= w
        assert kept.terms.get(e) == (c if inside else None)
    assert set(kept.terms) <= set(lp.terms)


PLAN_RING = SeriesRing(["u"], 2)


@st.composite
def factor_lists(draw):
    """1-5 small factors over 2-3 z-variables, each using a random subset of
    them: the empty subset gives z-free factors, and a factor may have no
    terms at all."""
    zn = draw(st.integers(2, 3))
    zvars = tuple(f"z{i}" for i in range(zn))
    factors = []
    for _ in range(draw(st.integers(1, 5))):
        used = draw(st.sets(st.integers(0, zn - 1), max_size=zn))
        exps = st.tuples(*[st.integers(-2, 2) if i in used else st.just(0)
                           for i in range(zn)])
        coeffs = st.builds(
            lambda c, k: PLAN_RING.monomial(c, u=k),
            st.fractions(-3, 3, max_denominator=3).filter(bool),
            st.integers(0, 2))
        terms = draw(st.dictionaries(exps, coeffs, max_size=3))
        factors.append(LaurentPoly(zvars, PLAN_RING, terms))
    return factors


@settings(max_examples=60, deadline=None)
@given(factors=factor_lists(), data=st.data())
def test_product_coefficient_equals_unpruned_product(factors, data):
    plain = functools.reduce(plain_laurent_product, factors)
    zn = len(factors[0].zvars)
    target = data.draw(st.one_of(st.sampled_from(sorted(plain.terms) or [(0,) * zn]),
                                 st.tuples(*[st.integers(-3, 3)] * zn)))
    for perm in itertools.permutations(factors):
        assert product_coefficient(list(perm), target) == plain.coeff(target)


@st.composite
def graded_factor_lists(draw):
    """2-4 factors over 2-3 z-variables with z-exponents up to +-3 and series
    coefficients in two symbols of degrees 1 and 2 at cutoff 3 or 4."""
    ring = SeriesRing([("u", 1), ("v", 2)], draw(st.integers(3, 4)))
    zn = draw(st.integers(2, 3))
    zvars = tuple(f"z{i}" for i in range(zn))
    scalars = st.fractions(-2, 2, max_denominator=3).filter(bool)
    sexps = st.tuples(st.integers(0, 3), st.integers(0, 2)) \
        .filter(lambda e: ring.degree_of(e) <= ring.cutoff)
    coeffs = st.dictionaries(sexps, scalars, min_size=1, max_size=3) \
        .map(lambda terms: TruncSeries(ring, terms))
    factors = []
    for _ in range(draw(st.integers(2, 4))):
        used = draw(st.sets(st.integers(0, zn - 1), max_size=zn))
        zexps = st.tuples(*[st.integers(-3, 3) if i in used else st.just(0)
                            for i in range(zn)])
        factors.append(LaurentPoly(zvars, ring, draw(st.dictionaries(
            zexps, coeffs, max_size=4))))
    return factors


@settings(max_examples=40, deadline=None)
@given(factors=graded_factor_lists(), data=st.data())
def test_product_coefficient_graded_equals_unpruned_product(factors, data):
    plain = functools.reduce(plain_laurent_product, factors)
    zn = len(factors[0].zvars)
    target = data.draw(st.one_of(st.sampled_from(sorted(plain.terms) or [(0,) * zn]),
                                 st.tuples(*[st.integers(-4, 4)] * zn)))
    perms = list(itertools.permutations(factors))
    for perm in data.draw(st.lists(st.sampled_from(perms), min_size=1, max_size=3)):
        assert product_coefficient(list(perm), target) == plain.coeff(target)


def windowed_power_sum(arg, clip, weights, unit):
    """[1 +] sum_k weights[k] arg^k by the plain product, cut to the window."""
    one = LaurentPoly.constant(arg.zvars, arg.ring.one())
    out = one if unit else LaurentPoly(arg.zvars, arg.ring, {})
    power = one
    for w in weights:
        power = plain_laurent_product(power, arg).window(clip)
        out = out + power.scale(w)
    return out


@st.composite
def laurent_pairs(draw):
    """Two Laurent polynomials over 2-3 z-variables with exponents in
    [-3, 3] and coefficients in two symbols of degrees 1 and 2; either may
    be empty or have one term, and the second is often the first with some
    signs flipped, so sums cancel to zero."""
    ring = SeriesRing([("u", 1), ("v", 2)], draw(st.integers(0, 4)))
    zvars = tuple(f"z{i}" for i in range(draw(st.integers(2, 3))))
    scalars = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3)) \
        .filter(bool)
    sexps = st.tuples(st.integers(0, 3), st.integers(0, 2))
    coeffs = st.dictionaries(sexps, scalars, min_size=1, max_size=3) \
        .map(lambda terms: TruncSeries(ring, terms))
    zexps = st.tuples(*[st.integers(-3, 3)] * len(zvars))
    a, b = [LaurentPoly(zvars, ring, {e: c for e, c in draw(
        st.dictionaries(zexps, coeffs, max_size=5)).items() if c}) for _ in range(2)]
    if draw(st.booleans()):
        b = LaurentPoly(zvars, ring, {e: c * draw(st.sampled_from([1, -1]))
                                      for e, c in a.terms.items()})
    return a, b


@settings(max_examples=80, deadline=None)
@given(pair=laurent_pairs())
def test_laurent_product_equals_plain_product(pair):
    a, b = pair
    prod = a * b
    assert prod == plain_laurent_product(a, b)
    assert all(prod.terms.values())


@st.composite
def exp_arguments(draw):
    """Small arguments with no constant term.  A term of series degree 0
    has nonnegative, nonzero z-exponents, so windowed powers die out."""
    ring = SeriesRing([("u", 1), ("v", 2)], 3)
    zvars = ("x", "y")
    scalars = st.fractions(-2, 2, max_denominator=3).filter(bool)
    sexps = st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1)])
    terms = {}
    for ze in draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                            min_size=1, max_size=3, unique=True)):
        graded = min(ze) < 0 or ze == (0, 0)
        se = draw(sexps) if graded else draw(st.sampled_from([(0, 0), (1, 0)]))
        terms[ze] = ring.monomial(draw(scalars), u=se[0], v=se[1])
    return LaurentPoly(zvars, ring, terms)


@settings(max_examples=30, deadline=None)
@given(arg=exp_arguments(), clip=st.integers(1, 2))
def test_laurent_exp_log_equal_plain_windowed_power_sums(arg, clip):
    """The flat kernel's exp and log against the term-by-term products."""
    nmax = (arg.ring.cutoff + 1) * (2 * clip + 1) * 2
    fact = [Fraction(1)]
    for k in range(1, nmax + 1):
        fact.append(fact[-1] * k)
    ex = laurent_exp(arg, clip)
    assert ex == windowed_power_sum(arg, clip, [1 / fact[k] for k in range(1, nmax + 1)], True)
    one = LaurentPoly.constant(arg.zvars, arg.ring.one())
    lg = laurent_log(one + arg, clip)
    assert lg == windowed_power_sum(
        arg, clip, [Fraction((-1) ** (k + 1), k) for k in range(1, nmax + 1)], False)


def test_monomial_rejects_an_inexact_coefficient():
    ring = SeriesRing(["u"], 2)
    with pytest.raises(TypeError):
        LaurentPoly.monomial(("z",), ring, 0.5, {"z": 1})


@pytest.mark.parametrize("c", [QRho(1, 1, Fraction(2, 3)), QRho(2, 0, Fraction(2, 3))])
def test_kernel_rejects_a_qrho_coefficient(c):
    """The constant-term kernel takes rational coefficients only, so a QRho
    (even one with no rho part) cannot reach a moment or a Fock image.
    The ring's constructors already refuse it; a series built around them
    meets the kernel's own check."""
    ring = SeriesRing(["u"], 2)
    with pytest.raises(TypeError):
        ring.monomial(c, u=1)
    z = ("z1", "z2")
    one = LaurentPoly.constant(z, ring.one())
    lp = LaurentPoly.monomial(z, ring, TruncSeries(ring, {(1,): c}), {"z1": 1, "z2": -1})
    with pytest.raises(TypeError):
        product_coefficient([one, lp], (1, -1))
    with pytest.raises(TypeError):
        laurent_exp(lp, 2)
    with pytest.raises(TypeError):
        laurent_log(one + lp, 2)


@pytest.mark.parametrize("c", [0.5, QRho(1, 1, Fraction(2, 3))])
def test_multi_term_product_rejects_an_inexact_coefficient(c):
    """A float or QRho cannot be a scalar factor of a series, nor a
    coefficient in a product of two multi-term series or Laurent
    polynomials: the kernel takes rationals only."""
    ring = SeriesRing(["u"], 3)
    bad = TruncSeries(ring, {(0,): Fraction(1), (1,): c})
    good = ring.one() + ring.gen("u")
    with pytest.raises(TypeError):
        good * c
    with pytest.raises(TypeError):
        bad * good
    with pytest.raises(TypeError):
        good * bad
    z = ("z1", "z2")
    lp = LaurentPoly(z, ring, {(1, 0): bad, (0, 0): good})
    with pytest.raises(TypeError):
        lp * LaurentPoly(z, ring, {(0, 1): good, (0, 0): good})


def test_elimination_order_takes_z_free_factors_first():
    # z-free first; then more z-variables before fewer, fewer terms before
    # more, and the lower index on a tie
    ring = SeriesRing(["u"], 2)
    z = ("z1", "z2")
    pair = ratio_sym_factor(z, ring, 0, 1, Fraction(1, 2), 3)
    long_pair = ratio_sym_factor(z, ring, 0, 1, Fraction(1, 2), 5)
    z1 = LaurentPoly.monomial(z, ring, 2, {"z1": 1}) \
        + LaurentPoly.constant(z, ring.one())
    scalar = LaurentPoly.constant(z, ring.gen("u") + 1)
    assert _elimination_order([pair, z1, scalar, pair]) == [2, 0, 3, 1]
    assert _elimination_order([z1, long_pair, pair, scalar]) == [3, 2, 1, 0]


def test_products_by_the_unit_still_truncate():
    # a product by the unit series, or by a unit coefficient, is skipped,
    # but its result stays truncated as the plain product's is
    ring = SeriesRing(["u"], 1)
    z = ("z1", "z2")
    wide = TruncSeries(ring, {(0,): Fraction(1), (3,): Fraction(2)})
    a = LaurentPoly(z, ring, {(1, 0): wide, (0, 1): ring.one()})
    one = LaurentPoly.constant(z, ring.one())
    shift = LaurentPoly.monomial(z, ring, 1, {"z1": -1})
    wide_shift = LaurentPoly(z, ring, {(0, -1): wide})
    for b in (one, shift, wide_shift, a):
        assert a * b == plain_laurent_product(a, b)
        assert b * a == plain_laurent_product(b, a)
    assert a.scale(ring.one()) == plain_laurent_product(a, one)
    assert a.scale(wide) == plain_laurent_product(a, LaurentPoly.constant(z, wide))
    assert a.scale(1) == a
