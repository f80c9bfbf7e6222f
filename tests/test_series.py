import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permac.partitions import partitions_of
from permac.scalars import QRho
from permac.series import (
    SeriesRing,
    TruncSeries,
    geometric,
    linear_combination,
    qpochhammer,
    qpochhammer_finite,
    qpochhammer_log,
    theta3,
    theta_terms,
    zterm_sum,
)

from oracles import (fraction_linear_combination, fraction_power_sum, plain_series_product,
                     zterm_sum_over_one_lcm)


def random_series(ring, rng, nterms=6):
    out = ring.zero()
    for _ in range(nterms):
        exp = {}
        budget = rng.randint(0, ring.cutoff)
        for name in ring.symbols:
            k = rng.randint(0, budget)
            budget -= k
            if k:
                exp[name] = k
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        out = out + ring.monomial(c, **exp)
    return out


def test_ring_laws():
    rng = random.Random(20240811)
    for cutoff in (3, 5, 8):
        ring = SeriesRing(["x", "y"], cutoff)
        for _ in range(12):
            a, b, c = (random_series(ring, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


def test_exp_log_inverse_roundtrip():
    rng = random.Random(7)
    for cutoff in range(1, 9):
        ring = SeriesRing(["x", "y"], cutoff)
        f = random_series(ring, rng) - 0  # arbitrary
        f = f - ring.scalar(f.constant_term())  # kill constant term
        assert (ring.one() + f).log().exp() == ring.one() + f
        assert f.exp().log() == f
        g = ring.one() + f
        assert g * g.inverse() == ring.one()


def test_truncation_consistency():
    # multiplying then truncating lower agrees with computing at the low cutoff
    rng = random.Random(99)
    hi = SeriesRing(["x"], 8)
    lo = SeriesRing(["x"], 4)
    for _ in range(8):
        a = random_series(hi, rng)
        b = random_series(hi, rng)
        al = TruncSeries(lo, {e: c for e, c in a.terms.items() if lo.degree_of(e) <= 4})
        bl = TruncSeries(lo, {e: c for e, c in b.terms.items() if lo.degree_of(e) <= 4})
        prod_hi = (a * b).truncate(4)
        prod_lo = al * bl
        assert {e: c for e, c in prod_hi.terms.items()} == prod_lo.terms


def test_pochhammer_single_formal_rational_modulus():
    # (x; q)_inf at q = 1/2: coefficient of x is -1/(1-q) = -2
    ring = SeriesRing(["x"], 2)
    f = qpochhammer(ring, [(ring.gen("x"), [Fraction(1, 2)])], [])
    assert f.coeff() == 1
    assert f.coeff(x=1) == Fraction(-2)


def test_pochhammer_direct_product_oracle():
    # expand prod_{i=0}^{M} (1 - x q^i) literally and compare
    ring = SeriesRing(["x"], 3)
    q = Fraction(1, 3)
    f = qpochhammer(ring, [(ring.gen("x"), [q])], [])
    oracle = ring.one()
    for i in range(40):  # powers beyond the cutoff in x die immediately
        oracle = oracle * (ring.one() - ring.monomial(q**i, x=1))
        if i > 3:
            pass
    # coefficient of x^k involves infinitely many factors; check against the
    # q-binomial theorem instead: coeff x^k = (-1)^k q^(k(k-1)/2) / (q;q)_k
    for k in range(4):
        den = Fraction(1)
        for j in range(1, k + 1):
            den *= 1 - q**j
        expect = Fraction(-1) ** k * q ** (k * (k - 1) // 2) / den
        assert f.coeff(x=k) == expect


def test_euler_function_pentagonal():
    ring = SeriesRing(["u"], 4)
    f = qpochhammer(ring, [(ring.gen("u"), [ring.gen("u")])], [])
    assert [f.coeff(u=k) for k in range(5)] == [1, -1, -1, 0, 0]


def test_pochhammer_zero_argument():
    ring = SeriesRing(["u"], 4)
    assert qpochhammer(ring, [(ring.scalar(Fraction(0)), [ring.gen("u")])], []) == ring.one()


def test_pochhammer_rejects_pure_numeric():
    ring = SeriesRing(["u"], 4)
    with pytest.raises(ValueError):
        qpochhammer(ring, [(Fraction(1, 2), [Fraction(1, 3)])], [])
    with pytest.raises(ValueError):
        qpochhammer(ring, [(Fraction(1, 2), [Fraction(1, 3), ring.gen("u")])], [])
    with pytest.raises(ValueError):
        qpochhammer(ring, [(Fraction(1, 2), [ring.gen("u")])], [])



def test_pochhammer_shift_identity():
    # (a; u)_inf = (1-a) * (au; u)_inf, and (a; u, r)_inf / (au; u, r)_inf
    # = (a; r)_inf, for a formal argument a = x/2 and a rational modulus r
    ring = SeriesRing(["x", "u"], 5)
    u = ring.gen("u")
    a = ring.monomial(Fraction(1, 2), x=1)
    r = Fraction(1, 3)
    assert qpochhammer(ring, [(a, [u])], []) \
        == (ring.one() - a) * qpochhammer(ring, [(a * u, [u])], [])
    lhs = qpochhammer(ring, [(a, [u, r])], [])
    rhs = qpochhammer(ring, [(a * u, [u, r])], []) * qpochhammer(ring, [(a, [r])], [])
    assert lhs == rhs


def _pochhammer_product(ring, a, moduli):
    """(a; p_1..p_n)_inf as a literal product over the formal moduli's
    exponents inside the cutoff, each factor (b; q)_inf of the one rational
    modulus q (if any) by Euler's sum sum_k (-1)^k q^(k(k-1)/2) b^k / (q; q)_k."""
    rational = [m for m in moduli if isinstance(m, Fraction)]
    formal = [m for m in moduli if not isinstance(m, Fraction)]
    assert len(rational) <= 1
    bs, out = [a], ring.one()
    for p in formal:  # every b = a p_1^i_1 ... with a nonzero truncation
        grown = []
        for b in bs:
            while b:
                grown.append(b)
                b = b * p
        bs = grown
    for b in bs:
        if not rational:
            out = out * (ring.one() - b)
            continue
        q, factor, qq = rational[0], ring.zero(), Fraction(1)
        for k in range(ring.cutoff + 1):
            qq *= 1 - q ** k if k else 1
            factor = factor + b ** k * (Fraction(-1) ** k * q ** (k * (k - 1) // 2) / qq)
        out = out * factor
    return out


def test_pochhammer_ratio_is_the_product_of_its_symbols():
    ring = SeriesRing(["x", "u", "y"], 5)
    x, u, y = ring.gen("x"), ring.gen("u"), ring.gen("y")
    half, third = Fraction(1, 2), Fraction(-1, 3)
    symbols = [(x * half, [third]), (x, [u]), (x * y, [u, y]), (x * 3, [Fraction(2, 5), u]),
               (u * x, [u, x, y]), (ring.zero(), [u]), (Fraction(0), [third])]
    cases = [([], []), (symbols[:2], []), ([], symbols[2:4]), (symbols[:4], symbols[4:]),
             ([symbols[1]] * 3, [symbols[3], symbols[1]]), (symbols[2:5], symbols[2:5])]
    for num, den in cases:
        expect = ring.one()
        for a, moduli in num:
            expect = expect * _pochhammer_product(ring, a, moduli)
        for a, moduli in den:
            expect = expect * _pochhammer_product(ring, a, moduli).inverse()
        assert qpochhammer(ring, num, den) == expect
        assert qpochhammer_log(ring, num, den).exp() == expect
    assert qpochhammer(ring, [], []) == ring.one()
    assert qpochhammer(ring, symbols[2:5], symbols[2:5]) == ring.one()
    for bad in ([(half, [u])], [(ring.scalar(half), [third])]):
        with pytest.raises(ValueError):
            qpochhammer(ring, bad, [])
        with pytest.raises(ValueError):
            qpochhammer(ring, [], symbols[:1] + bad)
    for unit in (Fraction(1), Fraction(-1)):  # (-1)^2 = 1 at k = 2
        with pytest.raises(ZeroDivisionError):
            qpochhammer(ring, [(x, [unit])], [])
        with pytest.raises(ZeroDivisionError):
            qpochhammer(ring, [], [(x, [u, unit])])

def test_euler_identity():
    # (a;q)_inf * sum_k a^k / (q;q)_k = 1 for formal a, rational q
    for q in (Fraction(1, 2), Fraction(2, 5)):
        for cutoff in (3, 6):
            ring = SeriesRing(["a"], cutoff)
            lhs = qpochhammer(ring, [(ring.gen("a"), [q])], [])
            s = ring.zero()
            for k in range(cutoff + 1):
                den = Fraction(1)
                for j in range(1, k + 1):
                    den *= 1 - q**j
                s = s + ring.monomial(Fraction(1) / den, a=k)
            assert lhs * s == ring.one()


def test_partition_counting_generating_function():
    ring = SeriesRing(["u"], 12)
    f = qpochhammer(ring, [], [(ring.gen("u"), [ring.gen("u")])])
    for n in range(13):
        assert f.coeff(u=n) == len(partitions_of(n))


def test_theta3_small():
    ring = SeriesRing(["v"], 2)
    zeta = Fraction(3, 7)
    th = theta3(ring, "v", zeta)
    assert th.coeff() == 1
    assert th.coeff(v=1) == zeta + 1 / zeta
    assert th.coeff(v=2) == 0

    ring6 = SeriesRing(["v"], 6)
    th1 = theta3(ring6, "v", Fraction(1))
    # 1 + 2 u^(1/2) + 2 u^2 + ... with u = v^2
    assert th1.coeff() == 1
    assert th1.coeff(v=1) == 2
    assert th1.coeff(v=4) == 2
    assert th1.coeff(v=2) == 0


def test_theta3_ratio_constant_at_u_zero():
    ring = SeriesRing(["v"], 4)
    t = Fraction(1, 2)
    zeta = Fraction(2, 3)
    num = theta3(ring, "v", zeta / t)
    den = theta3(ring, "v", zeta)
    ratio = num * den.inverse()
    assert ratio.coeff() == 1  # both series are 1 at u = 0


def test_finite_pochhammer():
    ring = SeriesRing(["u"], 4)
    t = Fraction(1, 3)
    f = qpochhammer_finite(ring, t, ring.gen("u"), 3)
    # (t;u)_3 = (1-t)(1-tu)(1-tu^2)
    expect = (ring.one() - ring.scalar(t)) * (ring.one() - ring.monomial(t, u=1)) \
        * (ring.one() - ring.monomial(t, u=2))
    assert f == expect


def test_serialization_roundtrip():
    rng = random.Random(5)
    ring = SeriesRing([("u", 1), ("s", 2)], 6)
    f = random_series(ring, rng)
    g = TruncSeries.from_json(f.to_json())
    assert g == f


# -- the geometric-series and theta helpers ----------------------------------

GEOM_RING = SeriesRing(["u", ("v", 2)], 7)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
nonzero_rationals = rationals.filter(bool)
monomials = st.builds(
    lambda c, a, b: GEOM_RING.monomial(c, u=a, v=b),
    nonzero_rationals, st.integers(0, 3), st.integers(0, 2),
).filter(lambda m: m and m.min_degree() > 0)


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(rationals, monomials), k=st.integers(1, 4),
       start=st.sampled_from([0, 1, 2]))
def test_geometric_times_one_minus_pk_is_leading_power(p, k, start):
    ring = GEOM_RING
    if isinstance(p, TruncSeries):
        pk, lead = p ** k, p ** (start * k)
    else:
        pk, lead = p ** k, ring.scalar(p ** (start * k))
        assume(pk != 1)
    assert geometric(ring, p, k, start) * (1 - pk) == lead


@pytest.mark.parametrize("p, k", [
    (Fraction(1), 1), (1, 3), (Fraction(-1), 2)])
def test_geometric_rejects_unit_power(p, k):
    with pytest.raises(ZeroDivisionError):
        geometric(GEOM_RING, p, k)


@pytest.mark.parametrize("build", [
    lambda ring: ring.scalar(0.25),
    lambda ring: ring.monomial(0.5, u=1),
    lambda ring: theta3(ring, "u", 0.5),
    lambda ring: TruncSeries(ring, {(1,): 0.5}).exp(),
], ids=["scalar", "monomial", "theta3", "exp of one term"])
def test_float_coefficient_is_rejected_where_it_enters(build):
    # a one-term factor takes the scale-and-shift product, which checks no
    # type, so a float must be stopped before it can reach one
    with pytest.raises(TypeError, match="not rational"):
        build(SeriesRing(["u"], 3))


@settings(max_examples=40, deadline=None)
@given(zeta=nonzero_rationals, cutoff=st.integers(0, 12),
       dv=st.integers(1, 2))
def test_theta_terms_symmetric_under_inverting_zeta(zeta, cutoff, dv):
    ring = SeriesRing([("v", dv)], cutoff)
    inv = 1 / zeta
    terms, flipped = theta_terms(ring, "v", zeta), theta_terms(ring, "v", inv)
    assert set(terms) == {-m for m in flipped}
    assert all(terms[m] == flipped[-m] for m in terms)
    assert all(terms[m].coeff(v=m * m) for m in terms)


# -- the flat product kernel against the term-by-term product ----------------

RATIONAL_COEFFS = st.one_of(st.integers(-3, 3),
                            st.fractions(-3, 3, max_denominator=5)).filter(bool)
SERIES_EXPS = st.tuples(st.integers(0, 7), st.integers(0, 3))


def _product_ring(draw):
    return SeriesRing([("u", 1), ("v", 2)], draw(st.integers(0, 7)))


def _any_series(draw, ring, min_size=0, max_size=8):
    return TruncSeries(ring, draw(st.dictionaries(SERIES_EXPS, RATIONAL_COEFFS,
                                                  min_size=min_size, max_size=max_size)))


def _one_term(draw, ring, kind):
    """A one-term series: any term, coefficient exactly 1 or Fraction(1) at
    any exponent or at exponent zero (the unit series), or a term at exactly
    the cutoff degree."""
    if kind in ("unit", "the unit"):
        exp = (0, 0) if kind == "the unit" else draw(SERIES_EXPS)
        return TruncSeries(ring, {exp: draw(st.sampled_from([1, Fraction(1)]))})
    if kind == "at cutoff":
        j = draw(st.integers(0, ring.cutoff // 2))
        return TruncSeries(ring, {(ring.cutoff - 2 * j, j): draw(RATIONAL_COEFFS)})
    return _any_series(draw, ring, min_size=1, max_size=1)


@st.composite
def series_pairs(draw):
    """Two series over symbols of degrees 1 and 2, cutoff 0-7, with int or
    Fraction coefficients.  Either may be empty; the second is often one
    term (any, with coefficient exactly 1 or Fraction(1), the unit series,
    or at exactly the cutoff degree), or the first with some signs flipped,
    so sums cancel to zero."""
    ring = _product_ring(draw)
    a = _any_series(draw, ring)
    kind = draw(st.sampled_from(["flipped", "one term", "unit", "the unit", "at cutoff",
                                 "any"]))
    if kind == "flipped":
        b = TruncSeries(ring, {e: c * draw(st.sampled_from([1, -1]))
                               for e, c in a.terms.items()})
    elif kind == "any":
        b = _any_series(draw, ring)
    else:
        b = _one_term(draw, ring, kind)
    return draw(st.permutations([a, b]))


@settings(max_examples=250, deadline=None)
@given(pair=series_pairs())
def test_series_product_equals_plain_product(pair):
    a, b = pair
    prod = a * b
    assert prod == plain_series_product(a, b)
    assert all(prod.terms.values())
    assert all(prod.ring.degree_of(e) <= prod.ring.cutoff for e in prod.terms)


@settings(max_examples=150, deadline=None)
@given(pair=series_pairs(), cs=st.lists(st.one_of(st.just(0), RATIONAL_COEFFS),
                                        min_size=2, max_size=2),
       cancel=st.booleans())
def test_linear_combination_equals_the_sum_of_plain_products(pair, cs, cancel):
    # c = 0, terms above the cutoff, and with ``cancel`` a pair that takes
    # the first one back, so the sum may cancel to zero
    ring = pair[0].ring
    pairs = list(zip(cs, pair)) + ([(-cs[0], pair[0])] if cancel else [])
    expect = ring.zero()
    for c, s in pairs:
        expect = expect + plain_series_product(ring.scalar(c), s)
    got = linear_combination(ring, pairs)
    assert got == expect
    assert all(got.terms.values())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 4), cancel=st.booleans())
def test_linear_combination_equals_the_fraction_sum(data, n, cancel):
    # int and Fraction scalars, c = 0, an empty input (n = 0), terms above
    # the cutoff, and with ``cancel`` a pair that takes the first one back
    ring = _product_ring(data.draw)
    scalars = st.one_of(st.just(0), RATIONAL_COEFFS)
    pairs = [(data.draw(scalars), _any_series(data.draw, ring)) for _ in range(n)]
    if cancel and pairs:
        pairs.append((-pairs[0][0], pairs[0][1]))
    got = linear_combination(ring, iter(pairs))
    assert got.terms == fraction_linear_combination(ring, pairs).terms
    assert all(got.terms.values())


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 5), cancel=st.booleans())
def test_zterm_sum_merge_per_key_equals_the_merge_over_one_lcm(data, n, cancel):
    # maps from one or two z-exponents to series, int and Fraction scalars,
    # c = 0, an empty input, terms above the cutoff, and with ``cancel`` a
    # pair that takes the first one back, so a key may sum to zero
    ring = _product_ring(data.draw)
    zexps = st.tuples(*[st.integers(-2, 2)] * data.draw(st.integers(1, 2)))
    scalars = st.one_of(st.just(0), RATIONAL_COEFFS)
    pairs = [(data.draw(scalars),
              {ze: _any_series(data.draw, ring)
               for ze in data.draw(st.lists(zexps, max_size=3, unique=True))})
             for _ in range(n)]
    if cancel and pairs:
        pairs.append((-pairs[0][0], pairs[0][1]))
    got = zterm_sum(ring, iter(pairs))
    assert got == zterm_sum_over_one_lcm(ring, pairs)
    assert all(s.terms and all(s.terms.values()) for s in got.values())


def test_linear_combination_refuses_a_float_scalar():
    # the sum once scaled by a float and returned float coefficients,
    # where a product by the same float is a TypeError
    ring = SeriesRing(["x"], 3)
    x = ring.gen("x")
    with pytest.raises(TypeError):
        x * 0.5
    with pytest.raises(TypeError, match="not rational"):
        linear_combination(ring, [(0.5, x + 1)])
    with pytest.raises(TypeError, match="not rational"):
        linear_combination(ring, [(1, x), (0.0, x)])


def _series_key(s):
    return s.ring.symbols, s.ring.degrees, s.ring.cutoff, s.terms


@pytest.mark.parametrize("other", [
    lambda ring: TruncSeries(SeriesRing(["x"], 3), {(0,): 1, (1,): Fraction(1, 2)}),
    lambda ring: TruncSeries(ring, {(0,): 1, (1,): Fraction(1, 3)}),
    lambda ring: TruncSeries(ring, {(0,): 1, (1,): Fraction(1, 2), (2,): 5}),
    lambda ring: TruncSeries(ring, {(0,): 1}),
    lambda ring: TruncSeries(SeriesRing(["x"], 4), {(0,): 1, (1,): Fraction(1, 2)}),
    lambda ring: TruncSeries(SeriesRing(["y"], 3), {(0,): 1, (1,): Fraction(1, 2)}),
    lambda ring: TruncSeries(SeriesRing([("x", 2)], 3), {(0,): 1, (1,): Fraction(1, 2)}),
], ids=["equal, another ring object", "different coefficient", "extra term",
        "missing term", "different cutoff", "different symbol", "different degree"])
def test_series_equality_is_term_dict_equality(other):
    ring = SeriesRing(["x"], 3)
    a = TruncSeries(ring, {(0,): 1, (1,): Fraction(1, 2)})
    b = other(ring)
    expect = _series_key(a) == _series_key(b)
    assert (a == b) is expect and (b == a) is expect
    assert (a != b) is not expect


@st.composite
def power_bases(draw, kind):
    """A zero, one-term or multi-term base, drawn like ``series_pairs``."""
    ring = _product_ring(draw)
    if kind == "zero":
        return ring.zero()
    if kind == "multi-term":
        return _any_series(draw, ring, min_size=2, max_size=4)
    return _one_term(draw, ring, draw(st.sampled_from(["one term", "unit", "the unit",
                                                       "at cutoff"])))


@pytest.mark.parametrize("kind", ["zero", "one term", "multi-term"])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(0, 7))
def test_power_equals_repeated_plain_products(kind, data, n):
    base = data.draw(power_bases(kind))
    expect = base.ring.one()
    for _ in range(n):
        expect = plain_series_product(expect, base)
    assert base ** n == expect


# -- the one power-sum loop against the Fraction loop -------------------------

# prime denominators keep the common denominators of the integer loop large
KERNEL_COEFFS = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                          st.sampled_from([1, 2, 3, 89, 97, 89 * 97]))


@st.composite
def positive_valuation_series(draw):
    """A series with no constant term over symbols of degrees 1 and 2,
    cutoff 0-8; it may be zero, and may hold terms above the cutoff."""
    ring = SeriesRing([("u", 1), ("v", 2)], draw(st.integers(0, 8)))
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 3)),
                                 KERNEL_COEFFS, max_size=5))
    terms.pop((0, 0), None)
    return TruncSeries(ring, terms)


@settings(max_examples=60, deadline=None)
@given(f=positive_valuation_series(), c0=KERNEL_COEFFS)
def test_inverse_exp_log_equal_the_fraction_loop(f, c0):
    ring = f.ring
    assert f.exp() == fraction_power_sum(f, lambda k: Fraction(1, factorial(k)), ring.one())
    g = ring.one() + f
    assert g.log() == fraction_power_sum(f, lambda k: Fraction(1 if k % 2 else -1, k),
                                         ring.zero())
    h = f + c0
    inv0 = 1 / c0
    assert h.inverse() == fraction_power_sum(h * inv0 - 1, lambda k: -1 if k % 2 else 1,
                                             ring.one()) * inv0


def test_zero_series_exp_log_inverse():
    for cutoff in range(9):
        ring = SeriesRing([("u", 1), ("v", 2)], cutoff)
        assert ring.zero().exp() == ring.one()
        assert ring.one().log() == ring.zero()
        assert ring.scalar(Fraction(3, 97)).inverse() == ring.scalar(Fraction(97, 3))


def test_ring_refuses_a_negative_cutoff():
    # at cutoff -1 the unit held a term above the cutoff, so one() * one()
    # was zero while one() was not
    with pytest.raises(ValueError, match="nonnegative"):
        SeriesRing(["u"], -1)
    ring = SeriesRing(["u"], 0)
    assert ring.one() * ring.one() == ring.one()
