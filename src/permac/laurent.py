"""Laurent polynomials in auxiliary z-variables over a truncated series ring.

These carry the free-field constant-term calculus: moment formulas build a
list of factors (Cauchy-kernel symmetrizations, exponential kernel pieces,
universal measure factors) whose product is scanned for one target z-monomial.

Products are exact.  To keep them finite, every individual factor is built
truncated (a per-factor clip bound on z-exponents), and the sequential product
driver prunes exponent vectors that provably cannot reach the target given the
exponent ranges of the factors still to come.  The driver picks its own
multiplication order (``_elimination_order``): z-free factors first, then
factors in more z-variables before factors in fewer, so the narrow factors
come last, when the pruning boxes of the factors still to come are tight
and keep the intermediate supports small.

Every product runs on one flat, fraction-free kernel, the series kernel of
``series`` with z-exponents added: ``LaurentPoly.mul`` without pruning
(a product with a one-term factor is a scale and a shift instead, as for
series), ``product_coefficient``, ``laurent_exp`` and ``laurent_log`` with
it.  Each factor is flattened once (``_flatten``) into a list of (series
degree, key, integer numerator), sorted by degree so the cutoff test is a
``break``:

- The key packs the whole exponent vector into one int by a linear map
  (``_Packing``), so adding keys adds exponents.  Its lowest digit is the
  series degree, then one digit per series symbol, all in base cutoff + 1,
  and above them the z-exponents as balanced digits of base 2 bound + 1.
  The map is injective on the exponents that occur: a product kept under the
  cutoff has every series digit (and the degree) at most the cutoff, so no
  digit carries, and the z bound is taken from the factors' exponent ranges,
  the pruning boxes and the target, so every z-exponent a product reaches
  lies strictly inside its balanced digit.
- Each factor's coefficients become integer numerators over its ``lcm``
  denominator; the denominators multiply along the product, and the one
  division happens when the result is unpacked.  A coefficient that is not
  an int or a Fraction is a TypeError.
- The pruning test on the packed z-part is memoised per step.

The plain term-by-term product, the kernel's oracle, lives in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from . import series
from .series import SeriesRing, TruncSeries, _mul_terms


class ClipExhausted(Exception):
    """A z-exponent left the configured window; retry with a larger clip."""


class LaurentPoly:
    """Sparse map from z-exponent vectors to TruncSeries coefficients."""

    __slots__ = ("zvars", "ring", "terms")

    def __init__(self, zvars: tuple, ring: SeriesRing, terms: dict):
        self.zvars = tuple(zvars)
        self.ring = ring
        self.terms = terms

    @staticmethod
    def constant(zvars, coeff: TruncSeries) -> "LaurentPoly":
        zero = (0,) * len(zvars)
        terms = {zero: coeff} if coeff else {}
        return LaurentPoly(zvars, coeff.ring, terms)

    @staticmethod
    def monomial(zvars, ring, coeff, zexp: dict) -> "LaurentPoly":
        exp = [0] * len(zvars)
        for name, k in zexp.items():
            exp[zvars.index(name)] += k
        if isinstance(coeff, (int, Fraction)):
            coeff = ring.scalar(coeff)
        elif not isinstance(coeff, TruncSeries):
            raise TypeError(f"inexact Laurent coefficient {coeff!r}")
        if not coeff:
            return LaurentPoly(tuple(zvars), ring, {})
        return LaurentPoly(tuple(zvars), ring, {tuple(exp): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.zvars == other.zvars and self.terms == other.terms

    def __repr__(self):
        names = ",".join(self.zvars)
        return f"LaurentPoly[{names}]({len(self.terms)} terms)"

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e)
            v = c if v is None else v + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return LaurentPoly(self.zvars, self.ring, terms)

    def __neg__(self):
        return LaurentPoly(self.zvars, self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LaurentPoly":
        if isinstance(c, (int, Fraction)):
            if not c:
                return LaurentPoly(self.zvars, self.ring, {})
            if c == 1:
                return self
        elif series.is_one(c):
            return self._truncated()
        # a unit coefficient takes the factor, truncated, with no product
        cut = self.ring.cutoff
        c_unit = (c if isinstance(c, TruncSeries) else self.ring.scalar(c)).truncate(cut)
        out = {}
        for e, coef in self.terms.items():
            v = c_unit if series.is_one(coef) else coef * c
            if v:
                out[e] = v
        return LaurentPoly(self.zvars, self.ring, out)

    def _truncated(self) -> "LaurentPoly":
        """self times the unit: every coefficient truncated at the cutoff."""
        cut = self.ring.cutoff
        out = {}
        for e, coef in self.terms.items():
            v = coef.truncate(cut)
            if v:
                out[e] = v
        return LaurentPoly(self.zvars, self.ring, out)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return self.mul(other)
        if isinstance(other, (int, Fraction, TruncSeries)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def mul(self, other: "LaurentPoly") -> "LaurentPoly":
        """The product: a scale and a shift when one factor has one term,
        else the flat kernel with no pruning."""
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            ((e2, c2),) = b.items()
            unit2 = series.is_one(c2)
            if unit2 and not any(e2):
                return (other if b is self.terms else self)._truncated()
            # a product by a unit coefficient is the other one, truncated
            cut = self.ring.cutoff
            c2_cut = c2.truncate(cut)
            out = {}
            for e1, c1 in a.items():
                c = c1.truncate(cut) if unit2 else c2_cut if series.is_one(c1) \
                    else c1 * c2
                if c:
                    out[tuple(x + y for x, y in zip(e1, e2))] = c
            return LaurentPoly(self.zvars, self.ring, out)
        (lo1, hi1), (lo2, hi2) = self.exp_ranges(), other.exp_ranges()
        pk = _Packing(self.ring, [max(abs(l1 + l2), abs(h1 + h2))
                                  for l1, l2, h1, h2 in zip(lo1, lo2, hi1, hi2)])
        den1, terms1 = _flatten(self, pk)
        den2, terms2 = _flatten(other, pk)
        acc = _mul_terms({k: c for _, k, c in terms1}, terms2, pk)
        return _unflatten(acc, den1 * den2, pk, self.zvars)

    def coeff(self, zexp: tuple) -> TruncSeries:
        return self.terms.get(tuple(zexp), self.ring.zero())

    def exp_ranges(self):
        """Per-variable (min, max) exponents over the support."""
        if not self.terms:
            z = (0,) * len(self.zvars)
            return z, z
        lo = [min(e[i] for e in self.terms) for i in range(len(self.zvars))]
        hi = [max(e[i] for e in self.terms) for i in range(len(self.zvars))]
        return tuple(lo), tuple(hi)

    def window(self, w: int) -> "LaurentPoly":
        """The terms whose z-exponents all lie in [-w, w]."""
        return LaurentPoly(self.zvars, self.ring, {
            e: c for e, c in self.terms.items() if max(abs(x) for x in e) <= w})


def linear_combination(zvars, ring: SeriesRing, pairs) -> LaurentPoly:
    """sum c p over the pairs (c, p), c rational and p a Laurent polynomial,
    in one pass with no intermediate polynomial, each coefficient truncated
    at the ring cutoff; the twin of ``series.linear_combination``."""
    out: dict = {}
    for c, lp in pairs:
        for e, ts in lp.terms.items():
            acc = out.get(e)
            if acc is None:
                acc = out[e] = {}
            series.add_scaled(acc, c, ts)
    terms = {}
    for e, acc in out.items():
        ts = series._nonzero_below_cutoff(ring, acc)
        if ts:
            terms[e] = ts
    return LaurentPoly(zvars, ring, terms)


def _elimination_order(factors) -> list:
    """The multiplication order of the factors, as input indices.

    The z-free factors come first, while the accumulator has one term; then
    factors in more z-variables before factors in fewer, then fewer terms
    first, then the lower input index.  The wide factors (the kernel and
    Delta exponentials of every variable) so meet while the accumulator is
    small, and the one-variable factors come last, when the pruning boxes
    are tight: at (E, r = 2, N = 3, cutoff 3) the accumulator peaks at
    27,439 terms, against 95,874 under greedy variable elimination.
    """
    zn = len(factors[0].zvars)

    def key(k):
        terms = factors[k].terms
        nvars = sum(1 for i in range(zn) if any(e[i] for e in terms))
        return (nvars > 0, -nvars, len(terms), k)

    return sorted(range(len(factors)), key=key)


class _Packing(series._Packing):
    """The linear map from a term's exponents to one int key.

    The term z^e x^s of series degree d gets the key

        d + C (s_1 + C s_2 + ...) + S (e_1 + B_1 (e_2 + B_2 (...)))

    with the series part of ``series._Packing`` below S and
    B_i = 2 zbound_i + 1.
    """

    def __init__(self, ring: SeriesRing, zbound):
        super().__init__(ring)
        w = self.S
        self.zbases = [2 * b + 1 for b in zbound]
        self.zweights = []
        for b in self.zbases:
            self.zweights.append(w)
            w *= b

    def zkey(self, e) -> int:
        return sum(x * w for x, w in zip(e, self.zweights))

    def zdigits(self, z: int):
        """The exponents of a z-part ``key // S``, one balanced digit each."""
        for b in self.zbases:
            h = b // 2
            x = (z + h) % b - h
            yield x
            z = (z - x) // b


class _Box(dict):
    """Memoised test, per packed z-part, that the z-exponents lie in a box."""

    def __init__(self, pk: _Packing, lo, hi):
        super().__init__()
        self.digits = [(b, b // 2, a, c) for b, a, c in zip(pk.zbases, lo, hi)]

    def __missing__(self, z):
        # ``_Packing.zdigits`` inlined, stopping at the first digit outside
        key, ok = z, True
        for b, h, lo, hi in self.digits:
            x = (z + h) % b - h
            if not lo <= x <= hi:
                ok = False
                break
            z = (z - x) // b
        self[key] = ok
        return ok


def _flatten(lp: LaurentPoly, pk: _Packing):
    """(common denominator, [(degree, key, numerator)] sorted by degree)."""
    return series._flatten(((pk.zkey(e), ts) for e, ts in lp.terms.items()), pk)


def _unflatten(acc: dict, den: int, pk: _Packing, zvars) -> LaurentPoly:
    """The LaurentPoly of packed numerators ``acc`` over ``den``."""
    terms = {}
    for k, c in acc.items():
        z, low = divmod(k, pk.S)
        terms.setdefault(tuple(pk.zdigits(z)), {})[pk.series_exp(low)] = Fraction(c, den)
    ring = pk.ring
    return LaurentPoly(zvars, ring, {e: TruncSeries(ring, ts) for e, ts in terms.items()})


def product_coefficient(factors, target: tuple) -> TruncSeries:
    """Coefficient of the target z-monomial in the product of the factors.

    The factors are multiplied in ``_elimination_order``, not in list order.
    Exact provided each factor already contains every term that can matter;
    pruning only drops exponent vectors that cannot be completed to the target
    by the remaining factors, which holds for any order.
    """
    if not factors:
        raise ValueError("no factors")
    factors = [factors[k] for k in _elimination_order(factors)]
    ring = factors[0].ring
    zn = len(factors[0].zvars)
    ranges = [f.exp_ranges() for f in factors]
    # suffix sums of reachable exponent ranges
    suf_lo = [(0,) * zn]
    suf_hi = [(0,) * zn]
    for lo, hi in reversed(ranges):
        suf_lo.append(tuple(a + b for a, b in zip(suf_lo[-1], lo)))
        suf_hi.append(tuple(a + b for a, b in zip(suf_hi[-1], hi)))
    suf_lo.reverse()
    suf_hi.reverse()
    # the accumulator after factor k lies in boxes[k]; a product tested
    # there is one factor's exponent away from the previous box
    boxes = [(tuple(t - h for t, h in zip(target, suf_hi[k + 1])),
              tuple(t - l for t, l in zip(target, suf_lo[k + 1])))
             for k in range(len(factors))]

    def reach(pairs, i):
        return max(abs(x) for lo, hi in pairs for x in (lo[i], hi[i]))

    zbound = [reach(boxes, i) + reach(ranges, i) for i in range(zn)]
    pk = _Packing(ring, zbound)
    acc = {0: 1}
    den = 1
    for f, (lo, hi) in zip(factors, boxes):
        fden, terms = _flatten(f, pk)
        acc = _mul_terms(acc, terms, pk, _Box(pk, lo, hi))
        den *= fden
        if not acc:
            return ring.zero()
    return _unflatten(acc, den, pk, factors[0].zvars).coeff(target)


def _power_sum(arg: LaurentPoly, clip: int, weight, unit: bool, name: str) -> LaurentPoly:
    """[1 +] sum_{k>=1} weight(k) arg^k, each power cut to |exponent| <= clip.

    Raises ClipExhausted if the powers fail to die out.
    """
    zn = len(arg.zvars)
    lo, hi = arg.exp_ranges()
    pk = _Packing(arg.ring, [clip + max(abs(a), abs(b)) for a, b in zip(lo, hi)])
    den, terms = _flatten(arg, pk)
    window = _Box(pk, (-clip,) * zn, (clip,) * zn)
    # crude but safe bound: degrees or window positions advance every step
    kmax = (arg.ring.cutoff + 1) * (2 * clip + 1) * max(1, zn)
    powers = []
    power = {0: 1}
    while True:
        power = _mul_terms(power, terms, pk, window)
        if not power:
            break
        powers.append(power)
        if len(powers) >= kmax:
            raise ClipExhausted(f"{name} failed to terminate; enlarge the z clip window")
    # one denominator for the whole sum: lcm of the weights times den^K
    K = len(powers)
    weights = [Fraction(weight(k)) for k in range(1, K + 1)]
    wden = lcm(*(w.denominator for w in weights))
    total = wden * den**K
    out = {0: total} if unit else {}
    for k, (w, power) in enumerate(zip(weights, powers), start=1):
        scale = w.numerator * (wden // w.denominator) * den ** (K - k)
        for key, c in power.items():
            out[key] = out.get(key, 0) + scale * c
    return _unflatten({k: c for k, c in out.items() if c}, total, pk, arg.zvars)


def laurent_exp(arg: LaurentPoly, clip: int) -> LaurentPoly:
    """exp of a Laurent polynomial with no constant term.

    Termination: every monomial of ``arg`` must either carry a positive
    series degree, or a nonzero z-exponent (the |exponent| <= clip window then
    bounds its powers).  Raises ClipExhausted if the iteration fails to die.
    """
    zero = (0,) * len(arg.zvars)
    if zero in arg.terms and arg.terms[zero].constant_term():
        raise ValueError("exp of Laurent polynomial needs zero constant term")
    return _power_sum(arg, clip, lambda k: Fraction(1, factorial(k)), True,
                      "laurent_exp")


def laurent_log(lp: LaurentPoly, clip: int) -> LaurentPoly:
    """log of a Laurent polynomial with constant term 1.

    Sound on cone-shaped supports: every non-unit monomial must advance some
    grading (series degree or a window direction), so powers of the
    augmentation die under the |exponent| <= clip pruning.
    """
    zero = (0,) * len(lp.zvars)
    const = lp.terms.get(zero)
    if const is None or const.constant_term() != 1:
        raise ValueError("laurent_log needs constant term 1")
    f = lp - LaurentPoly.constant(lp.zvars, lp.ring.one())
    return _power_sum(f, clip, lambda k: Fraction(1 if k % 2 == 1 else -1, k), False,
                      "laurent_log")


def ratio_sym_factor(zvars, ring, i: int, j: int, c, clip: int) -> LaurentPoly:
    """(1 - z_i/z_j) / (1 - c z_i/z_j), truncated at ratio power <= clip.

    This is the pair factor of the symmetrized Cauchy determinant; the
    expansion direction is positive powers of z_i/z_j.
    """
    terms = {}
    zero = [0] * len(zvars)
    terms[tuple(zero)] = ring.one()
    ck = 1
    for k in range(1, clip + 1):
        e = list(zero)
        e[i] += k
        e[j] -= k
        coeff = ring.scalar((c - 1) * ck)  # c^k - c^(k-1)
        if coeff:
            terms[tuple(e)] = coeff
        ck *= c
    return LaurentPoly(tuple(zvars), ring, terms)


def cauchy_sym_prefactor(c, r: int):
    """Scalar c^(r(r-1)/2) / (c; c)_r replacing det(1/(z_i - c z_j)) / r!.

    The determinant with the z_i^{-1} row factor removed symmetrizes to
    prod_i z_i^{-1} prod_{i<j} (1 - z_i/z_j)/(1 - c z_i/z_j) times this
    constant; the regularization sums the diagonal geometric series
    1/(1 - c) in closed form.
    """
    out = c ** (r * (r - 1) // 2)
    den = 1
    ck = c
    for k in range(1, r + 1):
        den = den * (1 - ck)
        ck = ck * c
    return out / den
