"""Laurent polynomials in auxiliary z-variables over a truncated series ring.

These carry the free-field constant-term calculus: moment formulas build a
list of factors (Cauchy-kernel symmetrizations, exponential kernel pieces,
universal measure factors) whose product is scanned for one target z-monomial.

Products, ``laurent_exp`` and ``laurent_log`` run on the flat kernel of
``series``, whose packing puts the z-exponents above the series digits as
balanced digits of base 2 bound + 1.  The bound is taken from the factors'
exponent ranges, the pruning boxes and the target (or the clip window), so
every z-exponent a product reaches lies strictly inside its digit.

Products are exact.  ``LaurentPoly.mul`` forms every term, or, given a
``window``, only the terms whose z-exponents all lie in [-window, window]
(the ``_Box`` test of the kernel on the packed z-part): the cut of a product
that is windowed next, which is lossless there and only there, since a later
factor with mixed-sign exponents could bring an outside term back in.  To
keep products finite, every individual factor is built truncated (a
per-factor clip bound on z-exponents), and the sequential product driver
prunes exponent vectors that provably cannot reach the target given the
exponent ranges of the factors still to come; the pruning test on the packed
z-part is memoised per step (``_Box``).  The driver picks its own
multiplication order (``_elimination_order``): z-free factors first, then
factors in more z-variables before factors in fewer, so the narrow factors
come last, when the pruning boxes of the factors still to come are tight
and keep the intermediate supports small.

Coefficient arithmetic, sums included, is the series layer's: scales and
one-term products just multiply ``TruncSeries`` coefficients (the unit rule
is ``TruncSeries.__mul__``'s), and ``linear_combination`` is one
``series.zterm_sum``.

The plain term-by-term product, the kernel's oracle, lives in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import series
from .series import SeriesRing, TruncSeries, _Packing, _mul_terms


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
        if not isinstance(coeff, TruncSeries):
            coeff = ring.scalar(coeff)
        if not coeff:
            return LaurentPoly(tuple(zvars), ring, {})
        return LaurentPoly(tuple(zvars), ring, {tuple(exp): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.zvars == other.zvars and self.ring.compatible(other.ring)
                and self.terms == other.terms)

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
        if not isinstance(c, TruncSeries):
            series._check_rational(c)
            if not c:
                return LaurentPoly(self.zvars, self.ring, {})
            if c == 1:
                return self
        out = {}
        for e, coef in self.terms.items():
            v = coef * c
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

    def mul(self, other: "LaurentPoly", window: int = None) -> "LaurentPoly":
        """The product: a scale and a shift when one factor has one term,
        else the flat kernel with no pruning.

        With a ``window``, only the terms whose z-exponents all lie in
        [-window, window] are formed: ``self.mul(other).window(window)``
        without the terms outside.  It is the cut of a product whose result
        is windowed next, never of one that later factors could bring back
        inside.
        """
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            ((e2, c2),) = b.items()
            out = {}
            for e1, c1 in a.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if window is not None and max(map(abs, e), default=0) > window:
                    continue
                c = c1 * c2
                if c:
                    out[e] = c
            return LaurentPoly(self.zvars, self.ring, out)
        (lo1, hi1), (lo2, hi2) = self.exp_ranges(), other.exp_ranges()
        pk = _Packing(self.ring, [max(abs(l1 + l2), abs(h1 + h2))
                                  for l1, l2, h1, h2 in zip(lo1, lo2, hi1, hi2)])
        keep = None if window is None else \
            _Box(pk, (-window,) * len(self.zvars), (window,) * len(self.zvars))
        return LaurentPoly(self.zvars, self.ring,
                           series._product(self.terms, other.terms, pk, keep))

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

    def placed(self, zvars, at) -> "LaurentPoly":
        """This polynomial moved into the variables ``zvars``: its k-th
        z-exponent becomes that of ``zvars[at[k]]``, every other one 0."""
        n = len(zvars)
        terms = {}
        for e, c in self.terms.items():
            f = [0] * n
            for k, x in zip(at, e):
                f[k] = x
            terms[tuple(f)] = c
        return LaurentPoly(zvars, self.ring, terms)

    def window(self, w: int) -> "LaurentPoly":
        """The terms whose z-exponents all lie in [-w, w]."""
        return LaurentPoly(self.zvars, self.ring, {
            e: c for e, c in self.terms.items() if max(abs(x) for x in e) <= w})


def linear_combination(zvars, ring: SeriesRing, pairs) -> LaurentPoly:
    """sum c p over the pairs (c, p), c an int or a Fraction and p a Laurent
    polynomial: the ``series.zterm_sum`` of their term maps."""
    return LaurentPoly(zvars, ring, series.zterm_sum(ring, ((c, p.terms) for c, p in pairs)))


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
        fden, terms = series._flatten(f.terms, pk)
        acc = _mul_terms(acc, terms, pk, _Box(pk, lo, hi))
        den *= fden
        if not acc:
            return ring.zero()
    return LaurentPoly(factors[0].zvars, ring, series._unflatten(acc, den, pk)).coeff(target)


def _windowed_sum(arg: LaurentPoly, clip: int, weight, unit: bool, name: str) -> LaurentPoly:
    """[1 +] sum_{k>=1} weight(k) arg^k, each power cut to |exponent| <= clip,
    by ``series.power_sum``.

    Raises ClipExhausted if the powers fail to die out.
    """
    zn = len(arg.zvars)
    lo, hi = arg.exp_ranges()
    pk = _Packing(arg.ring, [clip + max(abs(a), abs(b)) for a, b in zip(lo, hi)])
    window = _Box(pk, (-clip,) * zn, (clip,) * zn)
    # crude but safe bound: degrees or window positions advance every step
    kmax = (arg.ring.cutoff + 1) * (2 * clip + 1) * max(1, zn)
    terms = series.power_sum(arg.terms, pk, weight, unit, window, kmax)
    if terms is None:
        raise ClipExhausted(f"{name} failed to terminate; enlarge the z clip window")
    return LaurentPoly(arg.zvars, arg.ring, terms)


def laurent_exp(arg: LaurentPoly, clip: int) -> LaurentPoly:
    """exp of a Laurent polynomial with no constant term.

    Termination: every monomial of ``arg`` must either carry a positive
    series degree, or a nonzero z-exponent (the |exponent| <= clip window then
    bounds its powers).  Raises ClipExhausted if the iteration fails to die.
    """
    zero = (0,) * len(arg.zvars)
    if zero in arg.terms and arg.terms[zero].constant_term():
        raise ValueError("exp of Laurent polynomial needs zero constant term")
    return _windowed_sum(arg, clip, lambda k: Fraction(1, factorial(k)), True,
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
    return _windowed_sum(f, clip, lambda k: Fraction(1 if k % 2 == 1 else -1, k), False,
                         "laurent_log")


def ratio_sym_factor(zvars, ring, i: int, j: int, c, clip: int) -> LaurentPoly:
    """(1 - z_i/z_j) / (1 - c z_i/z_j), truncated at ratio power <= clip.

    This is the pair factor of the symmetrized Cauchy determinant; the
    expansion direction is positive powers of z_i/z_j.
    """
    terms = {}
    for k, coeff in enumerate(ratio_sym_coefficients(c, clip)):
        if coeff:
            e = [0] * len(zvars)
            e[i] += k
            e[j] -= k
            terms[tuple(e)] = ring.scalar(coeff)
    return LaurentPoly(tuple(zvars), ring, terms)


def ratio_sym_coefficients(c, clip: int) -> list:
    """[1, c - 1, (c - 1) c, ..., (c - 1) c^(clip-1)]: the coefficients of
    (z_i/z_j)^k, k <= clip, in (1 - z_i/z_j)/(1 - c z_i/z_j)."""
    out = [Fraction(1)]
    ck = 1
    for _ in range(clip):
        out.append((c - 1) * ck)  # c^k - c^(k-1)
        ck *= c
    return out


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
