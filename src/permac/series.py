"""Truncated multivariate power series with exact coefficients.

A ``SeriesRing`` fixes an ordered list of graded symbols and a nonnegative
total-degree cutoff.  ``TruncSeries`` stores a sparse map from exponent
vectors to rational coefficients (int or Fraction); every operation
truncates consistently at the ring cutoff, so addition and multiplication
are exact on the stored range.

Products and power sums run on one flat, fraction-free kernel, shared with
the Laurent polynomials of ``laurent``.  Its input is a map from z-exponents
to series, and a series is the map ``{(): series}`` with no z-exponents.  A
term becomes (degree, key, integer numerator) (``_flatten``): the key packs
every exponent into one int by a linear map (``_Packing``), so adding keys
multiplies monomials, and each factor's coefficients become integer
numerators over its ``lcm`` denominator.  ``_mul_terms`` multiplies with
integer arithmetic only, and the one division per coefficient happens when
the result is unpacked (``_unflatten``), whose decodes of the z-digits and
the series exponents the packing memoises.  The layout of a key is read in
this module only: other modules hand flattened pairs to these helpers, cut
products with a ``_Box`` over the z-digits, and sum integer multiples of
flattened values with ``_flat_sum`` (the skew values of
``macdonald.skew_eval``).  ``zterm_sum``, the one sum
c_1 f_1 + ... + c_k f_k of series and Laurent polynomials, adds integer
numerators too, keyed by the exponents, in one bucket per denominator, and
each key merges over only the buckets that reach it (``_merge``).
``product_sums``, the oracles' keyed sums of products of flattened factors,
adds the products' packed numerators in the same buckets and merge.
``power_sum`` is the one loop for [1 +] sum_k w(k) f^k behind ``inverse``,
``exp`` and ``log`` of series and of Laurent polynomials: integer powers
until one vanishes, then one division.  A product with a one-term factor is
a scale and a shift instead, the common case of the closed forms and their
oracles: one pass over the other factor that tests each term's degree
against the room the one term leaves, adds the one term's exponents, and
multiplies coefficients only when the one term's coefficient is not 1; zero
products are dropped.  A product by the unit series (zero exponents,
coefficient 1) is this shift with ``c2 == 1`` at zero exponent: the other
factor's nonzero terms at or below the cutoff, with no multiply.
``TruncSeries.__mul__`` is the one home of this unit rule, and callers,
``laurent`` and ``qpochhammer`` among them, just multiply.  A coefficient
or scalar that is not an int or a Fraction is a TypeError where a scalar or
monomial is built, in a product of two multi-term factors, in a sum and in
a power sum.

The ring also hosts the q-Pochhammer machinery: infinite symbols
``(a; p_1, ..., p_n)_inf`` are expanded through their logarithm

    log (a; p_1..p_n)_inf = - sum_{k>=1} a^k / (k * prod_i (1 - p_i^k)),

with rational moduli contributing exact factors 1/(1-p^k) and formal moduli
expanded geometrically.  A closed form states its product once, as lists
``num`` and ``den`` of (a, moduli) pairs: ``qpochhammer_log(ring, num, den)``
is the signed sum of their logarithms and ``qpochhammer(ring, num, den)``
its one exponential, so 1/(u; u)_inf is ``qpochhammer(ring, [], [(u, [u])])``
and no symbol is inverted.

This module is the one place for the series idioms the closed forms share:
``geometric`` for p^(start k)/(1 - p^k), ``theta_terms`` for the charge
terms zeta^m v^(m^2) of a theta sum, and the num/den ``qpochhammer`` for any
product and ratio of Pochhammer symbols.
Brute-force oracles choose their own terms, but sum them with the shared
``zterm_sum``, as they add with ``+``, or multiply and sum them with
``product_sums``, which no closed form reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import add, itemgetter, mul

from .scalars import format_rational, parse_rational


def _check_rational(c):
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient {c!r} is not rational")


class SeriesRing:
    """Context for truncated series: ordered graded symbols plus a cutoff."""

    def __init__(self, symbols, cutoff: int):
        names, degrees = [], []
        for s in symbols:
            if isinstance(s, str):
                names.append(s)
                degrees.append(1)
            else:
                names.append(s[0])
                degrees.append(int(s[1]))
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        if any(d <= 0 for d in degrees):
            raise ValueError("symbol degrees must be positive")
        self.symbols = tuple(names)
        self.degrees = tuple(degrees)
        self.cutoff = int(cutoff)
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be nonnegative, got {self.cutoff}")
        self._index = {n: i for i, n in enumerate(names)}

    def __repr__(self):
        syms = ",".join(f"{n}:{d}" for n, d in zip(self.symbols, self.degrees))
        return f"SeriesRing([{syms}], cutoff={self.cutoff})"

    def compatible(self, other: "SeriesRing") -> bool:
        return (self.symbols == other.symbols and self.degrees == other.degrees
                and self.cutoff == other.cutoff)

    def degree_of(self, exp: tuple) -> int:
        return sum(map(mul, exp, self.degrees))

    # -- constructors --------------------------------------------------------

    def zero(self) -> "TruncSeries":
        return TruncSeries(self, {})

    def one(self) -> "TruncSeries":
        return self.scalar(Fraction(1))

    def scalar(self, c) -> "TruncSeries":
        _check_rational(c)
        if not c:
            return self.zero()
        return TruncSeries(self, {(0,) * len(self.symbols): c})

    def monomial(self, c, **powers) -> "TruncSeries":
        _check_rational(c)
        exp = [0] * len(self.symbols)
        for name, k in powers.items():
            exp[self._index[name]] += int(k)
        exp = tuple(exp)
        if any(e < 0 for e in exp):
            raise ValueError("negative exponent in TruncSeries monomial")
        if not c or self.degree_of(exp) > self.cutoff:
            return self.zero()
        return TruncSeries(self, {exp: c})

    def gen(self, name: str) -> "TruncSeries":
        return self.monomial(Fraction(1), **{name: 1})


class TruncSeries:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: SeriesRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basics ---------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms):
            mono = "*".join(f"{n}^{e}" for n, e in zip(self.ring.symbols, exp) if e)
            c = self.terms[exp]
            bits.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(bits)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.ring.compatible(other.ring) and self.terms == other.terms

    def coeff(self, **powers):
        exp = [0] * len(self.ring.symbols)
        for name, k in powers.items():
            exp[self.ring._index[name]] = int(k)
        return self.terms.get(tuple(exp), Fraction(0))

    def constant_term(self):
        return self.terms.get((0,) * len(self.ring.symbols), Fraction(0))

    def min_degree(self):
        """Smallest total degree with a nonzero term; cutoff+1 for the zero series."""
        if not self.terms:
            return self.ring.cutoff + 1
        return min(self.ring.degree_of(e) for e in self.terms)

    # -- ring operations --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if other.ring is not self.ring and not self.ring.compatible(other.ring):
                raise ValueError("series from incompatible rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return TruncSeries(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero()
            return TruncSeries(self.ring, {e: c * other for e, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        a, b = self.terms, o.terms
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return ring.zero()
        if len(b) == 1:
            ((e2, c2),) = b.items()
            degrees = ring.degrees
            unit = c2 == 1
            room = ring.cutoff - sum(map(mul, e2, degrees))
            out = {}
            for e1, c1 in a.items():
                if sum(map(mul, e1, degrees)) <= room:
                    c = c1 if unit else c1 * c2
                    if c:
                        out[tuple(map(add, e1, e2))] = c
            return TruncSeries(ring, out)
        return _product({(): self}, {(): o}, _Packing(ring)).get((), ring.zero())

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.ring.one()
        # square and multiply from the lowest set bit, not from the unit;
        # products truncate, so a lone factor self (n = 1) is truncated here
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self.truncate(self.ring.cutoff) if out is self else out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    # -- series-level functions ---------------------------------------------------

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.constant_term()
        if not c0:
            raise ZeroDivisionError("series with zero constant term")
        inv0 = Fraction(1) / Fraction(c0)
        g = self * inv0 - 1
        return power_sum({(): g}, _Packing(self.ring), lambda k: -1 if k % 2 else 1,
                         True)[()] * inv0

    def exp(self):
        """exp of a series with zero constant term."""
        if self.constant_term():
            raise ValueError("exp needs zero constant term")
        return power_sum({(): self}, _Packing(self.ring),
                         lambda k: Fraction(1, factorial(k)), True)[()]

    def log(self):
        """log of a series with constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("log needs constant term 1")
        ring = self.ring
        return power_sum({(): self - 1}, _Packing(ring),
                         lambda k: Fraction(1 if k % 2 else -1, k), False).get((), ring.zero())

    def subs_zero(self, *names) -> "TruncSeries":
        """Set the named symbols to zero."""
        idx = [self.ring._index[n] for n in names]
        out = {}
        for e, c in self.terms.items():
            if all(e[i] == 0 for i in idx):
                out[e] = c
        return TruncSeries(self.ring, out)

    def truncate(self, cutoff: int) -> "TruncSeries":
        """Forget terms above a lower cutoff (ring object is preserved)."""
        return TruncSeries(self.ring, {
            e: c for e, c in self.terms.items() if self.ring.degree_of(e) <= cutoff})

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for e in sorted(self.terms):
            terms.append({"exp": list(e), "coef": format_rational(self.terms[e])})
        return {
            "symbols": [{"name": n, "degree": d}
                        for n, d in zip(self.ring.symbols, self.ring.degrees)],
            "cutoff": self.ring.cutoff,
            "terms": terms,
        }

    @staticmethod
    def from_json(data: dict) -> "TruncSeries":
        ring = SeriesRing([(s["name"], s["degree"]) for s in data["symbols"]],
                          data["cutoff"])
        terms = {tuple(t["exp"]): parse_rational(t["coef"]) for t in data["terms"]}
        return TruncSeries(ring, {e: c for e, c in terms.items() if c})


def linear_combination(ring: SeriesRing, pairs) -> TruncSeries:
    """sum c s over the pairs (c, s) of rationals and series of ``ring``."""
    return zterm_sum(ring, ((c, {(): s}) for c, s in pairs)).get((), ring.zero())


def zterm_sum(ring: SeriesRing, pairs) -> dict:
    """sum c f over the pairs (c, f), c an int or a Fraction and f a map from
    z-exponents to series of ``ring``, as such a map cut at the ring cutoff.
    Each c times a coefficient is an integer numerator, added in a bucket
    per denominator, so the pairs stream; each key merges over the lcm of
    only the buckets that reach it (``_merge``), so one key's coefficient
    never carries the denominators of the others.  The keys stay exponent
    tuples, as a sum adds no key to another."""
    cutoff, degrees = ring.cutoff, ring.degrees
    buckets: dict = {}
    for c, f in pairs:
        _check_rational(c)
        if not c:
            continue
        cn, cd = c.numerator, c.denominator
        for ze, ts in f.items():
            for se, v in ts.terms.items():
                if sum(map(mul, se, degrees)) > cutoff:
                    continue
                _check_rational(v)
                acc = buckets.setdefault(cd * v.denominator, {})
                key = ze, se
                acc[key] = acc.get(key, 0) + cn * v.numerator
    out: dict = {}
    for (ze, se), v in _merge(buckets).items():
        out.setdefault(ze, {})[se] = v
    return {ze: TruncSeries(ring, ts) for ze, ts in out.items()}


def _merge(buckets: dict) -> dict:
    """key -> Fraction of buckets den -> {key: integer numerator}, each key
    summed over the lcm of only the denominators whose buckets reach it;
    the keys that sum to zero are dropped."""
    if len(buckets) == 1:
        ((den, acc),) = buckets.items()
        return {k: Fraction(v, den) for k, v in acc.items() if v}
    reach: dict = {}
    for den, acc in buckets.items():
        for k, v in acc.items():
            if v:
                reach.setdefault(k, []).append((den, v))
    out = {}
    for k, parts in reach.items():
        if len(parts) == 1:
            ((den, v),) = parts
            out[k] = Fraction(v, den)
            continue
        total = lcm(*(den for den, _ in parts))
        v = sum(v * (total // den) for den, v in parts)
        if v:
            out[k] = Fraction(v, total)
    return out


# ---------------------------------------------------------------------------
# The flat, fraction-free product kernel
# ---------------------------------------------------------------------------


class _Packing:
    """The linear map from a term's exponents to one int key.

    The term z^e x^s of series degree d gets the key

        d + C (s_1 + C s_2 + ...) + S (e_1 + B_1 (e_2 + B_2 (...)))

    with C = cutoff + 1, S = C^(n + 1) for n series symbols and
    B_i = 2 zbound_i + 1; a series has no z-bounds and so no z-part.  A
    product kept under the cutoff has the degree and every series exponent
    at most the cutoff, so no digit carries, and a z-exponent of absolute
    value at most its bound lies strictly inside its balanced digit.
    """

    def __init__(self, ring: SeriesRing, zbound=()):
        self.ring = ring
        self.cutoff = ring.cutoff
        self.C = C = ring.cutoff + 1
        self.sweights = [C ** (j + 1) for j in range(len(ring.symbols))]
        self.S = w = C ** (len(ring.symbols) + 1)
        self.zbases = [2 * b + 1 for b in zbound]
        self.key = (ring.symbols, ring.degrees, ring.cutoff, tuple(self.zbases))
        self.zweights = []
        for b in self.zbases:
            self.zweights.append(w)
            w *= b
        self._zexps: dict = {}  # the decodes of ``zdigits`` and ``series_exp``
        self._sexps: dict = {}

    def zkey(self, e) -> int:
        return sum(x * w for x, w in zip(e, self.zweights))

    def zdigits(self, z: int) -> tuple:
        """The z-exponents of a z-part ``key // S``, one balanced digit each;
        memoised."""
        e = self._zexps.get(z)
        if e is None:
            e, rest = [], z
            for b in self.zbases:
                e.append((rest + b // 2) % b - b // 2)
                rest = (rest - e[-1]) // b
            e = self._zexps[z] = tuple(e)
        return e

    def series_exp(self, low: int) -> tuple:
        """The series exponents of a key's low part ``key % S``; memoised."""
        e = self._sexps.get(low)
        if e is None:
            e = self._sexps[low] = tuple(low // w % self.C for w in self.sweights)
        return e


class _Box(dict):
    """Memoised test, per packed z-part ``key // S``, that the z-exponents
    lie in the box [lo, hi]: the ``keep`` map of ``_mul_terms``."""

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


def _flatten(zterms: dict, pk: _Packing):
    """(common denominator, [(degree, key, numerator)] sorted by degree) of
    a map from z-exponents to series.

    The terms above the cutoff are dropped.  Raises TypeError on a
    coefficient that is not an int or a Fraction.
    """
    cutoff, degrees, sweights = pk.cutoff, pk.ring.degrees, pk.sweights
    raw = []
    for ze, ts in zterms.items():
        offset = pk.zkey(ze)
        for se, c in ts.terms.items():
            d = sum(map(mul, se, degrees))
            if d > cutoff:
                continue
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not rational")
            raw.append((d, offset + d + sum(map(mul, se, sweights)), c))
    den = lcm(*(c.denominator for _, _, c in raw))
    terms = [(d, key, c.numerator * (den // c.denominator)) for d, key, c in raw]
    terms.sort(key=itemgetter(0))
    return den, terms


def _flat(x, pk: _Packing):
    """``_flatten`` of a series or of a Laurent polynomial's term map."""
    return _flatten({(): x} if isinstance(x, TruncSeries) else x.terms, pk)


def _flat_sum(pairs, den: int, pk: _Packing):
    """The ``_flatten`` pair of (c_1 F_1 + ... + c_k F_k) / den over the
    ``pairs`` (c_i, F_i), each c_i an integer and F_i a ``_flatten`` pair:
    the numerators over the lcm of the F_i denominators, summed by key, with
    no terms when the sum vanishes and no division."""
    pairs = list(pairs)
    top = lcm(*(fden for _, (fden, _) in pairs))
    acc: dict = {}
    for c, (fden, terms) in pairs:
        c *= top // fden
        for _, k, v in terms:
            acc[k] = acc.get(k, 0) + c * v
    C = pk.C
    return den * top, sorted((k % C, k, v) for k, v in acc.items() if v)


def _unflatten(acc: dict, den: int, pk: _Packing) -> dict:
    """The map from z-exponents to series of the packed numerators ``acc``
    over ``den``."""
    return _unpack(((k, Fraction(c, den)) for k, c in acc.items()), pk)


def _unpack(items, pk: _Packing) -> dict:
    """The map from z-exponents to series of the (packed key, rational)
    pairs ``items``."""
    S = pk.S
    parts = {}
    for k, c in items:
        z, low = divmod(k, S)
        parts.setdefault(z, {})[pk.series_exp(low)] = c
    ring = pk.ring
    return {pk.zdigits(z): TruncSeries(ring, ts) for z, ts in parts.items()}


def _mul_terms(acc: dict, terms: list, pk: _Packing, keep=None) -> dict:
    """acc times one flattened factor, as packed key -> integer numerator.

    The break stops at the cutoff (``terms`` is sorted by degree).  With a
    ``keep`` map from the packed z-part ``key // S`` to a bool, the products
    it rejects are dropped.
    """
    C, S, cutoff = pk.C, pk.S, pk.cutoff
    out = {}
    get = out.get
    for k1, c1 in acc.items():
        room = cutoff - k1 % C
        if keep is None:
            for d2, k2, c2 in terms:
                if d2 > room:
                    break
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        else:
            for d2, k2, c2 in terms:
                if d2 > room:
                    break
                k = k1 + k2
                if keep[k // S]:
                    out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _product(a: dict, b: dict, pk: _Packing, keep=None) -> dict:
    """The product of two maps from z-exponents to series, unpruned, or
    cut to the z-parts that a ``keep`` map as in ``_mul_terms`` accepts."""
    den1, terms1 = _flatten(a, pk)
    den2, terms2 = _flatten(b, pk)
    acc = _mul_terms({k: c for _, k, c in terms1}, terms2, pk, keep)
    return _unflatten(acc, den1 * den2, pk)


def product_sums(products, pk: _Packing, keep=None) -> dict:
    """key -> sum_i c_i F_i1 ... F_im over the products that enter that key,
    each sum as a map from z-exponents to series.

    ``products`` yields (factors, coefficients): the factors of one product,
    each a ``_flatten`` pair, and the sums it enters as pairs (key, (integer
    numerator, denominator)).  The factors are multiplied once, on integer
    numerators (``_mul_terms``), and read one by one, so none is read once
    the product vanishes; no factor is the product 1.  A ``keep`` map as in
    ``_mul_terms`` cuts every partial product past the first factor: with
    two factors, the cut of a product that is cut next, as
    ``LaurentPoly.mul``'s window.  The product's numerators, times a
    coefficient's numerator, go into that key's bucket for the product's
    denominator times the coefficient's, and each output key merges over
    only the buckets that reach it (``_merge``): one Fraction per output
    coefficient.
    """
    sums: dict = {}
    for factors, coefficients in products:
        acc, den = None, 1
        for fden, terms in factors:
            if acc is None:
                acc = {k: c for _, k, c in terms}
            else:
                acc = _mul_terms(acc, terms, pk, keep)
            if not acc:
                break
            den *= fden
        if acc is None:
            acc = {0: 1}  # the empty product
        elif not acc:
            continue
        for key, (cn, cd) in coefficients:
            if not cn:
                continue
            bucket = sums.setdefault(key, {}).setdefault(den * cd, {})
            get = bucket.get
            for k, v in acc.items():
                bucket[k] = get(k, 0) + cn * v
    return {key: _unpack(_merge(buckets).items(), pk) for key, buckets in sums.items()}


def power_sum(zterms: dict, pk: _Packing, weight, unit: bool, keep=None, limit=None):
    """[1 +] sum_{k>=1} weight(k) f^k, for f the map ``zterms`` from
    z-exponents to series, as such a map; None once ``limit`` powers are
    nonzero.

    The powers run on integer numerators, each cut at the ring cutoff and,
    with a ``keep`` map as in ``_mul_terms``, to the z-parts it accepts,
    until one vanishes; every term of f must so advance the degree or leave
    the kept z-parts.  The sum divides once: its denominator is the lcm of
    the weights times the K-th power of f's denominator.
    """
    den, terms = _flatten(zterms, pk)
    powers = []
    power = {0: 1}
    while True:
        power = _mul_terms(power, terms, pk, keep)
        if not power:
            break
        powers.append(power)
        if len(powers) == limit:
            return None
    K = len(powers)
    weights = [Fraction(weight(k)) for k in range(1, K + 1)]
    wden = lcm(*(w.denominator for w in weights))
    total = wden * den**K
    out = {0: total} if unit else {}
    for k, (w, power) in enumerate(zip(weights, powers), start=1):
        scale = w.numerator * (wden // w.denominator) * den ** (K - k)
        for key, c in power.items():
            out[key] = out.get(key, 0) + scale * c
    return _unflatten({k: c for k, c in out.items() if c}, total, pk)


# ---------------------------------------------------------------------------
# q-Pochhammer symbols and theta functions
# ---------------------------------------------------------------------------


def first_mismatch(a: TruncSeries, b: TruncSeries):
    """(exponent, a's coefficient, b's coefficient) at the lowest exponent,
    in lexicographic order, where two series differ; None when they agree."""
    for e in sorted(set(a.terms) | set(b.terms)):
        ca = a.terms.get(e, 0)
        cb = b.terms.get(e, 0)
        if ca != cb:
            return e, ca, cb
    return None


def _monomial_parts(x):
    """Split a one-term series into (coefficient, exponent vector)."""
    if isinstance(x, (int, Fraction)):
        return x, None
    if isinstance(x, TruncSeries):
        if not x.terms:
            return Fraction(0), None
        if len(x.terms) != 1:
            raise ValueError("expected a monomial (single-term series)")
        ((e, c),) = x.terms.items()
        return c, e
    raise TypeError(f"cannot interpret {x!r} as a monomial")


def geometric(ring: SeriesRing, p, k: int, start: int = 0) -> TruncSeries:
    """sum_{j>=start} p^(j k) = p^(start k) / (1 - p^k) as a series in ``ring``.

    A rational ``p`` gives the exact scalar; a positive-degree
    monomial gives the geometric series truncated at the ring cutoff.
    """
    c, e = _monomial_parts(p)
    if e is None or not any(e):
        c = Fraction(c) if isinstance(c, int) else c
        pk = c ** k
        if pk == 1:
            raise ZeroDivisionError("modulus power equals 1")
        return ring.scalar(c ** (start * k) / (1 - pk))
    step = k * ring.degree_of(e)
    return TruncSeries(ring, {tuple(j * k * ei for ei in e): c ** (j * k)
                              for j in range(start, ring.cutoff // step + 1)})


def qpochhammer_log(ring: SeriesRing, num, den) -> TruncSeries:
    """log of prod_num (a; p_1..p_n)_inf / prod_den (a; p_1..p_n)_inf.

    ``num`` and ``den`` list (a, moduli) pairs, and each symbol adds -/+
    sum_{k>=1} a^k / (k prod_i (1 - p_i^k)) to one ``linear_combination``.
    ``a`` is zero (the factor 1) or a positive-degree monomial, and a nonzero
    ``a`` of degree 0 is a ``ValueError``; each modulus is a rational or a
    positive-degree monomial, and a modulus power 1 a ``ZeroDivisionError``.
    """
    def terms():
        for sign, symbols in ((-1, num), (1, den)):
            for a, moduli in symbols:
                c, e = _monomial_parts(a)
                if not c:
                    continue
                dega = 0 if e is None else ring.degree_of(e)
                if dega == 0:
                    raise ValueError("Pochhammer argument needs positive degree")
                for k in range(1, ring.cutoff // dega + 1):
                    term = TruncSeries(ring, {tuple(k * ei for ei in e): c ** k})
                    for m in moduli:
                        term = term * geometric(ring, m, k)
                    yield Fraction(sign, k), term

    return linear_combination(ring, terms())


def qpochhammer(ring: SeriesRing, num, den) -> TruncSeries:
    """prod_num (a; p_1..p_n)_inf / prod_den (a; p_1..p_n)_inf, truncated:
    one exp of ``qpochhammer_log``, so no symbol is inverted."""
    return qpochhammer_log(ring, num, den).exp()


def qpochhammer_finite(ring: SeriesRing, a, modulus, n: int) -> TruncSeries:
    """Finite product (a; p)_n = prod_{i=0}^{n-1} (1 - a p^i)."""
    out = ring.one()
    ca, ea = _monomial_parts(a)
    aa = ring.scalar(ca) if ea is None else TruncSeries(ring, {ea: ca})
    cm, em = _monomial_parts(modulus)
    mm = ring.scalar(cm) if em is None else TruncSeries(ring, {em: cm})
    p = ring.one()
    for _ in range(n):
        out = out * (ring.one() - aa * p)
        p = p * mm
    return out


def theta_terms(ring: SeriesRing, v: str, zeta) -> dict:
    """Charge terms m -> zeta^m v^(m^2) of a theta sum, inside the cutoff.

    ``zeta`` is a rational; the map runs m = 0, 1, -1, 2, -2, ...
    """
    if isinstance(zeta, int):
        zeta = Fraction(zeta)
    dv = ring.degrees[ring._index[v]]
    out = {}
    n = 0
    while n * n * dv <= ring.cutoff:
        for m in ((0,) if n == 0 else (n, -n)):
            out[m] = ring.monomial(zeta ** m, **{v: n * n})
        n += 1
    return out


def theta3(ring: SeriesRing, v: str, zeta) -> TruncSeries:
    """Jacobi theta sum over integer charge with u = v^2.

    Returns sum_n v^(n^2) * zeta^n for a rational ``zeta``; the
    half-integer powers u^(n^2/2) are realized through the substitution
    u = v^2.
    """
    return sum(theta_terms(ring, v, zeta).values(), ring.zero())

