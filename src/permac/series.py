"""Truncated multivariate power series with exact coefficients.

A ``SeriesRing`` fixes an ordered list of graded symbols and a total-degree
cutoff.  ``TruncSeries`` stores a sparse map from exponent vectors to rational
coefficients (int or Fraction); every operation truncates consistently at the
ring cutoff, so addition and multiplication are exact on the stored range.

Products run on the flat, fraction-free kernel that ``laurent`` extends with
z-exponents.  A term becomes (degree, key, integer numerator): the key packs
the exponents into one int by a linear map (``_Packing``), so adding keys
multiplies monomials, and each factor's coefficients become integer
numerators over its ``lcm`` denominator.  ``_mul_terms`` then multiplies with
integer arithmetic only, and the one division per coefficient happens when
the result is unpacked.  A product with a one-term factor is a scale and a
shift instead, the common case of the closed forms and their oracles: one
pass over the other factor that tests each term's degree against the room
the one term leaves, adds the one term's exponents, and multiplies
coefficients only when the one term's coefficient is not 1; zero products
are dropped.  A coefficient that is not an int or a Fraction is a TypeError
where a scalar or monomial is built and in a product of two multi-term
factors.

The ring also hosts the q-Pochhammer machinery: infinite symbols
``(a; p_1, ..., p_n)_inf`` are expanded through their logarithm

    log (a; p_1..p_n)_inf = - sum_{k>=1} a^k / (k * prod_i (1 - p_i^k)),

with rational moduli contributing exact factors 1/(1-p^k) and formal moduli
expanded geometrically.

This module is the one place for the series idioms the closed forms share:
``geometric`` for p^(start k)/(1 - p^k), ``theta_terms`` for the charge
terms zeta^m v^(m^2) of a theta sum, and ``euler_inverse`` for 1/(u; u)_inf.
Brute-force oracles keep their own hand-written sums.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import add, itemgetter, mul

from .scalars import format_rational, parse_rational


def is_one(x) -> bool:
    """Whether x is the unit series, whose one term is the constant 1.
    Callers test it to skip a product by the unit."""
    if not isinstance(x, TruncSeries) or len(x.terms) != 1:
        return False
    ((e, c),) = x.terms.items()
    return c == 1 and not any(e)


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
            room = ring.cutoff - sum(map(mul, e2, degrees))
            unit = c2 == 1
            out = {}
            for e1, c1 in a.items():
                if sum(map(mul, e1, degrees)) <= room:
                    c = c1 if unit else c1 * c2
                    if c:
                        out[tuple(map(add, e1, e2))] = c
            return TruncSeries(ring, out)
        pk = _Packing(ring)
        den1, terms1 = _flatten(((0, self),), pk)
        den2, terms2 = _flatten(((0, o),), pk)
        acc = _mul_terms({k: c for _, k, c in terms1}, terms2, pk)
        den = den1 * den2
        return TruncSeries(ring, {pk.series_exp(k): Fraction(c, den) for k, c in acc.items()})

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

    def _power_sum(self, coeff, out):
        """out + sum_{k>=1} coeff(k) * self^k, for a series of positive valuation.

        Stops at the first vanishing power or once k times the valuation
        passes the ring cutoff, beyond which every power truncates to zero.
        """
        vmin = self.min_degree()
        power = None
        k = 1
        while k * vmin <= self.ring.cutoff:
            # the first power is self, truncated as a product would be
            power = self.truncate(self.ring.cutoff) if power is None else power * self
            if not power:
                break
            out = out + power * coeff(k)
            k += 1
        return out

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.constant_term()
        if not c0:
            raise ZeroDivisionError("series with zero constant term")
        inv0 = Fraction(1) / Fraction(c0)
        g = self * inv0 - 1
        if g.min_degree() <= 0:
            raise ZeroDivisionError("nonpositive valuation after normalization")
        return g._power_sum(lambda k: -1 if k % 2 else 1, self.ring.one()) * inv0

    def exp(self):
        """exp of a series with zero constant term."""
        if self.constant_term():
            raise ValueError("exp needs zero constant term")
        return self._power_sum(lambda k: Fraction(1, factorial(k)), self.ring.one())

    def log(self):
        """log of a series with constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("log needs constant term 1")
        return (self - 1)._power_sum(lambda k: Fraction(1 if k % 2 else -1, k),
                                     self.ring.zero())

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


def add_scaled(out: dict, c, s) -> None:
    """out += c s on a map from exponents to coefficients, in place, for a
    rational c and a series s; zero sums stay in ``out``."""
    get = out.get
    if c == 1:
        for e, v in s.terms.items():
            out[e] = get(e, 0) + v
        return
    for e, v in s.terms.items():
        out[e] = get(e, 0) + c * v


def linear_combination(ring: SeriesRing, pairs) -> TruncSeries:
    """sum c s over the pairs (c, s), c rational and s a series of ``ring``,
    in one pass with no intermediate series, truncated at the ring cutoff
    as a product would be."""
    out: dict = {}
    for c, s in pairs:
        add_scaled(out, c, s)
    return _nonzero_below_cutoff(ring, out)


def _nonzero_below_cutoff(ring: SeriesRing, terms: dict) -> TruncSeries:
    """The series of the nonzero terms of graded degree <= the cutoff."""
    cutoff, degrees = ring.cutoff, ring.degrees
    return TruncSeries(ring, {e: v for e, v in terms.items()
                              if v and sum(map(mul, e, degrees)) <= cutoff})


# ---------------------------------------------------------------------------
# The flat, fraction-free product kernel
# ---------------------------------------------------------------------------


class _Packing:
    """The linear map from a series term's exponents to one int key.

    The term x^s of series degree d gets the key

        d + C (s_1 + C s_2 + ...)

    with C = cutoff + 1.  A product kept under the cutoff has the degree and
    every exponent at most the cutoff, so no digit carries and the key lies
    in [0, S) with S = C^(n + 1) for n symbols; ``laurent`` puts z-exponents
    above S.
    """

    def __init__(self, ring: SeriesRing):
        self.ring = ring
        self.cutoff = ring.cutoff
        self.C = C = ring.cutoff + 1
        self.sweights = [C ** (j + 1) for j in range(len(ring.symbols))]
        self.S = C ** (len(ring.symbols) + 1)

    def series_exp(self, skey: int) -> tuple:
        """The series exponents of a key's low part ``key % S``."""
        C = self.C
        skey //= C
        e = []
        for _ in self.sweights:
            e.append(skey % C)
            skey //= C
        return tuple(e)


def _flatten(parts, pk: _Packing):
    """(common denominator, [(degree, key, numerator)] sorted by degree).

    ``parts`` are pairs (key offset, series); the terms above the cutoff are
    dropped.  Raises TypeError on a coefficient that is not an int or a
    Fraction.
    """
    cutoff, degrees, sweights = pk.cutoff, pk.ring.degrees, pk.sweights
    raw = []
    for offset, ts in parts:
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


def qpochhammer(ring: SeriesRing, a, moduli) -> TruncSeries:
    """Truncated expansion of the n-fold symbol (a; p_1, ..., p_n)_infinity.

    ``a`` is zero or a positive-degree monomial in the ring; each modulus is
    a rational or a positive-degree monomial.  A nonzero argument of degree
    0 raises ``ValueError``.
    """
    c, e = _monomial_parts(a)
    if not c:
        return ring.one()
    dega = 0 if e is None else ring.degree_of(e)
    if dega == 0:
        raise ValueError("Pochhammer argument needs positive degree")
    logsum = ring.zero()
    k = 1
    while k * dega <= ring.cutoff:
        term = ring.monomial(c ** k, **{
            n: k * ei for n, ei in zip(ring.symbols, e) if ei})
        for m in moduli:
            g = geometric(ring, m, k)
            if not is_one(g):
                term = term * g
        logsum = logsum + term * Fraction(-1, k)
        k += 1
    return logsum.exp()


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


def euler_inverse(ring: SeriesRing, u) -> TruncSeries:
    """1/(u; u)_infinity, the partition-count generating series."""
    return qpochhammer(ring, u, [u]).inverse()
