"""Laurent polynomials in auxiliary z-variables over a truncated series ring.

These carry the free-field constant-term calculus: moment formulas build a
list of factors (Cauchy-kernel symmetrizations, exponential kernel pieces,
universal measure factors) whose product is scanned for one target z-monomial.

Products are exact.  To keep them finite, every individual factor is built
truncated (a per-factor clip bound on z-exponents), and the sequential product
driver prunes exponent vectors that provably cannot reach the target given the
exponent ranges of the factors still to come.  The driver picks its own
multiplication order, greedily by variable elimination (bucket elimination,
Dechter 1999): a z-variable is pinned to its target exponent once no factor
still to come uses it, so taking factors that close variables early keeps the
intermediate supports small.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QRho
from .series import SeriesRing, TruncSeries


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
        if isinstance(coeff, (int, Fraction, QRho)):
            coeff = ring.scalar(coeff)
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
        if isinstance(c, (int, Fraction, QRho)) and not c:
            return LaurentPoly(self.zvars, self.ring, {})
        out = {}
        for e, coef in self.terms.items():
            v = coef * c
            if v:
                out[e] = v
        return LaurentPoly(self.zvars, self.ring, out)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return self.mul(other)
        if isinstance(other, (int, Fraction, QRho, TruncSeries)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def mul(self, other: "LaurentPoly", keep=None) -> "LaurentPoly":
        """Product, optionally pruned by a predicate on exponent vectors."""
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if keep is not None and not keep(e):
                    continue
                c = c1 * c2
                if not c:
                    continue
                v = out.get(e)
                v = c if v is None else v + c
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return LaurentPoly(self.zvars, self.ring, out)

    def coeff(self, zexp: tuple) -> TruncSeries:
        return self.terms.get(tuple(zexp), self.ring.zero())

    def constant_term(self) -> TruncSeries:
        return self.coeff((0,) * len(self.zvars))

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

    def map_coeffs(self, f) -> "LaurentPoly":
        out = {}
        for e, c in self.terms.items():
            v = f(c)
            if v:
                out[e] = v
        return LaurentPoly(self.zvars, self.ring, out)


def _elimination_order(factors) -> list:
    """Greedy variable-elimination order of the factors, as input indices.

    A z-variable is open once some taken factor uses it and while some factor
    still to come uses it.  Each step takes the remaining factor that
    minimises, in this order: the number of open variables after taking it,
    the number of variables it opens, its term count, its input index.  So
    z-free factors come first, while the accumulator has one term.
    """
    zn = len(factors[0].zvars)
    uses = [frozenset(i for i in range(zn) if any(e[i] for e in f.terms))
            for f in factors]
    users = [sum(i in vs for vs in uses) for i in range(zn)]
    touched = frozenset()
    remaining = list(range(len(factors)))
    order = []
    while remaining:
        best = min(remaining, key=lambda k: (
            sum(1 for i in touched | uses[k] if users[i] > (i in uses[k])),
            len(uses[k] - touched), len(factors[k].terms), k))
        remaining.remove(best)
        order.append(best)
        touched |= uses[best]
        for i in uses[best]:
            users[i] -= 1
    return order


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

    acc = None
    for k, f in enumerate(factors):
        lo, hi = suf_lo[k + 1], suf_hi[k + 1]

        def keep(e, lo=lo, hi=hi):
            return all(e[i] + hi[i] >= target[i] >= e[i] + lo[i] for i in range(zn))

        if acc is None:
            acc = LaurentPoly(f.zvars, f.ring,
                              {e: c for e, c in f.terms.items() if keep(e)})
        else:
            acc = acc.mul(f, keep=keep)
        if not acc:
            return factors[0].ring.zero()
    return acc.coeff(target)


def laurent_exp(arg: LaurentPoly, clip: int) -> LaurentPoly:
    """exp of a Laurent polynomial with no constant term.

    Termination: every monomial of ``arg`` must either carry a positive
    series degree, or a nonzero z-exponent (the |exponent| <= clip window then
    bounds its powers).  Raises ClipExhausted if the iteration fails to die.
    """
    zero = (0,) * len(arg.zvars)
    if zero in arg.terms and arg.terms[zero].constant_term():
        raise ValueError("exp of Laurent polynomial needs zero constant term")

    def keep(e):
        return all(abs(x) <= clip for x in e)

    one = LaurentPoly.constant(arg.zvars, arg.ring.one())
    out = one
    power = one
    fact = Fraction(1)
    k = 1
    # crude but safe bound: degrees or window positions advance every step
    kmax = (arg.ring.cutoff + 1) * (2 * clip + 1) * max(1, len(arg.zvars))
    while True:
        power = power.mul(arg, keep=keep)
        if not power:
            break
        fact *= k
        out = out + power.scale(Fraction(1) / fact)
        k += 1
        if k > kmax:
            raise ClipExhausted(
                "laurent_exp failed to terminate; enlarge the z clip window")
    return out


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
    one = LaurentPoly.constant(lp.zvars, lp.ring.one())
    f = lp - one

    def keep(e):
        return all(abs(x) <= clip for x in e)

    out = LaurentPoly(lp.zvars, lp.ring, {})
    power = one
    k = 1
    kmax = (lp.ring.cutoff + 1) * (2 * clip + 1) * max(1, len(lp.zvars))
    while True:
        power = power.mul(f, keep=keep)
        if not power:
            break
        out = out + power.scale(Fraction(1 if k % 2 == 1 else -1, k))
        k += 1
        if k > kmax:
            raise ClipExhausted(
                "laurent_log failed to terminate; enlarge the clip window")
    return out


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
