"""Exact scalar arithmetic.

Every coefficient the package computes is a ``fractions.Fraction``: the
free-field currents are taken in variables where all their modes are
rational (``fock.eta_xi_exponent``), so no square root of t/q is needed.
``QRho`` adjoins a formal square root ``rho`` of a fixed rational ``s``, so
elements are ``a + b*rho`` reduced modulo ``rho**2 = s``.  No computed value
is one: ``TruncSeries`` and ``LaurentPoly`` take rational coefficients only.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse a rational from a "num/den" or integer string."""
    return Fraction(text.strip())


def format_rational(x) -> str:
    """Serialize a rational as "num/den" (or "num" when integral); a value
    that is not exactly an int or a Fraction (a bool, a float) goes through
    Fraction(x) first."""
    if type(x) is int:
        return str(x)
    if type(x) is not Fraction:
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class QRho:
    """Element ``a + b*rho`` of Q[rho]/(rho^2 - s) with ``s`` a fixed rational.

    Arithmetic coerces plain integers and fractions on either side.  For a
    non-square ``s`` this is a field; division relies on the conjugate.
    """

    __slots__ = ("a", "b", "s")

    def __init__(self, a, b, s):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.s = Fraction(s)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QRho):
            if other.s != self.s:
                raise ValueError("mixing QRho values over different radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return QRho(other, 0, self.s)
        return None

    def __repr__(self):
        return f"QRho({self.a!r}, {self.b!r}, s={self.s!r})"

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QRho):
            return self.s == other.s and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.s))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRho(self.a + o.a, self.b + o.b, self.s)

    __radd__ = __add__

    def __neg__(self):
        return QRho(-self.a, -self.b, self.s)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRho(self.a - o.a, self.b - o.b, self.s)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRho(o.a - self.a, o.b - self.b, self.s)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRho(self.a * o.a + self.s * self.b * o.b,
                    self.a * o.b + self.b * o.a, self.s)

    __rmul__ = __mul__

    def inverse(self):
        # (a + b rho)^(-1) = (a - b rho) / (a^2 - s b^2); nonzero for s non-square.
        n = self.a * self.a - self.s * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("QRho element with vanishing norm")
        return QRho(self.a / n, -self.b / n, self.s)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = QRho(1, 0, self.s)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


# The seed of the acceptance suite and of every seeded CLI command.
DEFAULT_SEED = 20240810

# The largest denominator of a random rational test value.
MAX_DEN = 12


def random_rational(rng) -> Fraction:
    """A uniform-ish random rational strictly inside (0, 1)."""
    den = rng.randint(3, MAX_DEN)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def random_qt_pair(rng):
    """Random (q, t) in (0,1)^2 with q != t, suitable as a test point."""
    while True:
        q = random_rational(rng)
        t = random_rational(rng)
        if q != t:
            return q, t
