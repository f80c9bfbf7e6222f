"""Fock representation of the (q,t)-Heisenberg algebra.

Vectors are sparse maps from partitions to coefficients in the power-sum
basis: the basis ket labelled by lambda is a_{-lambda_1} ... a_{-lambda_l}
applied to the vacuum, and the pairing of two basis kets is z_lambda(q,t).
Coefficients may be scalars, truncated series, or Laurent polynomials; all
operators below are generic over that arithmetic, and every sparse sum goes
through the in-place ``accumulate``.

The module also hosts vertex operators V(gamma) = exp(sum gamma_{-n} a_{-n}/n)
exp(sum gamma_n a_n / n), their normal-ordered products and traces, the
free-field realizations of the four diagonal operator families, and the
charged extension with its bosonized fermion fields.  One exponential,
``half_vertex_apply``, expands either half of a vertex operator, and every
operator application (the free-field families and the fermion fields
included) builds a ``VertexSpec`` and goes through ``vertex_apply``.  The
table of the four families (``operator_family``) and the eta/xi exponent
coefficients live here once.  So does ``contraction``, the one pairing of
two sets of vertex modes: the OPE scalar, the closed trace and every kernel
and Delta factor of the process module's moments are exponentials of it.
It forms the ratio (1-q^n)/(1-t^n) itself, so the closed forms share no
code with the Heisenberg modes of the brute-force traces.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import (
    LaurentPoly,
    cauchy_sym_prefactor,
    product_coefficient,
    ratio_sym_factor,
)
from .macdonald import FREE_FIELD_FAMILIES  # noqa: F401 (re-exported: operator_family's names)
from .partitions import multiplicity, weight
from .point import per_point, qt_ratio
from .scalars import random_qt_pair
from .series import (
    SeriesRing,
    TruncSeries,
    euler_inverse,
    geometric,
    qpochhammer,
    theta3,
    theta_terms,
)


# ---------------------------------------------------------------------------
# Bare Fock vectors
# ---------------------------------------------------------------------------


def accumulate(out: dict, key, c) -> None:
    """out[key] += c in place, dropping the key when the sum vanishes."""
    w = out.get(key)
    w = c if w is None else w + c
    if w:
        out[key] = w
    else:
        out.pop(key, None)


def fock_scale(v: dict, c) -> dict:
    out = {}
    for lam, a in v.items():
        b = a * c
        if b:
            out[lam] = b
    return out


def heisenberg_apply(n: int, v: dict, q: Fraction, t: Fraction) -> dict:
    """Action of the mode a_n (n != 0) on a Fock vector."""
    if n == 0:
        raise ValueError("mode index must be nonzero")
    out = {}
    if n < 0:
        k = -n
        for lam, c in v.items():
            accumulate(out, tuple(sorted(lam + (k,), reverse=True)), c)
        return out
    # positive mode: remove one part equal to n per occurrence, with the
    # commutator weight n (1-q^n)/(1-t^n)
    comm = n * qt_ratio(n, q, t)
    for lam, c in v.items():
        m = multiplicity(lam, n)
        if m == 0:
            continue
        ls = list(lam)
        ls.remove(n)
        accumulate(out, tuple(ls), c * (comm * m))
    return out


# ---------------------------------------------------------------------------
# Vertex operators
# ---------------------------------------------------------------------------


class VertexSpec:
    """Finitely many vertex modes: gamma_plus[n] and gamma_minus[n], n >= 1."""

    def __init__(self, gamma_plus: dict, gamma_minus: dict):
        self.plus = {n: c for n, c in gamma_plus.items() if c}
        self.minus = {n: c for n, c in gamma_minus.items() if c}

    def merge(self, other: "VertexSpec") -> "VertexSpec":
        plus = dict(self.plus)
        for n, c in other.plus.items():
            accumulate(plus, n, c)
        minus = dict(self.minus)
        for n, c in other.minus.items():
            accumulate(minus, n, c)
        return VertexSpec(plus, minus)


def z_vertex_spec(zvars, ring, zvar: str, coeffs: dict) -> VertexSpec:
    """One-variable vertex modes gamma_{-n} = up z^n and gamma_n = down z^{-n}.

    ``coeffs`` maps n >= 1 to the scalar pair (up, down); the modes are
    Laurent monomials in ``zvar`` over ``ring``.
    """
    plus, minus = {}, {}
    for n, (up, down) in coeffs.items():
        minus[n] = LaurentPoly.monomial(zvars, ring, up, {zvar: n})
        plus[n] = LaurentPoly.monomial(zvars, ring, down, {zvar: -n})
    return VertexSpec(plus, minus)


def half_vertex_apply(modes: dict, v: dict, q, t, sign: int,
                      degree_cap: int = None) -> dict:
    """exp(sum_n modes[n] a_{sign n} / n) v for sign = +1 or -1.

    The lowering half (sign +1) terminates because degrees drop; the raising
    half (sign -1) drops grades above ``degree_cap``.  Layer k of the
    exponential is the previous layer hit by sum_n modes[n] a_{sign n}/(n k).
    """
    if sign == -1 and degree_cap is None:
        raise ValueError("the raising half of a vertex operator needs a degree cap")
    total = dict(v)
    layer = v
    k = 1
    while layer:
        nxt: dict = {}
        for n, g in modes.items():
            gk = g * Fraction(1, n * k)
            for lam, c in heisenberg_apply(sign * n, layer, q, t).items():
                if degree_cap is None or weight(lam) <= degree_cap:
                    accumulate(nxt, lam, c * gk)
        for lam, c in nxt.items():
            accumulate(total, lam, c)
        layer = nxt
        k += 1
    return total


def vertex_apply(spec: VertexSpec, v: dict, q, t, degree_cap: int) -> dict:
    """V(gamma) v truncated to grades <= degree_cap.

    When composing several vertex operators the cap must leave headroom for
    excursions above the target grade: with coefficients graded so that
    raising by k costs series degree k, a cap of (max grade of v) + (ring
    cutoff) is lossless, because anything higher carries a dead coefficient.
    """
    lowered = half_vertex_apply(spec.plus, v, q, t, sign=1)
    return half_vertex_apply(spec.minus, lowered, q, t, sign=-1,
                             degree_cap=degree_cap)


def gamma_spec(ring: SeriesRing, q, t, spec_p_values, sign: str) -> VertexSpec:
    """Gamma(X)_+ or Gamma(X)_- for a specialization's power-sum values.

    Modes are (1-t^n)/(1-q^n) p_n(X); ``spec_p_values(n)`` supplies p_n.  A
    zero p_n gives no mode, so a zero specialization has no pole at q^n = 1.
    """
    modes = {n: pv * ((1 - t**n) / (1 - q**n))
             for n in range(1, ring.cutoff + 1) if (pv := spec_p_values(n))}
    if sign == "+":
        return VertexSpec(modes, {})
    if sign == "-":
        return VertexSpec({}, modes)
    raise ValueError("sign must be '+' or '-'")


def contraction(lower: dict, upper: dict, q, t) -> dict:
    """n -> lower[n] upper[n] (1-q^n) / ((1-t^n) n) over the modes both carry.

    The exponent left when the modes ``lower`` (on a_n) move past the modes
    ``upper`` (on a_{-n}): the commutator [a_n, a_{-n}] = n (1-q^n)/(1-t^n)
    against the 1/n of either half.  The ratio is formed here, not read
    from ``point.qt_ratio``, which the Heisenberg modes and z_lambda(q,t)
    of the oracles read.
    """
    return {n: lo * upper[n] * ((1 - q**n) / ((1 - t**n) * n))
            for n, lo in lower.items() if n in upper}


def ope_reorder(a: VertexSpec, b: VertexSpec, q, t, one):
    """The scalar of V(a) V(b) = scalar * :V(a) V(b):, whose modes are a.merge(b).

    ``one`` is the multiplicative unit of the coefficient arithmetic (so the
    scalar is built in the right ring).  The scalar is the exponential of
    the summed ``contraction(a.plus, b.minus)``, evaluated by the
    coefficient ring's own exp.
    """
    terms = list(contraction(a.plus, b.minus, q, t).values())
    if not terms:
        return one
    cross = sum(terms[1:], terms[0])
    if not hasattr(cross, "exp"):
        raise ValueError("OPE scalar requires graded coefficients")
    return cross.exp()


def trace_bruteforce(op, ring: SeriesRing, u_name: str, depth: int, q, t) -> TruncSeries:
    """Graded trace sum_{|lam| <= depth} u^{|lam|} <lam| op |lam> / z_lam.

    ``op`` maps Fock vectors to Fock vectors; the lambda-diagonal coefficient
    is read off directly in the power-sum basis.
    """
    from .partitions import partitions_up_to

    out = ring.zero()
    for lam in partitions_up_to(depth):
        image = op({lam: ring.one()})
        diag = image.get(lam)
        if not diag:
            continue
        out = out + ring.monomial(Fraction(1), **{u_name: weight(lam)}) * diag
    return out


def trace_closed(spec: VertexSpec, ring: SeriesRing, u, q, t) -> TruncSeries:
    """Closed form of Tr(u^D V(gamma)): Euler factor times an exponential.

    ``u`` is a generator name or a positive-degree monomial of the ring (such
    as v^2).  The exponent is the sum over n of
    ``contraction(spec.plus, spec.minus)[n]`` times u^n/(1-u^n), the u
    geometric factor expanded inside the ring.
    """
    u = ring.gen(u) if isinstance(u, str) else u
    expo = ring.zero()
    for n, c in contraction(spec.plus, spec.minus, q, t).items():
        expo = expo + c * geometric(ring, u, n, start=1)
    return euler_inverse(ring, u) * expo.exp()


def trace_check_failures(rng, trials: int, u_deg: int) -> list:
    """(trial, q, t) of every seeded trial where trace_closed and
    trace_bruteforce differ to u^u_deg.

    Each trial draws (q, t), then for n = 1, 2 the coefficients of a^n in
    gamma_n and of b^n in gamma_{-n}, from ``rng`` in that order.
    """
    failures = []
    for trial in range(trials):
        q, t = random_qt_pair(rng)
        ring = SeriesRing(["u", "a", "b"], u_deg)
        gp, gm = {}, {}
        for n in (1, 2):
            ca = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            cb = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if ca:
                gp[n] = ring.monomial(ca, a=n)
            if cb:
                gm[n] = ring.monomial(cb, b=n)
        spec = VertexSpec(gp, gm)
        closed = trace_closed(spec, ring, "u", q, t)
        brute = trace_bruteforce(
            lambda v: vertex_apply(spec, v, q, t, degree_cap=u_deg),
            ring, "u", u_deg, q, t)
        if closed != brute:
            failures.append((trial, q, t))
    return failures


# ---------------------------------------------------------------------------
# Free-field realizations of the diagonal operator families
# ---------------------------------------------------------------------------

def operator_family(family: str, q: Fraction, t: Fraction):
    """(vertex kind, Cauchy pole c, prefactor c0, observable scale) of a family.

    The operator is c0^r times the constant term of a product of r vertex
    currents against the symmetrized det(1/(z_i - c z_j)); the observable
    that the moment formulas compute is (c0 scale)^r times that constant term:
      E  : eta,  c = t^{-1}, c0 = t^{-1}, scale t
      E' : xi,   c = t,      c0 = t,      scale t^{-1}
      G  : eta,  c = q,      c0 = -1,     scale 1
      G' : xi,   c = q^{-1}, c0 = -1,     scale 1
    """
    one = Fraction(1)
    if family == "E":
        return "eta", one / t, one / t, t
    if family == "E'":
        return "xi", t, t, one / t
    if family == "G":
        return "eta", q, -one, one
    if family == "G'":
        return "xi", one / q, -one, one
    raise ValueError(f"unknown operator family {family!r}")


def eta_xi_exponent(kind: str, q: Fraction, t: Fraction, nmax: int) -> dict:
    """n -> (coefficient of z^n, coefficient of z^{-n}) in the eta/xi exponent.

    eta(z) carries 1 - t^{-n} on z^n a_{-n} and -(1 - t^n) on z^{-n} a_n.
    xi(z) flips both signs and carries (t/q)^{n/2} on both modes; it is
    returned in the rescaled variable z -> (q/t)^{1/2} z, which leaves
    -(1 - t^{-n}) on z^n and (1 - t^n) (t/q)^n on z^{-n}, both rational.
    The rescaling is exact where the modes are used: every kernel built from
    them is a constant term in z of a product whose other factors depend on
    ratios z_i/z_j only, and z_i -> c z_i (one c for every variable) maps the
    coefficient of z^0 to itself.
    """
    if kind == "eta":
        return {n: (1 - t**-n, -(1 - t**n)) for n in range(1, nmax + 1)}
    if kind == "xi":
        return {n: (-(1 - t**-n), (1 - t**n) * (t / q)**n)
                for n in range(1, nmax + 1)}
    raise ValueError(f"unknown vertex kind {kind!r}")


def free_field_apply(family: str, r: int, v: dict, q: Fraction, t: Fraction) -> dict:
    """Apply the family operator (E_r, E'_r, G_r or G'_r hat) to a Fock vector.

    The operator is linear in kets: the image is sum_lam v[lam] column(lam),
    each column memoised per (family, r, lam, q, t).  In a column the Cauchy
    determinant det(1/(z_i - c z_j)) is replaced by its symmetrized product
    form before expansion, so the ill-defined diagonal entries never appear;
    the constant term in all z variables is then extracted exactly.  The
    modes stop at the ket's weight g and the pair factors at ratio power
    r g + 2, both lossless for a weight-g ket.  At r = 0 the operator is
    the identity; a negative r is a ValueError.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    out: dict = {}
    for lam, coeff in v.items():
        for mu, val in _free_field_column(family, r, lam, q, t).items():
            accumulate(out, mu, coeff * val)
    return out


@per_point
def _free_field_column(family: str, r: int, lam: tuple, q: Fraction,
                       t: Fraction) -> dict:
    """The image of the basis ket lam, shared and never mutated; per point
    the memo holds one column per (family, r) and ket applied."""
    ring = SeriesRing([], 0)
    kind, c, c0, _ = operator_family(family, q, t)
    prefactor = c0**r * cauchy_sym_prefactor(c, r)
    zvars = tuple(f"z{i}" for i in range(1, r + 1))
    g = weight(lam)
    clip = r * g + 2

    coeffs = eta_xi_exponent(kind, q, t, g)
    spec = VertexSpec({}, {})
    for z in zvars:
        spec = spec.merge(z_vertex_spec(zvars, ring, z, coeffs))
    sym_factors = [ratio_sym_factor(zvars, ring, i, j, c, clip)
                   for i in range(r) for j in range(i + 1, r)]

    out: dict = {}
    start = {lam: LaurentPoly.constant(zvars, ring.one())}
    for mu, lp in vertex_apply(spec, start, q, t, g).items():
        if weight(mu) != g:
            continue  # z balance forces degree preservation
        val = product_coefficient(sym_factors + [lp], (0,) * r)
        if val:
            out[mu] = val.constant_term() * prefactor
    return out


# ---------------------------------------------------------------------------
# Charged Fock space
# ---------------------------------------------------------------------------


def fermion_apply(starred: bool, zvar: str, v: dict, ring: SeriesRing,
                  zvars: tuple, q, t, grade_cap: int) -> dict:
    """Apply psi(z) (starred=False) or psi*(z) (starred=True) at q = t.

    The fields are realized bosonically: psi(z) = e^{-alpha} z^{-a_0} B(z),
    psi*(z) = e^{alpha} z^{a_0} B(z)^{-1}-type, with undeformed Heisenberg
    modes.  Components whose partition grade exceeds grade_cap are dropped;
    z powers land in the LaurentPoly coefficients.
    """
    if q != t:
        raise ValueError("fermion fields are available only at q = t")
    sgn = -1 if not starred else 1
    # psi: gamma_{-n} = z^n, gamma_n = -z^{-n}; psi*: opposite signs
    spec = z_vertex_spec(zvars, ring, zvar, {
        n: (Fraction(-sgn), Fraction(sgn)) for n in range(1, grade_cap + 1)})
    out: dict = {}
    for (lam, n), coeff in v.items():
        # for psi the factor z^{-a_0} contributes z^{-n} on charge n; for
        # psi* it is z^{+n}.  Charge then shifts by sgn.
        zpow = LaurentPoly.monomial(zvars, ring, Fraction(1), {zvar: sgn * n})
        for mu, lp in vertex_apply(spec, {lam: coeff}, q, t, grade_cap).items():
            accumulate(out, (mu, n + sgn), lp * zpow)
    return out


def fermion_pair_ope(zvars, ring, xvar: str, shift: Fraction, nmax: int):
    """Normal-ordered form of psi(x) psi*(y) at y = shift * x (q = t).

    Returns (coeff_poly, spec): the operator equals
    coeff_poly * shift^{a_0} * V(spec) with coeff_poly = x^{-1}/(1 - shift),
    the divergent diagonal geometric series summed in closed form before any
    expansion.  The vertex modes are gamma_{-n} = (1 - shift^n) x^n and
    gamma_n = -(1 - shift^{-n}) x^{-n}.
    """
    shift = Fraction(shift)
    if shift == 1:
        raise ZeroDivisionError("coincident fermion arguments")
    coeff = LaurentPoly.monomial(zvars, ring, Fraction(1) / (1 - shift),
                                 {xvar: -1})
    return coeff, z_vertex_spec(zvars, ring, xvar, {
        n: (1 - shift**n, -(1 - shift**-n)) for n in range(1, nmax + 1)})


def fermion_bilinear_apply(cvec: dict, t: Fraction, ring: SeriesRing) -> dict:
    """The r = 1 fermion bilinear Int Dz psi(z) psi*(z/t) at q = t.

    Normal-orders the pair through the charged OPE (closed-form scalar), then
    applies the resulting vertex operator per charge sector, weights by
    t^{-a_0}, and extracts the z constant term.
    """
    zvars = ("z",)
    shift = Fraction(1) / t
    gmax = max((weight(lam) for (lam, _n) in cvec), default=0)
    coeff, spec = fermion_pair_ope(zvars, ring, "z", shift, gmax)
    out: dict = {}
    for (lam, n), amp in cvec.items():
        g = weight(lam)
        start = {lam: LaurentPoly.constant(zvars, ring.one())}
        for mu, lp in vertex_apply(spec, start, t, t, g).items():
            if weight(mu) != g:
                continue
            # Int Dz takes the z^{-1} coefficient; coeff carries the z^{-1}
            val = (lp * coeff).terms.get((-1,))
            if not val:
                continue
            accumulate(out, (mu, n), amp * val * (shift**n))
    return out


def extended_E_apply(r: int, cvec: dict, q: Fraction, t: Fraction) -> dict:
    """t^{-r a_0} O(E_r) on the charged space, O(E_r) = t^r E_r hat."""
    out: dict = {}
    by_charge: dict = {}
    for (lam, n), c in cvec.items():
        by_charge.setdefault(n, {})[lam] = c
    for n, v in by_charge.items():
        for mu, c in free_field_apply("E", r, v, q, t).items():
            accumulate(out, (mu, n), c * (t**r) * (t ** (-r * n)))
    return out


def two_point_fermion_trace(v_cutoff: int, window: int, zeta: Fraction,
                            t: Fraction) -> dict:
    """<psi(x) psi*(y)> under the u^H zeta^{a_0} weight, two ways (q = t).

    Brute force sums diagonal matrix elements over charged states with
    2|lam| + n^2 <= v_cutoff, coefficients Laurent in (x, y) on the window
    |exponent| <= window.  The closed form is
    (x - y)^{-1} theta(zeta y/x) / theta(zeta) (u;u)^2 / ((ux/y;u)(uy/x;u))
    with (x - y)^{-1} expanded in positive powers of y/x.  Returns both.
    """
    from math import isqrt

    from .partitions import partitions_up_to

    ring = SeriesRing([("v", 1)], v_cutoff)
    zvars = ("x", "y")
    one = LaurentPoly.constant(zvars, ring.one())

    def windowed(cv):
        return {k: w for k, c in cv.items() if (w := c.window(window))}

    def op(cv):
        # lossless: psi*(y) fixes every y-exponent, psi(x) then multiplies
        # by x-monomials only, and the brute sum is windowed at the end
        nmaxch = isqrt(v_cutoff) + 1
        cap = max(weight(lam) for (lam, _n) in cv) + window + nmaxch
        stage = windowed(fermion_apply(True, "y", cv, ring, zvars, t, t, cap))
        return windowed(fermion_apply(False, "x", stage, ring, zvars, t, t, cap))

    num = None
    den = ring.zero()
    nmax = isqrt(v_cutoff)
    for n in range(-nmax, nmax + 1):
        rest = v_cutoff - n * n
        if rest < 0:
            continue
        for lam in partitions_up_to(rest // 2):
            e2 = 2 * weight(lam) + n * n
            if e2 > v_cutoff:
                continue
            wgt = ring.monomial(zeta**n, v=e2)
            den = den + wgt
            image = op({(lam, n): one})
            diag = image.get((lam, n))
            if not diag:
                continue
            term = diag * wgt
            num = term if num is None else num + term
    den_inv = den.inverse()
    brute = num.scale(den_inv).window(window)

    u = ring.monomial(Fraction(1), v=2)
    theta_den = theta3(ring, "v", zeta).inverse()
    euler2 = qpochhammer(ring, u, [u]) ** 2
    # assemble (x-y)^{-1} * theta(zeta y/x) * (u x/y; u)^{-1} (u y/x; u)^{-1}
    geom = LaurentPoly(zvars, ring, {
        (-1 - k, k): ring.one() for k in range(2 * window + 2)})
    th = theta3_ratio_laurent(ring, zvars, "v", zeta, window)
    pochs = _ratio_pochhammer_pair(ring, zvars, u, window)
    closed = geom * th * pochs
    closed = closed.scale(theta_den * euler2).window(window)
    return {"brute": brute, "closed": closed, "match": brute == closed}


def theta3_ratio_laurent(ring, zvars, v: str, zeta, window: int) -> LaurentPoly:
    """theta_3(zeta y/x; u) as a Laurent polynomial in the ratio y/x."""
    return LaurentPoly(zvars, ring, {
        (-m, m): mono for m, mono in theta_terms(ring, v, zeta).items()
        if abs(m) <= 2 * window + 1})


def _ratio_pochhammer_pair(ring, zvars, u, window: int) -> LaurentPoly:
    """1 / ((u x/y; u)_inf (u y/x; u)_inf) expanded on the ratio window."""
    from .laurent import laurent_exp

    arg = LaurentPoly(zvars, ring, {})
    for n in range(1, ring.cutoff + 1):
        c = geometric(ring, u, n, start=1) * Fraction(1, n)  # u^n/(n(1-u^n))
        if not c:
            continue
        arg = arg + LaurentPoly(zvars, ring, {(n, -n): c, (-n, n): c})
    return laurent_exp(arg, 2 * window + 2)
