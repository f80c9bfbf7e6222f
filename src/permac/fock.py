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
``half_vertex_apply``, expands either half of a vertex operator in closed
multiset form; ``vertex_apply`` (the brute-force traces, the fermion
fields) runs its two halves in normal order.  The free-field families run
it once per z-variable on rational Fock vectors grouped by z-exponent and
take the constant term by lookup in the Cauchy pair factors.  The
table of the four families (``operator_family``) and the eta/xi exponent
coefficients live here once.  So does ``contraction``, the one pairing of
two sets of vertex modes, and ``wick_exponent``, the one wrap rule of the
traces, of which the closed trace and every moment kernel are exponentials.
``contraction`` forms the ratio (1-q^n)/(1-t^n) itself, so the closed forms
share no code with the Heisenberg modes of the brute-force traces.  The
raising half of the brute-force traces packs kets into the keys of
``series``' flat kernel and reads them back through ``series._unflatten``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, groupby
from math import comb, factorial
from operator import add

from .laurent import (
    LaurentPoly,
    cauchy_sym_prefactor,
    laurent_exp,
    ratio_sym_coefficients,
    zreach,
)
from .macdonald import FREE_FIELD_FAMILIES  # noqa: F401 (re-exported: operator_family's names)
from .macdonald import combine
from .partitions import weight
from .point import per_point, qt_ratio
from .scalars import random_qt_pair
from .series import (
    SeriesRing,
    TruncSeries,
    _Box,
    _flatten,
    _mul_terms,
    _Packing,
    _unflatten,
    geometric,
    qpochhammer,
    qpochhammer_log,
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


# ---------------------------------------------------------------------------
# Vertex operators
# ---------------------------------------------------------------------------


class VertexSpec:
    """Finitely many vertex modes: gamma_plus[n] and gamma_minus[n], n >= 1."""

    def __init__(self, gamma_plus: dict, gamma_minus: dict):
        self.plus = {n: c for n, c in gamma_plus.items() if c}
        self.minus = {n: c for n, c in gamma_minus.items() if c}
        self._raising = (-1, None)  # (budget, ``_raising_table`` of minus)
        self._flat: dict = {}  # ``_raise``'s flattened table, per ring, cap and z-bound

    def raising_table(self, budget: int) -> list:
        """The ``_raising_table`` of the raising modes to at least
        ``budget``: built once, at the largest budget asked for.  A table
        built to a larger budget holds the smaller one's entries, in the same
        order and with equal weights, among those of larger |kappa|."""
        if self._raising[0] < budget:
            self._raising = (budget, _raising_table(self.minus, budget))
            self._flat = {}
        return self._raising[1]

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
    """exp(sum_n modes[n] a_{sign n} / n) v for sign = +1 or -1, in closed form.

    On power sums a_{-n} multiplies by p_n and a_n acts as
    n (1-q^n)/(1-t^n) d/dp_n.  So the lowering half (sign +1) shifts each
    p_n by g_n (1-q^n)/(1-t^n), g = modes, and sends |lam> to
    sum_j prod_n C(m_n(lam), j_n) (g_n (1-q^n)/(1-t^n))^{j_n} |lam - j>;
    the raising half (sign -1) multiplies by prod_n exp(g_n p_n / n) and
    sends |lam> to sum_kappa prod_n (g_n/n)^{m_n(kappa)} / m_n(kappa)!
    |lam + kappa>, over the kappa with |lam| + |kappa| <= ``degree_cap``.
    """
    if sign == -1 and degree_cap is None:
        raise ValueError("the raising half of a vertex operator needs a degree cap")
    modes = {n: g for n, g in modes.items() if g}
    if sign == 1:
        out: dict = {}
        shifts: dict = {}  # (n, m) -> [1, C(m, j) (g_n (1-q^n)/(1-t^n))^j for j = 1..m]
        for lam, c in v.items():
            terms = [((), c)]  # (the parts of lam - j so far, coefficient)
            for n, run in groupby(lam):
                m = len(list(run))
                if n in modes and (n, m) not in shifts:
                    shifts[n, m] = [1] + [p * comb(m, j) for j, p in enumerate(
                        _powers(modes[n] * qt_ratio(n, q, t), m), 1)]
                fs = shifts.get((n, m), [1])
                terms = [(head + (n,) * (m - j), a * f if j else a)
                         for head, a in terms for j, f in enumerate(fs)]
            for mu, a in terms:
                accumulate(out, mu, a)
        return out
    return _raise(_raising_table(modes, _budget(v, degree_cap)), v, degree_cap, {})


def _budget(v: dict, degree_cap: int) -> int:
    """The largest |kappa| the raising half adds to a ket of ``v``."""
    return max([degree_cap - weight(lam) for lam in v] + [0])


def _raising_table(modes: dict, budget: int) -> list:
    """(kappa, |kappa|, prod_n (g_n/n)^k_n / k_n!) over the kappa with
    |kappa| <= ``budget`` built from the nonzero ``modes`` g, the empty
    kappa first, with weight None."""
    kappas = [((), 0, None)]
    for n in sorted(modes, reverse=True):
        pw = [p * Fraction(1, factorial(k)) for k, p in
              enumerate(_powers(modes[n] * Fraction(1, n), budget // n), 1)]
        grown = []
        for kappa, w, b in kappas:
            grown.append((kappa, w, b))
            for k, f in enumerate(pw[:(budget - w) // n], 1):
                grown.append((kappa + (n,) * k, w + n * k, f if b is None else b * f))
        kappas = grown
    return kappas


def _raise(kappas: list, v: dict, degree_cap: int, flat: dict) -> dict:
    """The raising half applied to ``v`` from a ``_raising_table`` whose
    budget covers every ket: each ket gains the kappa with |lam| + |kappa|
    <= ``degree_cap``.

    Rational vectors and weights keep a rational sum.  Otherwise the half
    is one product on integer numerators: a ket is packed as z-digits, its
    weight and its part multiplicities, which add, so the vector times
    sum_kappa b_kappa |kappa> (flattened once per VertexSpec and packing, in
    ``flat``) puts every c b on its ket, and the box test on the weight
    digit drops the kets above ``degree_cap``; a ket of v above it keeps c.
    The product is decoded by ``series._unflatten``, whose packing memoises
    the decodes across calls, and ``flat`` memoises the ket of each decoded
    z-part.  A Laurent vector holds Laurent polynomials only.
    """
    rational = (int, Fraction)
    weights = [b for _, _, b in kappas[1:]]
    lead = next((x for x in (*v.values(), *weights) if not isinstance(x, rational)), None)
    if lead is None:
        out: dict = {}
        for lam, c in v.items():
            accumulate(out, lam, c)  # the empty kappa keeps even a ket above the cap
            room = degree_cap - weight(lam)
            for kappa, w, b in kappas[1:]:
                if w <= room:
                    accumulate(out, tuple(sorted(lam + kappa, reverse=True)), c * b)
        return out
    ring, zvars = lead.ring, getattr(lead, "zvars", None)
    zn = len(zvars or ())
    bound = [] if zvars is None else list(map(add, zreach(v.values(), zn), zreach(weights, zn)))

    def place(terms, lam, x):  # x at the ket lam: its z-terms, |lam| and multiplicities appended
        m = [0] * degree_cap
        for part in lam:
            m[part - 1] += 1
        x = ring.scalar(x) if isinstance(x, rational) else x
        for ze, s in ({(0,) * zn: x} if isinstance(x, TruncSeries) else x.terms).items():
            terms[ze + (weight(lam), *m)] = s

    key = (ring, degree_cap, tuple(bound))
    if key not in flat:
        digits = bound + [2 * degree_cap] + [2 * (degree_cap // n) for n in range(1, degree_cap + 1)]
        pk = _Packing(ring, digits)
        table: dict = {}
        for kappa, w, b in kappas:
            if w <= degree_cap:  # so each sum of two digits fits its digit
                place(table, kappa, 1 if b is None else b)
        hi = digits[:zn] + [degree_cap] + digits[zn + 1:]  # the kets up to the cap
        flat[key] = pk, _flatten(table, pk), _Box(pk, [-d for d in digits], hi), {}
    pk, (tden, tterms), keep, kets = flat[key]
    out, vec = {}, {}
    for lam, c in v.items():
        if weight(lam) > degree_cap:
            out[lam] = c  # the empty kappa keeps even a ket above the cap
        else:
            place(vec, lam, c)
    vden, vterms = _flatten(vec, pk)
    acc = _mul_terms({k: c for _, k, c in vterms}, tterms, pk, keep)
    for d, ts in _unflatten(acc, vden * tden, pk).items():
        ket = kets.get(d)
        if ket is None:
            ket = kets[d] = d[:zn], tuple(n for n in range(degree_cap, 0, -1)
                                          for _ in range(d[zn + n]))
        ze, mu = ket
        if zvars is None:
            out[mu] = ts
        else:
            out.setdefault(mu, LaurentPoly(zvars, ring, {})).terms[ze] = ts
    return out


def _powers(w, k: int) -> list:
    """[w, w^2, ..., w^k] in w's own arithmetic."""
    out = []
    for _ in range(k):
        out.append(w if not out else out[-1] * w)
    return out


def vertex_apply(spec: VertexSpec, v: dict, q, t, degree_cap: int) -> dict:
    """V(gamma) v truncated to grades <= degree_cap, largest partition first.

    When composing several vertex operators the cap must leave headroom for
    excursions above the target grade: with coefficients graded so that
    raising by k costs series degree k, a cap of (max grade of v) + (ring
    cutoff) is lossless, because anything higher carries a dead coefficient.
    The image is sorted, as the free-field columns are.
    """
    lowered = half_vertex_apply(spec.plus, v, q, t, sign=1)
    raised = _raise(spec.raising_table(_budget(lowered, degree_cap)), lowered, degree_cap,
                    spec._flat)
    return dict(sorted(raised.items(), reverse=True))


def gamma_spec(spec, q, t, nmax: int, sign: str) -> VertexSpec:
    """Gamma(X)_+ or Gamma(X)_- of a ``macdonald.Specialization`` X, to mode nmax.

    Modes are (1-t^n)/(1-q^n) p_n(X), p_n read through the specialization's
    memo.  A zero p_n gives no mode, so a zero specialization has no pole at
    q^n = 1.
    """
    modes = {n: pv * ((1 - t**n) / (1 - q**n))
             for n in range(1, nmax + 1) if (pv := spec.power_product((n,)))}
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
    return {n: lo * upper[n] * _mode_ratio(n, q, t)
            for n, lo in lower.items() if n in upper}


def _mode_ratio(n: int, q, t):
    """(1-q^n) / ((1-t^n) n): the commutator of a_n and a_{-n} over n^2."""
    return (1 - q**n) / ((1 - t**n) * n)


def wick_exponent(pairs, u, q, t, zero):
    """sum over (lower, upper, wrapped) in ``pairs`` of
    ``contraction(lower, upper)[n]`` times u^n/(1-u^n) if wrapped, else 1/(1-u^n).

    The one wrap rule of the traces Tr(u^D ...): a wrapped pair (lowering
    modes right of raising ones) meets only around the trace, any other
    also directly.  ``zero`` is the coefficient zero (series or Laurent).
    The terms (the rational mode ratio, lower[n] upper[n] times the weight)
    are summed in one pass by ``macdonald.combine`` in ``zero``'s arithmetic;
    each ratio and weight is formed once per call.
    """
    weights: dict = {}

    def weight(n, wrapped):
        w = weights.get((n, wrapped))
        if w is None:
            w = weights[n, wrapped] = (_mode_ratio(n, q, t),
                                       geometric(u.ring, u, n, start=int(wrapped)))
        return w

    terms = []
    for lower, upper, wrapped in pairs:
        for n, lo in lower.items():
            if n in upper:
                ratio, geom = weight(n, wrapped)
                terms.append((ratio, lo * upper[n] * geom))
    return combine(zero, terms)


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
    is read off directly in the power-sum basis.  Each basis vector starts at
    the rational 1, so the first mode weights scale it without a series
    product.  ``q`` and ``t`` are never read: perfbench's workloads pass
    them, and dropping them waits on ROADMAP item 10.
    """
    from .partitions import partitions_up_to

    out = ring.zero()
    for lam in partitions_up_to(depth):
        image = op({lam: 1})
        diag = image.get(lam)
        if not diag:
            continue
        out = out + ring.monomial(Fraction(1), **{u_name: weight(lam)}) * diag
    return out


def trace_closed(spec: VertexSpec, ring: SeriesRing, u, q, t) -> TruncSeries:
    """Closed form of Tr(u^D V(gamma)): Euler factor and exponential as one exp.

    ``u`` is a generator name or a positive-degree monomial of the ring (such
    as v^2).  The exponent is -log (u; u)_inf plus the ``wick_exponent`` of
    one wrapped pair, the lowering modes ``spec.plus`` against the raising
    ``spec.minus``: they meet only around the trace.
    """
    u = ring.gen(u) if isinstance(u, str) else u
    return (qpochhammer_log(ring, [], [(u, [u])])
            + wick_exponent([(spec.plus, spec.minus, True)], u, q, t,
                            ring.zero())).exp()


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
    the constant term pairs the Fock vector of each z^e in the current image
    with the coefficient of z^-e in the pair factors, exactly.  The modes
    stop at the ket's weight g and the pair factors at ratio power g, both
    lossless for a weight-g ket.  At r = 0 the operator is the identity; a
    negative r is a ValueError.
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
    """The image of the basis ket lam, largest partition first, shared and
    never mutated; per point the memo holds one column per (family, r) and
    ket applied."""
    kind, c, c0, _ = operator_family(family, q, t)
    prefactor = c0**r * cauchy_sym_prefactor(c, r)
    table = _cauchy_table(c, r, weight(lam), q, t)
    out: dict = {}
    for e, vec in _current_image(kind, r, lam, q, t).items():
        s = table.get(tuple(-x for x in e))
        if s:
            for mu, a in vec.items():
                accumulate(out, mu, a * s)
    return {mu: val * prefactor for mu, val in sorted(out.items(), reverse=True)}


@per_point
def _current_image(kind: str, r: int, lam: tuple, q: Fraction, t: Fraction) -> dict:
    """e -> the Fock vector of z^e in :X(z_1) ... X(z_r): |lam>, X the eta or
    xi current (so E and G share one image, and E' and G' another).

    All lowering halves run first, then the raising halves capped at |lam|,
    one z-variable at a time on the rational ``eta_xi_exponent`` modes.  A
    ket mu of a z_i half lands at e_i = |mu| - |lam| - (the other e_j), so
    one call takes the groups that differ only in e_i.  Raising z_i fixes
    e_1..e_i and drops a positive e_1 + ... + e_i, which no pair-factor term
    cancels (their prefix sums are nonnegative).  Only sum(e) = 0 stays.
    """
    g = weight(lam)
    coeffs = eta_xi_exponent(kind, q, t, g)
    halves = ([(1, {n: down for n, (_, down) in coeffs.items()}, None)] * r
              + [(-1, {n: up for n, (up, _) in coeffs.items()}, g)] * r)
    groups = {(0,) * r: {lam: Fraction(1)}}
    for step, (sign, modes, cap) in enumerate(halves):
        i = step % r
        merged: dict = {}  # e without e_i -> the kets of those groups
        for e, vec in groups.items():
            merged.setdefault(e[:i] + e[i + 1:], {}).update(vec)
        groups = {}
        for rest, vec in merged.items():
            for mu, a in half_vertex_apply(modes, vec, q, t, sign, cap).items():
                f = rest[:i] + (weight(mu) - g - sum(rest),) + rest[i:]
                if sign == 1 or sum(f[:i + 1]) <= 0:
                    groups.setdefault(f, {})[mu] = a
    return {e: vec for e, vec in groups.items() if not sum(e)}


@per_point
def _cauchy_table(c: Fraction, r: int, cut: int, q: Fraction, t: Fraction) -> dict:
    """z-exponent vector -> coefficient in prod_{i<j} of the pair factor
    (1 - z_i/z_j)/(1 - c z_i/z_j) cut at ratio power ``cut``."""
    coeffs = ratio_sym_coefficients(c, cut)
    table = {(0,) * r: Fraction(1)}
    for i, j in combinations(range(r), 2):
        nxt: dict = {}
        for f, a in table.items():
            for k, b in enumerate(coeffs):
                accumulate(nxt, f[:i] + (f[i] + k,) + f[i + 1:j] + (f[j] - k,) + f[j + 1:], a * b)
        table = nxt
    return table


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

    The closed side's cuts are lossless: a theta term (y/x)^m carries
    v^(m^2) and a Pochhammer term (x/y)^j at least v^(2|j|), in every power
    of the exponential too, so |m| <= isqrt(v_cutoff), |j| <= v_cutoff // 2,
    and the window keeps x^(-1-k) y^k (y/x)^m (x/y)^j only if
    k <= window - 1 - m + j.
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
    euler2 = qpochhammer(ring, [(u, [u])] * 2, [])
    # assemble (x-y)^{-1} * theta(zeta y/x) * (u x/y; u)^{-1} (u y/x; u)^{-1}
    geom = LaurentPoly(zvars, ring, {
        (-1 - k, k): ring.one() for k in range(window + nmax + v_cutoff // 2)})
    th = theta3_ratio_laurent(ring, zvars, "v", zeta)
    # 1/((u x/y; u)(u y/x; u)): the wrapped pairs of the modes x^n, y^-n and
    # y^n, x^-n at q = t, whose weight u^n/(1-u^n) = v^2n/(1-v^2n) vanishes
    # past n = v_cutoff // 2
    xs, ys = (z_vertex_spec(zvars, ring, z, {n: (Fraction(1), Fraction(1))
                                             for n in range(1, v_cutoff // 2 + 1)})
              for z in zvars)
    pochs = laurent_exp(wick_exponent([(xs.minus, ys.plus, True), (ys.minus, xs.plus, True)],
                                      u, t, t, LaurentPoly(zvars, ring, {})),
                        v_cutoff // 2)
    closed = (geom * th).mul(pochs, window=window).scale(theta_den * euler2)
    return {"brute": brute, "closed": closed, "match": brute == closed}


def theta3_ratio_laurent(ring, zvars, v: str, zeta) -> LaurentPoly:
    """theta_3(zeta y/x; u) as a Laurent polynomial in the ratio y/x, every
    charge inside the ring cutoff."""
    return LaurentPoly(zvars, ring, {
        (-m, m): mono for m, mono in theta_terms(ring, v, zeta).items()})
