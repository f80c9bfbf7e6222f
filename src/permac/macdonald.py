"""Macdonald symmetric functions with exact coefficients at rational (q, t).

Symmetric functions are sparse maps from partitions to coefficients, in either
the power-sum basis ("p") or the monomial basis ("m").  The p -> m transition
is a product of power sums, each row p_lambda the shared row of lambda without
its last part times p_{last part}; its inverse comes from back-substitution,
because p_lambda is triangular in dominance order, and is kept as integer rows
over one denominator each.  The tables (P_lambda and its norm), Q_lambda, the
p-basis rows, the Pieri edges and the skew coefficients are memoised per point
(q, t) in ``point``'s store and shared, so no caller may mutate them.  The
one-parameter family P_lambda is produced weight by weight through
Gram-Schmidt in the m basis, against the pairing's Gram matrix <m_lam, m_mu>,
which is formed once per table from the integer p/m transitions as an integer
matrix over one scale.  Gram-Schmidt stays on integers: each finished P_mu is
a row of integer numerators over one denominator, and Fractions are built only
for the output tables; Q_lambda = P_lambda / norm is derived per row when it
is asked for.  Each partition is projected onto every
earlier partition of a linear extension of dominance, so unitriangularity is a
checked consequence, not a premise.  Pieri coefficients come from the arm/leg
products, independently of the orthogonalization; the two routes cross-check
each other in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .partitions import (
    arm_leg,
    cells,
    contains,
    dominance_key,
    horizontal_strip,
    length,
    partitions_of,
    weight,
    z_qt,
)
from .point import memo, per_point


class GramSingularError(ArithmeticError):
    """Gram matrix undefined or degenerate at the chosen (q, t) point."""


# ---------------------------------------------------------------------------
# p <-> m transitions (parameter-free, cached by weight)
# ---------------------------------------------------------------------------


def _multiply_m_by_p(mrep: dict, r: int) -> dict:
    """Multiply an m-basis expansion by the power sum p_r."""
    out: dict = {}
    for mu, c in mrep.items():
        choices = {0}
        choices.update(mu)
        for v in choices:
            parts = list(mu)
            if v:
                parts.remove(v)
            parts.append(v + r)
            parts.sort(reverse=True)
            kappa = tuple(parts)
            out[kappa] = out.get(kappa, 0) + c * parts.count(v + r)
    return {k: v for k, v in out.items() if v}


_p_rows: dict = {(): {(): 1}}


def _p_row(lam: tuple) -> dict:
    """The m-basis row of p_lam: the row of lam without its last part times
    p_{last part}, memoised, so partitions that share a prefix share its work."""
    row = _p_rows.get(lam)
    if row is None:
        row = _p_rows[lam] = _multiply_m_by_p(_p_row(lam[:-1]), lam[-1])
    return row


@lru_cache(maxsize=None)
def p_to_m(n: int) -> dict:
    """m-basis expansions of all p_lambda with |lambda| = n (integer coeffs)."""
    return {lam: _p_row(lam) for lam in partitions_of(n)}


@lru_cache(maxsize=None)
def _m_to_p_rows(n: int) -> dict:
    """The p-basis rows of all m_lambda with |lambda| = n, each as integer
    numerators over one denominator: {lam: ({nu: int}, den)}, with
    gcd(den, numerators) = 1.

    p_lam = sum_{mu >= lam} a_{lam mu} m_mu is triangular in dominance, and
    partitions_of lists a linear extension of it from (n) down, so each
    m_lam = (p_lam - sum_{mu > lam} a_{lam mu} m_mu) / a_{lam lam} only needs
    rows already solved.  The subtraction runs over the lcm L of the
    denominators it meets, and the new row is divided once by
    gcd(L a_{lam lam}, row).
    """
    lams = partitions_of(n)
    p_rows = p_to_m(n)
    solved: dict = {}
    for lam in lams:
        row = p_rows[lam]
        terms = [(a, *solved[mu]) for mu, a in row.items() if mu != lam]
        L = lcm(*(den for _, _, den in terms))
        acc = {lam: L}
        for a, nums, den in terms:
            f = a * (L // den)
            for nu, c in nums.items():
                acc[nu] = acc.get(nu, 0) - f * c
        den = L * row[lam]
        nums = {nu: acc[nu] for nu in lams if acc.get(nu)}
        h = gcd(den, *nums.values())
        solved[lam] = ({nu: c // h for nu, c in nums.items()}, den // h)
    return solved


@lru_cache(maxsize=None)
def m_to_p(n: int) -> dict:
    """p-basis expansions of all m_lambda with |lambda| = n (rational coeffs):
    the integer rows of ``_m_to_p_rows`` as Fractions."""
    return {lam: {nu: Fraction(c, den) for nu, c in nums.items()}
            for lam, (nums, den) in _m_to_p_rows(n).items()}


def m_dict_to_p(f: dict) -> dict:
    """Convert an m-basis map (possibly mixed weights) to the p basis.

    The coefficients are ints or Fractions.  Each term c m_mu is c's
    numerator times the integer row of m_mu over c's denominator times the
    row's; the terms are summed over the lcm of those denominators, and one
    Fraction is built per nonzero entry of the result.
    """
    terms = []
    L = 1
    for mu, c in f.items():
        nums, den = _m_to_p_rows(weight(mu))[mu]
        d = c.denominator * den
        terms.append((c.numerator, d, nums))
        L = lcm(L, d)
    acc: dict = {}
    for a, d, nums in terms:
        k = a * (L // d)
        for lam, c in nums.items():
            acc[lam] = acc.get(lam, 0) + k * c
    return {lam: Fraction(v, L) for lam, v in acc.items() if v}


def p_dict_to_m(f: dict) -> dict:
    out: dict = {}
    for lam, c in f.items():
        for mu, a in p_to_m(weight(lam))[lam].items():
            v = out.get(mu, 0) + c * a
            if v:
                out[mu] = v
            else:
                out.pop(mu, None)
    return out


# ---------------------------------------------------------------------------
# the (q,t) pairing and Gram-Schmidt
# ---------------------------------------------------------------------------


def inner_product(f_p: dict, g_p: dict, q: Fraction, t: Fraction):
    """Pairing of two p-basis maps."""
    acc = Fraction(0)
    for lam, c in f_p.items():
        d = g_p.get(lam)
        if d:
            acc += c * d * z_qt(lam, q, t)
    return acc


def _lam_key(lam: tuple) -> str:
    return ",".join(map(str, lam))


def _table_to_disk(q, t, n, table) -> dict:
    from .scalars import format_rational

    return {"q": format_rational(q), "t": format_rational(t), "weight": n,
            "P": {_lam_key(lam): {_lam_key(mu): format_rational(c)
                                  for mu, c in mrep.items()}
                  for lam, mrep in table["P"].items()},
            "norm": {_lam_key(lam): format_rational(v)
                     for lam, v in table["norm"].items()}}


def _table_from_disk(data, params) -> dict | None:
    """Unpack a stored table; None when it is malformed or for another point.

    P and norm must each key their entries by exactly the partitions of the
    weight, every coefficient must be keyed by one of them and written as an
    integer or "num/den", and no norm may be zero.
    """
    if any(data.get(k) != v for k, v in params.items()):
        return None
    lams = {_lam_key(lam): lam for lam in partitions_of(params["weight"])}

    def rational(text):
        num, slash, den = text.partition("/")
        return Fraction(int(num), int(den) if slash else 1)

    try:
        if any(data[side].keys() != lams.keys() for side in ("P", "norm")):
            return None
        P = {lams[lk]: {lams[mk]: rational(c) for mk, c in mrep.items()}
             for lk, mrep in data["P"].items()}
        norm = {lams[lk]: rational(v) for lk, v in data["norm"].items()}
    except (KeyError, AttributeError, TypeError, ValueError, ZeroDivisionError):
        return None
    return {"P": P, "norm": norm} if all(norm.values()) else None


def _m_gram(q: Fraction, t: Fraction, n: int):
    """The m-basis Gram matrix at weight n as integers over one scale.

    Returns (lams, G, scale): lams is partitions_of(n) sorted by
    dominance_key, and <m_lams[a], m_lams[b]> = G[a][b] / scale.  The integer
    m_to_p rows are taken over their common denominator D and the z_qt values
    over theirs, E, so scale = D^2 E.
    """
    if any(t**p == 1 for p in range(1, n + 1)):
        raise GramSingularError(f"the pairing divides by 1 - t^p = 0 at t={t}, weight {n}")
    lams = sorted(partitions_of(n), key=dominance_key)
    index = {lam: i for i, lam in enumerate(lams)}
    rows = _m_to_p_rows(n)
    z = [z_qt(nu, q, t) for nu in lams]
    D = lcm(*(den for _, den in rows.values()))
    E = lcm(*(v.denominator for v in z))
    Z = [v.numerator * (E // v.denominator) for v in z]
    A = [[(index[nu], c * (D // den)) for nu, c in nums.items()]
         for nums, den in map(rows.get, lams)]
    AZ = [[0] * len(lams) for _ in lams]
    for azrow, row in zip(AZ, A):
        for k, a in row:
            azrow[k] = a * Z[k]
    G = [[0] * len(lams) for _ in lams]
    for i, row in enumerate(A):
        for j in range(i, len(lams)):
            zj = AZ[j]
            G[i][j] = G[j][i] = sum([a * zj[k] for k, a in row])
    return lams, G, D * D * E


def macdonald_table(q: Fraction, t: Fraction, n: int) -> dict:
    """P expansions and norms for weight n at the point (q, t).

    Returns {"P": {lam: m-dict}, "norm": {lam: <P_lam, P_lam>}}; Q_lam is
    P_lam / norm_lam and is derived per row by ``macdonald_Q``.
    Gram-Schmidt runs over a linear extension of dominance order from the
    least dominant partition up, and projects each m_lam onto every earlier
    P_mu, whether or not lam dominates mu.  It runs on integers: the pairing
    is the integer Gram matrix G of _m_gram over its one scale, and each
    finished P_mu is kept as integer numerators over one denominator den_mu
    with the integer norm numerator nn_mu = sum_k num_mu[k] G[mu][k].  The
    projection <m_lam, P_mu> is then one integer dot product C_mu, the
    multiple of P_mu's numerators to subtract is C_mu / (nn_mu den_mu), and
    the new row is one integer combination over the lcm L of those
    denominators, divided once by gcd(L, row).  Fractions are built only for
    the output: P = num / den and norm = nn / (den scale).
    Unitriangularity of the result is a theorem and is asserted by the test
    suite rather than forced here.  Tables are memoized per (q, t, weight)
    and optionally persisted through the disk cache, which stores P and the
    norms; a stored table that is malformed or belongs to another point
    counts as a miss and is rebuilt.
    """
    from . import cache
    from .scalars import format_rational

    tables = memo(q, t, "macdonald.tables")
    hit = tables.get(n)
    if hit is not None:
        return hit
    params = {"q": format_rational(q), "t": format_rational(t), "weight": n}
    disk = cache.load("macdonald", "pq-table", params)
    table = None if disk is None else _table_from_disk(disk, params)
    if table is not None:
        tables[n] = table
        return table
    lams, gram, scale = _m_gram(q, t, n)
    done = []  # (support, numerators, den, nn) of each finished P_mu
    table = {"P": {}, "norm": {}}
    for i, lam in enumerate(lams):
        g = gram[i]
        terms = []
        L = 1
        for support, nums, den, nn in done:
            c = sum([a * g[k] for k, a in zip(support, nums)])
            if not c:
                continue
            d = nn * den
            h = gcd(c, d)
            terms.append((c // h, d // h, support, nums))
            L = lcm(L, d // h)
        row = [0] * (i + 1)
        row[i] = L
        for c, d, support, nums in terms:
            f = c * (L // d)
            for k, a in zip(support, nums):
                row[k] -= f * a
        h = gcd(*row)
        support = [k for k, a in enumerate(row) if a]
        nums = [row[k] // h for k in support]
        den = L // h
        # P_lam - m_lam lies in the span of the earlier P_mu, all orthogonal
        # to P_lam, so <P_lam, P_lam> = <P_lam, m_lam> = nn / (den scale)
        nn = sum([a * g[k] for k, a in zip(support, nums)])
        if not nn:
            raise GramSingularError(f"vanishing norm at (q,t)=({q},{t}), weight {n}")
        done.append((support, nums, den, nn))
        table["P"][lam] = {lams[k]: Fraction(a, den) for k, a in zip(support, nums)}
        table["norm"][lam] = Fraction(nn, den * scale)
    tables[n] = table
    if cache.cache_dir():  # store() writes nothing without one
        cache.store("macdonald", "pq-table", params, _table_to_disk(q, t, n, table))
    return table


def macdonald_P(lam: tuple, q: Fraction, t: Fraction) -> dict:
    """P_lambda in the m basis."""
    return macdonald_table(q, t, weight(lam))["P"][lam]


@per_point
def macdonald_Q(lam: tuple, q: Fraction, t: Fraction) -> dict:
    """Q_lambda = P_lambda / <P_lambda, P_lambda> in the m basis (Macdonald
    VI (4.11)), built from the table's P row and norm on first use."""
    table = macdonald_table(q, t, weight(lam))
    norm = table["norm"][lam]
    return {mu: c / norm for mu, c in table["P"][lam].items()}


@per_point
def macdonald_P_p(lam: tuple, q: Fraction, t: Fraction) -> dict:
    """P_lambda in the p basis (the Fock-space incarnation of the ket)."""
    return m_dict_to_p(macdonald_P(lam, q, t))


@per_point
def macdonald_Q_p(lam: tuple, q: Fraction, t: Fraction) -> dict:
    return m_dict_to_p(macdonald_Q(lam, q, t))


def g_row_p(r: int, q: Fraction, t: Fraction) -> dict:
    """The one-row dual function g_r = Q_(r) in the p basis.

    Classical expansion: g_r = sum_{|lam| = r} p_lam / z_lam(q,t); the
    equality with the Gram-Schmidt Q_(r) is covered by tests.
    """
    if r == 0:
        return {(): Fraction(1)}
    return {lam: Fraction(1) / z_qt(lam, q, t) for lam in partitions_of(r)}


# ---------------------------------------------------------------------------
# Pieri coefficients
# ---------------------------------------------------------------------------


@per_point
def _b_ratio(a: int, l: int, q: Fraction, t: Fraction) -> Fraction:
    """b_lam(s) for a cell s of arm a and leg l."""
    return (1 - q**a * t ** (l + 1)) / (1 - q ** (a + 1) * t**l)


def _b_factor(lam: tuple, cell, q: Fraction, t: Fraction) -> Fraction:
    i, j = cell
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        return Fraction(1)
    return _b_ratio(*arm_leg(lam, cell), q, t)


@per_point
def pieri(lam: tuple, mu: tuple, q: Fraction, t: Fraction):
    """(psi, phi) for a horizontal strip lam/mu.

    psi multiplies Q-expansions of Q_mu g_r, phi multiplies P-expansions of
    P_mu g_r; both are products of arm/leg b ratios over row/column cells of
    the strip.  Memoized: the Young-graph path sums and the Pieri up-matrices
    ask for each edge many times.
    """
    if not horizontal_strip(lam, mu):
        raise ValueError(f"{lam}/{mu} is not a horizontal strip")
    strip = [(i, j) for (i, j) in cells(lam)
             if not (i <= len(mu) and j <= mu[i - 1])]
    rows = {i for (i, _) in strip}
    cols = {j for (_, j) in strip}
    psi = Fraction(1)
    phi = Fraction(1)
    for s in cells(lam):
        i, j = s
        if i in rows and j not in cols:
            psi *= _b_factor(mu, s, q, t) / _b_factor(lam, s, q, t)
        if j in cols:
            phi *= _b_factor(lam, s, q, t) / _b_factor(mu, s, q, t)
    return psi, phi


# ---------------------------------------------------------------------------
# Specializations
# ---------------------------------------------------------------------------


class Specialization:
    """Algebra map determined by its power-sum values p_n.

    kind is one of "zero", "alpha", "plancherel", or "principal" for the
    Appendix specializations of the topological vertex, whose p-value
    callables live in the cylindric module.  The instance memoises the
    products p_nu(X) = p_{nu_1}(X) ... p_{nu_l}(X) that ``skew_eval`` sums,
    p_(n)(X) = p_n(X) among them, each product built from the product of nu
    without its last part; the memo lives and dies with the instance, so
    two specializations never share a product.
    """

    def __init__(self, kind: str, p_value, degree: int):
        self.kind = kind
        self.p_value = p_value
        self.degree = degree  # grading degree of p_1 (0 when numeric)
        self._products: dict = {}

    def __repr__(self):
        return f"Specialization({self.kind})"

    def power_product(self, nu: tuple):
        """p_nu(X) for a nonempty partition nu, memoised; a product with a
        vanishing factor is that factor, and is not multiplied further."""
        v = self._products.get(nu)
        if v is None:
            if len(nu) == 1:
                v = self.p_value(nu[0])
            else:
                v = self.power_product(nu[-1:])
                if v:
                    head = self.power_product(nu[:-1])
                    v = head * v if head else head
            self._products[nu] = v
        return v


def zero_spec() -> Specialization:
    return Specialization("zero", lambda n: Fraction(0), 0)


def alpha_spec(values, ring) -> Specialization:
    """Finite formal alpha specialization: p_n = sum_s alpha_s^n.

    Each entry is a pair (symbol_name, rational_coeff) meaning
    alpha_s = coeff * symbol, a degree-one monomial in ``ring``.
    """
    def p_value(n):
        out = ring.zero()
        for name, c in values:
            out = out + ring.monomial(Fraction(c) ** n, **{name: n})
        return out

    return Specialization("alpha", p_value, 1)


def plancherel_spec(xi, ring) -> Specialization:
    """p_n = xi * delta_{n,1}; xi is an element of the series ring ``ring``."""
    def p_value(n):
        return xi if n == 1 else ring.zero()

    return Specialization("plancherel", p_value,
                          1 if xi.min_degree() > 0 else 0)


def lambda_rho_p(lam: tuple, r: int, q: Fraction, t: Fraction,
                 shift: int = 0, inverted: bool = False) -> Fraction:
    """Power sums of the principal specialization attached to a partition.

    Standard variant: p_r = sum_i (q^{lam_i} t^{-i+shift})^r
                            + t^{-r (l - shift + 1)} / (1 - t^{-r}),
    the geometric tail summed in closed form.  The inverted variant replaces
    (q, t) by their reciprocals.
    """
    if inverted:
        q = Fraction(1) / q
        t = Fraction(1) / t
    l = length(lam)
    acc = Fraction(0)
    for i, li in enumerate(lam, start=1):
        acc += (q**li * t ** (-i + shift)) ** r
    acc += t ** (-r * (l - shift + 1)) / (1 - t**-r)
    return acc


# ---------------------------------------------------------------------------
# Skew functions via the Fock pairing
# ---------------------------------------------------------------------------


@per_point
def _skew_coefficients(kind: str, lam: tuple, mu: tuple, q: Fraction,
                       t: Fraction) -> tuple:
    """The pairs (nu, c_nu) with c_nu != 0 in P_{lam/mu} = sum_nu c_nu p_nu.

    c_nu = <bra| a_nu |ket> / z_nu(q,t) over |nu| = |lam| - |mu|, with
    (bra, ket) = (Q_mu, P_lam) for kind "P" and (P_mu, Q_lam) for "Q".
    a_nu is the adjoint of multiplication by p_nu, and p_nu p_kappa is
    p_{kappa u nu}, the partition of the parts of both, so

        c_nu = sum_kappa bra_kappa ket_{kappa u nu} z_{kappa u nu}(q,t) / z_nu(q,t),

    one lookup of each merged partition in the ket, weighted once by z.
    """
    if kind == "P":
        ket, bra = macdonald_P_p(lam, q, t), macdonald_Q_p(mu, q, t)
    elif kind == "Q":
        ket, bra = macdonald_Q_p(lam, q, t), macdonald_P_p(mu, q, t)
    else:
        raise ValueError("kind must be 'P' or 'Q'")
    weighted = {kappa: c * z_qt(kappa, q, t) for kappa, c in ket.items()}
    out = []
    for nu in partitions_of(weight(lam) - weight(mu)):
        c = 0
        for kappa, b in bra.items():
            a = weighted.get(tuple(sorted(kappa + nu, reverse=True)))
            if a:
                c += b * a
        if c:
            out.append((nu, c / z_qt(nu, q, t)))
    return tuple(out)


def skew_eval(kind: str, lam: tuple, mu: tuple, spec, q: Fraction, t: Fraction,
              unit=Fraction(1)):
    """P_{lam/mu} or Q_{lam/mu} evaluated at a specialization X.

    P_{lam/mu}(X) is the Fock matrix element <Q_mu| Gamma_+(X) |P_lam> of
    the lowering half-vertex Gamma_+(X) = exp(sum_n (1-t^n)/(1-q^n) p_n(X)
    a_n / n).  Under the pairing <p_lam|p_mu> = z_lam(q,t) delta, a_n is the
    adjoint of multiplication by p_n, so Gamma_+(X) is the adjoint of
    multiplication by the Cauchy kernel sum_kappa P_kappa(X) Q_kappa, and
    the matrix element is sum_kappa P_kappa(X) <Q_kappa Q_mu, P_lam> =
    P_{lam/mu}(X) (Macdonald VI (7.6)); Q_{lam/mu} swaps P and Q.
    Expanding the exponential gives Gamma_+(X) = sum_nu p_nu(X) a_nu /
    z_nu(q,t), hence

        P_{lam/mu}(X) = sum_{|nu| = |lam| - |mu|} c_nu p_nu(X),
        c_nu = <Q_mu| a_nu |P_lam> / z_nu(q,t).

    The rational c_nu depend on (kind, lam, mu, q, t) only and are memoised
    (``_skew_coefficients``); the products p_nu(X) are memoised by the
    Specialization (``power_product``), and one pass sums c_nu p_nu(X)
    (``combine``).  ``spec`` is a Specialization or a bare callable
    n -> p_n value, whose products last for this call only; ``unit`` fixes
    the type of the result: a rational, a ring one for series p-values, or
    a Laurent one for Laurent p-values.
    """
    if not contains(lam, mu):
        return unit * 0
    if lam == mu:
        return unit
    if not isinstance(spec, Specialization):
        spec = Specialization("callable", spec, 0)
    return combine(unit, [(c, p) for nu, c in _skew_coefficients(kind, lam, mu, q, t)
                          if (p := spec.power_product(nu))])


def combine(unit, pairs):
    """sum c v over the pairs (c, v), c rational, in one pass and in the
    arithmetic of ``unit``: ``series.linear_combination`` for a series unit,
    its Laurent twin for a Laurent unit, else a rational sum."""
    from . import laurent, series

    if isinstance(unit, series.TruncSeries):
        return series.linear_combination(unit.ring, pairs)
    if isinstance(unit, laurent.LaurentPoly):
        return laurent.linear_combination(unit.zvars, unit.ring, pairs)
    return sum((c * v for c, v in pairs), unit * 0)


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def elementary_from_powers(r: int, p_of) -> Fraction:
    """e_r via Newton's identities from power-sum values p_of(k); a
    negative r is a ValueError."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    e = [Fraction(1)]
    for k in range(1, r + 1):
        acc = Fraction(0)
        sign = 1
        for i in range(1, k + 1):
            acc += sign * e[k - i] * p_of(i)
            sign = -sign
        e.append(acc / k)
    return e[r]


def g_row_from_powers(r: int, p_of, q: Fraction, t: Fraction):
    """g_r evaluated from power-sum values: sum over |kappa| = r of
    prod p_{kappa_i} / z_kappa(q,t); a negative r is a ValueError."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if r == 0:
        return Fraction(1)
    acc = Fraction(0)
    for kappa in partitions_of(r):
        term = Fraction(1) / z_qt(kappa, q, t)
        for kp in kappa:
            term *= p_of(kp)
        acc += term
    return acc


# The four diagonal operator families, as observable, eigenvalue and
# fock.operator_family name them.
FREE_FIELD_FAMILIES = ("E", "E'", "G", "G'")


def observable(series: str, r: int, lam: tuple, q: Fraction, t: Fraction) -> Fraction:
    """Exact value of the four observable families on a partition.

    E and E' are elementary symmetric functions of the principal
    specializations at unit shift; G and G' are the one-row duals g_r at the
    zero-shift specializations (G' with reciprocal parameters, equivalently a
    q-shifted argument).
    """
    if series == "E":
        return elementary_from_powers(r, lambda k: lambda_rho_p(lam, k, q, t, shift=1))
    if series == "E'":
        return elementary_from_powers(
            r, lambda k: lambda_rho_p(lam, k, q, t, shift=1, inverted=True))
    if series == "G":
        return g_row_from_powers(
            r, lambda k: lambda_rho_p(lam, k, q, t, shift=0), q, t)
    if series == "G'":
        return g_row_from_powers(
            r, lambda k: q**k * lambda_rho_p(lam, k, q, t, shift=1, inverted=True),
            q, t)
    raise ValueError(f"unknown observable series {series!r}")


def eigenvalue(family: str, r: int, lam: tuple, q: Fraction, t: Fraction) -> Fraction:
    """Eigenvalue of the free-field operator family on the P_lambda ket."""
    if family == "E":
        return elementary_from_powers(r, lambda k: lambda_rho_p(lam, k, q, t))
    if family == "E'":
        return elementary_from_powers(
            r, lambda k: lambda_rho_p(lam, k, q, t, inverted=True))
    if family == "G":
        return g_row_from_powers(r, lambda k: lambda_rho_p(lam, k, q, t), q, t)
    if family == "G'":
        return g_row_from_powers(
            r, lambda k: lambda_rho_p(lam, k, q, t, inverted=True),
            Fraction(1) / q, Fraction(1) / t)
    raise ValueError(f"unknown operator family {family!r}")
