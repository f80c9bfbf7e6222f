"""Cylindric partitions and generalized MacMahon identities.

A cylindric partition of period N and profile M (a subset of 1..N) is a
sequence of partitions interlacing cyclically: lambda^k precedes lambda^{k+1}
by a horizontal strip upward when k is in M, downward otherwise, indices mod
N.  Three weight systems live here: the box-product F built from ratios of
the hook function f(w) = (t w; q)_inf / (q w; q)_inf (evaluated exactly by
telescoping pairs, as products of the integers F(x, y) = B^x D^y - A^x C^y
for q = A/B and t = C/D, memoised per point apart from the Pieri edges'
own, with one Fraction per weight), the Pieri product Phi around the cycle,
and the Hall-Littlewood component weight A.  The generating-function
identities against Pochhammer products are verified coefficientwise in s;
each closed side, here and in the vertex traces below, states its symbols
once as the num/den lists of one ``series.qpochhammer``.

The second half covers traces of refined topological vertices, including a
windowed-Laurent logarithm comparison for profiles whose closed form mixes
expansion directions.  Where a Laurent product is windowed next (the skew
products of the literal sum, the last modulus product of a Pochhammer log)
it is formed inside the window only (``LaurentPoly.mul``'s ``window``).
Their principal specializations are ``macdonald.Specialization``
instances, series-valued for the empty profile and Laurent-valued
otherwise.  The direct vertex kernel's log is one ``fock.wick_exponent`` of
the Gamma modes that ``fock.gamma_spec`` builds from them, and the
E'_1-weighted trace sums the one-step ``process.weight_W``; both modules
load inside those checks only.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import mul

from . import macdonald
from .laurent import LaurentPoly, _Box, laurent_log
from .macdonald import Specialization, observable, skew_eval
from .partitions import (
    conjugate,
    horizontal_strip,
    length,
    part,
    partitions_inside,
    partitions_up_to,
    weight,
)
from .point import memo
from .series import SeriesRing, TruncSeries, _flatten, _Packing, first_mismatch, \
    geometric, product_sums, qpochhammer, qpochhammer_log


class CylindricProfile:
    def __init__(self, N: int, M):
        self.N = int(N)
        if self.N < 1:
            raise ValueError(f"period N = {self.N} must be at least 1")
        self.M = frozenset(int(k) for k in M)
        if not self.M <= set(range(1, self.N + 1)):
            raise ValueError("profile must be a subset of 1..N")

    def up(self, k: int) -> bool:
        """True when lambda^k precedes lambda^{k+1} (k in M)."""
        return ((k - 1) % self.N + 1) in self.M

    def __repr__(self):
        return f"CylindricProfile(N={self.N}, M={sorted(self.M)})"


def _step_ok(profile: CylindricProfile, k: int, lam_k: tuple, lam_next: tuple) -> bool:
    if profile.up(k):
        return horizontal_strip(lam_next, lam_k)
    return horizontal_strip(lam_k, lam_next)


def enumerate_cp(profile: CylindricProfile, max_weight: int):
    """All cylindric partitions of total weight <= max_weight."""
    N = profile.N
    out = []
    first_pool = partitions_up_to(max_weight)

    def extend(k, lams, used):
        if k == N:
            if _step_ok(profile, N, lams[-1], lams[0]):
                out.append(tuple(lams))
            return
        for nxt in partitions_up_to(max_weight - used):
            if _step_ok(profile, k, lams[-1], nxt):
                extend(k + 1, lams + [nxt], used + weight(nxt))

    for lam1 in first_pool:
        extend(1, [lam1], weight(lam1))
    return out


def cp_weight(lams) -> int:
    return sum(weight(l) for l in lams)


# ---------------------------------------------------------------------------
# Weight F: telescoped hook-function ratios
# ---------------------------------------------------------------------------


def weight_F(profile: CylindricProfile, lams, q: Fraction, t: Fraction) -> Fraction:
    """The product over the boxes (k, j) of their telescoped hook ratios.

    A box's weight is the m-product of the pairs f(q^a t^m) / f(q^b t^m),
    f(w) = (t w; q)_inf / (q w; q)_inf, for (a, b) = (lam_j - lam_{j+m},
    lam_j - mu_{j+m+off}) and (lam_j - lam_{j+m+1}, lam_j - nu_{j+m+off'}),
    mu and nu the neighbours lam^{k+1} and lam^{k-1} read at offsets set by
    the profile; it stops once all four tails are zero.  The same t power
    above and below makes the infinite products telescope: for a >= b the
    ratio is (q^{b+1} t^m; q)_{a-b} / (q^b t^{m+1}; q)_{a-b}, and for a < b
    the inverse of the swapped one.

    With q = A/B and t = C/D, 1 - q^x t^y = F(x, y) / (B^x D^y) for the
    integers F(x, y) = B^x D^y - A^x C^y, memoised per point apart from
    ``macdonald.pieri``'s, so the F = Phi check shares no factor evaluation.
    Each ratio is then (D/B)^(a-b) times a ratio of products of F, and the
    weight is one Fraction.  Every exponent is nonnegative on a cylindric
    partition.  A zero F below a fraction bar, or in the ratio that an a < b
    pair inverts, is a ZeroDivisionError.
    """
    A, B, C, D = q.numerator, q.denominator, t.numerator, t.denominator
    known = memo(q, t, "cylindric.F")

    def F(x, y):
        if (v := known.get((x, y))) is None:
            v = known[x, y] = B**x * D**y - A**x * C**y
        return v

    N = profile.N
    num = den = guard = 1  # guard: the F that the a < b ratios invert
    e = 0  # the power of D/B
    for k in range(1, N + 1):
        lam = lams[k - 1]
        nxt = lams[k % N]
        prv = lams[(k - 2) % N]
        off_mu = 1 if profile.up(k) else 0
        off_nu = 1 if not profile.up(k - 1) else 0
        for j in range(1, length(lam) + 1):
            lam1 = lam[j - 1]
            m = 0
            while True:
                l1 = part(lam, j + m)
                l2 = part(lam, j + m + 1)
                mu = part(nxt, j + off_mu + m)
                nu = part(prv, j + off_nu + m)
                if l1 == 0 and l2 == 0 and mu == 0 and nu == 0:
                    break
                for a, b in ((lam1 - l1, lam1 - mu), (lam1 - l2, lam1 - nu)):
                    e += a - b
                    for i in range(b, a):
                        num *= F(i + 1, m)
                        den *= F(i, m + 1)
                    for i in range(a, b):
                        g = F(i, m + 1)
                        num *= g
                        den *= F(i + 1, m)
                        guard *= g
                m += 1
    if not den or not guard:
        raise ZeroDivisionError(f"a hook ratio of {lams} has a pole at (q, t) = ({q}, {t})")
    if e >= 0:
        return Fraction(num * D**e, den * B**e)
    return Fraction(num * B**-e, den * D**-e)


# ---------------------------------------------------------------------------
# Weight Phi: Pieri products around the cycle
# ---------------------------------------------------------------------------


def weight_Phi(profile: CylindricProfile, lams, q: Fraction, t: Fraction) -> Fraction:
    out = Fraction(1)
    N = profile.N
    for k in range(1, N + 1):
        lam_k = lams[k - 1]
        lam_next = lams[k % N]
        if profile.up(k):
            out *= macdonald.pieri(lam_next, lam_k, q, t)[0]
        else:
            out *= macdonald.pieri(lam_k, lam_next, q, t)[1]
    return out


# ---------------------------------------------------------------------------
# Weight A: Hall-Littlewood limit through levels and components
# ---------------------------------------------------------------------------


def box_level(lam: tuple, j: int) -> int:
    h = 1
    while part(lam, j + h) >= part(lam, j):
        h += 1
    return h


def components(profile: CylindricProfile, lams) -> list:
    """Same-level connected components of the support, with winding tags.

    Positions (k, j) with a nonzero entry are adjacent downward to
    (k+1, j - chi[k not in M]) and (k+1, j + chi[k in M]) cyclically; edges
    join adjacent positions of equal level.  A component is global when it
    winds around the cylinder: lifting each crossing k -> k+1 by one unit
    admits no consistent potential (equivalently, the lifted component closes
    on a different sheet).  Only winding components survive the
    Hall-Littlewood weight; size alone does not decide (a component may pass
    a column twice, or wind within a single-column cylinder).
    """
    N = profile.N
    # an edge joins cells of equal (entry, level) tags, the run conditions of
    # the Hall-Littlewood collapse; the potential rises by 1 per crossing
    tag = {(k, j): (lams[k - 1][j - 1], box_level(lams[k - 1], j))
           for k in range(1, N + 1) for j in range(1, length(lams[k - 1]) + 1)}
    incidence = {pos: [] for pos in tag}
    for (k, j), here in tag.items():
        for dj in ((1, 0) if profile.up(k) else (0, -1)):
            nb = (k % N + 1, j + dj)
            if tag.get(nb) == here:
                incidence[(k, j)].append((nb, 1))
                incidence[nb].append(((k, j), -1))
    seen = set()
    comps = []
    for pos in sorted(tag):
        if pos in seen:
            continue
        comp = {pos}
        potential = {pos: 0}
        winding = False
        stack = [pos]
        while stack:
            p = stack.pop()
            for nb, dphi in incidence[p]:
                target_phi = potential[p] + dphi
                if nb in potential:
                    if potential[nb] != target_phi:
                        winding = True
                    continue
                potential[nb] = target_phi
                comp.add(nb)
                stack.append(nb)
        seen |= comp
        comps.append({
            "cells": sorted(comp),
            "level": tag[pos][1],
            "size": len(comp),
            "global": winding,
        })
    return comps


def local_levels(profile: CylindricProfile, lams) -> list:
    """The levels of the local (non-winding) components, in component order."""
    return [c["level"] for c in components(profile, lams) if not c["global"]]


def hl_weight(levels, t: Fraction) -> Fraction:
    """prod (1 - t^level) over the local component levels: the weight A."""
    out = Fraction(1)
    for level in levels:
        out *= 1 - t ** level
    return out


# ---------------------------------------------------------------------------
# Generalized MacMahon verification
# ---------------------------------------------------------------------------


def _bracket(l: int, k: int, N: int) -> int:
    return l - k if l > k else l - k + N


def macmahon_rhs(profile: CylindricProfile, ring: SeriesRing, q: Fraction,
                 t: Fraction) -> TruncSeries:
    """(s^N; s^N)^{-1} prod_{k in M, l not in M} (t s^[l-k]; q, s^N) ratio."""
    N = profile.N
    sN = ring.monomial(Fraction(1), s=N)
    ds = [_bracket(l, k, N) for k in sorted(profile.M) for l in range(1, N + 1)
          if l not in profile.M]
    return qpochhammer(
        ring, [(ring.monomial(t, s=d), [q, sN]) for d in ds],
        [(sN, [sN]), *((ring.monomial(Fraction(1), s=d), [q, sN]) for d in ds)])


def macmahon_verify(profile: CylindricProfile, s_cutoff: int, q: Fraction,
                    t: Fraction) -> dict:
    """Coefficientwise comparison of weighted sums with their closed forms.

    Variants: "macdonald" (F weights at (q,t)), "hl" (A weights at t, the
    q = 0 limit), "strict" (A at t = -1: chi[strict] 2^components), and
    "schur" (plain counting at q = t).  The report lists the first mismatch.
    """
    ring = SeriesRing(["s"], s_cutoff)
    cps = enumerate_cp(profile, s_cutoff)
    report = {"profile": {"N": profile.N, "M": sorted(profile.M)},
              "s_cutoff": s_cutoff, "checks": {}}
    sums = {name: ring.zero() for name in ("macdonald", "hl", "strict", "schur")}
    strict_count_sum = ring.zero()
    for lams in cps:
        w = cp_weight(lams)
        mono = ring.monomial(Fraction(1), s=w)
        sums["macdonald"] = sums["macdonald"] + mono * weight_F(profile, lams, q, t)
        # one component graph per configuration gives the A weights at t
        # and at -1, strictness and the local component count
        levels = local_levels(profile, lams)
        sums["hl"] = sums["hl"] + mono * hl_weight(levels, t)
        # the A weight at the algebraic point t = -1; see the report
        # field below for the naive strict-count comparison
        sums["strict"] = sums["strict"] + mono * hl_weight(levels, Fraction(-1))
        if all(level == 1 for level in levels):  # strict
            strict_count_sum = strict_count_sum + mono * Fraction(2 ** len(levels))
        sums["schur"] = sums["schur"] + mono
    closed = {"macdonald": macmahon_rhs(profile, ring, q, t),
              "hl": macmahon_rhs(profile, ring, Fraction(0), t),
              "strict": macmahon_rhs(profile, ring, Fraction(0), Fraction(-1)),
              "schur": macmahon_rhs(profile, ring, t, t)}
    ok_all = True
    for name, rhs in closed.items():
        lhs = sums[name]
        match = lhs == rhs
        first_bad = first_mismatch(lhs, rhs)
        if first_bad is not None:
            (d,), cl, cr = first_bad
            first_bad = {"s_degree": d, "lhs": str(cl), "rhs": str(cr)}
        ok_all &= match
        report["checks"][name] = {"match": match, "first_mismatch": first_bad}
    # counting strict configurations by 2^(local components) agrees with
    # the t = -1 evaluation only when every non-strict configuration has
    # a local component of even level; odd levels >= 3 survive the sign
    # and break the naive count (first instance: period 2, one-element
    # profile, weight 5)
    report["checks"]["strict"]["count_form_matches"] = \
        strict_count_sum == closed["strict"]
    report["verified"] = ok_all
    return report


def cp_dump(profile: CylindricProfile, max_weight: int, q: Fraction,
            t: Fraction) -> dict:
    from .scalars import format_rational

    cps = enumerate_cp(profile, max_weight)
    return {
        "profile": {"N": profile.N, "M": sorted(profile.M)},
        "cps": [{
            "parts": [list(l) for l in lams],
            "weight": cp_weight(lams),
            "F": format_rational(weight_F(profile, lams, q, t)),
            "Phi": format_rational(weight_Phi(profile, lams, q, t)),
        } for lams in cps],
    }


# ---------------------------------------------------------------------------
# Principal specializations for the topological vertex
# ---------------------------------------------------------------------------


def principal_p_envelope(nu: tuple, variant: str):
    """Exponent data for the two vertex specializations.

    variant "xr_ynu": x^rho y^{-nu}: x_i -> x^i y^{-nu_i} with geometric tail
    x^{n(l+1)}/(1-x^n); variant "yr_nxu": y^{rho-1} x^{-nu'}:
    x_i -> y^{i-1} x^{-nu'_i} with tail y^{n nu_1}/(1-y^n).
    """
    if variant == "xr_ynu":
        finite = [(i, -part(nu, i)) for i in range(1, length(nu) + 1)]
        tail = ("x", length(nu) + 1)
        return finite, tail
    if variant == "yr_nxu":
        nuc = conjugate(nu)
        finite = [(-part(nuc, i), i - 1) for i in range(1, part(nu, 1) + 1)]
        tail = ("y", part(nu, 1))
        return finite, tail
    raise ValueError("unknown principal variant")


def principal_p_trunc(ring: SeriesRing, variant: str) -> Specialization:
    """The empty-profile (nu = ()) specialization: only the geometric tail
    of ``principal_p_envelope``, expanded inside the truncated ring.

    Variant "xr_ynu" is x^rho, p_n = x^n / (1 - x^n); variant "yr_nxu" is
    y^{rho-1}, p_n = 1 / (1 - y^n).
    """
    _, (tvar, texp) = principal_p_envelope((), variant)
    tail = ring.gen(tvar)
    return Specialization("principal",
                          lambda n: geometric(ring, tail, n, start=texp), 1)


def principal_p_laurent(zvars, ring: SeriesRing, nu: tuple, variant: str,
                        window: int) -> Specialization:
    """The specialization of profile nu, its p-values window-truncated
    Laurent polynomials."""
    finite, (tvar, texp) = principal_p_envelope(nu, variant)
    tail = (1, 0) if tvar == "x" else (0, 1)
    ix, iy = zvars.index("x"), zvars.index("y")

    def p_value(n):
        # the finite part, then the tail tvar^{n texp} + tvar^{n (texp + 1)} + ...
        xy = Counter((a * n, b * n) for a, b in finite)
        xy.update((tail[0] * e, tail[1] * e) for e in range(texp * n, window + 1, n))
        terms = {}
        for (a, b), c in xy.items():
            e = [0] * len(zvars)
            e[ix], e[iy] = a, b
            terms[tuple(e)] = ring.scalar(Fraction(c))
        return LaurentPoly(tuple(zvars), ring, terms)

    return Specialization("principal", p_value, 1)


def vertex_skew_sum(lam: tuple, mu: tuple, p_first, p_second, q, t, unit,
                    window: int = None):
    """sum_eta P_{lam/eta}(first) Q_{mu/eta}(second), summed in one pass.

    ``p_first`` and ``p_second`` are Specializations, whose memoised
    products p_nu serve every eta and every call; ``unit`` is the series or
    Laurent one of their p-values.  Each skew value is flattened once, and
    the products are one ``series.product_sums`` on integer numerators.
    With a ``window`` (Laurent p-values only), each product keeps only its
    z-exponents in [-window, window] (``LaurentPoly.mul``'s ``_Box``): the
    sum cut to that window, for a caller that cuts it there.
    """
    pairs = []
    # a nonzero term needs eta inside both, so inside their meet
    for eta in partitions_inside(tuple(map(min, lam, mu))):
        pv = skew_eval("P", lam, eta, p_first, q, t, unit=unit)
        if not pv:
            continue
        qv = skew_eval("Q", mu, eta, p_second, q, t, unit=unit)
        if not qv:
            continue
        pairs.append((pv, qv))
    ring = unit.ring
    series_unit = isinstance(unit, TruncSeries)
    if series_unit:
        pk, keep = _Packing(ring), None
        pairs = [({(): pv}, {(): qv}) for pv, qv in pairs]
    else:
        # the packing holds every unpruned product, as in ``LaurentPoly.mul``
        zn = len(unit.zvars)
        bound = [0] * zn
        for pv, qv in pairs:
            (lo1, hi1), (lo2, hi2) = pv.exp_ranges(), qv.exp_ranges()
            bound = [max(b, abs(l1 + l2), abs(h1 + h2))
                     for b, l1, l2, h1, h2 in zip(bound, lo1, lo2, hi1, hi2)]
        pk = _Packing(ring, bound)
        keep = None if window is None else _Box(pk, (-window,) * zn, (window,) * zn)
        pairs = [(pv.terms, qv.terms) for pv, qv in pairs]
    (terms,) = product_sums((((_flatten(a, pk), _flatten(b, pk)), ((1, 1),))
                             for a, b in pairs), pk, 1, keep)
    return terms.get((), ring.zero()) if series_unit else LaurentPoly(unit.zvars, ring, terms)


def cor_b2_check(grade: int, q: Fraction, t: Fraction) -> dict:
    """Trace of the diagonal vertex at nu = 0 against its closed form.

    LHS is the literal lambda sum.  The half-vertices inside the trace sit in
    normal order (raising left of lowering), so the closed form is the Euler
    factor times the wrapped Cauchy kernel: the 4-fold Pochhammer ratio
    (t x; q, u, x, y)/(x; q, u, x, y) divided by its u = 0 layer
    (t x; q, x, y)/(x; q, x, y).
    """
    ring = SeriesRing(["u", "x", "y"], grade)
    p_first = principal_p_trunc(ring, "yr_nxu")
    p_second = principal_p_trunc(ring, "xr_ynu")
    lhs = ring.zero()
    for lam in partitions_up_to(grade):
        term = vertex_skew_sum(lam, lam, p_first, p_second, q, t, ring.one())
        lhs = lhs + ring.monomial(Fraction(1), u=weight(lam)) * term
    u, x, y = ring.gen("u"), ring.gen("x"), ring.gen("y")
    tx = ring.monomial(t, x=1)
    rhs = qpochhammer(ring, [(tx, [q, u, x, y]), (x, [q, x, y])],
                      [(u, [u]), (x, [q, u, x, y]), (tx, [q, x, y])])
    return {"grade": grade, "match": lhs == rhs, "lhs": lhs, "rhs": rhs}


# ---------------------------------------------------------------------------
# Nonnegative signatures and the q-binomial lemma
# ---------------------------------------------------------------------------


def signatures(n: int, max_weight: int) -> list:
    """All nonnegative signatures with exactly n entries and weight <= max_weight.

    Trailing zeros are significant: a signature is a partition padded with
    zeros to n entries.
    """
    return [kappa + (0,) * (n - length(kappa))
            for kappa in partitions_up_to(max_weight) if length(kappa) <= n]


def signature_factors(ring: SeriesRing, a, x, grade: int) -> list:
    """[(a; x)_m / (x; x)_m for m = 0..grade], x a positive-degree monomial:
    entry m is entry m - 1 times (1 - a x^(m-1)) / (1 - x^m)."""
    return list(accumulate(((ring.one() - x ** (m - 1) * a) * geometric(ring, x, m)
                            for m in range(1, grade + 1)), mul, initial=ring.one()))


def signature_coefficient(factors: list, sig: tuple) -> TruncSeries:
    """prod over the part values r of sig of factors[m], m = m_r(sig), the
    ``signature_factors`` list of (a; x)_m / (x; x)_m."""
    return reduce(mul, (factors[m] for m in Counter(sig).values()), factors[0])


def vertex_e1_trace_check(grade: int, q: Fraction, t: Fraction) -> dict:
    """Trace of the diagonal vertex weighted by the inverted elementary
    observable, three ways.

    (A) literal double sum: E'_1(mu) times the one-step process weights
        weight_W(mu; kappa) = u^{|kappa|} Q_{mu/kappa}(y^{rho-1}) P_{mu/kappa}(x^rho);
    (B) free-field route: the closed single-step moment formula for the
        inverted elementary series times the closed trace normalizer;
    (C) signature-sum closed form obtained by expanding the kernel constant
        term through the q-binomial signature lemma: prefactors times
        sum_N q^{-N} sum over pairs of length-N signatures of
        prod_r (t;u)_m (t;u)_m / ((u;u)_m (u;u)_m) x^{|lam|+N} y^{|mu|}.
    """
    from .process import ProcessSpec, moment_formula, partition_function_closed, \
        weight_W

    ring = SeriesRing(["u", "x", "y"], grade)
    x_rho = principal_p_trunc(ring, "xr_ynu")
    y_rho = principal_p_trunc(ring, "yr_nxu")
    ps = ProcessSpec(ring, q, t, ring.gen("u"), [x_rho], [y_rho])

    # (A) the literal double sum
    lhs = ring.zero()
    for mu in partitions_up_to(grade):
        inner = sum((weight_W(ps, (mu,), (kappa,))
                     for kappa in partitions_up_to(weight(mu))), ring.zero())
        lhs = lhs + inner * observable("E'", 1, mu, q, t)

    # (B) normalized moment times the partition function
    mid = moment_formula(ps, [("E'", 1)]) * partition_function_closed(ps)

    # (C) signature-sum closed form
    u, x, y = ring.gen("u"), ring.gen("x"), ring.gen("y")
    pref = qpochhammer(
        ring, [(u * (t / q), [u]), (ring.monomial(t, x=1), [q, u, x, y])],
        [(u * t, [u]), (u * (1 / q), [u]), (x, [q, u, x, y])]) \
        * (Fraction(1) / (1 - t))
    factors = signature_factors(ring, t, u, grade)
    sig_sum = ring.zero()
    for n_len in range(grade + 1):
        qn = Fraction(1) / q ** n_len
        coef = {mu: signature_coefficient(factors, mu)
                for mu in signatures(n_len, grade)}
        for lam in signatures(n_len, grade - n_len):
            for mu, cmu in coef.items():
                sig_sum = sig_sum + coef[lam] * cmu * ring.monomial(
                    qn, x=sum(lam) + n_len, y=sum(mu))
    rhs = pref * sig_sum
    return {"grade": grade,
            "match_ab": lhs == mid, "match_ac": lhs == rhs,
            "match": lhs == mid and lhs == rhs,
            "lhs": lhs, "kernel_route": mid, "signature_route": rhs}


# ---------------------------------------------------------------------------
# Diagonal vertex trace with a nonempty asymptotic profile (log comparison)
# ---------------------------------------------------------------------------


def laurent_log_pochhammer(zvars, ring: SeriesRing, coeff, zexp: dict,
                           q: Fraction, z_moduli, window: int) -> LaurentPoly:
    """Windowed log of (coeff * z^zexp; q, u, z_moduli)_infinity.

    The moduli are the rational q, the ring's graded symbol u and the
    z-variable names ``z_moduli``, whose geometric expansions run over
    nonnegative powers.  The power sum over k is cut off by window escape: a
    positive argument exponent only grows, and a negative one only returns
    upward when that variable also appears as a modulus (rejected here:
    callers never need it).
    """
    exps = [zexp.get(v, 0) for v in zvars]
    bounds = []
    for v, e in zip(zvars, exps):
        if e > 0:
            bounds.append(window // e)
        elif e < 0 and v not in z_moduli:
            bounds.append(window // (-e))
    if not bounds:
        raise ValueError("cannot truncate: argument has no window escape")
    kmax = min(bounds)
    u = ring.gen("u")
    out = LaurentPoly(tuple(zvars), ring, {})
    for k in range(1, kmax + 1):
        scalar = ring.scalar(coeff**k * Fraction(-1, k)) \
            * geometric(ring, q, k) * geometric(ring, u, k)
        if not scalar:
            continue
        lp = LaurentPoly(tuple(zvars), ring, {tuple(e * k for e in exps): scalar})
        for n, v in enumerate(z_moduli, start=1):
            iv = zvars.index(v)
            geo_terms = {}
            j = 0
            while j * k <= 2 * window:
                e = [0] * len(zvars)
                e[iv] = j * k
                geo_terms[tuple(e)] = ring.one()
                j += 1
            # the last product is cut to the window, the earlier ones cannot
            # be: a later modulus raises an exponent back inside
            lp = lp.mul(LaurentPoly(tuple(zvars), ring, geo_terms),
                        window=window if n == len(z_moduli) else None)
        # with no modulus, k <= kmax keeps the monomial inside the window
        out = out + lp
    return out


def thm_b1_factor_list(nu: tuple):
    """Pochhammer factors of the boundary-organized closed form.

    Each item (ex, ey, z_moduli) stands for the ratio
    (t x^ex y^ey; q, u, z_moduli)_inf / (x^ex y^ey; q, u, z_moduli)_inf,
    where ``z_moduli`` names the z-variables among the moduli: none inside
    the profile, y on the right boundary, x on the bottom one, both at the
    corner.  The empty-profile corner factor is included; the nu prefactor
    is omitted because it cancels against the left side's.
    """
    nuc = conjugate(nu)
    ell = length(nu)
    nu1 = part(nu, 1)
    factors = []
    for i in range(1, ell + 1):
        for j in range(1, nu1 + 1):
            factors.append((i - part(nuc, j), j - part(nu, i) - 1, ()))
    bdry = []
    for i in range(1, ell + 1):  # right boundary
        bdry.append((i, nu1 - part(nu, i), ("y",)))
    for j in range(1, nu1 + 1):  # bottom boundary
        bdry.append((ell + 1 - part(nuc, j), j - 1, ("x",)))
    corner = [(ell + 1, nu1, ("x", "y"))]
    return factors + bdry + corner


def kernel_log_direct(zvars, ring: SeriesRing, nu: tuple, q: Fraction,
                      t: Fraction, window: int, build: int,
                      wrapped: bool) -> LaurentPoly:
    """log of the two-specialization Cauchy kernel, computed termwise.

    The ``fock.wick_exponent`` of one pair, Gamma_+(x^rho y^-nu) against
    Gamma_-(x^-nu' y^rho-1), both from ``fock.gamma_spec``: wrapped, it is
    the trace kernel (the half-vertices are already normally ordered inside
    the trace), whose weight u^n/(1-u^n) vanishes past the u cutoff;
    unwrapped, the plain Cauchy kernel that the boundary factorization
    organizes, whose 1/(1-u^n) needs the modes to 2 window + cutoff + 2.
    """
    from .fock import gamma_spec, wick_exponent

    nmax = ring.cutoff if wrapped else 2 * window + ring.cutoff + 2
    lower, upper = (gamma_spec(principal_p_laurent(zvars, ring, nu, variant, build),
                               q, t, nmax, sign)
                    for variant, sign in (("xr_ynu", "+"), ("yr_nxu", "-")))
    return wick_exponent([(lower.plus, upper.minus, wrapped)],
                         ring.gen("u"), q, t,
                         LaurentPoly(tuple(zvars), ring, {})).window(2 * window)


def kernel_log_factored(zvars, ring: SeriesRing, nu: tuple, q: Fraction,
                        t: Fraction, window: int) -> LaurentPoly:
    """log of the boundary-organized Pochhammer product for the same kernel."""
    out = LaurentPoly(tuple(zvars), ring, {})
    for (ex, ey, zmods) in thm_b1_factor_list(nu):
        num = laurent_log_pochhammer(zvars, ring, t, {"x": ex, "y": ey},
                                     q, zmods, window)
        den = laurent_log_pochhammer(zvars, ring, Fraction(1), {"x": ex, "y": ey},
                                     q, zmods, window)
        out = out + num - den
    return out.window(window)


def thm_b1_check(nu: tuple, u_cutoff: int, window: int, q: Fraction,
                 t: Fraction) -> dict:
    """Diagonal vertex trace with asymptotic profile nu, as a log identity.

    The closed form mixes expansion directions, so products of its factors
    are not termwise finite in any Laurent window; logarithms are, and
    exp/log are mutually inverse on the cone-supported series involved.
    Checks (a) log of the literal lambda sum against the log of the Euler
    factor times the wrapped Cauchy kernel (the half-vertices inside the
    trace are already normally ordered, hence the u^n/(1-u^n) weight), and
    (b) the plain kernel log against the boundary-factored Pochhammer logs,
    both coefficientwise on the window.
    """
    zvars = ("x", "y")
    ring = SeriesRing(["u"], u_cutoff)
    # the plain kernel's 1/(1-u^n) does not cut n off at u_cutoff, so its
    # p-values reach as far past the window as the wider of the two needs
    build = window + max(u_cutoff, window) * max(part(nu, 1), length(nu), 1) + 2
    p_first, p_second = (principal_p_laurent(zvars, ring, nu, variant, build)
                         for variant in ("yr_nxu", "xr_ynu"))
    one = LaurentPoly.constant(zvars, ring.one())
    lhs = LaurentPoly(zvars, ring, {})
    # the literal sum on the build window, which its log reads: the skew
    # products are formed there only
    for lam in partitions_up_to(u_cutoff):
        term = vertex_skew_sum(lam, lam, p_first, p_second, q, t, one, window=build)
        if not term:
            continue
        lhs = lhs + term.scale(ring.monomial(Fraction(1), u=weight(lam)))
    log_lhs = laurent_log(lhs, build).window(window)

    u = ring.gen("u")
    euler_log = qpochhammer_log(ring, [], [(u, [u])])  # -log (u; u)_inf
    kwrapped = kernel_log_direct(zvars, ring, nu, q, t, window, build,
                                 wrapped=True)
    log_rhs = (kwrapped + LaurentPoly.constant(zvars, euler_log)).window(window)
    trace_match = log_lhs == log_rhs

    kplain = kernel_log_direct(zvars, ring, nu, q, t, window, build,
                               wrapped=False)
    kfact = kernel_log_factored(zvars, ring, nu, q, t, window).window(window)
    factor_match = kfact == kplain.window(window)
    return {"nu": list(nu), "u_cutoff": u_cutoff, "window": window,
            "trace_match": trace_match, "factorization_match": factor_match,
            "match": trace_match and factor_match}


def lemma_b4_check(grade: int, a: Fraction) -> dict:
    """(az; x, y)/(z; x, y) as a signature sum, coefficientwise.

    RHS coefficients are products over part values r of
    (a; x)_{m(r)} / (x; x)_{m(r)}, weighted y^{|sig|} z^{len(sig)}.
    """
    ring = SeriesRing(["z", "x", "y"], grade)
    z, x, y = ring.gen("z"), ring.gen("x"), ring.gen("y")
    lhs = qpochhammer(ring, [(ring.monomial(a, z=1), [x, y])], [(z, [x, y])])
    factors = signature_factors(ring, a, x, grade)
    rhs = ring.zero()
    for n in range(grade + 1):
        for sig in signatures(n, grade):
            rhs = rhs + signature_coefficient(factors, sig) \
                * ring.monomial(Fraction(1), y=sum(sig), z=n)
    return {"grade": grade, "match": lhs == rhs, "lhs": lhs, "rhs": rhs}
