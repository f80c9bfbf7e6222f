"""Independent predicates and values that several tests check the library against."""

from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import mul

from permac.cylindric import box_level
from permac.fock import accumulate, eta_xi_exponent, operator_family, wick_exponent, z_vertex_spec
from permac.laurent import LaurentPoly, laurent_exp, ratio_sym_factor
from permac.macdonald import (_skew_coefficients, _zbound, combine, m_to_p, macdonald_P_p,
                               macdonald_Q_p, observable, pieri, skew_eval)
from permac.partitions import (conjugate, contains, dominance_key, horizontal_strip,
                               length, make_partition, multiplicity, part,
                               partitions_inside, partitions_of, partitions_up_to,
                               weight, z_qt)
from permac.point import qt_ratio
from permac.process import _gammas, configurations, weight_W
from permac.series import SeriesRing, TruncSeries, _check_rational, _Packing, _unflatten


def dominance_leq_by_loop(mu: tuple, lam: tuple) -> bool:
    """True iff mu <= lam in dominance order (false across unequal weights),
    by one running pair of prefix sums over the longer length: the
    reference for ``partitions.dominance_leq``."""
    if weight(mu) != weight(lam):
        return False
    sm = sl = 0
    for k in range(max(len(mu), len(lam))):
        sm += part(mu, k + 1)
        sl += part(lam, k + 1)
        if sm > sl:
            return False
    return True


def horizontal_strip_by_columns(lam: tuple, mu: tuple) -> bool:
    """Independent strip predicate via conjugate column counts."""
    if not contains(lam, mu):
        return False
    lc, mc = conjugate(lam), conjugate(mu)
    return all(part(lc, j) - part(mc, j) <= 1 for j in range(1, len(lc) + 1))


def remove_one_box(lam: tuple):
    """All partitions covered by lam in the Young graph."""
    out = []
    for i in range(1, len(lam) + 1):
        if part(lam, i) - 1 >= part(lam, i + 1):
            shrunk = list(lam)
            shrunk[i - 1] -= 1
            out.append(make_partition(shrunk))
    return out


def arm_leg(lam: tuple, cell) -> tuple:
    """Arm and leg lengths of a cell (i, j) inside lam, rows and columns
    counted from 1."""
    i, j = cell
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise ValueError(f"cell {cell} outside diagram of {lam}")
    return lam[i - 1] - j, sum(1 for p in lam if p >= j) - i


def fraction_pieri(lam: tuple, mu: tuple, q, t) -> tuple:
    """(psi, phi) of the horizontal strip lam/mu one Fraction ratio at a
    time (Macdonald VI (6.24)): psi multiplies b_mu(s) / b_lam(s) over the
    cells s of the strip's rows outside its columns, phi b_lam(s) / b_mu(s)
    over the cells of its columns, where b_nu(s) = (1 - q^a t^(l+1)) /
    (1 - q^(a+1) t^l) for the arm a and leg l of s in nu, and 1 off nu.  A
    pole of any ratio it reads is a ZeroDivisionError.  The reference for
    the integer product of ``macdonald.pieri``."""
    q, t = Fraction(q), Fraction(t)

    def b(nu, cell):
        i, j = cell
        if not (i <= len(nu) and j <= nu[i - 1]):
            return Fraction(1)
        a, l = arm_leg(nu, cell)
        return (1 - q**a * t ** (l + 1)) / (1 - q ** (a + 1) * t**l)

    cells = [(i, j) for i, p in enumerate(lam, 1) for j in range(1, p + 1)]
    strip = [(i, j) for i, j in cells if not (i <= len(mu) and j <= mu[i - 1])]
    rows, cols = {i for i, _ in strip}, {j for _, j in strip}
    psi = phi = Fraction(1)
    for s in cells:
        if s[0] in rows and s[1] not in cols:
            psi *= b(mu, s) / b(lam, s)
        if s[1] in cols:
            phi *= b(lam, s) / b(mu, s)
    return psi, phi


def skew_single_alpha(kind: str, lam: tuple, mu: tuple, q, t) -> Fraction:
    """Coefficient of a^{|lam|-|mu|} in the one-variable skew value.

    P_{lam/mu}(a) = psi * a^d and Q_{lam/mu}(a) = phi * a^d on horizontal
    strips, zero otherwise; an independent oracle for the Fock route.
    """
    if not horizontal_strip(lam, mu):
        return Fraction(0)
    psi, phi = pieri(lam, mu, q, t)
    return psi if kind == "P" else phi


def fraction_skew_coefficients(kind: str, lam: tuple, mu: tuple, q: Fraction,
                               t: Fraction) -> tuple:
    """The pairs (nu, c_nu) with c_nu != 0 in P_{lam/mu} = sum_nu c_nu p_nu,
    one Fraction product at a time on the Fraction p-basis rows.

    c_nu = <bra| a_nu |ket> / z_nu(q,t) over |nu| = |lam| - |mu|, with
    (bra, ket) = (Q_mu, P_lam) for kind "P" and (P_mu, Q_lam) for "Q".
    a_nu is the adjoint of multiplication by p_nu, and p_nu p_kappa is
    p_{kappa u nu}, the partition of the parts of both, so

        c_nu = sum_kappa bra_kappa ket_{kappa u nu} z_{kappa u nu}(q,t) / z_nu(q,t),

    one lookup of each merged partition in the ket, weighted once by z.
    The reference for the integer rows of ``macdonald._skew_coefficients``.
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


def _f_ratio(a: int, b: int, m: int, q: Fraction, t: Fraction) -> Fraction:
    """f(q^a t^m) / f(q^b t^m) as a finite product, f(w)=(tw;q)/(qw;q).

    Same t power above and below makes the infinite products telescope:
    for a >= b the ratio is (q^{b+1} t^m; q)_{a-b} / (q^b t^{m+1}; q)_{a-b}.
    """
    if a == b:
        return Fraction(1)
    if a < b:
        return Fraction(1) / _f_ratio(b, a, m, q, t)
    c = a - b
    num = den = Fraction(1)
    for i in range(c):
        num *= 1 - q ** (b + 1 + i) * t**m
        den *= 1 - q ** (b + i) * t ** (m + 1)
    if den == 0:
        raise ZeroDivisionError("hook ratio degenerated; bad (q,t) point")
    return num / den


def box_weight_F(profile, lams, k: int, j: int, q: Fraction, t: Fraction) -> Fraction:
    """Weight of the box (k, j): the m-product of hook-ratio pairs.

    The three auxiliary sequences start at offsets dictated by the profile;
    factors become 1 once all tails agree, so the product is finite.
    """
    N = profile.N
    lam = lams[k - 1]
    nxt = lams[k % N]
    prv = lams[(k - 2) % N]
    off_mu = 1 if profile.up(k) else 0
    off_nu = 1 if not profile.up(k - 1) else 0
    lam1 = part(lam, j)
    out = Fraction(1)
    m = 0
    while True:
        l1 = part(lam, j + m)
        l2 = part(lam, j + m + 1)
        mu = part(nxt, j + off_mu + m)
        nu = part(prv, j + off_nu + m)
        if l1 == 0 and l2 == 0 and mu == 0 and nu == 0:
            break
        out *= _f_ratio(lam1 - l1, lam1 - mu, m, q, t)
        out *= _f_ratio(lam1 - l2, lam1 - nu, m, q, t)
        m += 1
    return out


def fraction_weight_F(profile, lams, q: Fraction, t: Fraction) -> Fraction:
    """The product of ``box_weight_F`` over the boxes, one Fraction hook
    factor at a time: the reference for the integer ``cylindric.weight_F``."""
    out = Fraction(1)
    for k in range(1, profile.N + 1):
        for j in range(1, length(lams[k - 1]) + 1):
            out *= box_weight_F(profile, lams, k, j, q, t)
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


def layered_half_vertex_apply(modes: dict, v: dict, q, t, sign: int,
                              degree_cap: int = None) -> dict:
    """exp(sum_n modes[n] a_{sign n} / n) v for sign = +1 or -1, layer by layer.

    The lowering half (sign +1) terminates because degrees drop; the raising
    half (sign -1) drops grades above ``degree_cap``.  Layer k of the
    exponential is the previous layer hit by sum_n modes[n] a_{sign n}/(n k).
    The oracle of the closed multiset form ``fock.half_vertex_apply``.
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


def marginal_weight(pspec, lams) -> TruncSeries:
    """Sum of ``weight_W`` over the mu tuples of the lambda tuple ``lams``.

    mu^i runs over the partitions inside the meet of lambda^i and lambda^{i+1}
    (cyclically), the only ones whose weight can be nonzero.  For a time-grid
    process this is the unnormalized law of the states at its times.
    """
    n = len(lams)
    meets = [tuple(map(min, lams[i], lams[(i + 1) % n])) for i in range(n)]
    choices = [[mu for mu in partitions_up_to(weight(meet)) if contains(meet, mu)]
               for meet in meets]
    total = pspec.ring.zero()
    for mus in product(*choices):
        total = total + weight_W(pspec, lams, mus)
    return total


def plain_series_product(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a * b term by term with Fraction arithmetic, cut at the ring cutoff:
    the oracle of the flat product kernel."""
    ring = a.ring
    cutoff = ring.cutoff
    degs = {e: ring.degree_of(e) for e in a.terms}
    out = {}
    for e2, c2 in b.terms.items():
        d2 = ring.degree_of(e2)
        for e1, c1 in a.terms.items():
            if degs[e1] + d2 > cutoff:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return TruncSeries(ring, out)


def fraction_power_sum(f: TruncSeries, coeff, out) -> TruncSeries:
    """out + sum_{k>=1} coeff(k) * f^k, for a series of positive valuation,
    by repeated series products in Fraction arithmetic: the oracle of the
    one integer power-sum loop.

    Stops at the first vanishing power or once k times the valuation
    passes the ring cutoff, beyond which every power truncates to zero.
    """
    vmin = f.min_degree()
    power = None
    k = 1
    while k * vmin <= f.ring.cutoff:
        # the first power is f, truncated as a product would be
        power = f.truncate(f.ring.cutoff) if power is None else power * f
        if not power:
            break
        out = out + power * coeff(k)
        k += 1
    return out


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


def fraction_linear_combination(ring: SeriesRing, pairs) -> TruncSeries:
    """sum c s over the pairs (c, s), c rational and s a series of ``ring``,
    in one pass with no intermediate series, truncated at the ring cutoff
    as a product would be: the Fraction oracle of the flat-kernel sum."""
    out: dict = {}
    for c, s in pairs:
        add_scaled(out, c, s)
    cutoff, degrees = ring.cutoff, ring.degrees
    return TruncSeries(ring, {e: v for e, v in out.items()
                              if v and sum(map(mul, e, degrees)) <= cutoff})


def fraction_laurent_linear_combination(zvars, ring: SeriesRing, pairs) -> LaurentPoly:
    """sum c p over the pairs (c, p), c rational and p a Laurent polynomial:
    ``fraction_linear_combination`` once per z-exponent, so each coefficient
    is truncated at the ring cutoff."""
    groups: dict = {}
    for c, lp in pairs:
        for e, ts in lp.terms.items():
            groups.setdefault(e, []).append((c, ts))
    terms = {}
    for e, group in groups.items():
        ts = fraction_linear_combination(ring, group)
        if ts:
            terms[e] = ts
    return LaurentPoly(zvars, ring, terms)


def plain_laurent_product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b term by term, each coefficient product by ``plain_series_product``:
    the oracle of the flat product kernel."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = plain_series_product(c1, c2)
            if not c:
                continue
            v = out.get(e)
            v = c if v is None else v + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return LaurentPoly(a.zvars, a.ring, out)


def components_two_lists(profile, lams) -> list:
    """``cylindric.components`` built from a downward and a mirrored upward
    slot list, merged into one incidence map: the oracle of the one-rule
    edge loop."""
    N = profile.N
    support = set()
    level = {}
    value = {}
    for k in range(1, N + 1):
        lam = lams[k - 1]
        for j in range(1, length(lam) + 1):
            support.add((k, j))
            level[(k, j)] = box_level(lam, j)
            value[(k, j)] = lam[j - 1]
    # directed slot edges follow the crossings k -> k+-1; a slot links only
    # when the target carries the same entry and the same level (equivalent
    # to the run conditions in the Hall-Littlewood collapse of the box
    # weights)
    down = {pos: [] for pos in support}
    up = {pos: [] for pos in support}
    for (k, j) in support:
        k_next = k % N + 1
        dtgt = (k_next, j + (1 if profile.up(k) else 0))
        if dtgt in support and level[dtgt] == level[(k, j)] \
                and value[dtgt] == value[(k, j)]:
            down[(k, j)].append(dtgt)
        k_prev = (k - 2) % N + 1
        utgt = (k_prev, j + (0 if profile.up(k_prev) else 1))
        if utgt in support and level[utgt] == level[(k, j)] \
                and value[utgt] == value[(k, j)]:
            up[(k, j)].append(utgt)
    incidence = {pos: [] for pos in support}
    for p in support:
        for q in down[p]:
            incidence[p].append((q, 1))
            incidence[q].append((p, -1))
        for q in up[p]:
            incidence[p].append((q, -1))
            incidence[q].append((p, 1))
    seen = set()
    comps = []
    for pos in sorted(support):
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
            "level": level[pos],
            "size": len(comp),
            "global": winding,
        })
    return comps


def fraction_m_dict_to_p(f: dict) -> dict:
    """m basis to p basis one Fraction product at a time over the rows of
    m_to_p: the reference for the integer-row kernel of m_dict_to_p."""
    out: dict = {}
    for mu, c in f.items():
        for lam, a in m_to_p(weight(mu))[mu].items():
            v = out.get(lam, 0) + c * a
            if v:
                out[lam] = v
            else:
                out.pop(lam, None)
    return out


def fraction_m_gram(q, t, n: int):
    """(lams, G, scale) of macdonald._m_gram read off the Fraction rows of
    m_to_p: D is the lcm of their entries' denominators, E that of the
    z_qt values, and scale = D^2 E."""
    lams = sorted(partitions_of(n), key=dominance_key)
    index = {lam: i for i, lam in enumerate(lams)}
    rows = m_to_p(n)
    z = [z_qt(nu, q, t) for nu in lams]
    D = lcm(*(c.denominator for row in rows.values() for c in row.values()))
    E = lcm(*(v.denominator for v in z))
    Z = [v.numerator * (E // v.denominator) for v in z]
    A = [[(index[nu], c.numerator * (D // c.denominator))
          for nu, c in rows[lam].items()] for lam in lams]
    AZ = [[0] * len(lams) for _ in lams]
    for azrow, row in zip(AZ, A):
        for k, a in row:
            azrow[k] = a * Z[k]
    G = [[0] * len(lams) for _ in lams]
    for i, row in enumerate(A):
        for j in range(i, len(lams)):
            G[i][j] = G[j][i] = sum(a * AZ[j][k] for k, a in row)
    return lams, G, D * D * E


SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def splitmix64(state: int, n: int, skip: int = 0) -> list:
    """Outputs skip .. skip + n - 1 of the SplitMix64 generator of ``state``
    (Steele, Lea and Flood 2014), in Python ints: output i mixes
    state + (i + 1) gamma."""
    out = []
    state = (state + skip * SPLITMIX_GAMMA) & _MASK64
    for _ in range(n):
        state = (state + SPLITMIX_GAMMA) & _MASK64
        z = state
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
        out.append(z ^ z >> 31)
    return out


def stream_sample(seed: int, k: int, draws: int) -> list:
    """Sample k's values of the seeded stream at ``draws`` values per sample:
    outputs k draws on of the SplitMix64 generator of the key, the first
    output of seed mod 2^64, each word read as (word >> 11) 2^-53."""
    (key,) = splitmix64(seed % (1 << 64), 1)
    return [(w >> 11) * 2.0 ** -53 for w in splitmix64(key, draws, k * draws)]


def moment_factors_one_at_a_time(pspec, series_r) -> list:
    """The factor list of ``process.moment_formula`` with every factor built
    on its own, in all the z-variables: the ratio factors of each step's
    variable pairs, then one kernel exponential per variable, then one Delta
    exponential per ordered pair of variables.  The reference for the
    factor shapes of ``process._moment_factors``."""
    ring = pspec.ring
    q, t = pspec.q, pspec.t
    clip = ring.cutoff + 2
    zvars = []
    steps = []
    for a, (tag, r) in enumerate(series_r, start=1):
        kind, pole, _, _ = operator_family(tag, q, t)
        steps.append((kind, pole, range(len(zvars), len(zvars) + r)))
        zvars.extend(f"z{a}_{i + 1}" for i in range(r))
    zvars = tuple(zvars)
    currents = [z_vertex_spec(zvars, ring, zvars[i], eta_xi_exponent(kind, q, t, clip))
                for kind, _, idxs in steps for i in idxs]
    gammas_plus, gammas_minus = _gammas(pspec)
    plus = [{n: LaurentPoly.constant(zvars, c) for n, c in g.plus.items()}
            for g in gammas_plus]
    minus = [{n: LaurentPoly.constant(zvars, c) for n, c in g.minus.items()}
             for g in gammas_minus]
    zero = LaurentPoly(zvars, ring, {})
    factors = [ratio_sym_factor(zvars, ring, i, j, pole, clip)
               for _, pole, idxs in steps for i, j in combinations(idxs, 2)]
    factors += [laurent_exp(wick_exponent([(up, currents[i].minus, b >= a)
                                           for b, up in enumerate(plus)]
                                          + [(currents[i].plus, down, b < a)
                                             for b, down in enumerate(minus, start=1)],
                                          pspec.u, q, t, zero), clip)
                for a, (_, _, idxs) in enumerate(steps, start=1) for i in idxs]
    factors += [laurent_exp(wick_exponent([(currents[i].plus, currents[j].minus, a >= b)],
                                          pspec.u, q, t, zero), clip)
                for b, (_, _, idxs_b) in enumerate(steps, start=1)
                for a, (_, _, idxs_a) in enumerate(steps, start=1)
                for j in idxs_b for i in idxs_a]
    return factors


def zterm_sum_over_one_lcm(ring: SeriesRing, pairs) -> dict:
    """``series.zterm_sum`` with its buckets merged over one lcm of every
    denominator met: the reference for its merge per output key."""
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
    total = lcm(*buckets)
    out: dict = {}
    for den, acc in buckets.items():
        scale = total // den
        for (ze, se), v in acc.items():
            ts = out.setdefault(ze, {})
            ts[se] = ts.get(se, 0) + scale * v
    return {ze: s for ze, ts in out.items() if (s := TruncSeries(
        ring, {se: Fraction(v, total) for se, v in ts.items() if v}))}


def lambda_rho_p_by_fractions(lam: tuple, r: int, q: Fraction, t: Fraction) -> Fraction:
    """``macdonald.lambda_rho_p`` term by term in Fraction arithmetic, the
    tail as t^{-r (l + 1)} / (1 - t^{-r})."""
    l = length(lam)
    acc = Fraction(0)
    for i, li in enumerate(lam, start=1):
        acc += (q**li * t**-i) ** r
    acc += t ** (-r * (l + 1)) / (1 - t**-r)
    return acc


def weight_W_by_series_products(pspec, lam_seq, mu_seq) -> TruncSeries:
    """``process.weight_W`` as a running product of series: the reference
    for its flat product."""
    N = pspec.N
    if len(lam_seq) != N or len(mu_seq) != N:
        raise ValueError("sequences must have length N")
    # the factors that are not the unit: u^|mu^N| unless mu^N is empty, and
    # the skew functions over nonempty strips (zero off interlacing chains)
    k = weight(mu_seq[N - 1])
    out = pspec.u ** k if k else None
    for i in range(1, N + 1):
        lam_i = lam_seq[i - 1]
        mu_i = mu_seq[i - 1]
        lam_next = lam_seq[i % N]
        for kind, lam, index in (("Q", lam_i, i - 1), ("P", lam_next, i % N)):
            if lam != mu_i:
                spec = (pspec.rho_plus if kind == "P" else pspec.rho_minus)[index]
                f = skew_value(kind, lam, mu_i, spec, pspec.q, pspec.t, pspec.ring.one())
                out = f if out is None else out * f
                if not out:
                    return pspec.ring.zero()
    return pspec.ring.one() if out is None else out


def configuration_sums_by_weight_W(pspec, depth: int, series_r=None):
    """``process._configuration_sums`` as one ``zterm_sum_over_one_lcm`` of
    the series weights ``weight_W_by_series_products`` times the Fraction
    observable products: the reference for its flat sum of products."""
    def pairs():
        for lam_seq, mu_seq in configurations(pspec, depth):
            w = weight_W_by_series_products(pspec, lam_seq, mu_seq)
            if not w:
                continue
            yield 1, {(0,): w}
            if series_r is None:
                continue
            f = Fraction(1)
            for (tag, r), lam in zip(series_r, lam_seq):
                f *= observable(tag, r, lam, pspec.q, pspec.t)
            yield f, {(1,): w}

    sums = zterm_sum_over_one_lcm(pspec.ring, pairs())
    den = sums.get((0,), pspec.ring.zero())
    return (den if series_r is None else sums.get((1,), pspec.ring.zero())), den


def skew_value(kind: str, lam: tuple, mu: tuple, spec, q, t, unit):
    """``macdonald.skew_eval``'s flat pair unflattened into the type of
    ``unit``, a series one or a Laurent one, in a packing that holds every
    p_nu(X) it reads (``macdonald._zbound``): the typed skew value that the
    tests compare."""
    zvars = getattr(unit, "zvars", None)
    pk = _Packing(unit.ring, _zbound(spec, weight(lam) - weight(mu), len(zvars or ())))
    den, terms = skew_eval(kind, lam, mu, spec, q, t, pk)
    zterms = _unflatten({k: v for _, k, v in terms}, den, pk)
    if zvars is None:
        return zterms.get((), unit.ring.zero())
    return LaurentPoly(zvars, unit.ring, zterms)


def skew_eval_by_combine(kind: str, lam: tuple, mu: tuple, spec, q, t, unit):
    """``macdonald.skew_eval`` with its Fock route summed by one
    ``macdonald.combine`` of the pairs (c_nu, p_nu(X)), c_nu a Fraction: the
    reference for its flat route on integer numerators."""
    if kind not in ("P", "Q"):
        raise ValueError("kind must be 'P' or 'Q'")
    if not contains(lam, mu):
        return unit * 0
    if lam == mu:
        return unit
    if spec.variables == 1:
        if not horizontal_strip(lam, mu):
            return unit * 0
        psi, phi = pieri(lam, mu, q, t)
        return spec.power_product((weight(lam) - weight(mu),)) * (psi if kind == "P" else phi)
    den, rows = _skew_coefficients(kind, lam, mu, q, t)
    return combine(unit, [(Fraction(c, den), p) for nu, c in rows
                          if (p := spec.power_product(nu))])


def vertex_skew_sum_by_combine(lam: tuple, mu: tuple, p_first, p_second, q, t, unit,
                               window: int = None):
    """``cylindric.vertex_skew_sum`` as one ``macdonald.combine`` of the
    products P_{lam/eta} Q_{mu/eta} of ``skew_eval_by_combine``, each formed
    by ``*`` or, with a ``window``, ``LaurentPoly.mul(window=)``: the
    reference for its flat sum of products."""
    terms = []
    # a nonzero term needs eta inside both, so inside their meet
    for eta in partitions_inside(tuple(map(min, lam, mu))):
        pv = skew_eval_by_combine("P", lam, eta, p_first, q, t, unit=unit)
        if not pv:
            continue
        qv = skew_eval_by_combine("Q", mu, eta, p_second, q, t, unit=unit)
        if not qv:
            continue
        terms.append((1, pv * qv if window is None else pv.mul(qv, window=window)))
    return combine(unit, terms)


def literal_sum_one_lam_at_a_time(lams, p_first, p_second, q, t, unit, window=None):
    """sum over lam in ``lams`` of u^|lam| sum_eta P_{lam/eta} Q_{lam/eta},
    one lam at a time, as ``cor_b2_check`` (a series ``unit``) and
    ``thm_b1_check`` (a Laurent one, with ``window`` = build) summed it: each
    lam's sum is scaled by u^|lam| (a series product or ``LaurentPoly.scale``)
    and added.  The reference for their one keyed product sum."""
    ring = unit.ring
    lhs = unit * 0
    for lam in lams:
        term = vertex_skew_sum_by_combine(lam, lam, p_first, p_second, q, t, unit,
                                          window=window)
        if not term:
            continue
        mono = ring.monomial(Fraction(1), u=weight(lam))
        lhs = lhs + (term.scale(mono) if isinstance(term, LaurentPoly) else mono * term)
    return lhs


def raise_by_products(kappas: list, v: dict, degree_cap: int) -> dict:
    """The raising half applied to ``v`` from a ``_raising_table`` whose
    budget covers every ket: each ket gains the kappa with |lam| + |kappa|
    <= ``degree_cap``, every c b formed by ``*`` and added by ``accumulate``.
    The reference for ``fock._raise``'s one product on integer numerators."""
    out: dict = {}
    for lam, c in v.items():
        accumulate(out, lam, c)  # the empty kappa keeps even a ket above the cap
        room = degree_cap - weight(lam)
        for kappa, w, b in kappas[1:]:
            if w <= room:
                accumulate(out, tuple(sorted(lam + kappa, reverse=True)), c * b)
    return out
