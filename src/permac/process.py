"""Periodic Macdonald processes: weights, partition functions, moments.

A process is specified by a period N, specialization sequences rho_plus
(indices 0..N-1) and rho_minus (indices 1..N), and a weight parameter u, a
positive-degree monomial of the series ring (formal, graded) or a rational
scalar of a symbol-free ring (the time grid, ``time_grid_process``).  The
cyclic weight of a configuration (lambda^1..lambda^N, mu^1..mu^N) is

    u^{|mu^N|} prod_i Q_{lambda^i/mu^i}(rho^-_i) P_{lambda^{i+1}/mu^i}(rho^+_i)

with lambda^{N+1} = lambda^1 and rho^+_N = rho^+_0.  Closed forms are checked
against literal sums over configurations throughout, each weight a flat
product of integer numerators (``series.product_sums``) whose skew factors
are the flat pairs of ``macdonald.skew_eval``.  The closed partition
function is the free-field trace: the OPE scalars of ``fock`` times its
``trace_closed`` of the normal-ordered product.  The moment formulas
take any of the four observable families at each step, any N, on one path:
each kernel and Delta factor is the exponential of ``fock.wick_exponent``,
the one wrap rule, of vertex modes (the eta/xi currents of the variables
and the Gamma_+/- of the specializations), and they use the symmetrized
Cauchy-determinant calculus from the laurent module, never expanding the
ill-defined diagonal kernel entries.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations
from math import isqrt
from operator import mul

from .fock import VertexSpec, eta_xi_exponent, gamma_spec, ope_reorder, \
    operator_family, trace_closed, wick_exponent, z_vertex_spec
from .laurent import LaurentPoly, cauchy_sym_prefactor, laurent_exp, \
    product_coefficient, ratio_sym_factor
from .macdonald import alpha_spec, observable, plancherel_spec, skew_eval, \
    zero_spec
from .partitions import contains, partitions_inside, partitions_up_to, weight
from .series import SeriesRing, TruncSeries, _flatten, _Packing, linear_combination, \
    product_sums, qpochhammer, theta3


class ProcessSpec:
    """N-step periodic process (N >= 1) over a series ring; u is a positive-degree
    monomial (formal, graded) or a rational scalar of a symbol-free ring.
    The point (q, t) is rational: a float is a TypeError."""

    def __init__(self, ring: SeriesRing, q: Fraction, t: Fraction,
                 u, rho_plus, rho_minus):
        if not (isinstance(q, (int, Fraction)) and isinstance(t, (int, Fraction))):
            raise TypeError(f"point ({q!r}, {t!r}) is not rational")
        self.ring = ring
        self.q = Fraction(q)
        self.t = Fraction(t)
        if not (isinstance(u, TruncSeries) and len(u.terms) == 1):
            raise TypeError("u must be a series monomial")
        self.u = u
        self.rho_plus = list(rho_plus)    # rho^+_0 .. rho^+_{N-1}
        self.rho_minus = list(rho_minus)  # rho^-_1 .. rho^-_N
        if len(self.rho_plus) != len(self.rho_minus):
            raise ValueError("rho_plus and rho_minus must have equal length")
        self.N = len(self.rho_plus)
        if not self.N:
            raise ValueError("a process needs at least one step")


def process_from_names(plus_names, minus_names, q, t, cutoff: int) -> ProcessSpec:
    """Process with one named specialization per step, u a formal symbol.

    ``plus_names`` names rho^+_0..rho^+_{N-1} and ``minus_names``
    rho^-_1..rho^-_N, each "zero", "alpha" or "plancherel" in any case and
    with surrounding spaces.  alpha at rho^+_i is the formal symbol a<i>, at
    rho^-_j it is b<j>; plancherel is xi = g(1 - u).  The ring holds u, then
    g when a Plancherel step occurs, then the alpha symbols in step order,
    truncated at graded degree ``cutoff``.
    """
    plus = [name.strip().lower() for name in plus_names]
    minus = [name.strip().lower() for name in minus_names]
    for name in plus + minus:
        if name not in ("zero", "alpha", "plancherel"):
            raise ValueError(f"unknown specialization {name!r} "
                             "(expected zero | alpha | plancherel)")
    symbols = ["u"] + (["g"] if "plancherel" in plus + minus else []) \
        + [f"a{i}" for i, name in enumerate(plus) if name == "alpha"] \
        + [f"b{j}" for j, name in enumerate(minus, start=1) if name == "alpha"]
    ring = SeriesRing(symbols, cutoff)

    def spec(name, sym):
        if name == "zero":
            return zero_spec()
        if name == "alpha":
            return alpha_spec([(sym, 1)], ring)
        return plancherel_spec(ring.gen("g") * (ring.one() - ring.gen("u")), ring)

    return ProcessSpec(ring, q, t, ring.gen("u"),
                       [spec(name, f"a{i}") for i, name in enumerate(plus)],
                       [spec(name, f"b{j}")
                        for j, name in enumerate(minus, start=1)])


def time_grid_process(gamma, u_list, q, t) -> ProcessSpec:
    """The periodic Plancherel process at N times b_0 < ... < b_{N-1}.

    ``u_list`` holds the exact gap decays u_i = e^{-(b_{i+1} - b_i)}, indices
    mod N.  With v_i = u_0 ... u_{i-1} (so e^{b_i} = 1/v_i, v_0 = 1), the
    Plancherel specializations are rational scalars of a symbol-free ring,

        rho^+_i = gamma (1 - u_{i-1}) / v_i,   rho^-_i = gamma v_{i-1} (1 - u_{i-1}),

    and u = v_N.  Sum ``weight_W`` over given lambda tuples; ``configurations``
    refuses the spec.
    """
    ring = SeriesRing([], 0)
    v = list(itertools.accumulate(u_list, mul, initial=1))
    plus = [gamma * (1 - u_list[i - 1]) / v[i] for i in range(len(u_list))]
    minus = [gamma * vi * (1 - ui) for vi, ui in zip(v, u_list)]
    return ProcessSpec(ring, q, t, ring.scalar(v[-1]),
                       *([plancherel_spec(ring.scalar(xi), ring) for xi in xis]
                         for xis in (plus, minus)))


def weight_W(pspec: ProcessSpec, lam_seq, mu_seq) -> TruncSeries:
    """Weight of one configuration; zero unless the cyclic chain interlaces.

    The one-configuration case of the flat product that
    ``_configuration_sums`` sums (``_weight_factors``)."""
    N = pspec.N
    if len(lam_seq) != N or len(mu_seq) != N:
        raise ValueError("sequences must have length N")
    pk = _Packing(pspec.ring)
    w = product_sums([(_weight_factors(pspec, lam_seq, mu_seq, {}, pk), ((0, (1, 1)),))], pk)
    return w.get(0, {}).get((), pspec.ring.zero())


def _weight_factors(pspec: ProcessSpec, lam_seq, mu_seq, flat: dict, pk):
    """The flattened factors of a configuration's weight that are not the
    unit, in order: u^|mu^N| unless mu^N is empty, then the skew functions
    over nonempty strips (zero off interlacing chains), Q_{lambda^i/mu^i}
    at rho^-_i and P_{lambda^{i+1}/mu^i} at rho^+_i, each the flat pair of
    ``skew_eval``.

    ``flat`` memoises each factor by its key, so a sum over configurations
    evaluates each distinct factor once.  A factor is evaluated only when it
    is read.
    """
    N = pspec.N
    k = weight(mu_seq[N - 1])
    keys = [("u", k)] if k else []
    for i in range(1, N + 1):
        mu_i = mu_seq[i - 1]
        for kind, lam, spec in (("Q", lam_seq[i - 1], pspec.rho_minus[i - 1]),
                                ("P", lam_seq[i % N], pspec.rho_plus[i % N])):
            if lam != mu_i:
                keys.append((kind, lam, mu_i, spec))
    for key in keys:
        hit = flat.get(key)
        if hit is None:
            hit = flat[key] = (_flatten({(): pspec.u ** k}, pk) if key[0] == "u"
                               else skew_eval(*key, pspec.q, pspec.t, pk))
        yield hit


# ---------------------------------------------------------------------------
# Configuration enumeration (graded truncation)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _partitions_containing(mu: tuple, max_weight: int) -> tuple:
    return tuple(lam for lam in partitions_up_to(max_weight) if contains(lam, mu))


def configurations(pspec: ProcessSpec, depth: int):
    """All configurations whose weight has graded degree <= depth.

    Requires u and every non-zero specialization to carry positive degree,
    so the budget bounds the enumeration.  Yields (lam_seq, mu_seq) pairs.
    """
    N = pspec.N
    ((u_exp, _),) = pspec.u.terms.items()
    du = pspec.ring.degree_of(u_exp)
    if du == 0:
        raise ValueError("formal u must have positive degree")
    # graded degree per step, None for a zero specialization
    up, down = ([None if spec.kind == "zero" else spec.degree for spec in specs]
                for specs in (pspec.rho_plus, pspec.rho_minus))
    if 0 in up + down:
        raise ValueError("graded enumeration needs formal or zero specializations")

    # one chain, filled in place: lams[i] = lambda^{i+1}, mus[i] = mu^{i+1};
    # a configuration is yielded as fresh copies of the two lists
    lams = [None] * N
    mus = [None] * N

    def walk(i, prev_mu, w_prev, budget):
        # step up prev_mu -> lam^{i+1} through rho^+_i, whose degree bounds
        # the weight gain by the budget, then down lam -> mu^{i+1} through
        # rho^-_{i+1}; the last step closes on mu^N = mu0.  w_prev = |prev_mu|
        # is carried down the walk, as is each lam's and mu's weight below.
        d_up, d_dn = up[i], down[i]
        if d_up is None:
            ups = (prev_mu,)
        else:
            ups = _partitions_containing(prev_mu, w_prev + budget // d_up)
        last = i + 1 == N
        for lam in ups:
            w_lam = sum(lam)
            b1 = budget if d_up is None else budget - d_up * (w_lam - w_prev)
            lams[i] = lam
            if last:
                # close on mu0; b1 >= 0, so lam == mu0 always fits
                if lam == mu0 or (d_dn is not None and b1 >= d_dn * (w_lam - w_mu0)
                                  and contains(lam, mu0)):
                    mus[i] = mu0
                    yield lams[:], mus[:]
                continue
            if d_dn is None:
                mus[i] = lam
                yield from walk(i + 1, lam, w_lam, b1)
                continue
            for mu in partitions_inside(lam):
                w_mu = sum(mu)
                b2 = b1 - d_dn * (w_lam - w_mu)
                if b2 >= 0:
                    mus[i] = mu
                    yield from walk(i + 1, mu, w_mu, b2)

    # the chain starts at mu^N = mu0 and steps up through rho^+_0
    for mu0 in partitions_up_to(depth // du):
        w_mu0 = sum(mu0)
        yield from walk(0, mu0, w_mu0, depth - du * w_mu0)


def _configuration_sums(pspec: ProcessSpec, depth: int, series_r=None):
    """(sum W f, sum W) over the configurations of graded degree <= depth.

    f is the product over steps of the observables ``series_r`` lists, one
    (series_tag, r) per step, each an exact rational that ``observable``
    memoises per point and this call reads once per partition.  Without
    ``series_r`` f = 1 and both sums are the one weight sum.  Each weight W
    is the flat product of its factors (``_weight_factors``, each factor
    flattened once per call), and f enters as one integer numerator and one
    denominator: both sums are one ``series.product_sums``, under keys 0 and
    1.  Each oracle truncates the sums in its own order.  Only the
    brute-force oracles call this.
    """
    ring, q, t = pspec.ring, pspec.q, pspec.t
    pk = _Packing(ring)
    flat: dict = {}
    observables: dict = {}

    def products():
        for lam_seq, mu_seq in configurations(pspec, depth):
            factors = _weight_factors(pspec, lam_seq, mu_seq, flat, pk)
            if series_r is None:
                yield factors, ((0, (1, 1)),)
                continue
            fn = fd = 1
            for (tag, r), lam in zip(series_r, lam_seq):
                f = observables.get((tag, r, lam))
                if f is None:
                    f = observables[tag, r, lam] = observable(tag, r, lam, q, t)
                fn *= f.numerator
                fd *= f.denominator
            yield factors, ((0, (1, 1)), (1, (fn, fd)))

    sums = product_sums(products(), pk)
    w = sums.get(0, {}).get((), ring.zero())
    return (w if series_r is None else sums.get(1, {}).get((), ring.zero())), w


def partition_function_bruteforce(pspec: ProcessSpec, depth: int) -> TruncSeries:
    """Literal configuration sum, exact through graded degree <= depth."""
    return _configuration_sums(pspec, depth)[1].truncate(depth)


def _gammas(pspec: ProcessSpec):
    """The modes of Gamma_+(rho^+_i), i = 0..N-1, and Gamma_-(rho^-_j), j = 1..N."""
    ring, q, t = pspec.ring, pspec.q, pspec.t
    return ([gamma_spec(spec, q, t, ring.cutoff, "+") for spec in pspec.rho_plus],
            [gamma_spec(spec, q, t, ring.cutoff, "-") for spec in pspec.rho_minus])


def _normal_order(pspec: ProcessSpec):
    """Normal-order G+(rho^+_0) G-(rho^-_1) ... G+(rho^+_{N-1}) G-(rho^-_N).

    Each Gamma_+(rho^+_i) moves past every later Gamma_-(rho^-_j), j > i.
    Returns the product of those ``ope_reorder`` scalars and the modes of the
    normal-ordered product, every specialization's modes merged.
    """
    one = pspec.ring.one()
    plus, minus = _gammas(pspec)
    scalar = reduce(mul, (ope_reorder(gp, gm, pspec.q, pspec.t, one)
                          for i, gp in enumerate(plus)
                          for gm in minus[i:]),  # rho^-_j, j = i+1..N
                    one)
    return scalar, reduce(VertexSpec.merge, plus + minus)


def partition_function_closed(pspec: ProcessSpec) -> TruncSeries:
    """The OPE scalars times ``trace_closed`` of the normal-ordered product.

    The trace gives every ordered pair (rho^+_i, rho^-_j) the factor
    exp(sum_n (1-t^n)/(1-q^n) p_n(rho^+_i) p_n(rho^-_j) u^n / (n (1-u^n))),
    the wrapped weight of ``fock.wick_exponent``, and the OPE scalar of a
    pair j > i, which also meets directly, adds the missing 1 to u^n/(1-u^n).
    """
    scalar, merged = _normal_order(pspec)
    return scalar * trace_closed(merged, pspec.ring, pspec.u, pspec.q, pspec.t)


def nonperiodic_partition_function(pspec: ProcessSpec) -> TruncSeries:
    """The u -> 0 limit: the OPE scalars alone."""
    return _normal_order(pspec)[0]


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def moment_bruteforce(pspec: ProcessSpec, series_r, depth: int) -> TruncSeries:
    """E[f_1[1] ... f_N[N]] as a truncated series quotient.

    ``series_r`` lists one (series_tag, r) per step; observables are exact
    rationals on partitions, so the numerator is a configuration sum like the
    partition function with an extra rational factor.
    """
    if len(series_r) != pspec.N:
        raise ValueError("need one observable per step")
    num, den = _configuration_sums(pspec, depth, series_r)
    return (num.truncate(depth) * den.truncate(depth).inverse()).truncate(depth)


def moment_formula(pspec: ProcessSpec, series_r) -> TruncSeries:
    """Moment through the free-field kernel formulas.

    ``series_r`` lists one (family, r) per step, and any of the four families
    may sit at any step.  Step a contributes r symmetrized Cauchy factors and
    one eta or xi current per variable.  Each current meets every
    Gamma_+(rho^+_b) and Gamma_-(rho^-_b) in one kernel exponential, and
    every ordered pair of variables (j in step b, i in step a, i = j
    included) contributes one Delta factor, which contracts the lowering
    half of i's current with the raising half of j's.  Both are
    exponentials of ``fock.wick_exponent``; a pair is wrapped when its
    lowering modes already stand right of its raising ones in the trace (or
    in the same step).  The result is already normalized: the partition
    function cancels inside the derivation.  A step with r = 0 observes the
    unit; a negative r is a ValueError.  The factors are those of
    ``_moment_factors``.
    """
    if len(series_r) != pspec.N:
        raise ValueError("need one observable per step")
    zvars, prefactor, factors = _moment_factors(pspec, series_r)
    if not zvars:
        return pspec.ring.one()
    return product_coefficient(factors, (0,) * len(zvars)) * prefactor


def _moment_factors(pspec: ProcessSpec, series_r):
    """(z-variables, prefactor, factor list) of the moment integrand.

    The list holds the ratio factors of each step's variable pairs, then the
    kernel factor of each variable, then the Delta factor of each ordered
    pair (j in step b, i in step a).  A factor is a shape moved onto its
    variables (``LaurentPoly.placed``), and a shape depends on less than its
    variables: a ratio factor on its step's pole, a kernel factor on its
    step, a Delta factor on the vertex kinds of steps a and b, whether
    a >= b (wrapped) and whether i = j.  So each distinct shape is built
    once, in one or two variables of its own.
    """
    ring = pspec.ring
    q, t = pspec.q, pspec.t
    clip = ring.cutoff + 2

    zvars = []
    steps = []  # (vertex kind, Cauchy pole, variable indices) per step
    prefactor = Fraction(1)
    for a, (tag, r) in enumerate(series_r, start=1):
        if r < 0:
            raise ValueError(f"r must be nonnegative, got {r}")
        kind, pole, c0, scale = operator_family(tag, q, t)
        prefactor *= (c0 * scale) ** r * cauchy_sym_prefactor(pole, r)
        steps.append((kind, pole, range(len(zvars), len(zvars) + r)))
        zvars.extend(f"z{a}_{i + 1}" for i in range(r))
    zvars = tuple(zvars)
    if not zvars:
        return zvars, prefactor, []

    one_var, two_vars = ("z",), ("z", "w")
    modes = {kind: eta_xi_exponent(kind, q, t, clip) for kind, _, _ in steps}
    # the Gamma modes as z-free Laurent polynomials, so that every contraction
    # below multiplies Laurent polynomials
    gammas_plus, gammas_minus = _gammas(pspec)
    plus = [{n: LaurentPoly.constant(one_var, c) for n, c in g.plus.items()}
            for g in gammas_plus]
    minus = [{n: LaurentPoly.constant(one_var, c) for n, c in g.minus.items()}
             for g in gammas_minus]

    def exp_wick(pairs, local):
        return laurent_exp(wick_exponent(pairs, pspec.u, q, t,
                                         LaurentPoly(local, ring, {})), clip)

    def kernel(a):
        # the current of a step-a variable against Gamma_+(rho^+_b),
        # b = 0..N-1, and Gamma_-(rho^-_b), b = 1..N
        cur = z_vertex_spec(one_var, ring, "z", modes[steps[a - 1][0]])
        return exp_wick([(up, cur.minus, b >= a) for b, up in enumerate(plus)]
                        + [(cur.plus, down, b < a)
                           for b, down in enumerate(minus, start=1)], one_var)

    def delta(kind_a, kind_b, wrapped, same):
        # the lowering half of i's current (step a) against the raising
        # half of j's (step b); z is i, w is j
        local = one_var if same else two_vars
        lower = z_vertex_spec(local, ring, "z", modes[kind_a]).plus
        upper = z_vertex_spec(local, ring, local[-1], modes[kind_b]).minus
        return exp_wick([(lower, upper, wrapped)], local)

    def build(key):
        role, *rest = key
        if role == "ratio":
            return ratio_sym_factor(two_vars, ring, 0, 1, rest[0], clip)
        return (kernel if role == "kernel" else delta)(*rest)

    # (shape key, variables) per factor, in factor order
    integrand = [(("ratio", pole), (i, j))
                 for _, pole, idxs in steps for i, j in combinations(idxs, 2)]
    integrand += [(("kernel", a), (i,))
                  for a, (_, _, idxs) in enumerate(steps, start=1) for i in idxs]
    # Delta: variable j of step b against variable i of step a
    integrand += [(("delta", kind_a, kind_b, a >= b, i == j), (i,) if i == j else (i, j))
                  for b, (kind_b, _, idxs_b) in enumerate(steps, start=1)
                  for a, (kind_a, _, idxs_a) in enumerate(steps, start=1)
                  for j in idxs_b for i in idxs_a]
    shapes = {}
    factors = []
    for key, at in integrand:
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = build(key)
        factors.append(shape.placed(zvars, at))
    return zvars, prefactor, factors


# ---------------------------------------------------------------------------
# Shift-mixed extension (N = 1)
# ---------------------------------------------------------------------------


def shift_mixed_partition_function(pspec: ProcessSpec, zeta):
    """theta_3(zeta; u) times the N=1 partition function, u = v^2.

    The ring's symbol ``v`` carries the charge, as in every shift-mixed
    quantity here.
    """
    if pspec.N != 1:
        raise ValueError("shift-mixed quantities are single-step")
    th = theta3(pspec.ring, "v", zeta)
    return th * partition_function_closed(pspec)


def shift_mixed_moment_formula(pspec: ProcessSpec, r: int, zeta) -> TruncSeries:
    """Charged moment of the shifted E observable.

    Equals the plain N=1 E moment times theta_3(zeta t^-r; u)/theta_3(zeta; u).
    """
    if pspec.N != 1:
        raise ValueError("shift-mixed quantities are single-step")
    base = moment_formula(pspec, [("E", r)])
    tnum = theta3(pspec.ring, "v", zeta * pspec.t ** (-r))
    tden = theta3(pspec.ring, "v", zeta)
    return base * tnum * tden.inverse()


def shift_mixed_moment_bruteforce(pspec: ProcessSpec, r: int, zeta,
                                  depth: int) -> TruncSeries:
    """Configuration sum over (lambda, mu, charge) with energy grading.

    The charge n contributes u^(n^2/2) zeta^n t^(-r n) through u = v^2 and
    rational zeta; the partition part reuses the N=1 graded enumeration.
    """
    if pspec.N != 1:
        raise ValueError("shift-mixed quantities are single-step")
    if isinstance(zeta, int):
        zeta = Fraction(zeta)  # an int to a negative power is a float
    ring = pspec.ring
    # the oracle keeps its own charge terms: series.theta_terms feeds theta3
    # in the closed form, and the identity checked here is that theta ratio
    nmax = isqrt(ring.cutoff // ring.degrees[ring._index["v"]])
    terms = [(pspec.t ** (-r * m), ring.monomial(zeta**m, v=m * m))
             for m in range(-nmax, nmax + 1)]
    charge_den = linear_combination(ring, ((1, mono) for _, mono in terms))
    charge_num = linear_combination(ring, terms)
    num, den = _configuration_sums(pspec, depth, [("E", r)])
    return num * charge_num * (den * charge_den).inverse()


# ---------------------------------------------------------------------------
# Schur-limit kernels and the theta Cauchy determinant
# ---------------------------------------------------------------------------


def _theta_cauchy_entry(ring, u_mono, x, y, zeta) -> TruncSeries:
    """1/(x-y) theta_3(zeta y/x; u)/theta_3(zeta; u)
    (u;u)^2/((u x/y; u)(u y/x; u)) at rational x, y."""
    c = Fraction(1) / (x - y)
    th = theta3(ring, "v", zeta * y / x) * theta3(ring, "v", zeta).inverse()
    pochs = qpochhammer(ring, [(u_mono, [u_mono])] * 2,
                        [(u_mono * (x / y), [u_mono]), (u_mono * (y / x), [u_mono])])
    return th * pochs * c


def theta_cauchy_check(r: int, v_cutoff: int, xs, ys, zeta, label="") -> dict:
    """Both sides of the theta-deformed Cauchy determinant identity.

    LHS: Vandermonde ratio times the charge theta ratio times the cross
    Pochhammer products; RHS: determinant of the two-point entries.  All
    variables are exact rationals, both sides are series in v with u = v^2.
    """
    ring = SeriesRing([("v", 1)], v_cutoff)
    u = ring.monomial(Fraction(1), v=2)
    num = Fraction(1)
    for i in range(r):
        for j in range(r):
            if i < j:
                num *= (xs[i] - xs[j])
            if i > j:
                num *= (ys[i] - ys[j])
    den = Fraction(1)
    ratio = Fraction(1)
    for i in range(r):
        ratio *= ys[i] / xs[i]
        for j in range(r):
            den *= (xs[i] - ys[j])
    lhs = ring.scalar(num / den)
    lhs = lhs * theta3(ring, "v", zeta * ratio) * theta3(ring, "v", zeta).inverse()
    pairs = [(i, j) for i in range(r) for j in range(r)]
    lhs = lhs * qpochhammer(
        ring, [(u * (zs[i] / zs[j]), [u]) for zs in (xs, ys) for i, j in pairs],
        [(u * (a[i] / b[j]), [u]) for a, b in ((xs, ys), (ys, xs)) for i, j in pairs])
    entries = [[_theta_cauchy_entry(ring, u, xs[i], ys[j], zeta)
                for j in range(r)] for i in range(r)]
    rhs = _det_series(entries, ring)
    return {"label": label, "match": lhs == rhs, "lhs": lhs, "rhs": rhs}


def _det_series(entries, ring) -> TruncSeries:
    """The Leibniz sum over permutations, each sign from its inversions."""
    r = len(entries)
    return linear_combination(ring, (
        ((-1) ** sum(perm[i] > perm[j] for i in range(r) for j in range(i + 1, r)),
         reduce(mul, (row[p] for row, p in zip(entries, perm)), ring.one()))
        for perm in permutations(range(r))))


def schur_limit_kernels(r: int, v_cutoff: int, rng) -> dict:
    """Verification bundle for the charged Schur-limit determinants.

    (a) the theta Cauchy determinant identity at generic rational points;
    (b) the same identity at x_i = z_i, y_j = t^{-1} z_j, which is exactly
        the statement that the shift-mixed moment integrand collapses to a
        single determinant at q = t;
    (c) the u -> 0 constant term, the classical Cauchy determinant.
    """
    from .scalars import random_rational

    def distinct_rationals(k):
        vals = []
        while len(vals) < k:
            c = random_rational(rng)
            if all(c != v for v in vals):
                vals.append(c)
        return vals

    zeta = random_rational(rng)
    t = random_rational(rng)
    xs = distinct_rationals(r)
    ys = [x * random_rational(rng) for x in xs]
    while any(x == y for x in xs for y in ys):
        ys = [x * random_rational(rng) for x in xs]
    generic = theta_cauchy_check(r, v_cutoff, xs, ys, zeta, label="generic points")
    zs = distinct_rationals(r)
    kernel = theta_cauchy_check(r, v_cutoff, zs, [z / t for z in zs], zeta,
                                label="kernel substitution y = z/t")
    u0 = {"label": "u -> 0 Cauchy determinant",
          "match": generic["lhs"].subs_zero("v").constant_term()
          == generic["rhs"].subs_zero("v").constant_term()}
    return {"r": r, "checks": [generic, kernel, u0],
            "match": all(c["match"] for c in [generic, kernel, u0])}
