import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import heisenberg_apply, layered_half_vertex_apply
from permac import acceptance, cylindric, fock, laurent, macdonald, partitions, point, \
    process, series
from permac.fock import (
    FREE_FIELD_FAMILIES,
    VertexSpec,
    accumulate,
    contraction,
    eta_xi_exponent,
    extended_E_apply,
    fock_scale,
    fermion_pair_ope,
    free_field_apply,
    gamma_spec,
    half_vertex_apply,
    operator_family,
    ope_reorder,
    trace_bruteforce,
    trace_closed,
    vertex_apply,
    z_vertex_spec,
)
from permac.laurent import (
    LaurentPoly,
    cauchy_sym_prefactor,
    product_coefficient,
    ratio_sym_factor,
)
from permac.macdonald import (
    alpha_spec,
    eigenvalue,
    inner_product,
    macdonald_P_p,
    macdonald_Q_p,
    observable,
    skew_eval,
)
from permac.partitions import (contains, make_partition, partitions_of, partitions_up_to,
                               weight, z_qt)
from permac.process import (
    ProcessSpec,
    moment_formula,
    nonperiodic_partition_function,
    partition_function_bruteforce,
    partition_function_closed,
    process_from_names,
)
from permac.scalars import random_qt_pair
from permac.series import SeriesRing, qpochhammer

Q0, T0 = Fraction(1, 3), Fraction(1, 5)


def random_vector(rng, maxwt=4, nterms=3):
    v = {}
    pool = partitions_up_to(maxwt)
    for _ in range(nterms):
        lam = pool[rng.randrange(len(pool))]
        v[lam] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    return {k: c for k, c in v.items() if c}


def test_heisenberg_basics():
    assert heisenberg_apply(-2, {(): Fraction(1)}, Q0, T0) == {(2,): Fraction(1)}
    got = heisenberg_apply(2, {(2,): Fraction(1)}, Q0, T0)
    assert got == {(): 2 * (1 - Q0**2) / (1 - T0**2)}
    assert heisenberg_apply(1, {(2,): Fraction(1)}, Q0, T0) == {}


@settings(max_examples=150, deadline=None)
@given(lam=st.sampled_from(partitions_up_to(6)),
       n=st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
def test_heisenberg_apply_keys_are_partitions(lam, n):
    """a_n builds its output partitions itself: each key is already a
    normalised partition, of weight |lambda| - n."""
    out = heisenberg_apply(n, {lam: Fraction(1)}, Q0, T0)
    assert bool(out) == (n < 0 or n in lam)
    for k in out:
        assert make_partition(k) == k
        assert weight(k) == weight(lam) - n


def test_heisenberg_commutator():
    rng = random.Random(21)
    q, t = random_qt_pair(rng)
    for m in range(1, 5):
        for n in range(1, 5):
            for _ in range(3):
                v = random_vector(rng)
                ab = heisenberg_apply(m, heisenberg_apply(-n, v, q, t), q, t)
                ba = heisenberg_apply(-n, heisenberg_apply(m, v, q, t), q, t)
                comm = dict(ab)
                for lam, c in ba.items():
                    accumulate(comm, lam, -c)
                if m == n:
                    expect = fock_scale(v, m * (1 - q**m) / (1 - t**m))
                else:
                    expect = {}
                assert comm == expect


MODE_POINTS = [(Q0, T0), (Fraction(5, 2), Fraction(7, 3)), (Fraction(-2, 3), Fraction(3, 4))]


@st.composite
def half_vertex_cases(draw):
    """(modes, v, q, t, sign, cap) with rational, series or Laurent
    coefficients; a raising half gets a random cap, a lowering half none."""
    kind = draw(st.sampled_from(["rational", "series", "laurent"]))
    ring = SeriesRing(["a"], draw(st.integers(0, 3)))
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))

    def coefficient(z: int):
        c = draw(rational)
        if kind == "rational":
            return c
        if kind == "series":
            return ring.monomial(c, a=draw(st.integers(0, 2))) + draw(rational)
        return (LaurentPoly.monomial(("z",), ring, c, {"z": z})
                + LaurentPoly.monomial(("z",), ring, draw(rational), {}))

    sign = draw(st.sampled_from([1, -1]))
    modes = {n: coefficient(-sign * n)
             for n in draw(st.sets(st.integers(1, 4), max_size=3))}
    pool = partitions_up_to(5)
    v = {lam: c for lam in draw(st.lists(st.sampled_from(pool), max_size=3))
         if (c := coefficient(0))}  # a Fock vector stores no zero
    q, t = draw(st.sampled_from(MODE_POINTS))
    cap = draw(st.integers(0, 6)) if sign == -1 else None
    return modes, v, q, t, sign, cap


@settings(max_examples=150, deadline=None)
@given(case=half_vertex_cases())
def test_half_vertex_multiset_form_equals_the_layered_one(case):
    modes, v, q, t, sign, cap = case
    assert (half_vertex_apply(modes, v, q, t, sign, cap)
            == layered_half_vertex_apply(modes, v, q, t, sign, cap))


def test_vacuum_annihilation_and_vertex_plus():
    ring = SeriesRing(["x"], 4)
    spec = VertexSpec({1: ring.gen("x")}, {})
    out = vertex_apply(spec, {(): ring.one()}, Q0, T0, degree_cap=4)
    assert out == {(): ring.one()}


def test_gamma_plus_matrix_elements_are_skew_values():
    # <Q_mu| Gamma(X)_+ |P_lam> = P_{lam/mu}(X), checked for |lam| <= 4
    # against the Pieri single-variable values through a formal alpha
    from oracles import skew_single_alpha
    from permac.macdonald import alpha_spec

    rng = random.Random(22)
    q, t = random_qt_pair(rng)
    ring = SeriesRing(["a"], 4)
    spec = alpha_spec([("a", 1)], ring)
    gp = gamma_spec(spec, q, t, ring.cutoff, "+")
    for lam in partitions_up_to(4):
        ket = {k: ring.one() * c for k, c in macdonald_P_p(lam, q, t).items()}
        image = vertex_apply(gp, ket, q, t, degree_cap=weight(lam))
        for mu in partitions_up_to(weight(lam)):
            bra = macdonald_Q_p(mu, q, t)
            acc = ring.zero()
            for nu, c in bra.items():
                d = image.get(nu)
                if d is not None:
                    acc = acc + d * (c * z_qt(nu, q, t))
            coeff = skew_single_alpha("P", lam, mu, q, t)
            expect = ring.monomial(coeff, a=weight(lam) - weight(mu))
            assert acc == expect


def test_completeness_of_PQ_system():
    rng = random.Random(23)
    q, t = random_qt_pair(rng)
    for _ in range(4):
        v = random_vector(rng, maxwt=5)
        out = {}
        for n in range(6):
            for lam in partitions_of(n):
                c = inner_product(macdonald_Q_p(lam, q, t), v, q, t)
                if c:
                    for mu, d in macdonald_P_p(lam, q, t).items():
                        accumulate(out, mu, d * c)
        assert out == v


def test_trace_identity_counts_partitions():
    ring = SeriesRing(["u"], 6)
    tr = trace_bruteforce(lambda v: v, ring, "u", 6, Q0, T0)
    assert tr == qpochhammer(ring, [], [(ring.gen("u"), [ring.gen("u")])])
    assert tr.coeff(u=4) == 5


def test_trace_closed_matches_bruteforce():
    # three random graded vertex specs, u-cutoff 5
    rng = random.Random(24)
    for trial in range(3):
        q, t = random_qt_pair(rng)
        ring = SeriesRing(["u", "a", "b"], 5)
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
            lambda v: vertex_apply(spec, v, q, t, degree_cap=5),
            ring, "u", 5, q, t)
        assert closed == brute, (trial, q, t)


def test_trace_closed_single_mode_coefficient():
    # coefficient of u^1 is 1 + c (1-q)/(1-t) for gamma_1 gamma_{-1} = c
    ring = SeriesRing(["u", "a", "b"], 3)
    spec = VertexSpec({1: ring.monomial(Fraction(2), a=1)},
                      {1: ring.monomial(Fraction(3), b=1)})
    tr = trace_closed(spec, ring, "u", Q0, T0)
    assert tr.coeff(u=1) == 1
    assert tr.coeff(u=1, a=1, b=1) == 6 * (1 - Q0) / (1 - T0)


@pytest.mark.parametrize("laurent", [False, True])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("wrapped", [True, False])
def test_wick_exponent_weighs_wrapped_and_direct_pairs(laurent, n, wrapped):
    # the pair 2 a_n against 3 a_{-n} contracts to c = 6 (1-q^n)/((1-t^n) n);
    # wrapped it weighs c u^n/(1-u^n), direct c/(1-u^n), summed literally here
    ring = SeriesRing(["u"], 5)
    c = 6 * (1 - Q0**n) / ((1 - T0**n) * n)
    expect = ring.zero()
    for j in range(int(wrapped), 5 // n + 1):
        expect = expect + ring.monomial(c, u=j * n)
    if laurent:
        zvars = ("z",)
        zero = LaurentPoly(zvars, ring, {})
        lower = {n: LaurentPoly.monomial(zvars, ring, Fraction(2), {"z": n})}
        upper = {m: LaurentPoly.monomial(zvars, ring, Fraction(3), {})
                 for m in (n, n + 1)}
        expect = LaurentPoly(zvars, ring, {(n,): expect})
    else:
        zero = ring.zero()
        lower = {n: ring.scalar(Fraction(2))}
        upper = {m: ring.scalar(Fraction(3)) for m in (n, n + 1)}
    u = ring.gen("u")
    assert fock.wick_exponent([(lower, upper, wrapped)], u, Q0, T0, zero) == expect
    # no common mode: nothing contracts
    assert fock.wick_exponent([(lower, {n + 1: upper[n + 1]}, wrapped)],
                              u, Q0, T0, zero) == zero


def test_ope_scalar_cases():
    ring = SeriesRing(["x", "y"], 4)
    a = VertexSpec({1: ring.gen("x")}, {})
    b = VertexSpec({}, {1: ring.gen("y")})
    one = ring.one()
    scalar = ope_reorder(a, b, Q0, T0, one)
    assert scalar == ring.monomial((1 - Q0) / (1 - T0), x=1, y=1).exp()
    # nothing to commute when b has no negative modes
    assert ope_reorder(b, a, Q0, T0, one) == one


def test_ope_gamma_pm_gives_cauchy_kernel():
    # Gamma(X)_+ Gamma(Y)_- = Pi_{q,t;0}(X;Y) Gamma(Y)_- Gamma(X)_+ with
    # Pi the two-parameter Cauchy kernel; checked for single formal alphas
    rng = random.Random(25)
    q, t = random_qt_pair(rng)
    ring = SeriesRing(["x", "y"], 5)
    gp = gamma_spec(alpha_spec([("x", 1)], ring), q, t, ring.cutoff, "+")
    gm = gamma_spec(alpha_spec([("y", 1)], ring), q, t, ring.cutoff, "-")
    scalar = ope_reorder(gp, gm, q, t, ring.one())
    xy = ring.monomial(Fraction(1), x=1, y=1)
    expect = qpochhammer(ring, [(ring.monomial(t, x=1, y=1), [q])], [(xy, [q])])
    assert scalar == expect


def test_ope_reorder_consistent_with_sequential_apply():
    rng = random.Random(26)
    q, t = random_qt_pair(rng)
    ring = SeriesRing(["x", "y"], 4)
    a = VertexSpec({1: ring.monomial(Fraction(2), x=1)},
                   {2: ring.monomial(Fraction(1), y=2)})
    b = VertexSpec({2: ring.monomial(Fraction(-1), x=2)},
                   {1: ring.monomial(Fraction(3), y=1)})
    one = ring.one()
    scalar = ope_reorder(a, b, q, t, one)
    merged = a.merge(b)
    # cap = max grade + ring cutoff keeps intermediate excursions lossless
    cap = 2 + 4
    for _ in range(3):
        v = {k: one * c for k, c in random_vector(rng, maxwt=2).items()}
        seq = vertex_apply(a, vertex_apply(b, v, q, t, cap), q, t, cap)
        nrm = {k: scalar * c for k, c in
               vertex_apply(merged, v, q, t, cap).items()}
        assert seq == nrm


def test_merge_sums_laurent_modes_with_different_mode_sets():
    # mode 3 is in b only: the sum must not start from the int 0
    ring = SeriesRing([("v", 1)], 2)
    zvars = ("x", "y")
    _, a = fermion_pair_ope(zvars, ring, "x", Fraction(2), 2)
    _, b = fermion_pair_ope(zvars, ring, "y", Fraction(3), 3)
    merged = a.merge(b)
    for side in ("plus", "minus"):
        ma, mb = getattr(a, side), getattr(b, side)
        assert sorted(ma) == [1, 2] and sorted(mb) == [1, 2, 3]
        assert getattr(merged, side) == {1: ma[1] + mb[1], 2: ma[2] + mb[2],
                                         3: mb[3]}


def test_fermion_pair_ope_keeps_an_int_shift_exact():
    # an int shift must not turn shift**-n into a float mode coefficient
    ring = SeriesRing([("v", 1)], 2)
    coeff, spec = fermion_pair_ope(("x", "y"), ring, "x", 2, 2)
    assert spec.plus[1].terms == {(-1, 0): ring.scalar(Fraction(-1, 2))}
    for lp in [coeff, *spec.plus.values(), *spec.minus.values()]:
        for ts in lp.terms.values():
            assert all(type(c) is Fraction for c in ts.terms.values())


def test_free_field_vacuum_example():
    out = free_field_apply("E", 1, {(): Fraction(1)}, Q0, T0)
    assert out == {(): Fraction(1) / (T0 - 1)}


def current(kind, zvars, ring, zvar, nmax):
    return z_vertex_spec(zvars, ring, zvar, eta_xi_exponent(kind, Q0, T0, nmax))


def test_free_field_operators_at_r_zero_and_below():
    ket = macdonald_P_p((2, 1), Q0, T0)
    for family in FREE_FIELD_FAMILIES:
        assert free_field_apply(family, 0, ket, Q0, T0) == ket
        with pytest.raises(ValueError, match="nonnegative"):
            free_field_apply(family, -1, ket, Q0, T0)


def test_same_kind_contraction_is_the_closed_pair():
    # the lowering half of the current at w moved past the raising half of
    # the current at z leaves c_n (z/w)^n with, for eta with eta,
    # -(1-q^n)(1-t^-n)/n; xi with xi: -(1-q^-n)(1-t^n)/n; and for eta at z
    # with xi at w, (1-t^-n)(1-t^n)(t/q)^n (1-q^n)/((1-t^n) n)
    # = (1-t^n)(1-q^-n)/n
    ring = SeriesRing([], 0)
    zvars = ("z", "w")
    for up, down, (p1, p2) in (("eta", "eta", (Q0, 1 / T0)),
                               ("xi", "xi", (1 / Q0, T0)),
                               ("eta", "xi", (T0, 1 / Q0))):
        sign = 1 if up != down else -1
        got = contraction(current(down, zvars, ring, "w", 5).plus,
                          current(up, zvars, ring, "z", 5).minus, Q0, T0)
        assert got == {n: LaurentPoly.monomial(
            zvars, ring, sign * (1 - p1**n) * (1 - p2**n) / n, {"z": n, "w": -n})
            for n in range(1, 6)}, (up, down)


def test_contraction_of_a_current_with_the_gammas():
    # Gamma_+(rho) against the raising half of an eta current at z leaves
    # p_n(rho) (1-t^-n) z^n / n; the lowering half against Gamma_-(rho)
    # leaves p_n(rho) down_n z^-n / n with down_n = -(1-t^n).  Here p_n = a^n.
    ring = SeriesRing(["a"], 4)
    zvars = ("z",)
    spec = alpha_spec([("a", 1)], ring)
    eta = current("eta", zvars, ring, "z", 6)
    gp = gamma_spec(spec, Q0, T0, ring.cutoff, "+")
    gm = gamma_spec(spec, Q0, T0, ring.cutoff, "-")
    assert contraction(gp.plus, eta.minus, Q0, T0) == {n: LaurentPoly.monomial(
        zvars, ring, ring.monomial((1 - T0**-n) / n, a=n), {"z": n})
        for n in range(1, 5)}
    assert contraction(eta.plus, gm.minus, Q0, T0) == {n: LaurentPoly.monomial(
        zvars, ring, ring.monomial(-(1 - T0**n) / n, a=n), {"z": -n})
        for n in range(1, 5)}
    # modes that only one side carries do not pair
    assert contraction(gp.plus, gm.plus, Q0, T0) == {}


def test_closed_trace_and_z_read_no_ratio_of_their_oracles(monkeypatch, fresh_memos):
    # doubling the memoised (1-q^n)/(1-t^n) doubles the commutator of the
    # Heisenberg modes (and z_lambda(q,t)) that the oracles read; the closed
    # forms form their own ratio in ``contraction`` and must not move with it
    ring = SeriesRing(["u", "a", "b"], 4)
    spec = VertexSpec({1: ring.monomial(Fraction(2), a=1)},
                      {1: ring.monomial(Fraction(-1), b=1)})

    def trace_pair():
        return (trace_closed(spec, ring, "u", Q0, T0),
                trace_bruteforce(lambda v: vertex_apply(spec, v, Q0, T0, 4),
                                 ring, "u", 4, Q0, T0))

    def z_pair():
        # a new process each time: a process memoises its skew values.  The
        # two-variable alpha step takes the Fock route of ``skew_eval``,
        # which reads z_lambda(q,t); a one-variable step reads ``pieri``
        zring = SeriesRing(["u", "a", "x", "b"], 4)
        ps = ProcessSpec(zring, Q0, T0, zring.gen("u"),
                         [alpha_spec([("a", 1), ("x", 2)], zring)],
                         [alpha_spec([("b", 1)], zring)])
        return partition_function_closed(ps), partition_function_bruteforce(ps, 4)

    closed, brute = trace_pair()
    assert closed == brute
    z_closed, z_brute = z_pair()
    assert z_closed == z_brute

    def doubled(n, q, t):
        return 2 * point.qt_ratio(n, q, t)

    monkeypatch.setattr(fock, "qt_ratio", doubled)
    closed2, brute2 = trace_pair()
    assert closed2 == closed and brute2 != brute
    monkeypatch.setattr(partitions, "qt_ratio", doubled)
    fresh_memos()
    z_closed2, z_brute2 = z_pair()
    assert z_closed2 == z_closed and z_brute2 != z_brute


def test_closed_z_reads_no_pieri_coefficient(monkeypatch, fresh_memos):
    # the one-variable skews of the brute-force Z are Pieri coefficients
    # times p_|lam/mu|; scaling psi moves that Z and leaves the closed one
    def z_pair():
        ps = process_from_names(["alpha"], ["alpha"], Q0, T0, 4)
        return partition_function_closed(ps), partition_function_bruteforce(ps, 4)

    z_closed, z_brute = z_pair()
    assert z_closed == z_brute
    pieri = macdonald.pieri

    def scaled(lam, mu, q, t):
        psi, phi = pieri(lam, mu, q, t)
        return 2 * psi, phi

    monkeypatch.setattr(macdonald, "pieri", scaled)
    fresh_memos()
    z_closed2, z_brute2 = z_pair()
    assert z_closed2 == z_closed and z_brute2 != z_brute


def test_a_smaller_raising_table_is_the_larger_one_filtered():
    # the entries of |kappa| <= b, in the same order and with equal weights
    ring = SeriesRing(["b"], 7)
    modes = {n: ring.monomial(Fraction(3 - 2 * n, n + 1), b=n) for n in (1, 2, 3)}
    full = fock._raising_table(modes, 7)
    for budget in range(8):
        assert fock._raising_table(modes, budget) == \
            [entry for entry in full if entry[1] <= budget], budget


def test_a_reused_vertex_spec_builds_its_raising_table_once(monkeypatch):
    # the brute-force trace applies one spec to every basis ket: its raising
    # table is built once, at the largest budget asked for, and is built
    # again only for a larger one; the images equal those of a fresh spec
    ring = SeriesRing(["u", "a", "b"], 6)
    plus = {n: ring.monomial(Fraction(2, n), a=n) for n in (1, 2)}
    minus = {n: ring.monomial(Fraction(-1, n), b=n) for n in (1, 2, 3)}
    builds = []
    table = fock._raising_table

    def counted(modes, budget):
        builds.append(budget)
        return table(modes, budget)

    kets = [({lam: 1}, cap) for lam in partitions_up_to(6) for cap in (6, 4)]
    fresh = [vertex_apply(VertexSpec(plus, minus), v, Q0, T0, cap) for v, cap in kets]
    monkeypatch.setattr(fock, "_raising_table", counted)
    spec = VertexSpec(plus, minus)
    trace = trace_bruteforce(lambda v: vertex_apply(spec, v, Q0, T0, 6), ring, "u", 6, Q0, T0)
    assert trace == trace_closed(spec, ring, "u", Q0, T0)
    assert [vertex_apply(spec, v, Q0, T0, cap) for v, cap in kets] == fresh
    assert builds == [6]
    builds.clear()
    small = VertexSpec(plus, minus)
    vertex_apply(small, {(): 1}, Q0, T0, 3)
    vertex_apply(small, {(): 1}, Q0, T0, 5)
    vertex_apply(small, {(): 1}, Q0, T0, 4)
    assert builds == [3, 5]


def test_closed_forms_reach_no_oracle_sum_or_raising_table(monkeypatch):
    # the flat sum of products and the raising table serve the oracles only
    def refused(*args, **kwargs):
        raise AssertionError("a closed form reached an oracle helper")

    for module in (series, process, cylindric):
        monkeypatch.setattr(module, "product_sums", refused)
    monkeypatch.setattr(fock, "_raising_table", refused)
    monkeypatch.setattr(fock.VertexSpec, "raising_table", refused)
    ps = process_from_names(["alpha", "plancherel"], ["alpha", "alpha"], Q0, T0, 3)
    for family in FREE_FIELD_FAMILIES:
        assert moment_formula(ps, [(family, 1), (family, 2)])
    assert partition_function_closed(ps) and nonperiodic_partition_function(ps)
    ring = SeriesRing(["u", "a", "b"], 4)
    spec = VertexSpec({1: ring.monomial(Fraction(2), a=1)}, {1: ring.monomial(Fraction(-1), b=1)})
    assert trace_closed(spec, ring, "u", Q0, T0)
    with pytest.raises(AssertionError, match="oracle helper"):
        partition_function_bruteforce(ps, 3)
    with pytest.raises(AssertionError, match="oracle helper"):
        trace_bruteforce(lambda v: vertex_apply(spec, v, Q0, T0, 4), ring, "u", 4, Q0, T0)


def test_eigen_relations_all_families():
    rng = random.Random(27)
    points = [random_qt_pair(rng), random_qt_pair(rng)]
    for q, t in points:
        for lam in partitions_up_to(3):
            ket = macdonald_P_p(lam, q, t)
            for family in FREE_FIELD_FAMILIES:
                for r in (1, 2):
                    got = free_field_apply(family, r, ket, q, t)
                    ev = eigenvalue(family, r, lam, q, t)
                    expect = fock_scale(ket, ev)
                    assert got == expect, (family, r, lam, q, t)


def test_eigen_relations_all_families_at_r_three():
    q, t = Fraction(43, 97), Fraction(59, 89)
    for lam in partitions_up_to(4):
        ket = macdonald_P_p(lam, q, t)
        for family in FREE_FIELD_FAMILIES:
            got = free_field_apply(family, 3, ket, q, t)
            assert got == fock_scale(ket, eigenvalue(family, 3, lam, q, t)), (family, lam)


def test_eigen_relation_E_weight_four():
    rng = random.Random(29)
    q, t = random_qt_pair(rng)
    for lam in partitions_of(4):
        ket = macdonald_P_p(lam, q, t)
        for r in (1, 2):
            got = free_field_apply("E", r, ket, q, t)
            expect = fock_scale(ket, eigenvalue("E", r, lam, q, t))
            assert got == expect, (r, lam)


def test_renormalized_operator_vs_observable():
    # t^r times the E-family eigenvalue is the E observable (unit shift)
    rng = random.Random(28)
    q, t = random_qt_pair(rng)
    for lam in partitions_up_to(3):
        for r in (1, 2):
            assert t**r * eigenvalue("E", r, lam, q, t) == observable("E", r, lam, q, t)
            assert t**-r * eigenvalue("E'", r, lam, q, t) == observable("E'", r, lam, q, t)


def _free_field_apply_whole_vector(family, r, v, q, t):
    """The family operator applied to a whole vector at once, with one vertex
    spec and one clip r * (max weight of v) + 2 shared by all its kets: the
    oracle for the memoised per-ket columns of free_field_apply."""
    if not v:
        return {}
    ring = SeriesRing([], 0)
    kind, c, c0, _ = operator_family(family, q, t)
    prefactor = c0**r * cauchy_sym_prefactor(c, r)
    zvars = tuple(f"z{i}" for i in range(1, r + 1))
    gmax = max(weight(lam) for lam in v)
    clip = r * gmax + 2
    coeffs = eta_xi_exponent(kind, q, t, gmax)
    spec = VertexSpec({}, {})
    for z in zvars:
        spec = spec.merge(z_vertex_spec(zvars, ring, z, coeffs))
    sym_factors = [ratio_sym_factor(zvars, ring, i, j, c, clip)
                   for i in range(r) for j in range(i + 1, r)]
    out: dict = {}
    for lam, coeff in v.items():
        g = weight(lam)
        start = {lam: LaurentPoly.constant(zvars, ring.one())}
        for mu, lp in vertex_apply(spec, start, q, t, g).items():
            if weight(mu) != g:
                continue
            val = product_coefficient(sym_factors + [lp], (0,) * r)
            if not val:
                continue
            accumulate(out, mu, coeff * val.constant_term() * prefactor)
    return out


FREE_FIELD_POINTS = [(Fraction(56, 97), Fraction(49, 89)), (Fraction(5, 2), Fraction(7, 3))]


def test_free_field_columns_equal_whole_vector_oracle():
    rng = random.Random(17)
    for q, t in FREE_FIELD_POINTS:
        # mixed weights 0-3 in one vector, so the oracle's shared clip is
        # larger than a column's own for every lighter ket
        vectors = [random_vector(rng, maxwt=3, nterms=5) for _ in range(2)]
        vectors.append({lam: Fraction(1, 1 + weight(lam))
                        for lam in partitions_up_to(3)})
        for family in FREE_FIELD_FAMILIES:
            for r in (1, 2, 3):
                for v in vectors:
                    got = free_field_apply(family, r, v, q, t)
                    expect = _free_field_apply_whole_vector(family, r, v, q, t)
                    assert got == expect, (family, r, v)
                    assert repr(got) == repr(expect), (family, r, v)


def test_column_cut_is_the_ket_weight():
    # the pair factors are cut at ratio power |lam|: cuts |lam| + 1 to
    # |lam| + 3 change no column, and the cut |lam| - 1 changes some
    def column_at(family, r, lam, cut, q, t):
        kind, c, c0, _ = operator_family(family, q, t)
        table = fock._cauchy_table(c, r, cut, q, t)
        out: dict = {}
        for e, vec in fock._current_image(kind, r, lam, q, t).items():
            for mu, a in vec.items():
                accumulate(out, mu, a * table.get(tuple(-x for x in e), 0)
                           * c0**r * cauchy_sym_prefactor(c, r))
        return out

    lowered = 0
    for q, t in FREE_FIELD_POINTS:
        for family in FREE_FIELD_FAMILIES:
            for r in (1, 2, 3):
                for lam in partitions_up_to(4 if r < 3 else 3):
                    g = weight(lam)
                    column = fock._free_field_column(family, r, lam, q, t)
                    for cut in range(g, g + 4):
                        assert column_at(family, r, lam, cut, q, t) == column
                    if g and column_at(family, r, lam, g - 1, q, t) != column:
                        lowered += 1
    assert lowered


def test_free_field_apply_builds_no_laurent_polynomial(monkeypatch, fresh_memos):
    # the columns run on rational vectors: no LaurentPoly is built and no
    # product_coefficient called, cold memos included
    counts = {"laurent": 0, "product": 0}
    init, product = LaurentPoly.__init__, laurent.product_coefficient

    def counted_init(self, *args):
        counts["laurent"] += 1
        init(self, *args)

    def counted_product(*args):
        counts["product"] += 1
        return product(*args)

    monkeypatch.setattr(LaurentPoly, "__init__", counted_init)
    for mod in list(sys.modules.values()):  # every permac module that imported it
        if (getattr(mod, "__name__", "").startswith("permac")
                and getattr(mod, "product_coefficient", None) is product):
            monkeypatch.setattr(mod, "product_coefficient", counted_product)
    q, t = Fraction(43, 97), Fraction(59, 89)
    for family in FREE_FIELD_FAMILIES:
        for r in (1, 2, 3):
            for lam in partitions_up_to(3):
                ket = macdonald_P_p(lam, q, t)
                assert free_field_apply(family, r, ket, q, t) == fock_scale(
                    ket, eigenvalue(family, r, lam, q, t))
    assert counts == {"laurent": 0, "product": 0}
    # the counters see the Laurent route of the oracle and of the moments
    _free_field_apply_whole_vector("E", 2, {(1,): Fraction(1)}, q, t)
    assert counts["laurent"]
    laurent.product_coefficient([LaurentPoly.constant(("z",), SeriesRing([], 0).one())], (0,))
    assert counts["product"] == 1


def test_extended_E_columns_equal_whole_vector_oracle():
    t = Fraction(3, 7)
    for q in (t, Fraction(2, 5)):
        cvec = {(lam, n): Fraction(n + 3, 1 + weight(lam))
                for n in (-1, 0, 2) for lam in partitions_up_to(3)}
        for r in (1, 2):
            expect: dict = {}
            for n in (-1, 0, 2):
                v = {lam: c for (lam, m), c in cvec.items() if m == n}
                for mu, c in _free_field_apply_whole_vector("E", r, v, q, t).items():
                    accumulate(expect, (mu, n), c * (t**r) * (t ** (-r * n)))
            got = extended_E_apply(r, cvec, q, t)
            assert got == expect and repr(got) == repr(expect), (q, r)


def test_shared_memos_survive_the_flows_that_read_them():
    # the p-basis P/Q dicts, the free-field columns, the skew coefficients
    # (per point) and the products p_nu(X) (per Specialization) are memoised
    # and shared; the duality, Pieri, eigen and skew_eval flows must leave
    # them as they were
    q, t = Fraction(43, 97), Fraction(59, 89)
    lams = partitions_up_to(4)
    columns = [(family, r, lam) for family in FREE_FIELD_FAMILIES
               for r in (1, 2) for lam in partitions_up_to(3)]
    ring = SeriesRing(["a"], 4)
    spec = alpha_spec([("a", 1), ("a", 2)], ring)
    nus = [nu for nu in lams if nu]

    def skew_flow():
        for lam in lams:
            for mu in partitions_up_to(weight(lam)):
                for kind in ("P", "Q"):
                    skew_eval(kind, lam, mu, spec, q, t, unit=ring.one())

    def shared():
        return ([f(lam, q, t) for lam in lams for f in (macdonald_P_p, macdonald_Q_p)]
                + [fock._free_field_column(*key, q, t) for key in columns]
                + [macdonald._skew_coefficients(kind, lam, mu, q, t)
                   for kind in ("P", "Q") for lam in lams
                   for mu in partitions_up_to(weight(lam)) if contains(lam, mu)]
                + [spec.power_product(nu) for nu in nus])

    skew_flow()
    before = shared()
    snapshot = repr(before)
    for lam in lams:
        for mu in partitions_of(weight(lam)):
            ip = inner_product(macdonald_P_p(lam, q, t), macdonald_Q_p(mu, q, t), q, t)
            assert ip == (lam == mu)
    for mu in partitions_up_to(2):
        for r in (1, 2):
            assert acceptance._pieri_rule_holds(mu, r, q, t)
    for family, r, lam in columns:
        ket = macdonald_P_p(lam, q, t)
        got = free_field_apply(family, r, ket, q, t)
        assert got == fock_scale(ket, eigenvalue(family, r, lam, q, t))
    skew_flow()
    after = shared()
    assert repr(after) == snapshot
    # the memos were hit, not rebuilt: the same objects come back
    assert all(a is b for a, b in zip(before, after))
    # a second specialization with the same p-values has products of its own
    twin = alpha_spec([("a", 1), ("a", 2)], ring)
    for lam in lams:
        for kind in ("P", "Q"):
            skew_eval(kind, lam, (), twin, q, t, unit=ring.one())
    assert twin._products and twin._products is not spec._products
    assert all(twin.power_product(nu) == spec.power_product(nu)
               and twin.power_product(nu) is not spec.power_product(nu)
               for nu in nus)
