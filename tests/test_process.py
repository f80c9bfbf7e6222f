import random
from fractions import Fraction
from itertools import product

import pytest

from permac import laurent, process
from permac.macdonald import alpha_spec, zero_spec
from permac.partitions import contains, partitions_up_to, weight
from permac.process import (
    ProcessSpec,
    configurations,
    moment_bruteforce,
    moment_formula,
    nonperiodic_partition_function,
    pair_kernel_pochhammer,
    partition_function_bruteforce,
    partition_function_closed,
    process_from_names,
    schur_limit_kernels,
    shift_mixed_moment_bruteforce,
    shift_mixed_moment_formula,
    shift_mixed_partition_function,
    theta_cauchy_check,
    time_grid_process,
    weight_W,
)
from permac.scalars import random_qt_pair
from permac.series import SeriesRing, euler_inverse, qpochhammer, theta3

Q0, T0 = Fraction(1, 3), Fraction(1, 5)


def single_alpha_process(N, q, t, cutoff):
    return process_from_names(["alpha"] * N, ["alpha"] * N, q, t, cutoff)


def test_weight_examples():
    ps = single_alpha_process(1, Q0, T0, 4)
    ring = ps.ring
    w = weight_W(ps, [(1,)], [()])
    expect = ring.monomial((1 - T0) / (1 - Q0), a0=1, b1=1)
    assert w == expect
    assert weight_W(ps, [(1,)], [(1,)]) == ring.gen("u")
    assert not weight_W(ps, [(1,)], [(2,)])


def test_skew_kind_picks_the_specialization():
    # distinct alpha symbols per step: the one-box skew value is the symbol
    # of the specialization it read, P at rho^+_i and Q at rho^-_{i+1}
    ps = single_alpha_process(3, Q0, T0, 2)
    ring = ps.ring
    for i in range(3):
        assert ps.skew("P", (1,), (), i) == ring.gen(f"a{i}")
        assert ps.skew("Q", (1,), (), i) == ring.monomial(
            (1 - T0) / (1 - Q0), **{f"b{i + 1}": 1})


def test_weight_support_is_interlacing():
    # nonzero weight forces the cyclic inclusion chain (single-alpha specs
    # additionally force horizontal strips; inclusion is what the weight
    # structure itself guarantees)
    ps = single_alpha_process(2, Q0, T0, 4)
    for lam1 in partitions_up_to(2):
        for lam2 in partitions_up_to(2):
            for mu1 in partitions_up_to(2):
                for mu2 in partitions_up_to(2):
                    w = weight_W(ps, [lam1, lam2], [mu1, mu2])
                    chain = (contains(lam1, mu2) and contains(lam1, mu1)
                             and contains(lam2, mu1) and contains(lam2, mu2))
                    if not chain:
                        assert not w


def test_partition_function_zero_minus_is_euler():
    ps = process_from_names(["alpha"], ["zero"], Q0, T0, 5)
    ring = ps.ring
    brute = partition_function_bruteforce(ps, 5)
    assert brute == euler_inverse(ring, ring.gen("u"))
    assert partition_function_closed(ps) == brute


@pytest.mark.parametrize("N,depth", [(1, 5), (2, 4), (3, 4)])
def test_partition_function_closed_vs_bruteforce(N, depth):
    rng = random.Random(100 + N)
    for _ in range(2):
        q, t = random_qt_pair(rng)
        ps = single_alpha_process(N, q, t, depth)
        brute = partition_function_bruteforce(ps, depth)
        closed = partition_function_closed(ps)
        assert brute == closed, (N, q, t)


def test_process_from_names_mixed_specs():
    ps = process_from_names(["alpha", "plancherel"], ["zero", "alpha"],
                            Q0, T0, 3)
    assert ps.ring.symbols == ("u", "g", "a0", "b2")
    assert partition_function_closed(ps) == partition_function_bruteforce(ps, 3)


def test_process_from_names_normalises_and_rejects_names():
    ps = process_from_names([" Alpha"], ["PLANCHEREL "], Q0, T0, 2)
    assert ps.ring.symbols == ("u", "g", "a0")
    assert [s.kind for s in ps.rho_plus + ps.rho_minus] == ["alpha", "plancherel"]
    with pytest.raises(ValueError, match=r"^unknown specialization 'bogus' "
                       r"\(expected zero \| alpha \| plancherel\)$"):
        process_from_names(["zero"], [" Bogus"], Q0, T0, 2)


def test_pair_kernel_pochhammer_route_matches_exp_route():
    # at N = 1 the free-field route is the Euler factor times one full pair
    # kernel, which the two-variable Pochhammer ratio gives in closed form
    ps = single_alpha_process(1, Q0, T0, 6)
    u = ps.ring.gen("u")
    poch_route = pair_kernel_pochhammer(ps.ring, Q0, T0, u, "a0", "b1")
    assert partition_function_closed(ps) == euler_inverse(ps.ring, u) * poch_route


def test_schur_point_kernel_is_u_pochhammer():
    # at q = t the pair kernel telescopes to 1/(ab; u)_inf
    q = Fraction(2, 7)
    ring = SeriesRing(["u", "a", "b"], 6)
    kern = pair_kernel_pochhammer(ring, q, q, ring.gen("u"), "a", "b")
    ab = ring.monomial(Fraction(1), a=1, b=1)
    assert kern == qpochhammer(ring, ab, [ring.gen("u")]).inverse()


def test_u_to_zero_limit_is_nonperiodic():
    for N in (1, 2):
        rng = random.Random(60 + N)
        q, t = random_qt_pair(rng)
        ps = single_alpha_process(N, q, t, 4)
        closed = partition_function_closed(ps)
        assert closed.subs_zero("u") == nonperiodic_partition_function(ps)
        brute = partition_function_bruteforce(ps, 4)
        assert brute.subs_zero("u") == nonperiodic_partition_function(ps).truncate(4)


@pytest.mark.parametrize("plus, minus, depth", [
    (["alpha"] * 2, ["alpha"] * 2, 4),
    (["alpha"] * 3, ["alpha"] * 3, 3),
    (["zero"], ["zero"], 4),
    (["plancherel", "alpha"], ["alpha", "zero"], 4),          # zero rho^-_N
    (["zero", "alpha"], ["plancherel", "alpha"], 4),          # zero rho^+_0
    (["zero", "plancherel", "alpha"], ["alpha", "zero", "zero"], 3),
])
def test_configurations_pinned(monkeypatch, plus, minus, depth):
    # the memoised containment lists give the walk the same ordered list as
    # a literal contains filter over partitions_up_to at every step ...
    ps = process_from_names(plus, minus, Q0, T0, depth)
    N = ps.N
    got = list(process.configurations(ps, depth))
    monkeypatch.setattr(process, "_partitions_containing", lambda mu, w: [
        lam for lam in partitions_up_to(w) if contains(lam, mu)])
    monkeypatch.setattr(process, "_partitions_inside", lambda lam: [
        mu for mu in partitions_up_to(weight(lam)) if contains(lam, mu)])
    assert got == list(process.configurations(ps, depth))
    # ... and that list is every cyclic interlacing chain of graded cost
    # <= depth, each once: u and each alpha or Plancherel step cost one
    # degree per box, and a zero step adds no box.  lams[k] steps up from
    # mus[k - 1] through rho^+_k and down to mus[k] through rho^-_{k+1}.
    parts = partitions_up_to(depth)
    expect = set()
    for lams in product(parts, repeat=N):
        for mus in product(parts, repeat=N):
            steps = [(lams[k], mus[k - 1], plus[k]) for k in range(N)] \
                + [(lams[k], mus[k], minus[k]) for k in range(N)]
            if not all(contains(lam, mu) and (name != "zero" or lam == mu)
                       for lam, mu, name in steps):
                continue
            cost = weight(mus[-1]) + sum(weight(lam) - weight(mu)
                                         for lam, mu, _ in steps)
            if cost <= depth:
                expect.add((lams, mus))
    assert len(got) == len(expect)
    assert {(tuple(lams), tuple(mus)) for lams, mus in got} == expect


def _oracle_configurations(pspec, depth):
    """The list-copying walk that ``configurations`` replaced, kept verbatim
    as the oracle of its stream."""
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

    for mu0 in partitions_up_to(depth // du):

        def walk(i, prev_mu, budget, lams, mus):
            # step up prev_mu -> lam^{i+1} through rho^+_i, whose degree
            # bounds the weight gain by the budget, then down lam -> mu^{i+1}
            # through rho^-_{i+1}; the last step closes on mu^N = mu0
            d_up, d_dn = up[i], down[i]
            if d_up is None:
                ups = [prev_mu]
            else:
                ups = process._partitions_containing(prev_mu, weight(prev_mu) + budget // d_up)
            last = i + 1 == N
            for lam in ups:
                b1 = budget if d_up is None \
                    else budget - d_up * (weight(lam) - weight(prev_mu))
                if not last:
                    downs = [lam] if d_dn is None else process._partitions_inside(lam)
                elif lam == mu0 or (d_dn is not None and contains(lam, mu0)):
                    downs = [mu0]
                else:
                    continue
                for mu in downs:
                    b2 = b1 if d_dn is None else b1 - d_dn * (weight(lam) - weight(mu))
                    if b2 < 0:
                        continue
                    if last:
                        yield lams + [lam], mus + [mu]
                    else:
                        yield from walk(i + 1, mu, b2, lams + [lam], mus + [mu])

        # the chain starts at mu^N = mu0 and steps up through rho^+_0;
        # mus collected along the way are mu^1..mu^N
        yield from walk(0, mu0, depth - du * weight(mu0), [], [])


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_configurations_stream_equals_the_list_copying_walk(N):
    # every pattern of zero and alpha steps at N <= 2, a seeded sample of
    # them beyond; the same configurations in the same order, as lists
    patterns = list(product(["zero", "alpha"], repeat=2 * N))
    if N > 2:
        patterns = [("alpha",) * (2 * N), ("zero",) * (2 * N)] \
            + random.Random(N).sample(patterns, 6)
    for pattern in patterns:
        ps = process_from_names(pattern[:N], pattern[N:], Q0, T0, 6)
        for depth in range(7):
            got = list(configurations(ps, depth))
            assert got == list(_oracle_configurations(ps, depth)), (pattern, depth)
            assert all(type(lams) is list and type(mus) is list
                       for lams, mus in got)


def lambda_weights(ps, depth):
    """Truncated weights per lambda sequence, summed over mu, and their total."""
    acc = {}
    for lam_seq, mu_seq in configurations(ps, depth):
        w = weight_W(ps, lam_seq, mu_seq)
        if w:
            key = tuple(lam_seq)
            acc[key] = acc.get(key, ps.ring.zero()) + w
    return acc, sum(acc.values(), ps.ring.zero())


def test_measure_geometric_for_zero_specs():
    ps = process_from_names(["zero"], ["zero"], Q0, T0, 6)
    ring = ps.ring
    weights, norm = lambda_weights(ps, 6)
    assert norm == euler_inverse(ring, ring.gen("u"))
    for lam_seq, w in weights.items():
        assert w == ring.monomial(Fraction(1), u=weight(lam_seq[0]))


def test_measure_u_to_zero_is_nonperiodic():
    # setting u to zero kills every configuration with a nonempty wrapped
    # inner partition, leaving the open-chain (non-periodic) measure
    ps = single_alpha_process(2, Q0, T0, 4)
    weights, _norm = lambda_weights(ps, 4)
    open_chain = {}
    for lam_seq, mu_seq in configurations(ps, 4):
        if mu_seq[-1] != ():
            continue
        w = weight_W(ps, lam_seq, mu_seq)
        if w:
            key = tuple(lam_seq)
            open_chain[key] = open_chain.get(key, ps.ring.zero()) + w
    for key, w in weights.items():
        expect = open_chain.get(key, ps.ring.zero()).subs_zero("u")
        assert w.subs_zero("u") == expect


def test_process_spec_rejects_rational_u():
    ring = SeriesRing(["u"], 4)
    with pytest.raises(TypeError):
        ProcessSpec(ring, Q0, T0, Fraction(1, 4), [zero_spec()], [zero_spec()])


@pytest.mark.parametrize("make", [
    lambda q, t: process_from_names(["alpha"], ["alpha"], q, t, 2),
    lambda q, t: time_grid_process(Fraction(3, 2), [Fraction(1, 2)], q, t),
], ids=["from-names", "time-grid"])
def test_process_spec_refuses_a_float_point(make):
    # Fraction(0.1) is a 55-bit binary rational, not 1/10
    with pytest.raises(TypeError, match="not rational"):
        make(0.1, T0)
    with pytest.raises(TypeError, match="not rational"):
        make(Q0, 0.2)
    assert make(0, Q0).q == 0 and make(Q0, T0).t == T0


@pytest.mark.parametrize("make", [
    lambda: process_from_names([], [], Q0, T0, 3),
    lambda: time_grid_process(Fraction(3, 2), [], Q0, T0),
], ids=["from-names", "time-grid"])
def test_process_needs_a_step(make):
    # with no step the closed Z read 1/(u;u)_inf while the oracles raised
    # IndexError
    with pytest.raises(ValueError, match="at least one step"):
        make()


def _time_grid(u_list):
    return time_grid_process(Fraction(3, 2), u_list, Q0, T0)


@pytest.mark.parametrize("call, error, match", [
    (lambda: list(configurations(_time_grid([Fraction(1, 2)]), 3)),
     ValueError, "positive degree"),
    (lambda: weight_W(_time_grid([Fraction(1, 2), Fraction(1, 3)]), [(1,)], [()]),
     ValueError, "length N"),
    (lambda: _time_grid([Fraction(1, 2), 0.25]), TypeError, "not rational"),
], ids=["never-enumerated", "one-lambda-per-time", "float-decay"])
def test_time_grid_contract(call, error, match):
    # a time-grid spec is rational: it is summed over given lambda tuples of
    # its length, never enumerated, and takes exact decays only
    with pytest.raises(error, match=match):
        call()


def test_moment_zero_specs_E1():
    # E[E_1] for the trivial measure: (u;u)_inf * sum_lam E_1(lam) u^{|lam|}
    ps = process_from_names(["zero"], ["zero"], Q0, T0, 5)
    ring = ps.ring
    brute = moment_bruteforce(ps, [("E", 1)], 5)
    formula = moment_formula(ps, [("E", 1)])
    # closed product: (1/(1-t^-1)) (u;u)(q t^-1 u;u) / ((qu;u)(t^-1 u;u))
    u = ring.gen("u")
    closed = qpochhammer(ring, u, [u]) \
        * qpochhammer(ring, u * (Q0 / T0), [u]) \
        * qpochhammer(ring, u * Q0, [u]).inverse() \
        * qpochhammer(ring, u * (1 / T0), [u]).inverse() \
        * (Fraction(1) / (1 - 1 / T0))
    assert formula == closed
    assert brute == closed


@pytest.mark.parametrize("tag", ["E", "E'", "G", "G'"])
@pytest.mark.parametrize("r", [1, 2])
def test_single_step_moments_formula_vs_bruteforce(tag, r):
    rng = random.Random(f"{tag}:{r}")
    q, t = random_qt_pair(rng)
    ps = single_alpha_process(1, q, t, 4)
    brute = moment_bruteforce(ps, [(tag, r)], 4)
    formula = moment_formula(ps, [(tag, r)])
    assert formula == brute, (tag, r, q, t)


@pytest.mark.parametrize("r, cutoff", [(4, 4), (3, 5)])
def test_higher_E_moments_formula_vs_bruteforce(r, cutoff):
    # scopes that need the planned contraction order in product_coefficient
    q, t = random_qt_pair(random.Random(40 + r))
    ps = single_alpha_process(1, q, t, cutoff)
    assert moment_formula(ps, [("E", r)]) == moment_bruteforce(ps, [("E", r)], cutoff)


# the largest accumulator of product_coefficient in the closed form: the
# elimination order keeps it at these counts (95,874 terms at (2, 3) under
# the greedy variable-elimination order that came before)
ACCUMULATOR_PEAK = {(3, 2): 25_613, (2, 3): 27_439}


@pytest.mark.parametrize("r, N", [(3, 2), (2, 3)])
def test_multi_step_E_moments_formula_vs_bruteforce(monkeypatch, r, N):
    # scopes that need the flat constant-term kernel in product_coefficient
    q, t = random_qt_pair(random.Random(f"E:{r}:{N}"))
    ps = single_alpha_process(N, q, t, 3)
    steps = [("E", r)] * N
    peak = 0
    mul_terms = laurent._mul_terms

    def counted(acc, terms, pk, keep=None):
        nonlocal peak
        out = mul_terms(acc, terms, pk, keep)
        peak = max(peak, len(out))
        return out

    monkeypatch.setattr(laurent, "_mul_terms", counted)
    assert moment_formula(ps, steps) == moment_bruteforce(ps, steps, 3), (q, t)
    assert 0 < peak <= ACCUMULATOR_PEAK[r, N]


FAMILIES = ["E", "E'", "G", "G'"]
# t/q is not a rational square at either point
MIXED_POINTS = [(Fraction(43, 97), Fraction(59, 89)),
                (Fraction(2, 7), Fraction(5, 11))]


@pytest.mark.parametrize("q, t", MIXED_POINTS, ids=str)
@pytest.mark.parametrize("first, second", list(product(FAMILIES, repeat=2)))
def test_two_step_mixed_family_moments_formula_vs_bruteforce(first, second, q, t):
    # the Delta factor of step pair (b, a) takes its raising coefficients
    # from step b's current and its lowering ones from step a's; the
    # cross-class pairs fail with the two swapped
    ps = single_alpha_process(2, q, t, 3)
    steps = [(first, 1), (second, 1)]
    assert moment_formula(ps, steps) == moment_bruteforce(ps, steps, 3)


def test_moments_at_r_zero_are_the_unit():
    # E_0 = G_0 = 1: a step with r = 0 observes nothing
    ps = single_alpha_process(1, Q0, T0, 3)
    assert moment_formula(ps, [("E", 0)]) == ps.ring.one()
    assert moment_bruteforce(ps, [("E", 0)], 3) == ps.ring.one()
    ps = single_alpha_process(2, Q0, T0, 3)
    steps = [("G", 0), ("E'", 1)]
    assert moment_formula(ps, steps) == moment_bruteforce(ps, steps, 3)


@pytest.mark.parametrize("tag", FAMILIES)
def test_a_negative_r_is_refused(tag):
    ps = single_alpha_process(1, Q0, T0, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        moment_formula(ps, [(tag, -1)])
    with pytest.raises(ValueError, match="nonnegative"):
        moment_bruteforce(ps, [(tag, -1)], 2)


def test_three_step_mixed_moment_formula_vs_bruteforce():
    q, t = MIXED_POINTS[0]
    ps = single_alpha_process(3, q, t, 4)
    steps = [("E", 1), ("E'", 1), ("G", 2)]
    assert moment_formula(ps, steps) == moment_bruteforce(ps, steps, 4)


def bessel_series(ring, gname, c, nmax):
    # I_0(2 sqrt(c) gamma) = sum c^n gamma^(2n) / (n!)^2
    out = ring.zero()
    fact = 1
    for n in range(nmax + 1):
        if n:
            fact *= n
        out = out + ring.monomial(c**n / Fraction(fact * fact), **{gname: 2 * n})
    return out


def test_bessel_example_E1():
    rng = random.Random(77)
    q, t = random_qt_pair(rng)
    ps = process_from_names(["plancherel"], ["plancherel"], q, t, 8)
    ring = ps.ring
    got = moment_formula(ps, [("E", 1)])
    u = ring.gen("u")
    closed = bessel_series(ring, "g", (1 - t) * (1 / t - 1), 4) \
        * (Fraction(1) / (1 - 1 / t)) \
        * qpochhammer(ring, u, [u]) * qpochhammer(ring, u * (q / t), [u]) \
        * qpochhammer(ring, u * q, [u]).inverse() \
        * qpochhammer(ring, u * (1 / t), [u]).inverse()
    assert got == closed
    brute = moment_bruteforce(ps, [("E", 1)], 8)
    assert brute == closed


def test_bessel_example_E1_prime():
    rng = random.Random(78)
    q, t = random_qt_pair(rng)
    ps = process_from_names(["plancherel"], ["plancherel"], q, t, 8)
    ring = ps.ring
    got = moment_formula(ps, [("E'", 1)])
    u = ring.gen("u")
    closed = bessel_series(ring, "g", (1 - t) ** 2 / q, 4) \
        * (Fraction(1) / (1 - t)) \
        * qpochhammer(ring, u, [u]) * qpochhammer(ring, u * (t / q), [u]) \
        * qpochhammer(ring, u * t, [u]).inverse() \
        * qpochhammer(ring, u * (1 / q), [u]).inverse()
    assert got == closed


def test_bessel_example_E1_prime_nonsquare_ratio():
    # (t/q)^(1/2) is irrational here; the rescaled xi modes stay rational
    q, t = Fraction(1, 2), Fraction(1, 3)
    ps = process_from_names(["plancherel"], ["plancherel"], q, t, 6)
    got = moment_formula(ps, [("E'", 1)])
    brute = moment_bruteforce(ps, [("E'", 1)], 6)
    assert got == brute


def test_shift_mixed_partition_function_ratio():
    ring = SeriesRing(["v", "a0", "b1"], 6)
    u = ring.monomial(Fraction(1), v=2)
    plus = [alpha_spec([("a0", 1)], ring)]
    minus = [alpha_spec([("b1", 1)], ring)]
    ps = ProcessSpec(ring, Q0, T0, u, plus, minus)
    zeta = Fraction(2, 3)
    mixed = shift_mixed_partition_function(ps, zeta)
    plain = partition_function_closed(ps)
    assert mixed == theta3(ring, "v", zeta) * plain


def test_shift_mixed_moment_formula_vs_bruteforce():
    rng = random.Random(55)
    q, t = random_qt_pair(rng)
    zeta = Fraction(3, 5)
    ring = SeriesRing(["v"], 6)
    u = ring.monomial(Fraction(1), v=2)
    ps = ProcessSpec(ring, q, t, u, [zero_spec()], [zero_spec()])
    brute = shift_mixed_moment_bruteforce(ps, 1, zeta, 6)
    formula = shift_mixed_moment_formula(ps, 1, zeta)
    assert formula == brute


@pytest.mark.parametrize("steps", [[("E", 1)], [("E", 1)] * 3])
def test_moments_need_one_observable_per_step(steps):
    ps = single_alpha_process(2, Q0, T0, 2)
    with pytest.raises(ValueError, match="one observable per step"):
        moment_formula(ps, steps)
    with pytest.raises(ValueError, match="one observable per step"):
        moment_bruteforce(ps, steps, 2)


def test_shift_mixed_moments_are_single_step():
    ring = SeriesRing(["v"], 4)
    u = ring.monomial(Fraction(1), v=2)
    ps = ProcessSpec(ring, Q0, T0, u, [zero_spec()] * 2, [zero_spec()] * 2)
    with pytest.raises(ValueError, match="single-step"):
        shift_mixed_moment_formula(ps, 1, Fraction(2, 3))
    with pytest.raises(ValueError, match="single-step"):
        shift_mixed_moment_bruteforce(ps, 1, Fraction(2, 3), 4)


def test_theta_cauchy_r1_trivial():
    out = theta_cauchy_check(1, 4, [Fraction(2, 3)], [Fraction(1, 5)],
                             Fraction(1, 2))
    assert out["match"]


def test_schur_limit_kernels_r2():
    rng = random.Random(808)
    report = schur_limit_kernels(2, 4, rng)
    assert report["match"], report
