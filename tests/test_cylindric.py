import itertools
import random
from fractions import Fraction

import pytest

from permac import cylindric
from permac.cylindric import (
    CylindricProfile,
    components,
    cor_b2_check,
    cp_weight,
    enumerate_cp,
    hl_weight,
    lemma_b4_check,
    local_levels,
    macmahon_rhs,
    macmahon_verify,
    principal_p_envelope,
    thm_b1_check,
    vertex_e1_trace_check,
    weight_F,
    weight_Phi,
)
from oracles import (components_two_lists, fraction_weight_F, horizontal_strip_by_columns,
                     vertex_skew_sum_by_combine)
from permac.macdonald import combine, observable
from permac.partitions import conjugate, partitions_up_to, weight
from permac.scalars import random_qt_pair
from permac.series import SeriesRing, qpochhammer

Q0, T0 = Fraction(1, 3), Fraction(1, 5)


def all_profiles(N):
    out = []
    for r in range(N + 1):
        for M in itertools.combinations(range(1, N + 1), r):
            out.append(CylindricProfile(N, M))
    return out


def test_enumerate_small_cases():
    p = CylindricProfile(2, {1})
    got = enumerate_cp(p, 1)
    assert set(got) == {((), ()), ((), (1,))}
    assert enumerate_cp(CylindricProfile(3, {1, 2}), 0) == [((), (), ())]


def test_single_step_profile_counts_partitions():
    # N=1 with M={1}: lam interlaces itself, every partition qualifies
    p = CylindricProfile(1, {1})
    for n in range(5):
        got = [c for c in enumerate_cp(p, n)]
        assert len(got) == len(partitions_up_to(n))


def test_enumerated_cps_reinterlace_by_columns():
    # independent horizontal-strip predicate re-check
    for N in (1, 2, 3):
        for p in all_profiles(N):
            for lams in enumerate_cp(p, 4):
                for k in range(1, N + 1):
                    a, b = lams[k - 1], lams[k % N]
                    if p.up(k):
                        assert horizontal_strip_by_columns(b, a)
                    else:
                        assert horizontal_strip_by_columns(a, b)


def test_weight_F_empty_and_single_box():
    p = CylindricProfile(2, {1})
    assert weight_F(p, ((), ()), Q0, T0) == 1
    got = weight_F(p, ((), (1,)), Q0, T0)
    assert got == (1 - T0) / (1 - Q0)
    assert weight_Phi(p, ((), (1,)), Q0, T0) == (1 - T0) / (1 - Q0)


def test_F_equals_Phi_everywhere():
    rng = random.Random(41)
    points = [random_qt_pair(rng), random_qt_pair(rng)]
    for N in (1, 2, 3):
        for p in all_profiles(N):
            for lams in enumerate_cp(p, 5):
                for q, t in points:
                    assert weight_F(p, lams, q, t) == weight_Phi(p, lams, q, t), \
                        (p, lams, q, t)


CP_UP_TO_6 = [(p, lams) for N in (1, 2, 3) for p in all_profiles(N)
              for lams in enumerate_cp(p, 6)]


@pytest.mark.parametrize("q, t", [(Fraction(0), Fraction(3, 7)),
                                  (Fraction(5, 2), Fraction(1, 3))],
                         ids=["q=0", "5/2,1/3"])
def test_integer_F_equals_the_fraction_hook_ratios(fresh_memos, q, t):
    for p, lams in CP_UP_TO_6:
        assert weight_F(p, lams, q, t) == fraction_weight_F(p, lams, q, t), (p, lams)


def test_integer_F_fails_where_the_fraction_hook_ratios_fail(fresh_memos):
    # q t = 1: a hook factor 1 - q^x t^x vanishes, below a fraction bar on
    # some configurations and only above it on others
    q, t = Fraction(1, 2), Fraction(2)
    poles = 0
    for p, lams in CP_UP_TO_6:
        try:
            expect = fraction_weight_F(p, lams, q, t)
        except ZeroDivisionError:
            poles += 1
            with pytest.raises(ZeroDivisionError):
                weight_F(p, lams, q, t)
        else:
            assert weight_F(p, lams, q, t) == expect, (p, lams)
    assert 0 < poles < len(CP_UP_TO_6)


def test_F_at_q_zero_equals_A():
    rng = random.Random(42)
    _, t = random_qt_pair(rng)
    for N in (1, 2, 3):
        for p in all_profiles(N):
            for lams in enumerate_cp(p, 5):
                assert weight_F(p, lams, Fraction(0), t) == hl_weight(local_levels(p, lams), t)


def test_components_structure():
    p = CylindricProfile(2, {1})
    comps = components(p, ((), (1,)))
    assert len(comps) == 1
    assert comps[0]["level"] == 1 and comps[0]["size"] == 1
    assert not comps[0]["global"]
    assert hl_weight(local_levels(p, ((), (1,))), T0) == 1 - T0
    # component sizes partition the support; a winding (global) component
    # visits every column, so its size is at least N
    for N in (1, 2, 3):
        for prof in all_profiles(N):
            for lams in enumerate_cp(prof, 5):
                comps = components(prof, lams)
                assert sum(c["size"] for c in comps) == \
                    sum(len(l) for l in lams)
                for c in comps:
                    if c["global"]:
                        assert c["size"] >= N
                    cols = {k for (k, _j) in c["cells"]}
                    if c["size"] == N and len(cols) == N and not c["global"]:
                        # a full-period path that fails to close stays local
                        pass


def test_components_equal_the_two_list_oracle():
    # one edge rule per support cell against the downward list plus its
    # mirrored upward list, on every configuration of weight <= 6, N <= 4
    for N in (1, 2, 3, 4):
        for prof in all_profiles(N):
            for lams in enumerate_cp(prof, 6):
                assert components(prof, lams) == components_two_lists(prof, lams)


@pytest.mark.parametrize("N", [0, -1])
def test_profile_needs_a_positive_period(N):
    # enumerate_cp divided by zero at N = 0 and recursed without end below
    with pytest.raises(ValueError, match="at least 1"):
        CylindricProfile(N, ())


def test_A_at_minus_one_pointwise():
    # strict configurations contribute 2^(local components); non-strict ones
    # vanish exactly when some local component has even level, while local
    # components of odd level >= 3 survive the sign and break the naive
    # strict-count reading (smallest instance below)
    for N in (2, 3):
        for p in all_profiles(N):
            for lams in enumerate_cp(p, 5):
                val = hl_weight(local_levels(p, lams), Fraction(-1))
                comps = [c for c in components(p, lams) if not c["global"]]
                if any(c["level"] % 2 == 0 for c in comps):
                    assert val == 0
                else:
                    assert val == 2 ** len(comps)


def test_strict_count_counterexample():
    p = CylindricProfile(2, {1})
    lams = ((1, 1), (1, 1, 1))
    assert local_levels(p, lams) == [3]  # not strict: one local component, level 3
    assert hl_weight(local_levels(p, lams), Fraction(-1)) == 2
    report = macmahon_verify(p, 5, Q0, T0)
    assert report["verified"]  # A(-1) sum matches the closed form
    assert report["checks"]["strict"]["count_form_matches"] is False


def test_macmahon_verify_builds_each_component_graph_once(monkeypatch):
    p = CylindricProfile(2, {1})
    built = []

    def counted(profile, lams):
        built.append(lams)
        return components(profile, lams)

    monkeypatch.setattr(cylindric, "components", counted)
    report = macmahon_verify(p, 5, Q0, T0)
    assert report["verified"]
    assert sorted(built) == sorted(enumerate_cp(p, 5))


def test_macmahon_coefficient_example():
    # N=2, M={1}: coefficient of s^1 on both sides is (1-t)/(1-q)
    p = CylindricProfile(2, {1})
    ring = SeriesRing(["s"], 3)
    rhs = macmahon_rhs(p, ring, Q0, T0)
    assert rhs.coeff(s=1) == (1 - T0) / (1 - Q0)


def test_macmahon_trivial_profile_forces_unit_weights():
    # N=1, M={1}: empty index set on the right, so sum F s^w = 1/(s;s)
    p = CylindricProfile(1, {1})
    report = macmahon_verify(p, 5, Q0, T0)
    assert report["verified"]
    for lams in enumerate_cp(p, 5):
        assert weight_F(p, lams, Q0, T0) == 1


@pytest.mark.parametrize("N,M", [(1, (1,)), (2, (1,)), (3, (1, 3)), (3, (2,))])
def test_macmahon_verify_all_variants(N, M):
    rng = random.Random(43 + N)
    q, t = random_qt_pair(rng)
    report = macmahon_verify(CylindricProfile(N, M), 5, q, t)
    assert report["verified"], report


def test_macmahon_all_profiles_N2():
    rng = random.Random(44)
    q, t = random_qt_pair(rng)
    for p in all_profiles(2):
        report = macmahon_verify(p, 4, q, t)
        assert report["verified"], (p, report)


def test_infinite_period_macmahon_looks_like_plane_partitions():
    # growing the period freezes low s-degrees at the plane-partition product
    # prod_n ((t s^n; q)/(s^n; q))^n
    rng = random.Random(45)
    q, t = random_qt_pair(rng)
    deg = 3
    ring = SeriesRing(["s"], deg)
    ns = [n for n in range(1, deg + 1) for _ in range(n)]  # n repeated n times
    target = qpochhammer(ring, [(ring.monomial(t, s=n), [q]) for n in ns],
                         [(ring.monomial(Fraction(1), s=n), [q]) for n in ns])
    N = 2 * deg + 2  # period beyond the inspected degrees
    M = tuple(range(1, N // 2 + 1))
    profile = CylindricProfile(N, M)
    lhs = ring.zero()
    for lams in enumerate_cp(profile, deg):
        lhs = lhs + ring.monomial(weight_F(profile, lams, q, t), s=cp_weight(lams))
    assert lhs == target.truncate(deg)


def test_vertex_single_box_ratio():
    # V(one box, empty, nu) / V(empty, empty, nu) at (x, y) = (q, t): the nu
    # prefactors cancel, leaving the first power sum of the y^{rho-1} x^{-nu'}
    # specialization, the inverted-parameter elementary observable on nu'
    rng = random.Random(46)
    q, t = random_qt_pair(rng)
    for nu in partitions_up_to(3):
        finite, (tvar, texp) = principal_p_envelope(nu, "yr_nxu")
        assert tvar == "y"
        got = sum(q**a * t**b for a, b in finite) + t**texp / (1 - t)
        expect = observable("E'", 1, conjugate(nu), q, t)
        assert got == expect


def test_trivial_vertex_is_one():
    from permac.cylindric import principal_p_trunc, vertex_skew_sum

    ring = SeriesRing(["u", "x", "y"], 3)
    pa = principal_p_trunc(ring, "yr_nxu")
    pb = principal_p_trunc(ring, "xr_ynu")
    assert vertex_skew_sum((), (), pa, pb, Q0, T0, ring.one()) == ring.one()


def _vertex_skew_sum_over_every_eta(lam, mu, p_first, p_second, q, t, unit,
                                    window=None):
    """vertex_skew_sum with eta over every partition up to min(|lam|, |mu|),
    kept as the oracle of the sum over the meet of lam and mu; a ``window``
    cuts the whole sum, as ``LaurentPoly.window`` does."""
    terms = []
    for eta in partitions_up_to(min(weight(lam), weight(mu))):
        pv = cylindric.skew_eval("P", lam, eta, p_first, q, t, unit=unit)
        if not pv:
            continue
        qv = cylindric.skew_eval("Q", mu, eta, p_second, q, t, unit=unit)
        if not qv:
            continue
        terms.append((1, pv * qv))
    out = combine(unit, terms)
    return out if window is None else out.window(window)


def test_vertex_skew_sum_equals_the_sum_over_every_eta():
    from permac.cylindric import principal_p_trunc, vertex_skew_sum

    ring = SeriesRing(["u", "x", "y"], 4)
    pa = principal_p_trunc(ring, "yr_nxu")
    pb = principal_p_trunc(ring, "xr_ynu")
    for lam, mu in itertools.product(partitions_up_to(3), repeat=2):
        assert vertex_skew_sum(lam, mu, pa, pb, Q0, T0, ring.one()) == \
            _vertex_skew_sum_over_every_eta(lam, mu, pa, pb, Q0, T0, ring.one()), (lam, mu)


@pytest.mark.parametrize("q, t", [(Fraction(43, 97), Fraction(59, 89)),
                                  (Fraction(5, 2), Fraction(-2, 3))], ids=str)
@pytest.mark.parametrize("nu, window", [((), None), ((1,), None), ((1,), 2), ((2, 1), 3)],
                         ids=["series", "laurent", "laurent-window-2", "laurent-window-3"])
def test_vertex_skew_sum_equals_the_combined_products(nu, window, q, t):
    # the flat sum of products against one combine of the products formed
    # by * or LaurentPoly.mul(window=), for series p-values (nu = ()) and
    # Laurent ones, with and without a window
    from permac.cylindric import principal_p_laurent, principal_p_trunc, vertex_skew_sum
    from permac.laurent import LaurentPoly

    if nu:
        zvars = ("x", "y")
        ring = SeriesRing(["u"], 3)
        unit = LaurentPoly.constant(zvars, ring.one())
        pa, pb = (principal_p_laurent(zvars, ring, nu, variant, 6)
                  for variant in ("yr_nxu", "xr_ynu"))
    else:
        ring = SeriesRing(["u", "x", "y"], 4)
        unit = ring.one()
        pa, pb = principal_p_trunc(ring, "yr_nxu"), principal_p_trunc(ring, "xr_ynu")
    nonzero = 0
    for lam, mu in itertools.product(partitions_up_to(3), repeat=2):
        got = vertex_skew_sum(lam, mu, pa, pb, q, t, unit, window=window)
        assert type(got) is type(unit)
        assert got == vertex_skew_sum_by_combine(lam, mu, pa, pb, q, t, unit,
                                                 window=window), (lam, mu)
        nonzero += bool(got)
    assert nonzero


@pytest.mark.parametrize("check", [
    lambda q, t: cor_b2_check(5, q, t),
    lambda q, t: thm_b1_check((1,), 3, 3, q, t),
    lambda q, t: thm_b1_check((2, 1), 2, 2, q, t),
], ids=["cor_b2", "thm_b1-1", "thm_b1-21"])
def test_vertex_checks_skip_only_zero_skew_terms(monkeypatch, fresh_memos, check):
    # eta runs inside lam and mu only: the reports stay as they were with
    # fewer skew_eval calls
    q, t = Fraction(1, 3), Fraction(2, 7)
    calls = []
    skew_eval = cylindric.skew_eval

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return skew_eval(*args, **kwargs)

    monkeypatch.setattr(cylindric, "skew_eval", counted)
    report = check(q, t)
    inside = len(calls)
    calls.clear()
    fresh_memos()
    monkeypatch.setattr(cylindric, "vertex_skew_sum", _vertex_skew_sum_over_every_eta)
    assert check(q, t) == report
    assert inside < len(calls)


def test_cor_b2():
    rng = random.Random(47)
    q, t = random_qt_pair(rng)
    out = cor_b2_check(4, q, t)
    assert out["match"], (out["lhs"].terms, out["rhs"].terms)


def test_lemma_b4():
    out = lemma_b4_check(4, Fraction(2, 7))
    assert out["match"]


def test_signature_factors_are_formed_once_per_multiplicity(monkeypatch):
    # (a; x)_m / (x; x)_m depends on m alone: at most one finite product
    # for each side of each m <= grade, not two per multiplicity of every
    # signature (588 products at grade 6)
    from permac import series

    calls = []
    finite = series.qpochhammer_finite

    def counted(*args):
        calls.append(args)
        return finite(*args)

    for mod in (series, cylindric):
        monkeypatch.setattr(mod, "qpochhammer_finite", counted, raising=False)
    out = lemma_b4_check(6, Fraction(2, 3))
    assert out["match"]
    assert len(calls) <= 2 * (6 + 1)


def test_vertex_e1_trace_three_routes():
    rng = random.Random(48)
    q, t = random_qt_pair(rng)
    out = vertex_e1_trace_check(3, q, t)
    assert out["match_ab"], "kernel route disagrees with the literal sum"
    assert out["match_ac"], "signature route disagrees with the literal sum"


def test_thm_b1_single_box_profile():
    rng = random.Random(49)
    q, t = random_qt_pair(rng)
    out = thm_b1_check((1,), 3, 3, q, t)
    assert out["trace_match"], out
    assert out["factorization_match"], out


def test_thm_b1_empty_profile_reduces_to_cor_b2():
    rng = random.Random(50)
    q, t = random_qt_pair(rng)
    out = thm_b1_check((), 3, 3, q, t)
    assert out["match"]


@pytest.mark.parametrize("nu, u_cutoff, window", [
    ((2,), 1, 3), ((3,), 1, 2), ((1, 1), 2, 4), ((2, 1), 2, 4),
], ids=["2-u1-w3", "3-u1-w2", "11-u2-w4", "21-u2-w4"])
def test_thm_b1_window_beyond_u_cutoff(nu, u_cutoff, window):
    # the plain kernel's weight 1/(1-u^n) does not cut n off at u_cutoff, so
    # its p-values must reach past a window wider than u_cutoff
    out = thm_b1_check(nu, u_cutoff, window, Q0, T0)
    assert out["trace_match"], out
    assert out["factorization_match"], out


@pytest.mark.parametrize("nu, u_cutoff, window", [((1,), 3, 3), ((2, 1), 2, 2)],
                         ids=["1-u3-w3", "21-u2-w2"])
def test_factored_log_cut_is_the_window(monkeypatch, nu, u_cutoff, window):
    # the last modulus product of laurent_log_pochhammer and the final cut
    # of kernel_log_factored are cut at the window thm_b1_check reads:
    # raised by 1..3 the report is the same, lowered by 1 the factorization
    # fails
    from permac.laurent import LaurentPoly

    factored, mul, cut = cylindric.kernel_log_factored, LaurentPoly.mul, LaurentPoly.window

    def shifted(k):
        def call(*args):
            with monkeypatch.context() as m:
                m.setattr(LaurentPoly, "mul", lambda self, other, window=None: mul(
                    self, other, None if window is None else window + k))
                m.setattr(LaurentPoly, "window", lambda self, w: cut(self, w + k))
                return factored(*args)
        return call

    report = thm_b1_check(nu, u_cutoff, window, Q0, T0)
    assert report["match"]
    for k in (1, 2, 3):
        monkeypatch.setattr(cylindric, "kernel_log_factored", shifted(k))
        assert thm_b1_check(nu, u_cutoff, window, Q0, T0) == report, k
    monkeypatch.setattr(cylindric, "kernel_log_factored", shifted(-1))
    lowered = thm_b1_check(nu, u_cutoff, window, Q0, T0)
    assert lowered["trace_match"] and not lowered["factorization_match"]
