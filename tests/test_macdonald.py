import random
from fractions import Fraction

import pytest

from permac import cache, fock, macdonald
from permac.cylindric import principal_p_laurent, principal_p_trunc
from permac.laurent import LaurentPoly
from permac.macdonald import (
    GramSingularError,
    Specialization,
    _m_gram,
    alpha_spec,
    eigenvalue,
    elementary_from_powers,
    g_row_from_powers,
    g_row_p,
    inner_product,
    lambda_rho_p,
    m_dict_to_p,
    m_to_p,
    macdonald_P,
    macdonald_P_p,
    macdonald_Q,
    macdonald_Q_p,
    macdonald_table,
    observable,
    p_dict_to_m,
    p_to_m,
    pieri,
    plancherel_spec,
)
from permac.partitions import (
    add_one_box,
    conjugate,
    contains,
    dominance_key,
    dominance_leq,
    horizontal_strip,
    partitions_of,
    partitions_up_to,
    weight,
    z_qt,
)
from oracles import fraction_m_dict_to_p, fraction_m_gram, fraction_pieri, \
    fraction_skew_coefficients, lambda_rho_p_by_fractions, skew_eval_by_combine, \
    skew_single_alpha, skew_value
from permac.scalars import random_qt_pair
from permac.series import SeriesRing

Q0, T0 = Fraction(1, 3), Fraction(1, 5)


def test_p_m_transition_roundtrip():
    for n in range(7):
        for lam in partitions_of(n):
            back = m_dict_to_p(p_dict_to_m({lam: Fraction(1)}))
            assert back == {lam: Fraction(1)}


def test_m_to_p_inverts_p_to_m():
    for n in range(10):
        lams = partitions_of(n)
        for lam in lams:
            for kappa in lams:
                entry = sum(c * p_to_m(n)[nu].get(kappa, 0)
                            for nu, c in m_to_p(n)[lam].items())
                assert entry == (1 if lam == kappa else 0)


def _fraction_m_to_p(n: int) -> dict:
    """Back-substitution over Fractions, the oracle for the integer rows of
    m_to_p: same order of partitions, same subtractions."""
    lams = partitions_of(n)
    p_rows = p_to_m(n)
    solved: dict = {}
    for lam in lams:
        row = p_rows[lam]
        acc = {lam: Fraction(1)}
        for mu, a in row.items():
            if mu == lam:
                continue
            for nu, c in solved[mu].items():
                v = acc.get(nu, 0) - a * c
                if v:
                    acc[nu] = v
                else:
                    acc.pop(nu, None)
        diag = row[lam]
        solved[lam] = {nu: acc[nu] / diag for nu in lams if nu in acc}
    return solved


def test_m_to_p_equals_fraction_back_substitution():
    for n in range(12):
        got, expect = m_to_p(n), _fraction_m_to_p(n)
        assert got == expect, n
        # same key order and Fraction values, so stored tables stay byte-identical
        assert [list(row) for row in got.values()] == \
            [list(row) for row in expect.values()]
        assert all(type(c) is Fraction for row in got.values() for c in row.values())


def _p_to_m_from_scratch(n: int) -> dict:
    """Each row p_lambda multiplied out part by part from p_() = 1, the
    oracle for the prefix-shared rows of p_to_m."""
    out = {}
    for lam in partitions_of(n):
        rep = {(): 1}
        for r in lam:
            rep = macdonald._multiply_m_by_p(rep, r)
        out[lam] = rep
    return out


def test_p_to_m_equals_from_scratch_products():
    for n in range(13):
        got, expect = p_to_m(n), _p_to_m_from_scratch(n)
        assert got == expect, n
        # same key order and int values, so every later table is unchanged
        assert list(got) == list(expect)
        assert [list(row) for row in got.values()] == \
            [list(row) for row in expect.values()]
        assert all(type(c) is int for row in got.values() for c in row.values())


def test_p_to_m_classical_values():
    # p_1^2 = m_2 + 2 m_11, p_2 = m_2 - ... p_2 is m_2? p_2 = sum x_i^2 = m_2
    assert p_to_m(2)[(2,)] == {(2,): 1}
    assert p_to_m(2)[(1, 1)] == {(2,): 1, (1, 1): 2}


def test_inner_product_examples():
    one = Fraction(1)
    assert inner_product({(1,): one}, {(1,): one}, Q0, T0) == (1 - Q0) / (1 - T0)
    assert inner_product({(2,): one}, {(1, 1): one}, Q0, T0) == 0
    assert inner_product({(1, 1): one}, {(1, 1): one}, Q0, T0) == \
        2 * ((1 - Q0) / (1 - T0)) ** 2


def test_macdonald_P_weight_one_and_two():
    assert macdonald_P((1,), Q0, T0) == {(1,): Fraction(1)}
    p2 = macdonald_P((2,), Q0, T0)
    expected = (1 + Q0) * (1 - T0) / (1 - Q0 * T0)
    assert p2 == {(2,): Fraction(1), (1, 1): expected}


def test_schur_point_jacobi_trudi():
    # at q = t the table gives Schur functions; s_{(2,1)} = m_{21} + 2 m_{111}
    q = Fraction(2, 7)
    p = macdonald_P((2, 1), q, q)
    assert p == {(2, 1): Fraction(1), (1, 1, 1): Fraction(2)}
    # independent oracle via Jacobi-Trudi for s_{(2,2)} = m22 + m211 + 2m1111...
    # checked against the classical Kostka numbers instead:
    p22 = macdonald_P((2, 2), q, q)
    assert p22 == {(2, 2): Fraction(1), (2, 1, 1): Fraction(1), (1, 1, 1, 1): Fraction(2)}


def test_unitriangularity_and_orthogonality():
    # inner_product weights each term with its own z_qt, independently of the
    # Gram matrix the tables are built from
    rng = random.Random(11)
    cases = [(*random_qt_pair(rng), 6) for _ in range(2)]
    cases.append((Fraction(1, 3), Fraction(2, 7), 7))
    for q, t, top in cases:
        for n in range(top + 1):
            table = macdonald_table(q, t, n)
            for lam, mrep in table["P"].items():
                assert mrep[lam] == 1
                for mu in mrep:
                    assert dominance_leq(mu, lam)
            lams = list(table["P"])
            for lam in lams:
                for mu in lams:
                    ip = inner_product(m_dict_to_p(table["P"][lam]),
                                       m_dict_to_p(macdonald_Q(mu, q, t)), q, t)
                    assert ip == (1 if lam == mu else 0)


def _fraction_m_gram(q: Fraction, t: Fraction, n: int) -> dict:
    """<m_lam, m_kappa> for |lam| = |kappa| = n, through the p basis."""
    z = {nu: z_qt(nu, q, t) for nu in partitions_of(n)}
    rows = m_to_p(n)
    zrows = {lam: {nu: c * z[nu] for nu, c in row.items()}
             for lam, row in rows.items()}
    gram: dict = {lam: {} for lam in rows}
    lams = list(rows)
    for i, lam in enumerate(lams):
        row = rows[lam]
        for kappa in lams[i:]:
            zk = zrows[kappa]
            g = Fraction(0)
            for nu, a in row.items():
                d = zk.get(nu)
                if d:
                    g += a * d
            gram[lam][kappa] = gram[kappa][lam] = g
    return gram


def _fraction_gram_schmidt(q: Fraction, t: Fraction, n: int) -> dict:
    """Gram-Schmidt over Fractions, the oracle for the integer kernel of
    macdonald_table: same linear extension of dominance, same projections."""
    lams = sorted(partitions_of(n), key=dominance_key)
    gram = _fraction_m_gram(q, t, n)
    P: dict = {}
    norms: dict = {}
    for lam in lams:
        g = gram[lam]
        cur = {lam: Fraction(1)}
        for mu in P:
            c = Fraction(0)
            for k, v in P[mu].items():
                c += v * g[k]
            if not c:
                continue
            f = c / norms[mu]
            for k, v in P[mu].items():
                w = cur.get(k, 0) - f * v
                if w:
                    cur[k] = w
                else:
                    cur.pop(k, None)
        # cur - m_lam lies in the span of the earlier P_mu, all orthogonal to
        # cur, so <cur, cur> = <cur, m_lam>
        nrm = Fraction(0)
        for k, v in cur.items():
            nrm += v * g[k]
        if not nrm:
            raise GramSingularError(f"vanishing norm at (q,t)=({q},{t}), weight {n}")
        P[lam] = cur
        norms[lam] = nrm
    return {
        "P": P,
        "Q": {lam: {k: v / norms[lam] for k, v in P[lam].items()} for lam in lams},
        "norm": norms,
    }


@pytest.mark.parametrize("q, t", [
    (Fraction(1, 3), Fraction(2, 7)),
    (Fraction(56, 97), Fraction(49, 89)),
    (Fraction(31, 97), Fraction(42, 89)),
    (Fraction(5, 2), Fraction(7, 3)),
], ids=["1/3,2/7", "56/97,49/89", "31/97,42/89", "5/2,7/3"])
def test_table_equals_fraction_gram_schmidt(tmp_path, monkeypatch, fresh_memos, q, t):
    # cold memory and disk caches, so every table is built by the kernel
    monkeypatch.setattr(cache, "_cache_dir", str(tmp_path))
    for n in range(10):
        table = macdonald_table(q, t, n)
        expect = _fraction_gram_schmidt(q, t, n)
        assert table == {"P": expect["P"], "norm": expect["norm"]}, n
        got_Q = {lam: macdonald_Q(lam, q, t) for lam in partitions_of(n)}
        assert got_Q == expect["Q"], n
        assert all(type(c) is Fraction for side in (table["P"], got_Q)
                   for row in side.values() for c in row.values())


def test_m_dict_to_p_equals_fraction_reference():
    cases = [
        # mixed weights, int and Fraction coefficients
        {(2, 1): Fraction(3, 4), (3,): 2, (1,): Fraction(-5, 7), (): 1,
         (2, 2, 1): Fraction(11, 6)},
        {(4,): -3, (1, 1, 1, 1): Fraction(1, 24), (3, 1): 0},
        # 2 m_11 + m_2 = p_11: the p_2 terms cancel exactly
        {(2,): 1, (1, 1): 2},
        {(2,): Fraction(1, 3), (1, 1): Fraction(2, 3), (3,): 1},
    ]
    # p -> m -> p: every key but lam cancels
    cases += [p_dict_to_m({lam: Fraction(7, 5)}) for lam in partitions_of(6)]
    rng = random.Random(31)
    for _ in range(20):
        lams = rng.sample(partitions_up_to(7), 6)
        cases.append({lam: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for lam in lams})
    for f in cases:
        got = m_dict_to_p(f)
        assert got == fraction_m_dict_to_p(f), f
        assert all(c and type(c) is Fraction for c in got.values())
    assert m_dict_to_p({(2,): 1, (1, 1): 2}) == {(1, 1): 1}
    assert m_dict_to_p({}) == {}


@pytest.mark.parametrize("q, t", [(Fraction(1, 3), Fraction(2, 7)),
                                  (Fraction(43, 97), Fraction(59, 89))])
def test_integer_rows_equal_fraction_references(fresh_memos, q, t):
    for n in range(10):
        assert _m_gram(q, t, n) == fraction_m_gram(q, t, n), n
        for lam in partitions_of(n):
            for row in (macdonald_P(lam, q, t), macdonald_Q(lam, q, t)):
                # same entries in the same order
                assert list(m_dict_to_p(row).items()) == \
                    list(fraction_m_dict_to_p(row).items())


def test_integer_gram_equals_inner_product():
    for q, t in [(Fraction(1, 3), Fraction(2, 7)), (Fraction(5, 2), Fraction(7, 3))]:
        for n in range(8):
            lams, gram, scale = _m_gram(q, t, n)
            assert lams == sorted(partitions_of(n), key=dominance_key)
            rows = m_to_p(n)
            for a, lam in enumerate(lams):
                for b, kappa in enumerate(lams):
                    assert Fraction(gram[a][b], scale) == \
                        inner_product(rows[lam], rows[kappa], q, t)


@pytest.mark.parametrize("q, t", [(2, Fraction(1, 2)), (Fraction(1, 2), 1)],
                         ids=["vanishing-norm", "t-equals-one"])
def test_degenerate_point_raises_gram_singular(fresh_memos, q, t):
    with pytest.raises(GramSingularError):
        macdonald_table(q, t, 3)


def test_parameter_inversion():
    rng = random.Random(12)
    q, t = random_qt_pair(rng)
    for n in range(6):
        t1 = macdonald_table(q, t, n)["P"]
        t2 = macdonald_table(1 / q, 1 / t, n)["P"]
        assert t1 == t2


def test_q_row_and_g():
    assert macdonald_Q((1,), Q0, T0) == {(1,): (1 - T0) / (1 - Q0)}
    assert g_row_p(0, Q0, T0) == {(): Fraction(1)}
    # g_r equals the Gram-Schmidt Q_(r) converted to the p basis
    for r in range(1, 5):
        assert g_row_p(r, Q0, T0) == macdonald_Q_p((r,), Q0, T0)


def test_pieri_examples():
    psi, phi = pieri((1,), (), Q0, T0)
    assert psi == 1
    assert phi == (1 - T0) / (1 - Q0)
    psi2, phi2 = pieri((2,), (2,), Q0, T0)
    assert psi2 == 1 and phi2 == 1


def test_pieri_equals_the_fraction_b_ratio_oracle(fresh_memos):
    # the integer product equals the product of Fraction arm/leg ratios on
    # every strip with |lam| <= 8, at q = 0, t = 0, q > 1 and q < 0 too
    strips = [(lam, mu) for lam in partitions_up_to(8)
              for mu in partitions_up_to(weight(lam)) if horizontal_strip(lam, mu)]
    points = [(Q0, T0), (Fraction(43, 97), Fraction(59, 89)), (Fraction(0), Fraction(1, 3)),
              (Fraction(2, 7), Fraction(0)), (Fraction(5, 2), Fraction(1, 3)),
              (Fraction(-2, 3), Fraction(3, 7)), (Fraction(3), Fraction(-1, 2))]
    for q, t in points:
        for lam, mu in strips:
            got = pieri(lam, mu, q, t)
            assert got == fraction_pieri(lam, mu, q, t), (lam, mu, q, t)
            assert all(type(x) is Fraction for x in got)
    # at a pole both raise ZeroDivisionError on the same strips
    q, t = Fraction(1, 2), Fraction(2)
    with pytest.raises(ZeroDivisionError):
        pieri((2,), (1,), q, t)
    with pytest.raises(ZeroDivisionError):
        fraction_pieri((2,), (1,), q, t)
    for lam, mu in strips:
        try:
            want = fraction_pieri(lam, mu, q, t)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                pieri(lam, mu, q, t)
        else:
            assert pieri(lam, mu, q, t) == want, (lam, mu)


def test_pieri_rules_against_tables():
    # P_mu g_r = sum phi_{lam/mu} P_lam and Q_mu g_r = sum psi Q_lam in the
    # m/p bases, for |mu| <= 4 (within the enumeration budget) and r <= 3
    rng = random.Random(13)
    q, t = random_qt_pair(rng)
    for mu in partitions_up_to(4):
        pm = macdonald_P_p(mu, q, t)
        qm = macdonald_Q_p(mu, q, t)
        for r in range(1, 4):
            g = g_row_p(r, q, t)
            # multiply in the p basis: p_kappa * p_nu concatenates parts
            prod_P = {}
            prod_Q = {}
            for k1, c1 in pm.items():
                for k2, c2 in g.items():
                    key = tuple(sorted(k1 + k2, reverse=True))
                    prod_P[key] = prod_P.get(key, 0) + c1 * c2
            for k1, c1 in qm.items():
                for k2, c2 in g.items():
                    key = tuple(sorted(k1 + k2, reverse=True))
                    prod_Q[key] = prod_Q.get(key, 0) + c1 * c2
            expect_P = {}
            expect_Q = {}
            for lam in partitions_of(weight(mu) + r):
                if not horizontal_strip(lam, mu):
                    continue
                psi, phi = pieri(lam, mu, q, t)
                for k, c in macdonald_P_p(lam, q, t).items():
                    expect_P[k] = expect_P.get(k, 0) + phi * c
                for k, c in macdonald_Q_p(lam, q, t).items():
                    expect_Q[k] = expect_Q.get(k, 0) + psi * c
            assert {k: v for k, v in prod_P.items() if v} == \
                {k: v for k, v in expect_P.items() if v}
            assert {k: v for k, v in prod_Q.items() if v} == \
                {k: v for k, v in expect_Q.items() if v}


def test_lambda_rho_values():
    # empty partition, unit shift (t times the power sum): p_1 = 1/(1 - 1/t)
    # = t/(t-1)
    assert T0 * lambda_rho_p((), 1, Q0, T0) == T0 / (T0 - 1)
    assert observable("E", 1, (), Q0, T0) == T0 / (T0 - 1)
    # one-box partition
    expect = Q0 + (1 / T0) / (1 - 1 / T0)
    assert observable("E", 1, (1,), Q0, T0) == expect


@pytest.mark.parametrize("q, t", [
    (Fraction(43, 97), Fraction(59, 89)), (Fraction(1, 3), Fraction(2, 7)),
    (Fraction(5, 2), Fraction(7, 3)), (Fraction(0), Fraction(1, 3)),
    (Fraction(-2, 3), Fraction(1, 5))], ids=str)
def test_lambda_rho_p_equals_the_fraction_sum(q, t):
    # one Fraction over B^{r lam_1} C^{r l} (C^r - D^r) against the sum of
    # Fraction powers and the tail t^{-r (l + 1)} / (1 - t^{-r})
    for lam in partitions_up_to(8):
        for r in range(1, 5):
            assert lambda_rho_p(lam, r, q, t) == lambda_rho_p_by_fractions(lam, r, q, t), \
                (lam, r)


@pytest.mark.parametrize("q, t, r", [
    (Fraction(1, 3), Fraction(0), 1), (Fraction(1, 3), Fraction(0), 2),
    (Fraction(1, 2), Fraction(1), 2), (Fraction(1, 2), Fraction(-1), 2),
    (Fraction(1, 2), Fraction(1, 3), 0)], ids=str)
def test_lambda_rho_p_raises_where_the_fraction_sum_does(q, t, r):
    # t = 0 (the empty partition too) and t^r = 1
    for lam in ((), (2, 1)):
        with pytest.raises(ZeroDivisionError):
            lambda_rho_p_by_fractions(lam, r, q, t)
        with pytest.raises(ZeroDivisionError):
            lambda_rho_p(lam, r, q, t)


def test_lambda_rho_p_refuses_a_negative_r():
    with pytest.raises(ValueError, match="nonnegative"):
        lambda_rho_p((2, 1), -1, Q0, T0)


@pytest.mark.parametrize("family", ["E", "E'", "G", "G'"])
def test_observables_at_r_zero_and_below(family):
    # r = 0 is the unit; E and E' used to read e[-1] at r = -1 (giving 1)
    # and fail with IndexError at r = -2, while G and G' gave 0
    assert observable(family, 0, (2, 1), Q0, T0) == 1
    assert eigenvalue(family, 0, (2, 1), Q0, T0) == 1
    for r in (-1, -2):
        with pytest.raises(ValueError, match="nonnegative"):
            observable(family, r, (2, 1), Q0, T0)
        with pytest.raises(ValueError, match="nonnegative"):
            eigenvalue(family, r, (2, 1), Q0, T0)
    with pytest.raises(ValueError, match="nonnegative"):
        elementary_from_powers(-1, lambda k: Q0)


def test_hall_littlewood_limit_of_E1():
    # at q = 0 exactly: E_1(lam) = t^(-lam'_1) / (1 - t^(-1))
    t = Fraction(2, 5)
    for lam in partitions_up_to(4):
        got = observable("E", 1, lam, Fraction(0), t)
        expect = t ** -(conjugate(lam)[0] if lam else 0) / (1 - 1 / t)
        assert got == expect


def test_power_product_of_the_empty_partition_is_a_value_error():
    # p_() is not a memoised product: it used to recurse on nu[-1:] == ()
    # until RecursionError
    spec = alpha_spec([("a", 1)], SeriesRing(["a"], 4))
    with pytest.raises(ValueError, match="nonempty"):
        spec.power_product(())
    assert spec.power_product((2, 1)) == spec.power_product((2,)) * spec.power_product((1,))


def test_skew_eval_trivial_and_single_box():
    ring = SeriesRing(["a"], 4)
    spec = alpha_spec([("a", 1)], ring)
    for lam in partitions_up_to(3):
        assert skew_value("Q", lam, lam, spec, Q0, T0, unit=ring.one()) == ring.one()
    got = skew_value("P", (1,), (), spec, Q0, T0, unit=ring.one())
    assert got == ring.gen("a")


def test_skew_eval_matches_pieri_single_variable():
    # the Fock route (a second variable with coefficient 0) against the
    # Pieri coefficients
    rng = random.Random(14)
    q, t = random_qt_pair(rng)
    ring = SeriesRing(["a", "b"], 5)
    spec = alpha_spec([("a", 1), ("b", 0)], ring)
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(weight(lam)):
            for kind in ("P", "Q"):
                got = skew_value(kind, lam, mu, spec, q, t, unit=ring.one())
                coeff = skew_single_alpha(kind, lam, mu, q, t)
                d = weight(lam) - weight(mu)
                expect = ring.monomial(coeff, a=d)
                assert got == expect, (kind, lam, mu)


def test_skew_eval_plancherel_path_sums():
    # P_{lam/mu}(xi delta) = xi^d / d! * (sum over Young-graph paths of psi)
    rng = random.Random(15)
    q, t = random_qt_pair(rng)
    ring = SeriesRing(["g"], 4)
    spec = plancherel_spec(ring.gen("g"), ring)

    def dim_psi(mu, lam):
        if mu == lam:
            return Fraction(1)
        acc = Fraction(0)
        for nu in add_one_box(mu):
            if not dominance_leq(nu, nu):
                continue
            if all(nu[i] <= (lam[i] if i < len(lam) else 0) for i in range(len(nu))):
                acc += pieri(nu, mu, q, t)[0] * dim_psi(nu, lam)
        return acc

    fact = [1, 1, 2, 6, 24]
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(weight(lam)):
            got = skew_value("P", lam, mu, spec, q, t, unit=ring.one())
            d = weight(lam) - weight(mu)
            if not all((mu[i] if i < len(mu) else 0) <= (lam[i] if i < len(lam) else 0)
                       for i in range(len(mu))):
                assert not got
                continue
            expect = ring.monomial(dim_psi(mu, lam) / fact[d], g=d)
            assert got == expect


def _half_vertex_skew(kind, lam, mu, spec, q, t, unit):
    """<bra| Gamma_+(X) |ket> by pushing the ket's coefficients through the
    lowering half-vertex, the oracle for the p_nu expansion of skew_eval."""
    if not contains(lam, mu):
        return unit * 0
    if lam == mu:
        return unit
    if kind == "P":
        ket, bra = macdonald_P_p(lam, q, t), macdonald_Q_p(mu, q, t)
    else:
        ket, bra = macdonald_Q_p(lam, q, t), macdonald_P_p(mu, q, t)
    modes = {}
    for n in range(1, weight(lam) - weight(mu) + 1):
        pv = spec.p_value(n)
        if pv:
            modes[n] = pv * ((1 - t**n) / (1 - q**n))
    ket_u = {k: unit * c for k, c in ket.items()}
    image = fock.half_vertex_apply(modes, ket_u, q, t, sign=1)
    acc = None
    for nu, c in bra.items():
        d = image.get(nu)
        if d is None:
            continue
        term = d * (c * z_qt(nu, q, t))
        acc = term if acc is None else acc + term
    return acc if acc is not None else unit * 0


@pytest.mark.parametrize("q, t", [(Fraction(43, 97), Fraction(59, 89)),
                                  (Fraction(2, 7), Fraction(5, 11))], ids=str)
def test_one_variable_skews_take_the_pieri_route(q, t):
    # every (kind, lam, mu) with |lam|, |mu| <= 7: the Pieri route of a
    # one-variable alpha spec equals the Fock route of the same spec written
    # with a second variable of coefficient 0, non-strips (0) and lam = mu
    # (the unit) included
    ring = SeriesRing(["a", "b"], 7)
    one = alpha_spec([("a", Fraction(3, 2))], ring)
    fock_route = alpha_spec([("a", Fraction(3, 2)), ("b", 0)], ring)
    assert (one.variables, fock_route.variables) == (1, 2)
    lams = partitions_up_to(7)
    zeros = strips = 0
    for lam in lams:
        for mu in lams:
            for kind in ("P", "Q"):
                got = skew_value(kind, lam, mu, one, q, t, unit=ring.one())
                assert got == skew_value(kind, lam, mu, fock_route, q, t,
                                         unit=ring.one()), (kind, lam, mu)
                strips += horizontal_strip(lam, mu) and lam != mu
                zeros += not got
    assert strips and zeros
    # a Laurent unit, the one variable being 3/2 x: the same spec without
    # its variable count takes the Fock route
    zvars = ("x", "y")
    unit = LaurentPoly.constant(zvars, ring.one())

    def laurent_spec(variables):
        spec = Specialization("alpha", lambda n: LaurentPoly.monomial(
            zvars, ring, Fraction(3, 2) ** n, {"x": n}), 1)
        spec.variables = variables
        return spec

    one_x, fock_x = laurent_spec(1), laurent_spec(None)
    for lam, mu in (((2, 1), (1,)), ((3, 1), (2,)), ((2, 2), (1,)), ((2,), (2,))):
        for kind in ("P", "Q"):
            got = skew_value(kind, lam, mu, one_x, q, t, unit=unit)
            assert type(got) is LaurentPoly
            assert got == skew_value(kind, lam, mu, fock_x, q, t, unit=unit), (kind, lam, mu)


def _skew_oracle_specs():
    ab = SeriesRing(["a", "b"], 5)
    g = SeriesRing(["g"], 5)
    uxy = SeriesRing(["u", "x", "y"], 5)
    u = SeriesRing(["u"], 2)
    scalars = SeriesRing([], 0)
    zvars = ("x", "y")

    def gap(n):  # p_2 = 0
        return ab.zero() if n == 2 else ab.monomial(Fraction(n, 3), a=n)

    # alpha = (1/2, -1/2): p_n = 2^(1-n) for even n, else 0, as scalars of a
    # symbol-free ring, like the specs of ``time_grid_process``
    def odd_zero(n):
        return scalars.scalar(Fraction(0) if n % 2 else 2 * Fraction(1, 2) ** n)

    return {
        "alpha-a-2b": (alpha_spec([("a", 1), ("b", 2)], ab), ab.one()),
        "plancherel": (plancherel_spec(g.gen("g") * Fraction(3, 2), g), g.one()),
        "cor_b2-series": (principal_p_trunc(uxy, "yr_nxu"), uxy.one()),
        "thm_b1-laurent": (principal_p_laurent(zvars, u, (2, 1), "yr_nxu", 4),
                           LaurentPoly.constant(zvars, u.one())),
        "p2-zero": (Specialization("alpha", gap, 1), ab.one()),
        "odd-p-zero": (Specialization("alpha", odd_zero, 0), scalars.one()),
    }


SKEW_ORACLE_SPECS = _skew_oracle_specs()


@pytest.mark.parametrize("label", list(SKEW_ORACLE_SPECS))
def test_skew_eval_equals_half_vertex_oracle(label):
    spec, unit = SKEW_ORACLE_SPECS[label]
    q, t = Fraction(56, 97), Fraction(49, 89)
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(weight(lam)):
            if not contains(lam, mu):
                continue
            for kind in ("P", "Q"):
                got = skew_value(kind, lam, mu, spec, q, t, unit=unit)
                expect = _half_vertex_skew(kind, lam, mu, spec, q, t, unit)
                assert type(got) is type(expect), (kind, lam, mu)
                assert got == expect, (kind, lam, mu)


@pytest.mark.parametrize("q, t", [(Fraction(43, 97), Fraction(59, 89)),
                                  (Fraction(1, 3), Fraction(1, 3)),
                                  (Fraction(5, 2), Fraction(7, 3)),
                                  (Fraction(-2, 3), Fraction(1, 5))],
                         ids=["generic", "q=t", "above-one", "negative-q"])
def test_skew_coefficients_equal_the_fraction_rows(fresh_memos, q, t):
    # every (kind, lam, mu inside lam) with |lam| <= 6: the same pairs, in
    # the same order, each integer over the one denominator
    for lam in partitions_up_to(6):
        for mu in partitions_up_to(weight(lam)):
            if contains(lam, mu):
                for kind in ("P", "Q"):
                    assert _skew_fraction_rows(kind, lam, mu, q, t) == \
                        fraction_skew_coefficients(kind, lam, mu, q, t), (kind, lam, mu)


def _skew_fraction_rows(kind, lam, mu, q, t):
    """``macdonald._skew_coefficients`` as (nu, c_nu) pairs of Fractions."""
    den, rows = macdonald._skew_coefficients(kind, lam, mu, q, t)
    return tuple((nu, Fraction(c, den)) for nu, c in rows)


def _outcome(f, *args):
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc)


@pytest.mark.parametrize("q, t", [(Fraction(1, 2), Fraction(2)), (Fraction(-1), Fraction(1, 3)),
                                  (Fraction(1), Fraction(1, 3))])
def test_skew_coefficients_fail_where_the_fraction_rows_fail(fresh_memos, q, t):
    # every pole of a skew coefficient found at these points is one of the
    # table (a GramSingularError), met by both routes on the same pairs; a
    # division by a vanishing z_nu(q,t) would be a ZeroDivisionError in both
    failed = 0
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(weight(lam)):
            if contains(lam, mu):
                for kind in ("P", "Q"):
                    fresh_memos()
                    got = _outcome(_skew_fraction_rows, kind, lam, mu, q, t)
                    fresh_memos()
                    expect = _outcome(fraction_skew_coefficients, kind, lam, mu, q, t)
                    assert got == expect, (kind, lam, mu)
                    failed += isinstance(got, type)
    assert failed


SKEW_POINTS = [(Fraction(43, 97), Fraction(59, 89)), (Fraction(1, 3), Fraction(1, 3)),
               (Fraction(5, 2), Fraction(7, 3)), (Fraction(-2, 3), Fraction(1, 5))]


def _flat_route_specs():
    """(label, spec, unit): the Fock route at a two-variable alpha spec, at
    p_n = a^n / n and at the vertex specs with series and with Laurent
    p-values."""
    ab = SeriesRing(["a", "b"], 6)
    uxy = SeriesRing(["u", "x", "y"], 4)
    u = SeriesRing(["u"], 2)
    zvars = ("x", "y")
    return [("alpha-ab", alpha_spec([("a", Fraction(2, 3)), ("b", -3)], ab), ab.one()),
            # p_nu(X) of one weight over different denominators
            ("p_n=a^n/n", Specialization("alpha", lambda n: ab.monomial(Fraction(1, n), a=n), 1),
             ab.one()),
            ("cor_b2-series", principal_p_trunc(uxy, "yr_nxu"), uxy.one()),
            ("thm_b1-laurent", principal_p_laurent(zvars, u, (2, 1), "xr_ynu", 3),
             LaurentPoly.constant(zvars, u.one()))]


@pytest.mark.parametrize("q, t", SKEW_POINTS, ids=["generic", "q=t", "above-one", "negative-q"])
def test_skew_eval_flat_route_equals_the_combine_route(fresh_memos, q, t):
    # every (kind, lam, mu) with |lam| <= 6 (mu outside lam and lam = mu
    # included), at zero tolerance, in the unit's own type
    lams = partitions_up_to(6)
    for label, spec, unit in _flat_route_specs():
        for lam in lams:
            for mu in partitions_up_to(weight(lam)):
                for kind in ("P", "Q"):
                    got = skew_value(kind, lam, mu, spec, q, t, unit=unit)
                    expect = skew_eval_by_combine(kind, lam, mu, spec, q, t, unit)
                    assert type(got) is type(expect), (label, kind, lam, mu)
                    assert got == expect, (label, kind, lam, mu)


@pytest.mark.parametrize("q, t", [(Fraction(1, 2), Fraction(2)), (Fraction(-1), Fraction(1, 3)),
                                  (Fraction(1), Fraction(1, 3))])
def test_skew_eval_flat_route_fails_where_the_combine_route_fails(fresh_memos, q, t):
    # the same value or the same exception class, cold memos each time
    ring = SeriesRing(["a", "b"], 4)
    failed = 0
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(weight(lam)):
            for kind in ("P", "Q"):
                fresh_memos()
                spec = alpha_spec([("a", 1), ("b", Fraction(1, 2))], ring)
                got = _outcome(skew_value, kind, lam, mu, spec, q, t, ring.one())
                fresh_memos()
                spec = alpha_spec([("a", 1), ("b", Fraction(1, 2))], ring)
                expect = _outcome(skew_eval_by_combine, kind, lam, mu, spec, q, t, ring.one())
                assert got == expect, (kind, lam, mu)
                failed += isinstance(got, type)
    assert failed


def test_gprime_two_routes_agree():
    # G'_r as g_r at (q, t) of q^k times the power sums at (1/q, 1/t) with a
    # unit shift, sum_i (q^{-lam_i} t^{i-1})^k + t^{k l} / (1 - t^k), written
    # out here, against g_r at (1/q, 1/t) of the unshifted power sums and
    # against the observable, which reads the eigenvalue
    rng = random.Random(16)
    q, t = random_qt_pair(rng)

    def shifted_inverted(lam, k):
        return (sum((q**-li * t ** (i - 1)) ** k for i, li in enumerate(lam, start=1))
                + t ** (k * len(lam)) / (1 - t**k))

    for lam in partitions_up_to(3):
        for r in (1, 2):
            a = g_row_from_powers(
                r, lambda k: lambda_rho_p(lam, k, 1 / q, 1 / t), 1 / q, 1 / t)
            b = g_row_from_powers(
                r, lambda k: q**k * shifted_inverted(lam, k), q, t)
            assert a == b
            assert observable("G'", r, lam, q, t) == b
