import json
import math
import os
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import marginal_weight, remove_one_box, stream_sample
from permac import acceptance, cli, macdonald, plancherel, series
from permac.partitions import add_one_box, contains, partitions_of, partitions_up_to, weight
from permac.plancherel import (
    MAX_DEPTH,
    MIN_CYCLE_MASS,
    Cycle,
    TrajectorySpec,
    _NO_ENTRY,
    _at_gamma,
    _gamma_powers,
    _inverse_cdf,
    _level_entries,
    _poly_mul,
    _prefactor,
    _top_rows,
    chi_square_sf,
    dropped_mass,
    marginal_chi_square,
    pieri_up_matrices,
    sample_trajectories,
    semigroup_defect,
    spot_check_float_entries,
    transfer_cycle_weight,
    transfer_matrix,
    truncated_trace_float,
)
from permac.point import memo
from permac.process import time_grid_process
from permac.scalars import random_qt_pair
from permac.series import SeriesRing

Q0, T0 = Fraction(1, 3), Fraction(1, 5)
GOLDEN_3TIME = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                            "plancherel-sample-3time.out")


@lru_cache(maxsize=None)
def syt_count(lam):
    if not lam:
        return 1
    return sum(syt_count(mu) for mu in remove_one_box(lam))


def dims(kind, mu, lam, q, t):
    """Path sums in the Young graph from mu up to lam: psi products ("dim")
    or phi products ("dim'"), read from the top-down rows of lam."""
    w = weight(mu)
    if w > weight(lam):
        return Fraction(0)
    den, nums = _top_rows(int(kind == "dim'"), lam, q, t)[w]
    return Fraction(nums[partitions_of(w).index(mu)], den)


def test_dims_examples():
    assert dims("dim", (), (1,), Q0, T0) == 1
    assert dims("dim'", (), (1,), Q0, T0) == (1 - T0) / (1 - Q0)
    for lam in partitions_up_to(4):
        assert dims("dim", lam, lam, Q0, T0) == 1


def test_dims_schur_point_counts_tableaux():
    # at q = t every Pieri edge weighs 1, so both path sums count tableaux
    for q in (Fraction(1, 2), Fraction(2, 7)):
        for lam in partitions_up_to(7):
            assert dims("dim", (), lam, q, q) == syt_count(lam)
            assert dims("dim'", (), lam, q, q) == syt_count(lam)


# The pairwise Fraction recursion that dims and the exact entries ran
# before the top-down integer rows, kept verbatim as their oracle.

def _path_memo(kind: str, q: Fraction, t: Fraction) -> tuple:
    """(sums, up, side) for one kind of path sum at (q, t).

    sums maps (mu, lam) to the path sum and up maps mu to its covers with
    their edge weights macdonald.pieri(nu, mu, q, t)[side]: psi (side 0) for
    "dim", phi (side 1) for "dim'".  Both are memos of the point's store,
    fetched once per entry point, so a probe hashes partitions only.
    """
    return (memo(q, t, f"plancherel.{kind} sums"),
            memo(q, t, f"plancherel.{kind} up"), 0 if kind == "dim" else 1)


def _path_sum(path_memo: tuple, mu: tuple, lam: tuple, q: Fraction,
              t: Fraction) -> Fraction:
    sums, up, side = path_memo
    val = sums.get((mu, lam))
    if val is None:
        if mu == lam:
            val = Fraction(1)
        elif not contains(lam, mu) or weight(mu) >= weight(lam):
            val = Fraction(0)
        else:
            covers = up.get(mu)
            if covers is None:
                covers = up[mu] = [(nu, macdonald.pieri(nu, mu, q, t)[side])
                                   for nu in add_one_box(mu)]
            val = Fraction(0)
            for nu, c in covers:
                if contains(lam, nu):
                    val += c * _path_sum(path_memo, nu, lam, q, t)
        sums[mu, lam] = val
    return val


def _oracle_entry_power_coeffs(lam: tuple, mu: tuple, u: Fraction, q: Fraction,
                                t: Fraction) -> dict:
    """Rational c_k with T_{lam,mu}(u) = pref(u) sum_k c_k xi^k, xi = gamma (1 - u),
    as a nu-sum of products of pairwise path sums."""
    psi, phi = _path_memo("dim", q, t), _path_memo("dim'", q, t)
    out: dict = {}
    wl, wm = weight(lam), weight(mu)
    meet = tuple(map(min, lam, mu))  # nu lies in lam and mu iff it lies in meet
    for nu in partitions_up_to(weight(meet)):
        if not contains(meet, nu):
            continue
        dl = wl - weight(nu)
        dm = wm - weight(nu)
        dim_p = _path_sum(psi, nu, lam, q, t)
        dim_q = _path_sum(phi, nu, mu, q, t)
        if not dim_p or not dim_q:
            continue
        coef = dim_p * dim_q / Fraction(math.factorial(dl) * math.factorial(dm))
        coef *= u ** weight(nu)
        k = dl + dm
        out[k] = out.get(k, Fraction(0)) + coef
    return out


ORACLE_POINTS = [(Q0, T0), (Fraction(43, 97), Fraction(59, 89)),
                 (Fraction(2, 7), Fraction(2, 7))]


@pytest.mark.parametrize("q, t", ORACLE_POINTS, ids=["1/3,1/5", "43/97,59/89", "q=t"])
def test_dims_equal_the_pairwise_recursion(q, t):
    states = partitions_up_to(7)
    for kind in ("dim", "dim'"):
        path_memo = _path_memo(kind, q, t)
        for lam in states:
            for mu in states:
                assert dims(kind, mu, lam, q, t) == _path_sum(path_memo, mu, lam, q, t), \
                    (kind, mu, lam)


def _coefficients(entry, top):
    """The gamma coefficients nums[j] / den of an integer entry (nums, den),
    padded with zeros to gamma^top."""
    nums, den = entry
    return [Fraction(c, den) for c in nums] + [0] * (top + 1 - len(nums))


def _exact_entries(u, q, t, ring, rows, cols):
    """Nonzero entries of T(u) on rows x cols as series in the formal gamma
    of ``ring``, from the level entries that semigroup_defect reads."""
    pows = _gamma_powers(ring.gen("g"), ring)
    top = len(pows) - 1
    pref = _coefficients(_prefactor(u, q, t, top), top)
    raw = _level_entries(u, rows, cols, top, q, t)
    return {(lam, mu): series.linear_combination(
                ring, zip(_poly_mul(pref, _coefficients(c, top), top), pows))
            for lam, row in raw.items() for mu, c in row.items()}


def test_transfer_vacuum_entry_exact():
    ring = SeriesRing(["g"], 6)
    g = ring.gen("g")
    u = Fraction(1, 2)
    states = partitions_up_to(2)
    entries = _exact_entries(u, Q0, T0, ring, states, states)
    pref = (g * g * ((1 - T0) / (1 - Q0) * (u - 1))).exp()
    assert entries[(), ()] == pref


@pytest.mark.parametrize("u", [Fraction(3, 7), Fraction(0)], ids=["u=3/7", "u=0"])
@pytest.mark.parametrize("q, t", ORACLE_POINTS, ids=["1/3,1/5", "43/97,59/89", "q=t"])
def test_exact_entries_equal_the_nu_sum_oracle(q, t, u):
    # the level entries against the pairwise-recursion nu-sums: their xi^k
    # coefficient c_k gives the gamma^k coefficient c_k (1 - u)^k, for every
    # entry of weight <= 7
    states = partitions_up_to(7)
    coeffs = {(lam, mu): _oracle_entry_power_coeffs(lam, mu, u, q, t)
              for lam in states for mu in states}
    top = 14
    raw = _level_entries(u, states, states, top, q, t)
    for lam in states:
        for mu in states:
            want = [0] * (top + 1)
            for k, c in coeffs[lam, mu].items():
                want[k] = c * (1 - u) ** k
            assert _coefficients(raw.get(lam, {}).get(mu, _NO_ENTRY), top) == want, \
                (lam, mu)
    if not u:
        return  # the series form and its prefactor are checked at u = 3/7
    # and as series with the prefactor: every entry of weight <= 6 in a ring
    # that keeps every power, and a subset of rows and columns in one that
    # truncates
    depth = 6
    states = partitions_up_to(depth)
    rows, cols = states[::-1][:12], [mu for mu in states if weight(mu) >= 2]
    for cutoff, rs, cs in ((2 * depth, None, None), (5, rows, cols)):
        ring = SeriesRing(["g"], cutoff)
        g = ring.gen("g")
        pref = (g * g * ((1 - t) / (1 - q) * (u - 1))).exp()
        xi_pows = [(g * (1 - u)) ** k for k in range(2 * depth + 1)]
        want = {}
        for lam in rs or states:
            for mu in cs or states:
                acc = ring.zero()
                for k, c in coeffs[lam, mu].items():
                    acc = acc + xi_pows[k] * c
                if acc:
                    want[lam, mu] = pref * acc
        assert _exact_entries(u, q, t, ring, rs or states, cs or states) == want


def test_transfer_entries_nonnegative_float():
    q = t = Fraction(1, 2)
    tm = transfer_matrix(0.7, 0.4, 6, q, t, mode="float")
    assert (tm.entries >= 0).all()


def test_truncated_trace_converges_to_euler():
    gamma, u = 0.6, 0.35
    target = 1.0
    for k in range(1, 200):
        target /= (1 - u**k)
    traces = [truncated_trace_float(gamma, u, d, Q0, T0) for d in range(4, 11)]
    assert all(b > a for a, b in zip(traces, traces[1:]))
    assert traces[-1] < target
    gaps = [target - tr for tr in traces]
    assert all(g2 < g1 / 1.5 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 5e-3


def test_float_entry_spot_check():
    rng = random.Random(4)
    tm = transfer_matrix(0.5, 0.25, 5, Q0, T0, mode="float")
    assert spot_check_float_entries(tm, Q0, T0, rng) >= 1


def test_float_entry_spot_check_depth_12():
    rng = random.Random(12)
    tm = transfer_matrix(0.85, math.exp(-1.0), 12, Q0, T0, mode="float")
    assert len(tm.states) == 272
    assert spot_check_float_entries(tm, Q0, T0, rng, frac=0.01, tol=1e-12) == 739


def _unit_rational(draw):
    return Fraction(draw(st.integers(1, 99)), 100)


@settings(max_examples=12, deadline=None)
@given(depth=st.integers(0, 6), data=st.data())
def test_sandwich_equals_exact_nu_sum_at_every_entry(depth, data):
    # the half-vertex product against the exact level entries, summed over
    # common sub-partitions nu from the top-down path rows, entry by entry
    q, t, u = (_unit_rational(data.draw) for _ in range(3))
    gamma = Fraction(data.draw(st.integers(0, 300)), 100)
    tm = transfer_matrix(float(gamma), float(u), depth, q, t, mode="float")
    n = len(tm.states)
    assert spot_check_float_entries(tm, q, t, None, frac=1, tol=1e-12) == n * n


def _dense(blocks, depth):
    """The level blocks of a one-box up-matrix, placed in one dense matrix
    over partitions_up_to(depth)."""
    bounds = list(accumulate((len(partitions_of(w)) for w in range(depth + 1)), initial=0))
    out = np.zeros((bounds[-1], bounds[-1]))
    assert len(blocks) == depth
    for w, block in enumerate(blocks, start=1):
        out[bounds[w]:bounds[w + 1], bounds[w - 1]:bounds[w]] = block
    return out


def test_sandwich_is_the_exponential_series():
    # X = sum_k (xi U)^k / k! summed literally, against transfer_matrix
    q, t, gamma, u, depth = Fraction(2, 7), Fraction(5, 9), 0.9, 0.45, 7
    up, up_dual = (_dense(m, depth) for m in pieri_up_matrices(depth, q, t))

    def half_vertex(m, xi):
        out = term = np.eye(len(m))
        for k in range(1, depth + 1):
            term = term @ (xi * m) / k
            out = out + term
        return out

    xi = gamma * (1 - u)
    sizes = np.array([weight(lam) for lam in partitions_up_to(depth)])
    pref = math.exp(float((1 - t) / (1 - q)) * gamma * gamma * (u - 1))
    want = pref * half_vertex(up, xi) @ np.diag(u ** sizes) \
        @ half_vertex(up_dual, xi).T
    got = transfer_matrix(gamma, u, depth, q, t, mode="float").entries
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_pieri_up_matrices_are_memoised_read_only(monkeypatch, fresh_memos):
    # a second call at the same point and depth builds nothing from the
    # Pieri edges, and the shared blocks refuse writes
    first = pieri_up_matrices(5, Q0, T0)
    calls = []
    pieri = macdonald.pieri
    monkeypatch.setattr(macdonald, "pieri", lambda *a: calls.append(a) or pieri(*a))
    assert pieri_up_matrices(5, Q0, T0) is first
    transfer_matrix(0.8, 0.45, 5, Q0, T0)
    assert calls == []
    for blocks in first:
        for block in blocks:
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0


def test_pieri_up_matrices_share_their_levels_across_depths(monkeypatch, fresh_memos):
    # depth 10 reads depth 8's level blocks, the same read-only objects, and
    # asks for Pieri edges only on levels 9 and 10
    up8 = pieri_up_matrices(8, Q0, T0)
    calls = []
    pieri = macdonald.pieri
    monkeypatch.setattr(macdonald, "pieri", lambda *a: calls.append(a) or pieri(*a))
    up10 = pieri_up_matrices(10, Q0, T0)
    for short, long in zip(up8, up10):
        assert len(short) == 8 and len(long) == 10
        assert all(a is b for a, b in zip(short, long))
        assert not any(b.flags.writeable for b in long)
    assert calls and {weight(lam) for lam, _, _, _ in calls} == {9, 10}


def test_pieri_up_matrices_add_one_box_and_are_nilpotent():
    depth = 6
    states = partitions_up_to(depth)
    up, up_dual = (_dense(m, depth) for m in pieri_up_matrices(depth, Q0, T0))
    for m in (up, up_dual):
        for i, j in zip(*np.nonzero(m)):
            lam, nu = states[i], states[j]
            assert weight(lam) == weight(nu) + 1 and nu in remove_one_box(lam)
        assert np.count_nonzero(np.linalg.matrix_power(m, depth)) > 0
        assert not np.linalg.matrix_power(m, depth + 1).any()
    edges = sum(len(remove_one_box(lam)) for lam in states)
    assert np.count_nonzero(up) == np.count_nonzero(up_dual) == edges
    # psi and phi of one box onto the empty partition (see test_dims_examples)
    assert up[1, 0] == 1 and up_dual[1, 0] == float((1 - T0) / (1 - Q0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transfer_matrix_peak_is_at_most_four_dense_matrices():
    # X, Y and the entries, plus the level blocks and one row of scalings
    depth = 12
    n = len(partitions_up_to(depth))
    transfer_matrix(0.8, 0.45, depth, Q0, T0)  # the up-matrices are memoised
    tracemalloc.start()
    try:
        tm = transfer_matrix(0.8, 0.45, depth, Q0, T0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tm.entries.shape == (n, n)
    assert peak <= 4 * 8 * n * n


def test_float_depth_is_bounded():
    with pytest.raises(ValueError):
        TrajectorySpec(1.0, 0.8, [0.0], MAX_DEPTH + 1, seed=1, count=1)
    with pytest.raises(ValueError):
        truncated_trace_float(0.8, 0.5, MAX_DEPTH + 1, Q0, T0)


OVERFLOW = ["--gamma", "1.6e14", "--beta", "1.0", "--depth", "12", "--q", "1/2",
            "--t", "1/3"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transfer_matrix_refuses_non_finite_entries():
    # xi^12 / 12! stays finite, but X diag(u^|nu|) Y^T overflows and the
    # prefactor underflows to 0, so entries would be 0 * inf = nan
    with pytest.raises(ValueError, match=r"gamma = 1\.6e\+14 .* at depth 12"):
        transfer_matrix(1.6e14, math.exp(-1.0), 12, Fraction(1, 2), Fraction(1, 3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_truncated_trace_refuses_a_non_finite_trace():
    # the same sandwich as the matrix above, summed along its diagonal: the
    # trace was 0 * inf = nan after a numpy RuntimeWarning
    with pytest.raises(ValueError, match=r"^gamma = 1\.6e\+14 .* at depth 12$"):
        truncated_trace_float(1.6e14, math.exp(-1.0), 12, Fraction(1, 2), Fraction(1, 3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("times", ["0.0", "0.0,0.5"], ids=["1-time", "2-time"])
def test_sample_with_overflowing_transfer_matrix_exits_2(capsys, times):
    argv = ["plancherel", "sample", "--times", times, "--count", "2", *OVERFLOW]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: gamma = 1.6e+14 ") and err.count("\n") == 1


def test_semigroup_exact_small():
    ring = SeriesRing(["g"], 5)
    g = ring.gen("g")
    defect = semigroup_defect(g, Fraction(1, 2), Fraction(1, 3), 6, Q0, T0,
                              reserve=4, mode="exact", ring=ring)
    assert defect == 0


def test_semigroup_exact_holds_at_every_cli_scope():
    # every depth <= 6, reserve in [0, depth] and gamma degree the CLI
    # accepts (below depth + reserve + 2), at its default u, v, q and t
    for depth in range(7):
        for reserve in range(depth + 1):
            for deg in range(1, depth + reserve + 2):
                ring = SeriesRing(["g"], deg)
                assert semigroup_defect(ring.gen("g"), Fraction(1, 2), Fraction(1, 3),
                                        depth, Q0, T0, reserve=reserve, ring=ring) == 0, \
                    (depth, reserve, deg)


def test_semigroup_exact_detects_a_wrong_pieri_edge(monkeypatch, fresh_memos):
    # the identity rests on the Pieri commutation relation, not on the level
    # factorisation: one psi edge off by 11/10 must show in the defect
    ring = SeriesRing(["g"], 6)
    g = ring.gen("g")

    def defect():
        fresh_memos()
        return semigroup_defect(g, Fraction(1, 2), Fraction(1, 3), 8, Q0, T0,
                                reserve=4, mode="exact", ring=ring)

    assert defect() == 0
    pieri = macdonald.pieri

    def wrong(lam, mu, q, t):
        psi, phi = pieri(lam, mu, q, t)
        if (lam, mu) == ((2, 1), (2,)):
            psi *= Fraction(11, 10)
        return psi, phi

    monkeypatch.setattr(macdonald, "pieri", wrong)
    assert defect() != 0


def test_plancherel_check_reports_the_first_failing_entry(monkeypatch, capsys, fresh_memos):
    # the same wrong psi edge through the CLI: exit 1, and the report names
    # the first failing (lambda, mu) of the safe block and the lowest nonzero
    # coefficient of T(u) T(v) - T(uv) there
    pieri = macdonald.pieri

    def wrong(lam, mu, q, t):
        psi, phi = pieri(lam, mu, q, t)
        if (lam, mu) == ((2, 1), (2,)):
            psi *= Fraction(11, 10)
        return psi, phi

    monkeypatch.setattr(macdonald, "pieri", wrong)
    argv = ["plancherel", "check", "--depth", "8", "--reserve", "4",
            "--gamma-deg", "6", "--samples", "2000", "--q", "1/3", "--t", "1/5"]
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    ring = SeriesRing(["g"], 6)
    lam, mu, diff = semigroup_defect(ring.gen("g"), Fraction(1, 2), Fraction(1, 3),
                                     8, Q0, T0, ring=ring)
    first = report["first_mismatch"]
    assert (tuple(first["lambda"]), tuple(first["mu"])) == (lam, mu)
    assert report["semigroup_defect"] == str(diff)
    k = min(diff.terms)
    assert first["exp"] == {"g": k[0]} and first["defect"] == str(diff.terms[k])
    # no entry earlier in the scan order fails
    small = partitions_up_to(4)
    tu = _exact_entries(Fraction(1, 2), Q0, T0, ring, small, partitions_up_to(8))
    tv = _exact_entries(Fraction(1, 3), Q0, T0, ring, partitions_up_to(8), small)
    tuv = _exact_entries(Fraction(1, 6), Q0, T0, ring, small, small)
    failing = []
    for a in small:
        for b in small:
            if weight(a) + weight(b) <= 4:
                prod = ring.zero()
                for kap in partitions_up_to(8):
                    if (a, kap) in tu and (kap, b) in tv:
                        prod = prod + tu[a, kap] * tv[kap, b]
                if prod != tuv.get((a, b), ring.zero()):
                    failing.append((a, b))
    assert failing[0] == (lam, mu)


def test_a_wrong_float_entry_fails_verify_all_and_check(monkeypatch, capsys):
    # one entry of both float half-vertices, X and Y at ((2), (1)), off by
    # 11/10: the exact semigroup check never reads the float sandwich, so
    # the spot check of every entry of the sampled depth-8 matrix must see
    # it, as a mismatch with the first failing entry in draw order
    half_vertex = plancherel._half_vertex

    def wrong(up, sizes, xi):
        paths = half_vertex(up, sizes, xi)
        paths[np.searchsorted(sizes, 2), np.searchsorted(sizes, 1)] *= 1.1
        return paths

    monkeypatch.setattr(plancherel, "_half_vertex", wrong)
    # the other criteria run no float Plancherel code
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.criterion_plancherel_process])
    assert cli.main(["verify", "all"]) == 1
    (criterion,) = json.loads(capsys.readouterr().out)["criteria"]
    assert criterion["details"]["spot_check_entries"] == 67 * 67
    (failure,) = criterion["details"]["failures"]
    assert failure[:3] == ["float-entry", [1], [2]]
    assert cli.main(["plancherel", "check", "--samples", "2000"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["semigroup_defect"] == "0" and not report["verified"]
    first = report["spot_check"].pop("first_mismatch")
    assert report["spot_check"] == {"entries": 67 * 67, "fraction": 1.0}
    assert (first["lambda"], first["mu"]) == ([1], [2])
    assert first["float"] != pytest.approx(first["exact"], rel=1e-3)


def _float_semigroup_defect(gamma, u, v, depth, reserve):
    """max |T(u) T(v) - T(uv)| over the safe block, from float matrices."""
    tu, tv, tuv = (transfer_matrix(gamma, x, depth, Q0, T0).entries
                   for x in (u, v, u * v))
    sizes = np.array([weight(lam) for lam in partitions_up_to(depth)])
    safe = sizes[:, None] + sizes[None, :] <= depth - reserve
    return np.abs(tu @ tv - tuv)[safe].max()


def test_semigroup_float_defect_shrinks():
    d1 = _float_semigroup_defect(0.8, 0.5, 0.4, 4, reserve=2)
    d2 = _float_semigroup_defect(0.8, 0.5, 0.4, 7, reserve=2)
    assert d2 < d1


def test_each_entry_point_runs_one_arithmetic():
    ring = SeriesRing(["g"], 4)
    with pytest.raises(ValueError):
        transfer_matrix(ring.gen("g"), Fraction(1, 2), 4, Q0, T0, mode="exact")
    with pytest.raises(ValueError):
        semigroup_defect(0.8, 0.5, 0.4, 4, Q0, T0, reserve=2, mode="float")


@pytest.mark.parametrize("q, t", [random_qt_pair(random.Random(30)),
                                  (Fraction(1, 3), Fraction(2, 7))],
                         ids=["random-point", "1/3,2/7"])
def test_prop44_marginals_match_transfer_cycle(q, t):
    # cross-ratio equality of the time-grid process's marginal weight (skew
    # functions through the Fock pairing) and the transfer-cycle weight
    # (Young-graph path sums) over small state tuples, at one to three times
    gamma = Fraction(2, 3)
    decays = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]
    for n in (1, 2, 3):
        u_list = decays[:n]
        ps = time_grid_process(gamma, u_list, q, t)
        pairs = [(marginal_weight(ps, lams).constant_term(),
                  transfer_cycle_weight(lams, gamma, u_list, q, t))
                 for lams in _tuples_up_to(n, 3)]
        base = next((pair for pair in pairs if pair[0] and pair[1]), None)
        assert base is not None
        for wp, wt in pairs:
            assert wp * base[1] == wt * base[0]


@pytest.mark.parametrize("gamma, u_list", [(Fraction(2, 3), [0.1]),
                                            (0.5, [Fraction(1, 2)]),
                                            (Fraction(2, 3), [Fraction(1, 2), 0.25])],
                         ids=["float-decay", "float-gamma", "second-decay"])
def test_transfer_cycle_weight_refuses_what_time_grid_refuses(gamma, u_list):
    lams = [(1,)] * len(u_list)
    with pytest.raises(TypeError, match="not rational"):
        transfer_cycle_weight(lams, gamma, u_list, Q0, T0)
    with pytest.raises(TypeError, match="not rational"):
        time_grid_process(gamma, u_list, Q0, T0)


@pytest.mark.parametrize("lams, u_list", [([(1,), (2,)], [Fraction(1, 3)]),
                                          ([(1,)], [Fraction(1, 3), Fraction(1, 2)])],
                         ids=["two-states-one-decay", "one-state-two-decays"])
def test_transfer_cycle_weight_needs_one_decay_per_state(lams, u_list):
    # one gap follows each state of the cycle, so a decay list of another
    # length describes no cycle and has no weight
    with pytest.raises(ValueError, match="decays"):
        transfer_cycle_weight(lams, Fraction(1, 2), u_list, Fraction(1, 3), Fraction(1, 5))


def test_at_gamma_is_the_exact_polynomial_value():
    coeffs = [Fraction(3, 4), 0, Fraction(-5, 6), Fraction(7, 9), 0]
    gamma = Fraction(-2, 3)
    num, den = _at_gamma(([27, 0, -30, 28, 0], 36), gamma)  # coeffs over 36
    assert Fraction(num, den) == sum(c * gamma ** j for j, c in enumerate(coeffs))
    assert den == 36 * 3 ** 4  # the entry's denominator times r^top
    assert Fraction(*_at_gamma(_NO_ENTRY, gamma)) == 0


def _tuples_up_to(n, maxwt):
    """Tuples of n partitions of total weight <= maxwt."""
    if n == 0:
        return [()]
    return [(lam,) + rest for lam in partitions_up_to(maxwt)
            for rest in _tuples_up_to(n - 1, maxwt - weight(lam))]


def test_u_to_zero_marginal_is_open_plancherel():
    # as the period grows (u -> 0) the diagonal entry tends to the
    # non-periodic Plancherel weight gamma^(2|lam|)/(|lam|!)^2 dim dim'
    gamma = Fraction(2, 3)
    for lam in partitions_up_to(3):
        w = weight(lam)
        fact = 1
        for k in range(2, w + 1):
            fact *= k
        target = gamma ** (2 * w) / Fraction(fact) ** 2 \
            * dims("dim", (), lam, Q0, T0) * dims("dim'", (), lam, Q0, T0)
        cyc = transfer_cycle_weight((lam,), gamma, [Fraction(0)], Q0, T0)
        assert cyc == target


def test_sampler_deterministic():
    spec = TrajectorySpec(1.0, 0.8, [0.0, 0.3, 0.7], 4, seed=99, count=5)
    runs1 = list(sample_trajectories(spec, Q0, T0))
    runs2 = list(sample_trajectories(spec, Q0, T0))
    assert runs1 == runs2


def _draw(rng, probs) -> int:
    """Inverse-CDF draw with strict inequality (deterministic per seed)."""
    x = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if x < acc:
            return i
    return len(probs) - 1


def _oracle_sample_trajectories(spec, q, t, mats):
    """The sampler as it drew before the cumulative rows were memoised: the
    stream's values sample by sample from the pure-Python SplitMix64 of
    ``oracles``, and a linear scan over each conditional row."""
    states = partitions_up_to(spec.depth)
    # suffix[i] = M_i M_{i+1} ... M_{last}
    suffix = [None] * len(mats)
    acc = None
    for i in range(len(mats) - 1, 0, -1):
        acc = mats[i] if acc is None else mats[i] @ acc
        suffix[i] = acc
    # the diagonal of the cycle M_0 suffix[1], summed as the sampler sums it
    diag = mats[0].diagonal() if acc is None else np.einsum("ij,ji->i", mats[0], acc)
    diag = np.maximum(diag, 0.0)
    total = diag.sum()
    if total < MIN_CYCLE_MASS:
        raise ValueError("truncated cycle mass is degenerate; raise depth")
    p0 = diag / total

    for k in range(spec.count):
        rng = _Values(stream_sample(spec.seed, k, len(spec.times)))
        i0 = _draw(rng, p0)
        out = [(spec.times[0], states[i0])]
        prev = i0
        for step in range(1, len(spec.times)):
            w = np.maximum(mats[step - 1][prev, :] * suffix[step][:, i0], 0.0)
            s = w.sum()
            if s <= 0:
                raise ValueError("conditional mass vanished; raise depth")
            prev = _draw(rng, w / s)
            out.append((spec.times[step], states[prev]))
        yield out


class _Values:
    """A generator stand-in whose random() returns given values in turn."""

    def __init__(self, xs):
        self.random = iter(xs).__next__


def _probability_vectors(rng):
    # normalised as the sampler does, with zeros at the ends and inside
    for n in (1, 2, 3, 7, 30, 67, 200):
        for zeros in (0.0, 0.3, 0.8):
            w = np.array([0.0 if rng.random() < zeros else rng.expovariate(1.0)
                          for _ in range(n)])
            if n > 2:
                w[0] = w[-1] = 0.0
            if w.sum() > 0:
                yield w / w.sum()
    # cumulative sums that round below 1, so large x falls through
    for n in (3, 10, 49, 100):
        yield np.full(n, 1.0 / n)
    yield np.array([0.1] * 10)
    yield np.array([1.0, 0.0, 0.0])
    yield np.array([0.0, 0.0, 1.0])


def test_inverse_cdf_matches_linear_scan():
    # the sampler's rule: the row's cumulative sums searched for a whole
    # group of draws at once
    rng = random.Random(20261018)
    fell_through = 0
    for p in _probability_vectors(rng):
        cum = np.cumsum(p)
        # uniform draws, every cumulative value exactly, its neighbours, and
        # the ends of [0, 1)
        xs = [rng.random() for _ in range(50)] + [0.0, math.nextafter(1.0, 0.0)]
        for c in cum.tolist():
            xs += [c, math.nextafter(c, 0.0), math.nextafter(c, 2.0)]
        xs = [x for x in xs if 0.0 <= x < 1.0]
        want = [_draw(_Values([x]), p) for x in xs]
        assert _inverse_cdf(cum, np.array(xs)).tolist() == want, list(p)
        fell_through += sum(x >= cum[-1] for x in xs)
    assert fell_through > 0


@pytest.mark.parametrize("depth", [4, 6])
@pytest.mark.parametrize("times", [[0.0], [0.0, 0.4], [0.0, 0.2, 0.5, 0.7]],
                         ids=["1-time", "2-time", "4-time"])
def test_sampler_stream_equals_linear_scan_oracle(depth, times):
    q, t = Fraction(1, 2), Fraction(2, 7)
    spec = TrajectorySpec(1.0, 0.85, times, depth, seed=41 + depth, count=1500)
    cycle = Cycle(spec, q, t)
    got = list(sample_trajectories(spec, q, t, cycle=cycle))
    assert got == list(_oracle_sample_trajectories(spec, q, t, mats=cycle.mats))
    assert len({traj[-1][1] for traj in got}) > 5


def test_sampler_stream_keeps_rows_past_the_memo_budget(monkeypatch):
    # rows beyond the budget are rebuilt at each visit, to the same stream
    from permac import plancherel

    q, t = Fraction(1, 2), Fraction(2, 7)
    spec = TrajectorySpec(1.0, 1.5, [0.0, 0.2, 0.5, 0.7], 5, seed=8, count=1500)
    cycle = Cycle(spec, q, t)
    monkeypatch.setattr(plancherel, "MEMO_BYTES", 8 * len(cycle.mats[0]) * 3)
    got = list(sample_trajectories(spec, q, t, cycle=cycle))
    assert got == list(_oracle_sample_trajectories(spec, q, t, mats=cycle.mats))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("times", [[0.0], [0.0, 0.2, 0.5]], ids=["1-time", "3-time"])
@pytest.mark.parametrize("seed", [-3, 12])
def test_sampler_stream_equals_oracle_across_blocks(monkeypatch, times, seed):
    # 7 draws per block: blocks of 7 one-time or 2 three-time samples, the
    # last one short
    monkeypatch.setattr(plancherel, "STREAM_BLOCK", 7)
    q, t = Fraction(1, 2), Fraction(2, 7)
    spec = TrajectorySpec(1.0, 0.85, times, 5, seed=seed, count=41)
    cycle = Cycle(spec, q, t)
    got = list(sample_trajectories(spec, q, t, cycle=cycle))
    assert got == list(_oracle_sample_trajectories(spec, q, t, mats=cycle.mats))


def test_sampler_stream_equals_oracle_with_many_rows_per_block(monkeypatch):
    # blocks of 400 three-time samples at depth 8 (the last one 300): each
    # step of a block searches dozens of distinct conditional rows, each for
    # a group of draws
    monkeypatch.setattr(plancherel, "STREAM_BLOCK", 3 * 400)
    q, t = Fraction(43, 97), Fraction(59, 89)
    spec = TrajectorySpec(1.0, 0.85, [0.0, 0.3, 0.6], 8, seed=2026, count=1500)
    cycle = Cycle(spec, q, t)
    got = list(sample_trajectories(spec, q, t, cycle=cycle))
    assert got == list(_oracle_sample_trajectories(spec, q, t, mats=cycle.mats))
    for start in range(0, spec.count, 400):
        block = got[start:start + 400]
        assert len({traj[0][1] for traj in block}) > 20
        assert len({(traj[1][1], traj[0][1]) for traj in block}) > 40


def test_marginal_chi_square_report_is_pinned():
    # the report of the v2 stream, float for float
    report = marginal_chi_square(0.9, 1.0, 6, Fraction(1, 2), Fraction(2, 7),
                                 samples=20000, seed=2026)
    assert report == {
        "statistic": 37.299994328710085, "dof": 29, "p_value": 0.13870539075651925,
        "bins": 30, "samples": 20000, "marginals": [
            {"partition": [], "expected": 0.2579899113563563,
             "observed_frequency": 0.26025},
            {"partition": [1], "expected": 0.21419520013164417,
             "observed_frequency": 0.21645},
            {"partition": [2], "expected": 0.1070043270462862,
             "observed_frequency": 0.1051},
            {"partition": [1, 1], "expected": 0.07816865131801215,
             "observed_frequency": 0.0769},
            {"partition": [2, 1], "expected": 0.06604808047083505,
             "observed_frequency": 0.06525},
            {"partition": [3], "expected": 0.044303762800542414,
             "observed_frequency": 0.04525},
            {"partition": [3, 1], "expected": 0.03287688377085608,
             "observed_frequency": 0.0333},
            {"partition": [1, 1, 1], "expected": 0.027441479426946212,
             "observed_frequency": 0.02615}]}


def test_trajectory_spec_needs_an_int_seed():
    # the stream keys on the seed mod 2^64, which a float does not have
    with pytest.raises(TypeError, match="not an int"):
        TrajectorySpec(1.0, 0.8, [0.0], 4, seed=7.0, count=1)


def test_sampler_small_gamma_freezes_trajectories():
    # vanishing intensity makes the transfer matrices diagonal-dominant, so
    # trajectories are constant in time; the constant is empty with the
    # geometric probability (u;u)_inf, which tends to 1 for long periods
    beta = 8.0
    spec = TrajectorySpec(beta, 1e-6, [0.0, 2.0, 5.0], 4, seed=3, count=200)
    empty = 0
    for traj in sample_trajectories(spec, Q0, T0):
        states = {lam for _, lam in traj}
        assert len(states) == 1  # constant trajectory
        if states == {()}:
            empty += 1
    u = math.exp(-beta)
    p_empty = 1.0
    for k in range(1, 50):
        p_empty *= 1 - u**k
    assert empty >= 0.9 * p_empty * spec.count


def test_dropped_mass_is_the_missing_euler_mass():
    # one time: the cycle is T(e^-beta), whose truncated trace the Euler
    # product (u;u)_inf completes to 1; more depth drops less mass
    beta, gamma = 1.0, 0.85
    u = math.exp(-beta)
    euler = 1.0
    for k in range(1, 60):
        euler *= 1 - u**k
    losses = []
    for depth in (4, 6, 8):
        spec = TrajectorySpec(beta, gamma, [0.0], depth, seed=1, count=1)
        loss = dropped_mass(Cycle(spec, Q0, T0))
        trace = truncated_trace_float(gamma, u, depth, Q0, T0)
        assert loss == pytest.approx(1 - trace * euler, rel=1e-12)
        losses.append(loss)
    assert 0 < losses[2] < losses[1] < losses[0] < 0.2
    # truncating each gap of a cycle also cuts the intermediate sums, and
    # every entry is nonnegative, so a 3-time cycle drops at least as much
    spec = TrajectorySpec(beta, gamma, [0.0, 0.3, 0.6], 8, seed=1, count=1)
    assert losses[2] <= dropped_mass(Cycle(spec, Q0, T0)) < losses[0]


def test_plancherel_sample_forms_the_suffix_product_once(monkeypatch, capsys):
    # the draws and the dropped mass read one cycle: with three times,
    # M_1 M_2 is the only matrix product, and the stream is the golden one
    products = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(method)
            plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    transfer_matrix = plancherel.transfer_matrix

    def counted(*args):
        tm = transfer_matrix(*args)
        tm.entries = tm.entries.view(Counted)
        return tm

    monkeypatch.setattr(plancherel, "transfer_matrix", counted)
    assert cli.main(["plancherel", "sample", "--times", "0.0,0.3,0.6", "--depth", "8",
                     "--count", "200", "--seed", "5", "--q", "1/3", "--t", "1/5"]) == 0
    assert products == ["__call__"]
    out, err = capsys.readouterr()
    with open(GOLDEN_3TIME) as fh:
        assert out == fh.read()
    assert err.startswith("dropped mass: ") and err.count("\n") == 1


def test_chi_square_sf_matches_scipy():
    from scipy.stats import chi2

    worst = 0.0
    for dof in range(1, 301):
        grid = {1e-6, 0.01, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0}
        grid |= {dof * f for f in (0.01, 0.1, 0.3, 0.5, 0.8, 1, 1.2, 1.5, 2, 3)}
        for x in grid:
            want = float(chi2.sf(x, dof))
            worst = max(worst, abs(chi_square_sf(x, dof) - want) / want)
    assert worst <= 1e-12
    assert chi_square_sf(0.0, 3) == 1.0 and chi_square_sf(math.inf, 4) == 0.0
    assert type(chi_square_sf(np.float64(2.5), 3)) is float
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 0)


def test_marginal_chi_square_needs_two_bins():
    with pytest.raises(ValueError):
        marginal_chi_square(0.9, 1.0, 4, Q0, T0, samples=1, seed=1)


def test_marginal_chi_square_smoke():
    out = marginal_chi_square(0.9, 1.0, 5, Fraction(1, 2), Fraction(1, 2),
                              samples=20000, seed=12345)
    assert out["p_value"] > 0.01


def test_sampler_two_time_joint_matches_cycle_law():
    # empirical joint of (lam(0), lam(b1)) against the exact cyclic product
    import numpy as np

    q = t = Fraction(1, 2)
    beta, b1, gamma, depth = 1.0, 0.4, 0.7, 4
    spec = TrajectorySpec(beta, gamma, [0.0, b1], depth, seed=777, count=30000)
    states = partitions_up_to(depth)
    idx = {lam: i for i, lam in enumerate(states)}
    counts = {}
    for traj in sample_trajectories(spec, q, t):
        key = (traj[0][1], traj[1][1])
        counts[key] = counts.get(key, 0) + 1
    m0 = transfer_matrix(gamma, math.exp(-b1), depth, q, t, mode="float").entries
    m1 = transfer_matrix(gamma, math.exp(-(beta - b1)), depth, q, t,
                         mode="float").entries
    joint = np.zeros((len(states), len(states)))
    for a in range(len(states)):
        for b in range(len(states)):
            joint[a, b] = m0[a, b] * m1[b, a]
    joint /= joint.sum()
    # coarse comparison: every cell within 5 sigma of its expectation
    n = spec.count
    for (la, lb), c in counts.items():
        p = joint[idx[la], idx[lb]]
        sigma = math.sqrt(max(p * (1 - p) * n, 1.0))
        assert abs(c - p * n) < 5 * sigma + 5
