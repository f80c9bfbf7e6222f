"""Stationary periodic Plancherel dynamics on partitions.

The transfer operator at intensity gamma and decay u acts on the Fock space
as a sandwich of Plancherel half-vertices around u^D, with the scalar
prefactor exp(gamma^2 (u-1) (1-t)/(1-q)).  Its matrix elements in the P/Q
bases are weighted path counts in the Young graph (products of one-box Pieri
coefficients).  ``transfer_matrix`` multiplies the half-vertices as float
matrices, for sampling.  The exact semigroup check ``semigroup_defect``
(gamma formal, everything rational) groups the same path counts by weight
level: path-sum blocks between levels, built bottom-up once per (q, t) and
shared by every decay u, give each entry as a polynomial in gamma.  Integer
rows of path sums, built top-down from each target partition, are the
oracle of the float sandwich (the spot check) and of the level blocks.

Finite-dimensional laws of the periodic process are cyclic products of
transfer matrices; the sampler draws the state at time zero from the diagonal
of the full cycle and then walks conditionals, deterministically per seed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import gcd, lcm
from operator import mul

from . import macdonald, series
from .partitions import add_one_box, partitions_of, partitions_up_to, weight
from .point import per_point
from .series import SeriesRing, TruncSeries
from .stream import random_rows


# ---------------------------------------------------------------------------
# Young-graph path weights
# ---------------------------------------------------------------------------

@per_point
def _down_edges(w: int, q: Fraction, t: Fraction) -> list:
    """Per side, (scale, down): down[nu] holds (mu, c) for each mu that is nu
    of weight w less one box, with Pieri edge weight c / scale.  Kept apart
    from the level blocks it checks."""
    edges = {nu: [(mu, macdonald.pieri(nu, mu, q, t)) for i, p in enumerate(nu)
                  if i + 1 == len(nu) or p > nu[i + 1]
                  for mu in [nu[:i] + (p - 1,) + nu[i + 1:] if p > 1 else nu[:i]]]
             for nu in partitions_of(w)}
    out = []
    for side in (0, 1):
        scale = lcm(*(c[side].denominator for es in edges.values() for _, c in es))
        out.append((scale, {nu: [(mu, c[side].numerator * (scale // c[side].denominator))
                                 for mu, c in es] for nu, es in edges.items()}))
    return out


@per_point
def _top_rows(side: int, lam: tuple, q: Fraction, t: Fraction) -> list:
    """[(den, nums)] for k = 0..|lam|: nums[a] / den is the path sum, psi
    for side 0 and phi for side 1, from partitions_of(k)[a] up to lam,
    summed down from lam."""
    den, level, out = 1, {lam: 1}, []
    for k in range(weight(lam), -1, -1):
        out.append((den, [level.get(nu, 0) for nu in partitions_of(k)]))
        if k:
            scale, down = _down_edges(k, q, t)[side]
            below = {}
            for nu, x in level.items():
                for mu, c in down[nu]:
                    below[mu] = below.get(mu, 0) + c * x
            h = gcd(den * scale, *below.values())
            den, level = den * scale // h, {mu: x // h for mu, x in below.items()}
    return out[::-1]


def dims(kind: str, mu: tuple, lam: tuple, q: Fraction, t: Fraction) -> Fraction:
    """Path sums in the Young graph: psi products ("dim"), phi ("dim'"),
    read from the top-down rows of lam."""
    if kind not in ("dim", "dim'"):
        raise ValueError("kind must be 'dim' or \"dim'\"")
    w = weight(mu)
    if w > weight(lam):
        return Fraction(0)
    den, nums = _top_rows(int(kind == "dim'"), lam, q, t)[w]
    return Fraction(nums[partitions_of(w).index(mu)], den)


def _entry_power_coeffs(lam: tuple, mu: tuple, u: Fraction, q: Fraction,
                        t: Fraction) -> dict:
    """Rational coefficients c_k with T_{lam,mu} = pref * sum_k c_k xi^k.

    c_k collects u^{|nu|} dim(nu->lam) dim'(nu->mu) / (dl! dm!) over common
    sub-partitions nu with dl + dm = k; xi = gamma (1 - u) is the Plancherel
    parameter.  One integer dot product per |nu|.
    """
    wl, wm = weight(lam), weight(mu)
    out = {}
    for n, ((dl, pl), (dm, pm)) in enumerate(zip(_top_rows(0, lam, q, t),
                                                  _top_rows(1, mu, q, t))):
        dot = sum(map(mul, pl, pm))
        if dot:
            out[wl + wm - 2 * n] = Fraction(
                dot * u.numerator**n, dl * dm * math.factorial(wl - n)
                * math.factorial(wm - n) * u.denominator**n)
    return out


# ---------------------------------------------------------------------------
# Exact entries through weight levels.  Grouping the nu-sum above by k = |nu|,
#     T_{lam,mu}(u) = pref(u) sum_k u^k xi^{|lam|+|mu|-2k} G_k[lam,mu]
#                     / ((|lam|-k)! (|mu|-k)!),   G_k = P_k P'_k^T,
# where P_k[lam,nu] and P'_k[mu,nu] are the psi and phi path sums from the
# partitions nu of k.  The blocks are the exact twins of _half_vertex's
# paths, built bottom-up from the one-box Pieri edges, and depend on neither
# u nor gamma, so T(u), T(v) and T(uv) share them.  Entries are kept as
# coefficient lists in powers of gamma up to its last nonzero power in the
# ring, where they multiply as polynomials.
# ---------------------------------------------------------------------------

@per_point
def _level_edges(w: int, q: Fraction, t: Fraction) -> list:
    """Per side, (scale, ins): ins[i] holds (j, c) for each one-box edge from
    partitions_of(w - 1)[j] to partitions_of(w)[i] of weight c / scale."""
    index = {lam: i for i, lam in enumerate(partitions_of(w))}
    edges = [[] for _ in index]
    for j, nu in enumerate(partitions_of(w - 1)):
        for lam in add_one_box(nu):
            edges[index[lam]].append((j, macdonald.pieri(lam, nu, q, t)))
    out = []
    for side in (0, 1):
        scale = lcm(*(c[side].denominator for es in edges for _, c in es))
        out.append((scale, [[(j, c[side].numerator * (scale // c[side].denominator))
                             for j, c in es] for es in edges]))
    return out


@per_point
def _level_block(side: int, w: int, k: int, q: Fraction, t: Fraction) -> tuple:
    """(den, rows): rows[i][a] / den is the path sum, psi for side 0 and phi
    for side 1, from partitions_of(k)[a] up to partitions_of(w)[i].

    Level w is the one-box edges into it, as integers over their common
    denominator, applied to level w - 1; the result is divided by the gcd of
    its denominator and numerators.  Blocks depend on neither u, gamma nor
    the depth.
    """
    if w == k:
        n = len(partitions_of(w))
        return 1, [[int(i == a) for a in range(n)] for i in range(n)]
    den, below = _level_block(side, w - 1, k, q, t)
    scale, ins = _level_edges(w, q, t)[side]
    rows = []
    for es in ins:
        acc = [0] * len(below[0])
        for j, c in es:
            for a, x in enumerate(below[j]):
                if x:
                    acc[a] += c * x
        rows.append(acc)
    h = gcd(den * scale, *(x for row in rows for x in row))
    if h > 1:
        rows = [[x // h for x in row] for row in rows]
    return den * scale // h, rows


def _level_entries(u: Fraction, rows, cols, top: int, q: Fraction, t: Fraction) -> dict:
    """Coefficients of gamma^0..gamma^top in T_{lam,mu}(u) / pref(u).

    Returns {lam: {mu: [c_0, ..., c_top]}}.  Terms whose gamma degree
    |lam| + |mu| - 2k exceeds ``top`` are skipped, and an entry with no term
    left is left out.
    """
    index = {lam: i for w in {weight(lam) for lam in (*rows, *cols)}
             for i, lam in enumerate(partitions_of(w))}
    a, b = u.numerator, u.denominator
    plans = {}  # (|lam|, |mu|) -> [(j, psi rows, phi rows, numerator scale, den)]
    out = {}
    for lam in rows:
        wl, il = weight(lam), index[lam]
        for mu in cols:
            wm, im = weight(mu), index[mu]
            plan = plans.get((wl, wm))
            if plan is None:
                plan = plans[wl, wm] = []
                for k in range(max(0, (wl + wm - top + 1) // 2), min(wl, wm) + 1):
                    (dl, pl), (dm, pm) = _level_block(0, wl, k, q, t), _level_block(1, wm, k, q, t)
                    j = wl + wm - 2 * k
                    plan.append((j, pl, pm, a**k * (b - a)**j,
                                 dl * dm * math.factorial(wl - k)
                                 * math.factorial(wm - k) * b ** (wl + wm - k)))
            coeffs = None
            for j, pl, pm, scale, den in plan:
                num = sum(map(mul, pl[il], pm[im])) * scale
                if num:
                    if coeffs is None:
                        coeffs = [0] * (top + 1)
                    coeffs[j] = Fraction(num, den)
            if coeffs is not None:
                out.setdefault(lam, {})[mu] = coeffs
    return out


def _gamma_powers(gamma: TruncSeries, ring: SeriesRing) -> list:
    """[1, gamma, gamma^2, ...] up to the last power of gamma the ring keeps."""
    if ring is None or not isinstance(gamma, TruncSeries) or gamma.constant_term():
        raise ValueError("the exact check needs a ring and a formal gamma "
                         "without constant term")
    pows = [ring.one()]
    while True:
        nxt = pows[-1] * gamma
        if not nxt:
            return pows
        pows.append(nxt)


def _prefactor(u: Fraction, q: Fraction, t: Fraction, top: int) -> list:
    """Coefficients of gamma^0..gamma^top in exp(c gamma^2 (u - 1))."""
    x = (1 - t) / (1 - q) * (u - 1)
    out = [0] * (top + 1)
    term = Fraction(1)
    for n in range(top // 2 + 1):
        out[2 * n] = term
        term = term * x / (n + 1)
    return out


def _poly_mul(f: list, g: list, top: int, out: list = None) -> list:
    """f g in powers of gamma up to gamma^top, added to ``out`` when given."""
    if out is None:
        out = [0] * (top + 1)
    for i, x in enumerate(f):
        if x:
            for j in range(top + 1 - i):
                if g[j]:
                    out[i + j] += x * g[j]
    return out


# ---------------------------------------------------------------------------
# Half-vertices in floats: X = exp(xi U) and Y = exp(xi U'), with U and U'
# the one-box Pieri up-matrices, give
#     T(u) = e^{c gamma^2 (u-1)} X u^D Y^T,   xi = gamma (1 - u).
# The exact check multiplies the exact path blocks above instead.
# ---------------------------------------------------------------------------

MAX_DEPTH = 20  # 2714 states; each dense float matrix then takes about 59 MB


def pieri_up_matrices(depth: int, q: Fraction, t: Fraction):
    """One-box Pieri up-matrices (U, U') over ``partitions_up_to(depth)``, as
    their blocks between consecutive weight levels.

    U[lam, nu] = psi_{lam/nu} and U'[lam, nu] = phi_{lam/nu} when lam is nu
    plus one box, and 0 otherwise.  Both raise the weight by exactly one, so
    they are nilpotent on the truncated space and their other entries vanish:
    block w - 1 of each list, for w = 1..depth, is the (partitions_of(w),
    partitions_of(w - 1)) block.
    """
    import numpy as np

    up, up_dual = [], []
    for w in range(1, depth + 1):
        index = {lam: i for i, lam in enumerate(partitions_of(w))}
        block = np.zeros((2, len(index), len(partitions_of(w - 1))))
        for j, nu in enumerate(partitions_of(w - 1)):
            for lam in add_one_box(nu):
                psi, phi = macdonald.pieri(lam, nu, q, t)
                block[:, index[lam], j] = float(psi), float(phi)
        up.append(block[0])
        up_dual.append(block[1])
    return up, up_dual


def _half_vertex(up, sizes, xi: float):
    """exp(xi U) for the level blocks ``up`` of a U that raises the weight
    ``sizes`` by one.

    U^k only joins states k boxes apart, so exp(xi U) is the path-sum matrix
    sum_k U^k times xi^d / d!, d = |lam| - |nu|.  The path sums are built
    level by level: the rows of weight w are U @ (the rows of weight w-1).
    """
    import numpy as np

    depth = len(up)
    bounds = np.searchsorted(sizes, np.arange(depth + 2))
    paths = np.eye(len(sizes))
    for w in range(1, depth + 1):
        paths[bounds[w]:bounds[w + 1]] += up[w - 1] @ paths[bounds[w - 1]:bounds[w]]
    try:
        coef = np.array([xi ** d / math.factorial(d) for d in range(depth + 1)])
    except OverflowError:
        raise ValueError(f"xi = gamma (1 - u) = {xi:.3g} overflows a double "
                         f"at depth {depth}") from None
    for w in range(1, depth + 1):  # the rows of weight w, from levels 0..w
        paths[bounds[w]:bounds[w + 1], :bounds[w + 1]] *= coef[w - sizes[:bounds[w + 1]]]
    return paths


def _sandwich(gamma: float, u: float, depth: int, q: Fraction, t: Fraction):
    """(prefactor, X, u^|nu|, Y) with T(u) = prefactor * X diag(u^|nu|) Y^T."""
    import numpy as np

    if depth > MAX_DEPTH:
        raise ValueError(f"depth must be at most {MAX_DEPTH}")
    sizes = np.array([weight(lam) for lam in partitions_up_to(depth)])
    up, up_dual = pieri_up_matrices(depth, q, t)
    xi = gamma * (1.0 - u)
    c = float((1 - t) / (1 - q))
    pref = math.exp(c * gamma * gamma * (u - 1.0))
    return (pref, _half_vertex(up, sizes, xi), u ** sizes.astype(float),
            _half_vertex(up_dual, sizes, xi))


class TransferMatrix:
    """Float matrix of the transfer operator over states of weight <= depth."""

    def __init__(self, states, entries, gamma, u):
        self.states = states
        self.entries = entries  # numpy array indexed like states
        self.gamma = gamma
        self.u = u


def transfer_matrix(gamma, u, depth: int, q: Fraction, t: Fraction,
                    mode: str = "float") -> TransferMatrix:
    """Truncated transfer matrix over all partitions of weight <= depth.

    Multiplies the half-vertex sandwich in doubles with numpy; an entry that
    overflows is a ValueError.  ``mode`` accepts only "float"; exact entries
    are built from the level path blocks, see ``semigroup_defect``.
    """
    import numpy as np

    if mode != "float":
        raise ValueError("transfer_matrix is float only")
    pref, x, decay, y = _sandwich(float(gamma), float(u), depth, q, t)
    with np.errstate(over="ignore", invalid="ignore"):
        x *= decay
        entries = x @ y.T
        entries *= pref
    _refuse_overflow(np.isfinite(entries).all(), gamma, depth)
    return TransferMatrix(partitions_up_to(depth), entries, gamma, u)


def _refuse_overflow(finite: bool, gamma, depth: int) -> None:
    """The one-line ValueError of a transfer matrix or trace that is not finite."""
    if not finite:
        raise ValueError(f"gamma = {float(gamma):g} overflows a double in the "
                         f"transfer matrix at depth {depth}")


def spot_check_float_entries(tm: TransferMatrix, q: Fraction, t: Fraction,
                             rng, frac: float = 0.01, tol: float = 1e-9) -> int:
    """Compare a sample of float entries against exact rationals.

    Checks ``frac`` n^2 entries drawn with ``rng``, or every entry once
    ``frac`` >= 1.  The exact side is sum_k c_k xi^k with the c_k of
    ``_entry_power_coeffs``, not the half-vertex sandwich.  Returns the
    number of checked entries; raises on disagreement beyond tol.
    """
    states = tm.states
    n = len(states)
    count = max(1, int(frac * n * n))
    if count >= n * n:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    gf = Fraction(tm.gamma).limit_denominator(10**6)
    uf = Fraction(tm.u).limit_denominator(10**6)
    xi = gf * (1 - uf)
    xis = [(xi.numerator**k, xi.denominator**k)
           for k in range(2 * weight(states[-1]) + 1)]
    c = float((1 - t) / (1 - q))
    pref = math.exp(c * float(gf) * float(gf) * (float(uf) - 1.0))
    for i, j in pairs:
        lam, mu = states[i], states[j]
        num, den = 0, 1  # sum_k c_k xi^k, exact
        for k, ck in _entry_power_coeffs(lam, mu, uf, q, t).items():
            a, b = ck.numerator * xis[k][0], ck.denominator * xis[k][1]
            num, den = num * b + a * den, den * b
        expect = pref * float(Fraction(num, den))
        got = tm.entries[i, j]
        if abs(got - expect) > tol * max(1.0, abs(expect)):
            raise AssertionError(f"float entry check failed at {lam},{mu}")
    return len(pairs)


def semigroup_defect(gamma, u, v, depth: int, q, t, reserve: int = 4,
                     mode: str = "exact", ring: SeriesRing = None):
    """Exact check of T(u) T(v) = T(uv) on the safe block.

    The safe block keeps |lam| + |mu| <= depth - reserve, where the truncated
    sum over intermediate states cannot leak within the gamma truncation
    (missing terms carry gamma degree > 2 depth - |lam| - |mu| >= cutoff+1).
    ``gamma`` is a TruncSeries without constant term in ``ring``, which
    truncates the prefactor exponentials too; ``mode`` accepts only "exact".
    T(u) is built on the block's rows, T(v) on its columns and T(uv) on the
    block from one set of level path blocks, as polynomials in gamma, and
    the three prefactors are applied once per entry.  Returns 0 when the
    identity holds; otherwise (lam, mu, defect) for the first failing entry
    in the order of ``partitions_up_to``, defect being T(u) T(v) - T(uv) there
    as a series in gamma.
    """
    if mode != "exact":
        raise ValueError("semigroup_defect is exact only")
    pows = _gamma_powers(gamma, ring)
    top = len(pows) - 1
    uf, vf = Fraction(u), Fraction(v)
    states = partitions_up_to(depth)
    small = [lam for lam in states if weight(lam) <= depth - reserve]
    # T_{lam,kap}(u) T_{kap,mu}(v) has gamma degree at least
    # ||lam| - |kap|| + ||kap| - |mu||, which exceeds top on the safe
    # block once 2 |kap| > top + depth - reserve
    mid = [kap for kap in states if weight(kap) <= (top + depth - reserve) // 2]
    tu = _level_entries(uf, small, mid, top, q, t)
    tv = _level_entries(vf, mid, small, top, q, t)
    tuv = _level_entries(uf * vf, small, small, top, q, t)
    left = _poly_mul(_prefactor(uf, q, t, top), _prefactor(vf, q, t, top), top)
    right = _prefactor(uf * vf, q, t, top)
    zero = [0] * (top + 1)
    for lam in small:
        for mu in small:
            if weight(lam) + weight(mu) > depth - reserve:
                continue
            acc = [0] * (top + 1)
            for kap, a in tu.get(lam, {}).items():
                b = tv.get(kap, {}).get(mu)
                if b is not None:
                    _poly_mul(a, b, top, acc)
            diff = [x - y for x, y in zip(
                _poly_mul(left, acc, top),
                _poly_mul(right, tuv.get(lam, {}).get(mu, zero), top))]
            if any(diff):
                return lam, mu, series.linear_combination(ring, zip(diff, pows))
    return Fraction(0)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

MIN_CYCLE_MASS = 1e-12  # a smaller truncated cycle trace cannot be normalised
MIN_EXPECTED = 5.0  # chi-square bins expecting fewer draws pool into a tail
# bytes of cumulative conditional rows one sampler call keeps: at depth 16 and
# gamma 4, 20000 four-time samples visit 30843 distinct rows (226 MB)
MEMO_BYTES = 1 << 25
# random() values one numpy pass of the stream draws, for STREAM_BLOCK //
# len(times) samples: a pass makes about 10000 vector operations whatever its
# length, and holds about 64 bytes per value (2 MB)
STREAM_BLOCK = 1 << 15


def check_domain(gamma: float, beta: float, depth: int) -> None:
    """Raise ValueError unless the float sampler can run at these values."""
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must lie in [0, {MAX_DEPTH}]: the dense transfer "
                         "matrices grow with the partitions of weight <= depth")
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError("gamma must be finite and nonnegative")
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError("beta must be finite and positive")


class TrajectorySpec:
    def __init__(self, beta: float, gamma: float, times, depth: int,
                 seed: int, count: int):
        check_domain(gamma, beta, depth)
        if not isinstance(seed, int):
            raise TypeError(f"seed {seed!r} is not an int")
        times = list(times)
        if not times or times[0] != 0.0:
            raise ValueError("times must start at 0")
        if any(b2 <= b1 for b1, b2 in zip(times, times[1:])) or times[-1] >= beta \
                or not all(map(math.isfinite, times)):
            raise ValueError("times must increase strictly inside [0, beta)")
        self.beta = beta
        self.gamma = gamma
        self.times = times
        self.depth = depth
        self.seed = seed
        self.count = count


def _inverse_cdf(cum, xs):
    """For each x, the first i with x < cum[i], strictly, else the last i."""
    return cum.searchsorted(xs, side="right").clip(max=len(cum) - 1)


def gap_matrices(spec: TrajectorySpec, q: Fraction, t: Fraction) -> list:
    """Float transfer matrices over the gaps of the time grid, wrapping to beta."""
    times = spec.times + [spec.beta]
    return [transfer_matrix(spec.gamma, math.exp(-(b - a)), spec.depth, q, t).entries
            for a, b in zip(times, times[1:])]


def dropped_mass(mats, beta: float) -> float:
    """Cycle mass the truncation drops: 1 - tr(M_0 ... M_last) (u;u)_inf.

    The gaps compose by the semigroup property, and the untruncated cycle has
    trace 1/(u;u)_inf with u = e^{-beta}.  The trace contracts M_0 with
    M_1 ... M_last, without forming the cycle itself.
    """
    import numpy as np

    first, *rest = mats
    trace = np.einsum("ij,ji->", first, reduce(np.matmul, rest)) if rest else first.trace()
    u = math.exp(-beta)
    euler, k = 1.0, 1
    while euler > 0.0 and u ** k > 1e-17:
        euler *= 1.0 - u ** k
        k += 1
    return 1.0 - float(trace) * euler


def _draw_blocks(spec: TrajectorySpec, q: Fraction, t: Fraction, mats):
    """Yield the (samples x times) state indices of each stream block."""
    import numpy as np

    if any((m < 0).any() for m in mats):
        raise ValueError(f"negative transfer weight at (q, t) = ({q}, {t}): "
                         "the trajectory law is not a probability measure")
    n = len(mats[0])
    # suffix[i] = M_i M_{i+1} ... M_{last}
    suffix = list(accumulate(mats[::-1], lambda acc, m: m @ acc))[::-1]
    diag = suffix[0].diagonal()
    total = diag.sum()
    if total < MIN_CYCLE_MASS:
        raise ValueError("truncated cycle mass is degenerate; raise depth")
    cum0 = np.cumsum(diag / total)
    rows = {}  # (step, prev * n + i0) -> cumulative conditional row
    block = max(1, STREAM_BLOCK // len(spec.times))  # samples per block
    for start in range(0, spec.count, block):
        xs = random_rows(spec.seed * 1_000_003 + start,
                         min(block, spec.count - start), len(spec.times))
        idx = np.empty(xs.shape, int)
        idx[:, 0] = _inverse_cdf(cum0, xs[:, 0])
        for step in range(1, len(spec.times)):
            # one stable sort groups the samples; a group starts where the key changes
            keys = idx[:, step - 1] * n + idx[:, 0]
            order = np.argsort(keys, kind="stable")
            starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
            for key, at in zip(keys[order[starts]].tolist(), np.split(order, starts[1:])):
                cum = rows.get((step, key))
                if cum is None:
                    prev, i0 = divmod(key, n)
                    w = mats[step - 1][prev, :] * suffix[step][:, i0]
                    s = w.sum()
                    if s <= 0:
                        raise ValueError("conditional mass vanished; raise depth")
                    cum = np.cumsum(w / s)
                    if len(rows) < MEMO_BYTES // (8 * n):
                        rows[step, key] = cum
                idx[at, step] = _inverse_cdf(cum, xs[at, step])
        yield idx


def sample_trajectories(spec: TrajectorySpec, q: Fraction, t: Fraction, mats=None):
    """Yield sampled trajectories [(time, partition), ...] for spec.count runs.

    The law is proportional to prod_i M_i[lam^i, lam^{i+1}], lam^{n+1} =
    lam^0, with M_i = ``gap_matrices(spec, q, t)``[i] (or ``mats``[i]).

    Stream contract: one MT19937 generator is reseeded to
    seed * 1000003 + k before sample k, and each state takes one
    ``random()`` value x by inverse CDF: the first index i with x < c_i,
    strictly, where c is the left-to-right cumulative sum of the normalised
    row (the last index when x is not below any c_i).  The stream is drawn
    in numpy, ``STREAM_BLOCK`` // len(times) samples at a time.  A row
    depends only on (step, previous state, first state): its sums are built
    once per call, up to ``MEMO_BYTES`` of them, and searched once per block
    step for all its draws.

    A negative gap-matrix entry (only algebraic points outside (0, 1)^2 give
    one) is a ValueError: the weights then define no law.
    """
    if mats is None:
        mats = gap_matrices(spec, q, t)
    pairs = [[(b, lam) for lam in partitions_up_to(spec.depth)] for b in spec.times]
    for idx in _draw_blocks(spec, q, t, mats):
        cols = [list(map(p.__getitem__, col)) for p, col in zip(pairs, idx.T.tolist())]
        yield from map(list, zip(*cols))


def truncated_trace_float(gamma: float, u: float, depth: int,
                          q: Fraction, t: Fraction) -> float:
    """Trace of the transfer matrix over states of weight <= depth; a trace
    that overflows a double is a ValueError, as in ``transfer_matrix``."""
    import numpy as np

    pref, x, decay, y = _sandwich(gamma, u, depth, q, t)
    with np.errstate(over="ignore", invalid="ignore"):
        x *= y
        trace = pref * float(x.sum(axis=0) @ decay)
    _refuse_overflow(math.isfinite(trace), gamma, depth)
    return trace


def transfer_cycle_weight(lams, gamma: Fraction, u_list, q: Fraction,
                          t: Fraction) -> Fraction:
    """Cyclic product of transfer entries, scalar prefactors dropped.

    Gap decay factors u_i = e^{-(b_{i+1}-b_i)} are passed directly as exact
    rationals; the dropped exponential prefactors do not depend on the states,
    so this is proportional to the finite-dimensional law at fixed times, and
    to the marginal weight of ``process.time_grid_process`` at the same
    decays.  A gamma or decay that is not an int or a Fraction is a
    TypeError, as it is for ``time_grid_process``.
    """
    for x in (gamma, *u_list):
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"{x!r} is not rational")
    n = len(lams)
    total = Fraction(1)
    for i in range(n):
        coeffs = _entry_power_coeffs(lams[i], lams[(i + 1) % n], u_list[i], q, t)
        xi = gamma * (1 - u_list[i])
        total *= sum((c * xi**k for k, c in coeffs.items()), Fraction(0))
    return total


def chi_square_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square distributed with integer ``dof`` >= 1.

    Even dof 2m: the Poisson tail e^{-x/2} sum_{j<m} (x/2)^j / j!.  Odd dof
    2m+1: erfc(sqrt(x/2)) + e^{-x/2} sum_{j=1..m} (x/2)^{j-1/2} / Gamma(j+1/2).
    Every term is positive, so the sums cancel nothing.
    """
    if dof < 1:
        raise ValueError("dof must be at least 1")
    x = float(x)
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = x / 2
    if dof % 2 == 0:
        term = total = math.exp(-h)
        for j in range(1, dof // 2):
            term *= h / j
            total += term
        return total
    total = math.erfc(math.sqrt(h))
    term = math.exp(-h) * math.sqrt(h) / math.gamma(1.5)
    for j in range(1, dof // 2 + 1):
        total += term
        term *= h / (j + 0.5)
    return total


def marginal_chi_square(gamma: float, beta: float, depth: int, q: Fraction,
                        t: Fraction, samples: int, seed: int) -> dict:
    """Goodness-of-fit of sampled single-time states against the exact law.

    Bins with expected count below ``MIN_EXPECTED`` are pooled into a tail
    bin before the chi-square statistic is formed; fewer than two bins is a
    ValueError.
    """
    import numpy as np

    spec = TrajectorySpec(beta, gamma, [0.0], depth, seed, samples)
    mats = gap_matrices(spec, q, t)
    states = partitions_up_to(depth)
    observed = sum((np.bincount(idx[:, 0], minlength=len(states))
                    for idx in _draw_blocks(spec, q, t, mats)),
                   np.zeros(len(states), int)).tolist()
    # read after sampling, which raises first when this mass is degenerate
    diag = mats[0].diagonal()
    probs = diag / diag.sum()
    expected = [p * samples for p in probs]
    main = [(o, e) for o, e in zip(observed, expected) if e >= MIN_EXPECTED]
    tail_o = sum(o for o, e in zip(observed, expected) if e < MIN_EXPECTED)
    tail_e = sum(e for o, e in zip(observed, expected) if e < MIN_EXPECTED)
    if tail_e > 0:
        main.append((tail_o, tail_e))
    stat = sum((o - e) ** 2 / e for o, e in main)
    dof = len(main) - 1
    if dof < 1:
        raise ValueError(f"{samples} samples fill fewer than two chi-square bins "
                         f"of expected count >= {MIN_EXPECTED:g}")
    pvalue = chi_square_sf(stat, dof)
    top = sorted(zip(states, probs, observed), key=lambda x: -x[1])[:8]
    return {"statistic": stat, "dof": dof, "p_value": pvalue,
            "bins": len(main), "samples": samples,
            "marginals": [{"partition": list(lam), "expected": p,
                           "observed_frequency": o / samples}
                          for lam, p, o in top]}


def trajectories_to_jsonl(trajs) -> str:
    lines = []
    for k, traj in enumerate(trajs):
        for b, lam in traj:
            lines.append(json.dumps(
                {"sample": k, "time": b, "partition": list(lam)}))
    return "\n".join(lines) + "\n"
