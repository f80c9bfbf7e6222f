"""Stationary periodic Plancherel dynamics on partitions.

The transfer operator at intensity gamma and decay u acts on the Fock space
as a sandwich of Plancherel half-vertices around u^D, with the scalar
prefactor exp(gamma^2 (u-1) (1-t)/(1-q)).  Its matrix elements in the P/Q
bases are weighted path counts in the Young graph (products of one-box Pieri
coefficients), and two engines compute them, which check each other.
``transfer_matrix`` builds the half-vertices bottom-up, one added box at a
time, as float matrices for sampling.  The one exact engine,
``_level_entries``, sums integer rows of path sums, built top-down from each
target partition one removed box at a time, into each entry's polynomial in
gamma: the float spot check, ``transfer_cycle_weight`` and the semigroup
check ``semigroup_defect`` read it.  The rows depend on no decay u, so T(u),
T(v) and T(uv) share them.

Finite-dimensional laws of the periodic process are cyclic products of
transfer matrices, one ``Cycle`` per time grid; the sampler draws the state
at time zero from its diagonal, then walks the conditionals of a seeded stream.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
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
def _down_edges(w: int, q: Fraction, t: Fraction) -> tuple:
    """For k = 1..w, per side, (scale, down): down[a] holds (b, c) for each
    partitions_of(k - 1)[b] that is partitions_of(k)[a] less one box, with
    Pieri edge weight c / scale."""
    if not w:
        return ()
    index = {mu: b for b, mu in enumerate(partitions_of(w - 1))}
    edges = [[(index[mu], macdonald.pieri(nu, mu, q, t)) for i, p in enumerate(nu)
              if i + 1 == len(nu) or p > nu[i + 1]
              for mu in [nu[:i] + (p - 1,) + nu[i + 1:] if p > 1 else nu[:i]]]
             for nu in partitions_of(w)]
    out = []
    for side in (0, 1):
        scale = lcm(*(c[side].denominator for es in edges for _, c in es))
        out.append((scale, [[(b, c[side].numerator * (scale // c[side].denominator))
                             for b, c in es] for es in edges]))
    return (*_down_edges(w - 1, q, t), out)


@per_point
def _top_rows(side: int, lam: tuple, q: Fraction, t: Fraction) -> list:
    """[(den, nums)] for k = 0..|lam|: nums[a] / den is the path sum, psi
    for side 0 and phi for side 1, from partitions_of(k)[a] up to lam,
    summed down from lam."""
    level = [int(nu == lam) for nu in partitions_of(weight(lam))]
    den, out, edges = 1, [(1, level)], _down_edges(weight(lam), q, t)
    for k in range(weight(lam), 0, -1):
        scale, down = edges[k - 1][side]
        below = [0] * len(partitions_of(k - 1))
        for x, es in zip(level, down):
            if x:
                for b, c in es:
                    below[b] += c * x
        h = gcd(den * scale, *below)
        den, level = den * scale // h, [x // h for x in below]
        out.append((den, level))
    return out[::-1]


@lru_cache(maxsize=1024)
def _plan(u: Fraction, wl: int, wm: int) -> tuple:
    """(k, j, scale, den) for k = 0..min(wl, wm): the term k of a (wl, wm)
    entry is G_k scale / den, of gamma degree j = wl + wm - 2k."""
    a, b = u.numerator, u.denominator
    return tuple((k, wl + wm - 2 * k, a**k * (b - a)**(wl + wm - 2 * k),
                  math.factorial(wl - k) * math.factorial(wm - k) * b ** (wl + wm - k))
                 for k in range(min(wl, wm) + 1))


def _level_entries(u: Fraction, rows, cols, top: int, q: Fraction, t: Fraction) -> dict:
    """Coefficients of gamma^0..gamma^top in T_{lam,mu}(u) / pref(u).

    The entry sums u^{|nu|} xi^{dl+dm} dim(nu->lam) dim'(nu->mu) / (dl! dm!)
    over common sub-partitions nu, dl = |lam| - |nu|, dm = |mu| - |nu| and
    xi = gamma (1 - u).  Grouped by k = |nu|,
        T_{lam,mu}(u) = pref(u) sum_k u^k xi^{|lam|+|mu|-2k} G_k[lam,mu]
                        / ((|lam|-k)! (|mu|-k)!),
    where G_k[lam,mu] is the dot product of the top-down rows k of lam (psi)
    and mu (phi).  The rows depend on neither u nor gamma, so T(u), T(v) and
    T(uv) share them.  Returns {lam: {mu: (nums, den)}}, the coefficient of
    gamma^j being nums[j] / den, over the lcm of its terms' denominators.
    Terms whose gamma degree |lam| + |mu| - 2k exceeds ``top`` are skipped,
    and an entry with no term left is left out.
    """
    plans = {(wl, wm): _plan(u, wl, wm)[max(0, (wl + wm - top + 1) // 2):]
             for wl in set(map(weight, rows)) for wm in set(map(weight, cols))}
    out = {}
    phis = [(mu, weight(mu), _top_rows(1, mu, q, t)) for mu in cols]
    for lam in rows:
        wl, psi = weight(lam), _top_rows(0, lam, q, t)
        for mu, wm, phi in phis:
            terms = [(j, num * scale, psi[k][0] * phi[k][0] * den)
                     for k, j, scale, den in plans[wl, wm]
                     if (num := sum(map(mul, psi[k][1], phi[k][1])))]
            if terms:
                den = lcm(*(d for _, _, d in terms))
                nums = [0] * (top + 1)
                for j, num, d in terms:
                    nums[j] = num * (den // d)
                out.setdefault(lam, {})[mu] = nums, den
    return out


_NO_ENTRY = ((0,), 1)  # an entry that _level_entries leaves out


def _at_gamma(entry, gamma: Fraction) -> tuple:
    """sum_j nums[j] gamma^j / den exactly for an entry (nums, den) of
    ``_level_entries``, as (num, den r^top) for gamma = p/r, in one Horner
    pass from the top coefficient down."""
    nums, den = entry
    p, r = gamma.numerator, gamma.denominator
    num, scale = 0, 1
    for c in reversed(nums):  # scale = r^(top - j) at coefficient j
        num = num * p + c * scale
        scale *= r
    return num, den * scale // r


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


def _prefactor(u: Fraction, q: Fraction, t: Fraction, top: int) -> tuple:
    """Coefficients of gamma^0..gamma^top in exp(x gamma^2), x = c (u - 1),
    as (nums, den): x^n / n! = nums[2n] / den, den = x.den^m m!, m = top // 2."""
    x, m, f = (1 - t) / (1 - q) * (u - 1), top // 2, math.factorial
    nums = [0] * (top + 1)
    nums[::2] = [x.numerator**n * x.denominator**(m - n) * f(m) // f(n) for n in range(m + 1)]
    return nums, x.denominator**m * f(m)


def _by_level(entry, levels, top: int) -> dict:
    """{w: (den, {j: vec})} for ``entry``, a map from partitions to entries
    (nums, d) of ``_level_entries`` or None: vec holds the gamma^j
    coefficients at the partitions of levels[w], 0 where there is no entry,
    as integers over den; zero vectors are left out."""
    out = {}
    for w, level in enumerate(levels):
        got = list(map(entry, level))
        if any(got):
            den = lcm(*(e[1] for e in got if e))
            vecs = zip(*([x * (den // e[1]) for x in e[0]] if e else (0,) * (top + 1)
                         for e in got))
            out[w] = den, {j: vec for j, vec in enumerate(vecs) if any(vec)}
    return out


def _poly_mul(f: list, g: list, top: int) -> list:
    """f g in powers of gamma up to gamma^top."""
    out = [0] * (top + 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g[:top + 1 - i], i):
                if y:
                    out[j] += x * y
    return out


# ---------------------------------------------------------------------------
# Half-vertices in floats: X = exp(xi U) and Y = exp(xi U'), with U and U'
# the one-box Pieri up-matrices, give
#     T(u) = e^{c gamma^2 (u-1)} X u^D Y^T,   xi = gamma (1 - u).
# ---------------------------------------------------------------------------

MAX_DEPTH = 20  # 2714 states; each dense float matrix then takes about 59 MB


@per_point
def _up_level(w: int, q: Fraction, t: Fraction) -> tuple:
    """The read-only (partitions_of(w), partitions_of(w - 1)) blocks of U and
    U', psi and phi of each one-box edge."""
    import numpy as np

    index = {lam: i for i, lam in enumerate(partitions_of(w))}
    block = np.zeros((2, len(index), len(partitions_of(w - 1))))
    for j, nu in enumerate(partitions_of(w - 1)):
        for lam in add_one_box(nu):  # psi and phi, each rounded once
            block[:, index[lam], j] = macdonald.pieri(lam, nu, q, t)
    block.setflags(write=False)  # a memo value: shared, never mutated
    return block[0], block[1]


@per_point
def pieri_up_matrices(depth: int, q: Fraction, t: Fraction) -> tuple:
    """One-box Pieri up-matrices (U, U') over ``partitions_up_to(depth)``, as
    tuples of their read-only blocks between consecutive weight levels.

    U[lam, nu] = psi_{lam/nu} and U'[lam, nu] = phi_{lam/nu} when lam is nu
    plus one box, and 0 otherwise.  Both raise the weight by exactly one, so
    they are nilpotent on the truncated space and their other entries vanish:
    block w - 1 of each tuple, for w = 1..depth, is the (partitions_of(w),
    partitions_of(w - 1)) block, memoised per level for every depth.
    """
    levels = [_up_level(w, q, t) for w in range(1, depth + 1)]
    return tuple(up for up, _ in levels), tuple(dual for _, dual in levels)


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
    are read from the top-down path rows, see ``semigroup_defect``.
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


class FloatEntryMismatch(AssertionError):
    """The first float entry of a spot check, in draw order, off its exact
    value; ``args`` = (lam, mu, float value, exact value, entries drawn)."""


def spot_check_float_entries(tm: TransferMatrix, q: Fraction, t: Fraction,
                             rng, frac: float = 0.01, tol: float = 1e-9) -> int:
    """Compare a sample of float entries against exact rationals.

    Checks ``frac`` n^2 entries drawn with ``rng``, or every entry once
    ``frac`` >= 1.  The exact side is the gamma polynomial of
    ``_level_entries``, one call per drawn row, not the half-vertex sandwich.
    Returns the number of checked entries; an entry off by more than tol is
    a FloatEntryMismatch.
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
    c = float((1 - t) / (1 - q))
    pref = math.exp(c * float(gf) * float(gf) * (float(uf) - 1.0))
    cols = {}  # row -> its drawn columns, once each
    for i, j in pairs:
        cols.setdefault(i, {})[j] = None
    exact = {}
    for i, js in cols.items():
        lam, mus = states[i], [states[j] for j in js]
        row = _level_entries(uf, [lam], mus, weight(lam) + max(map(weight, mus)),
                             q, t).get(lam, {})
        for j, mu in zip(js, mus):
            num, den = _at_gamma(row.get(mu, _NO_ENTRY), gf)
            exact[i, j] = pref * (num / den)  # rounded once, as float(num/den)
    for i, j in pairs:
        expect, got = exact[i, j], tm.entries[i, j]
        if abs(got - expect) > tol * max(1.0, abs(expect)):
            raise FloatEntryMismatch(states[i], states[j], float(got), expect, len(pairs))
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
    block from one set of top-down path rows, as polynomials in gamma, and
    the three prefactors are applied once per entry.  Returns 0 when the
    identity holds; otherwise (lam, mu, defect) for the first failing entry
    in the order of ``partitions_up_to``, defect being T(u) T(v) - T(uv) there
    as a series in gamma.
    """
    if mode != "exact":
        raise ValueError("semigroup_defect is exact only")
    pows = _gamma_powers(gamma, ring)
    top = len(pows) - 1
    uf, vf, safe = Fraction(u), Fraction(v), depth - reserve
    # T_{lam,kap}(u) T_{kap,mu}(v) has gamma degree at least
    # ||lam| - |kap|| + ||kap| - |mu||, which exceeds top on the safe
    # block once 2 |kap| > top + depth - reserve
    levels = [partitions_of(w) for w in range((top + safe) // 2 + 1)]
    mid, small = [kap for level in levels for kap in level], partitions_up_to(safe)
    tu = _level_entries(uf, small, mid, top, q, t)
    tv = _level_entries(vf, mid, small, top, q, t)
    rows = {lam: _by_level(tu.get(lam, {}).get, levels, top) for lam in small}
    cols = {mu: _by_level(lambda kap: tv.get(kap, {}).get(mu), levels, top) for mu in small}
    (pu, du), (pv, dv), (right, dr) = (_prefactor(x, q, t, top) for x in (uf, vf, uf * vf))
    left, dl = _poly_mul(pu, pv, top), du * dv
    for wl in range(safe + 1):
        block = partitions_up_to(safe - wl)
        tuv = _level_entries(uf * vf, partitions_of(wl), block, top, q, t)
        for lam, mu in product(partitions_of(wl), block):
            parts = []  # per level of kap: (den, the sum of T(u) T(v) over it)
            for w, (da, a) in rows[lam].items():
                if w in cols[mu]:
                    db, b = cols[mu][w]
                    part = [0] * (top + 1)
                    for (i, x), (j, y) in product(a.items(), b.items()):
                        if i + j <= top:
                            part[i + j] += sum(map(mul, x, y))
                    parts.append((da * db, part))
            den = lcm(*(d for d, _ in parts))
            acc = [sum(p[j] * (den // d) for d, p in parts) for j in range(top + 1)]
            c, dc = tuv.get(lam, {}).get(mu, _NO_ENTRY)
            # T(u) T(v) - T(uv) = (x - y) / (dl den dr dc)
            diff = [x * (dr * dc) - y * (dl * den) for x, y in zip(
                _poly_mul(left, acc, top), _poly_mul(right, c, top))]
            if any(diff):
                return lam, mu, series.linear_combination(
                    ring, ((Fraction(x, dl * den * dr * dc), g) for x, g in zip(diff, pows)))
    return Fraction(0)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

MIN_CYCLE_MASS = 1e-12  # a smaller truncated cycle trace cannot be normalised
MIN_EXPECTED = 5.0  # chi-square bins expecting fewer draws pool into a tail
# bytes of cumulative conditional rows one sampler call keeps: at depth 16 and
# gamma 4, 20000 four-time samples visit 30843 distinct rows (226 MB)
MEMO_BYTES = 1 << 25
# stream values one block draws, for STREAM_BLOCK // len(times) samples: the
# bound on a block's memory, as the stream holds 16 bytes per value (512 KB)
# and the block's state indices and sort keys a few times that
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
    import numpy as np

    return np.minimum(cum.searchsorted(xs, side="right"), len(cum) - 1)


class Cycle:
    """The gap matrices M_0 ... M_last of a spec's time grid, wrapping to
    beta, and what the sampler reads of their cycle, never formed itself:
    ``suffix[i]`` = M_i ... M_last for i >= 1, each product formed once, and
    ``diag``, the cycle's diagonal (M_0 contracted with suffix[1]), the law
    at time zero of total ``mass``.  A negative entry (only algebraic points
    outside (0, 1)^2 give one) or a mass below ``MIN_CYCLE_MASS`` is a
    ValueError: the weights then define no law.
    """

    def __init__(self, spec: TrajectorySpec, q: Fraction, t: Fraction):
        import numpy as np

        times = spec.times + [spec.beta]
        mats = [transfer_matrix(spec.gamma, math.exp(-(b - a)), spec.depth, q, t).entries
                for a, b in zip(times, times[1:])]
        if any((m < 0).any() for m in mats):
            raise ValueError(f"negative transfer weight at (q, t) = ({q}, {t}): "
                             "the trajectory law is not a probability measure")
        self.beta = spec.beta
        self.mats = mats
        self.suffix = [None, *reversed(list(accumulate(mats[:0:-1], lambda acc, m: m @ acc)))]
        self.diag = np.einsum("ij,ji->i", mats[0], self.suffix[1]) if len(mats) > 1 \
            else mats[0].diagonal()
        self.mass = self.diag.sum()
        if self.mass < MIN_CYCLE_MASS:
            raise ValueError("truncated cycle mass is degenerate; raise depth")


def dropped_mass(cycle: Cycle) -> float:
    """Cycle mass the truncation drops: 1 - tr(M_0 ... M_last) (u;u)_inf, the
    untruncated cycle having trace 1/(u;u)_inf with u = e^{-beta} (the gaps
    compose by the semigroup property)."""
    u = math.exp(-cycle.beta)
    euler, k = 1.0, 1
    while euler > 0.0 and u ** k > 1e-17:
        euler *= 1.0 - u ** k
        k += 1
    return 1.0 - float(cycle.mass) * euler


def _draw_blocks(spec: TrajectorySpec, cycle: Cycle):
    """Yield the (samples x times) state indices of each stream block."""
    import numpy as np

    mats, suffix = cycle.mats, cycle.suffix
    n = len(mats[0])
    cum0 = np.cumsum(cycle.diag / cycle.mass)
    rows = {}  # (step, prev * n + i0) -> cumulative conditional row
    block = max(1, STREAM_BLOCK // len(spec.times))  # samples per block
    for start in range(0, spec.count, block):
        xs = random_rows(spec.seed, start, min(block, spec.count - start),
                         len(spec.times))
        idx = np.empty(xs.shape, int)
        idx[:, 0] = _inverse_cdf(cum0, xs[:, 0])
        for step in range(1, len(spec.times)):
            # one stable sort groups the samples; a group starts where the key changes
            keys = idx[:, step - 1] * n + idx[:, 0]
            order = np.argsort(keys, kind="stable")
            keys, x = keys[order], xs[order, step]
            bounds = [*np.flatnonzero(np.diff(keys, prepend=-1)).tolist(), len(order)]
            drawn = np.empty(len(order), int)
            for key, a, b in zip(keys[bounds[:-1]].tolist(), bounds, bounds[1:]):
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
                drawn[a:b] = cum.searchsorted(x[a:b], side="right")
            idx[order, step] = np.minimum(drawn, n - 1)  # _inverse_cdf of each group
        yield idx


def sample_trajectories(spec: TrajectorySpec, q: Fraction, t: Fraction,
                        cycle: Cycle = None):
    """Yield sampled trajectories [(time, partition), ...] for spec.count runs.

    The law is proportional to prod_i M_i[lam^i, lam^{i+1}], lam^{n+1} =
    lam^0, with M_i the gap matrices of ``cycle`` (by default the spec's).

    Stream contract: the state at time j of sample k reads the stream value
    x = ``stream.random_rows``(spec.seed, k, 1, len(times))[0, j] by inverse
    CDF: the first index i with x < c_i, strictly, where c is the
    left-to-right cumulative sum of the normalised row (the last index when
    x is not below any c_i).  The row at time zero is the diagonal of the
    cycle M_0 ... M_last, and at time j > 0 the conditional law given the
    states at times j - 1 and 0.  The stream is drawn ``STREAM_BLOCK`` //
    len(times) samples at a time, and no sample's states depend on that
    split.  A row depends only on (step, previous state, first state): its
    sums are built once per call, up to ``MEMO_BYTES`` of them, and searched
    once per block step for all its draws.
    """
    if cycle is None:
        cycle = Cycle(spec, q, t)
    pairs = [[(b, lam) for lam in partitions_up_to(spec.depth)] for b in spec.times]
    for idx in _draw_blocks(spec, cycle):
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
    TypeError, as it is for ``time_grid_process``, and a decay list whose
    length is not that of ``lams`` (one gap after each state) is a ValueError.
    """
    if len(u_list) != len(lams):
        raise ValueError(f"{len(lams)} states need as many decays, got {len(u_list)}")
    for x in (gamma, *u_list):
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"{x!r} is not rational")
    total = Fraction(1)
    for lam, mu, u in zip(lams, [*lams[1:], *lams[:1]], u_list):
        row = _level_entries(u, [lam], [mu], weight(lam) + weight(mu), q, t)
        total *= Fraction(*_at_gamma(row.get(lam, {}).get(mu, _NO_ENTRY), Fraction(gamma)))
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
    """Goodness-of-fit of sampled single-time states against the float law.

    The law is the normalised diagonal of the float transfer matrix
    T(e^-beta) that the sampler draws from, truncated at ``depth``, so the
    test checks the sampler and its stream, not the truncation or the float
    entries (``semigroup_defect`` and ``spot_check_float_entries`` check
    those against exact rationals).

    Bins with expected count below ``MIN_EXPECTED`` are pooled into a tail
    bin before the chi-square statistic is formed; fewer than two bins is a
    ValueError.
    """
    import numpy as np

    spec = TrajectorySpec(beta, gamma, [0.0], depth, seed, samples)
    cycle = Cycle(spec, q, t)
    states = partitions_up_to(depth)
    observed = sum((np.bincount(idx[:, 0], minlength=len(states))
                    for idx in _draw_blocks(spec, cycle)),
                   np.zeros(len(states), int)).tolist()
    probs = cycle.diag / cycle.mass
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
