"""The four benchmark workloads as lists of checked jobs.

Every job pairs a closed form (or a computation the program claims is
right) with an independent oracle and a zero-tolerance check.  Inputs come
from the workload seed only.  The (q, t) points have fixed prime
denominators, because exact costs grow with the size of the rationals:
points of one shape cost about the same, so runs at different seeds stay
comparable.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

from permac import cache, cylindric, fock, macdonald, partitions, plancherel, process
from permac.scalars import format_rational
from permac.series import SeriesRing

HERE = os.path.dirname(os.path.abspath(__file__))

# sampler law: intensity, period and the 3-time grid
GAMMA, BETA, TIMES = 0.85, 1.0, (0.0, 0.3, 0.6)
# a correct sampler fails a seeded chi-square test at level p with
# probability p, so the gate sits far in the tail
CHI_SQUARE_P_MIN = 1e-4


class Job:
    """One check: ``closed`` and ``oracle`` are timed separately, then compared.

    ``check(closed_value, oracle_value)`` decides the outcome; the default is
    exact equality.  A job whose identity is checked inside one permac call
    has only an ``oracle`` and a check on its report.
    """

    def __init__(self, name, params, closed=None, oracle=None, check=None):
        self.name = name
        self.params = params
        self.closed = closed
        self.oracle = oracle
        self.check = check or (lambda a, b: a == b)


class Mismatch:
    """Stands in for an oracle value that cannot match (the injected fault)."""

    def __eq__(self, other):
        return False

    __hash__ = None


class Workload:
    """Jobs of one pass; ``extras`` collects figures the jobs report.

    ``observe`` computes traced-pass observations after the timed jobs;
    ``cleanup`` removes what set-up wrote.
    """

    def __init__(self, jobs, extras, cleanup=None, observe=None):
        self.jobs = jobs
        self.extras = extras
        self.cleanup = cleanup
        self.observe = observe


def qt_point(rng):
    """(q, t) = (a/97, b/89) with mid-range numerators."""
    return Fraction(rng.randint(30, 70), 97), Fraction(rng.randint(30, 60), 89)


def _pt(q, t):
    return {"q": format_rational(q), "t": format_rational(t)}


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _alpha_process(N, q, t, cutoff):
    names = [f"a{i}" for i in range(N)] + [f"b{j}" for j in range(1, N + 1)]
    ring = SeriesRing(["u"] + names, cutoff)
    plus = [macdonald.alpha_spec([(f"a{i}", 1)], ring) for i in range(N)]
    minus = [macdonald.alpha_spec([(f"b{j}", 1)], ring) for j in range(1, N + 1)]
    return process.ProcessSpec(ring, q, t, ring.gen("u"), plus, minus)


def _moment_job(rng, tag, r, N, cutoff):
    q, t = qt_point(rng)
    ps = _alpha_process(N, q, t, cutoff)
    series_r = [(tag, r)] * N
    return Job("moment", {"series": tag, "r": r, "N": N, "cutoff": cutoff, **_pt(q, t)},
               closed=lambda: process.moment_formula(ps, series_r),
               oracle=lambda: process.moment_bruteforce(ps, series_r, cutoff))


def _partition_job(rng, N, cutoff):
    q, t = qt_point(rng)
    ps = _alpha_process(N, q, t, cutoff)
    return Job("partition_function", {"N": N, "cutoff": cutoff, **_pt(q, t)},
               closed=lambda: process.partition_function_closed(ps),
               oracle=lambda: process.partition_function_bruteforce(ps, cutoff))


def _fock_trace_job(rng, u_deg):
    q, t = qt_point(rng)
    ring = SeriesRing(["u", "a", "b"], u_deg)

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    spec = fock.VertexSpec({n: ring.monomial(coeff(), a=n) for n in (1, 2)},
                           {n: ring.monomial(coeff(), b=n) for n in (1, 2)})
    return Job("fock_trace", {"u_deg": u_deg, **_pt(q, t)},
               closed=lambda: fock.trace_closed(spec, ring, "u", q, t),
               oracle=lambda: fock.trace_bruteforce(
                   lambda v: fock.vertex_apply(spec, v, q, t, degree_cap=u_deg),
                   ring, "u", u_deg, q, t))


def _report_job(name, params, call, field):
    return Job(name, params, oracle=call, check=lambda _, rep: rep[field] is True)


def build_kernels(rng, fast):
    if fast:
        return [_moment_job(rng, "E", 1, 1, 3)]
    jobs = [_moment_job(rng, "E", r, 1, 5) for r in (1, 2, 3)]
    jobs += [_moment_job(rng, tag, 2, 1, 4) for tag in ("E'", "G", "G'")]
    jobs += [_moment_job(rng, "E", 1, N, 5) for N in (2, 3)]
    jobs.append(_moment_job(rng, "E", 2, 2, 3))
    jobs += [_partition_job(rng, N, 6) for N in (2, 3)]
    jobs += [_fock_trace_job(rng, 7) for _ in range(3)]
    q, t = qt_point(rng)
    jobs.append(_report_job("cor_b2", {"grade": 5, **_pt(q, t)},
                            lambda: cylindric.cor_b2_check(5, q, t), "match"))
    for nu, size in (((1,), 3), ((2, 1), 2)):
        q, t = qt_point(rng)
        jobs.append(_report_job(
            "thm_b1", {"nu": list(nu), "u_cutoff": size, "window": size, **_pt(q, t)},
            lambda nu=nu, size=size, q=q, t=t: cylindric.thm_b1_check(nu, size, size, q, t),
            "match"))
    for N, M in ((1, (1,)), (2, (1,)), (3, (1, 3)), (3, (2,))):
        q, t = qt_point(rng)
        profile = cylindric.CylindricProfile(N, M)
        jobs.append(_report_job(
            "macmahon", {"N": N, "M": list(M), "s_deg": 6, **_pt(q, t)},
            lambda profile=profile, q=q, t=t: cylindric.macmahon_verify(profile, 6, q, t),
            "verified"))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _unitriangular(table):
    return all(mrep.get(lam) == 1
               and all(partitions.dominance_leq(mu, lam) for mu in mrep)
               for lam, mrep in table["P"].items())


def _nonzero(d):
    return {k: v for k, v in d.items() if v}


def _pieri_product(r, q, t, max_mu):
    """P_mu g_r and Q_mu g_r multiplied out in the p basis, |mu| <= max_mu."""
    g = macdonald.g_row_p(r, q, t)
    out = []
    for mu in partitions.partitions_up_to(max_mu):
        for expand in (macdonald.macdonald_P_p, macdonald.macdonald_Q_p):
            prod = {}
            for k1, c1 in expand(mu, q, t).items():
                for k2, c2 in g.items():
                    key = tuple(sorted(k1 + k2, reverse=True))
                    prod[key] = prod.get(key, 0) + c1 * c2
            out.append(_nonzero(prod))
    return out


def _pieri_expansion(r, q, t, max_mu):
    """The same products by the Pieri rule: sum over strips of phi P_lam (psi Q_lam)."""
    out = []
    for mu in partitions.partitions_up_to(max_mu):
        for expand, side in ((macdonald.macdonald_P_p, 1), (macdonald.macdonald_Q_p, 0)):
            total = {}
            for lam in partitions.partitions_of(partitions.weight(mu) + r):
                if not partitions.horizontal_strip(lam, mu):
                    continue
                coeff = macdonald.pieri(lam, mu, q, t)[side]
                for k, c in expand(lam, q, t).items():
                    total[k] = total.get(k, 0) + coeff * c
            out.append(_nonzero(total))
    return out


def _eigen_applied(family, q, t, max_weight):
    return [fock.free_field_apply(family, r, macdonald.macdonald_P_p(lam, q, t), q, t)
            for lam in partitions.partitions_up_to(max_weight) for r in (1, 2)]


def _eigen_scaled(family, q, t, max_weight):
    return [fock.fock_scale(macdonald.macdonald_P_p(lam, q, t),
                            macdonald.eigenvalue(family, r, lam, q, t))
            for lam in partitions.partitions_up_to(max_weight) for r in (1, 2)]


def _duality_matrix(n, q, t):
    lams = partitions.partitions_of(n)
    return [[macdonald.inner_product(macdonald.macdonald_P_p(lam, q, t),
                                     macdonald.macdonald_Q_p(mu, q, t), q, t)
             for mu in lams] for lam in lams]


def build_tables(rng, fast):
    points = [qt_point(rng)] if fast else [qt_point(rng), qt_point(rng)]
    weights = range(4) if fast else range(12)
    builds = [Job("table", {"weight": n, **_pt(q, t)},
                  closed=lambda q=q, t=t, n=n: macdonald.macdonald_table(q, t, n),
                  check=lambda table, _: _unitriangular(table))
              for q, t in points for n in weights]
    rng.shuffle(builds)
    if fast:
        return builds
    checks = []
    q, t = points[0]
    for n in range(7):
        checks.append(Job(
            "inversion", {"weight": n, **_pt(q, t)},
            closed=lambda n=n: macdonald.macdonald_table(1 / q, 1 / t, n)["P"],
            oracle=lambda n=n: macdonald.macdonald_table(q, t, n)["P"]))
    for q, t in points:
        for n in range(6):
            size = len(partitions.partitions_of(n))
            identity = [[int(i == j) for j in range(size)] for i in range(size)]
            checks.append(Job("duality", {"weight": n, **_pt(q, t)},
                              closed=lambda n=n, q=q, t=t: _duality_matrix(n, q, t),
                              oracle=lambda identity=identity: identity))
        for r in (1, 2, 3):
            checks.append(Job("pieri_rule", {"r": r, "max_mu": 4, **_pt(q, t)},
                              closed=lambda r=r, q=q, t=t: _pieri_expansion(r, q, t, 4),
                              oracle=lambda r=r, q=q, t=t: _pieri_product(r, q, t, 4)))
        for family in fock.FREE_FIELD_FAMILIES:
            checks.append(Job("eigen", {"family": family, "max_weight": 3, **_pt(q, t)},
                              closed=lambda f=family, q=q, t=t: _eigen_applied(f, q, t, 3),
                              oracle=lambda f=family, q=q, t=t: _eigen_scaled(f, q, t, 3)))
    rng.shuffle(checks)
    return builds + checks


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def _valid_trajectories(trajs, times, depth):
    return all(len(tr) == len(times)
               and all(b == b0 and partitions.weight(lam) <= depth
                       for (b, lam), b0 in zip(tr, times))
               for tr in trajs)


def euler_float(u: float) -> float:
    """(u; u)_infinity in floating point."""
    out, n = 1.0, 1
    while u ** n > 1e-17:
        out *= 1.0 - u ** n
        n += 1
    return out


def dropped_mass(depth: int, q, t) -> dict:
    """Probability mass each sampled cycle loses to the depth truncation.

    The full trace of a cycle is 1/(u;u)_inf with u = e^{-beta} (the gaps
    compose by the semigroup property), so the sampler keeps
    trace x (u;u)_inf of it: the truncated trace for the 1-time spec, the
    trace of the product of the truncated gap matrices for the 3-time spec.
    """
    u = math.exp(-BETA)
    grid = list(TIMES) + [BETA]
    cycle = None
    for i in range(len(TIMES)):
        m = plancherel.transfer_matrix(GAMMA, math.exp(grid[i] - grid[i + 1]), depth, q, t,
                                       mode="float").entries
        cycle = m if cycle is None else cycle @ m
    return {"1-time cycle": 1.0 - plancherel.truncated_trace_float(GAMMA, u, depth, q, t)
            * euler_float(u),
            "3-time cycle": 1.0 - float(cycle.trace()) * euler_float(u)}


def build_sampler(rng, fast, extras):
    q, t = qt_point(rng)
    stream = rng.randrange(1 << 30)
    depth, count = (4, 300) if fast else (8, 30000)
    spec = plancherel.TrajectorySpec(BETA, GAMMA, list(TIMES), depth, stream, count)

    def sample():
        started = time.perf_counter()
        draws = plancherel.sample_trajectories(spec, q, t)
        first = next(draws)
        got_first = time.perf_counter()
        rest = list(draws)
        done = time.perf_counter()
        extras["first_sample_s"] = got_first - started
        extras["samples_per_s"] = len(rest) / (done - got_first)
        return [first] + rest

    # fixed order: the first job must meet cold path-sum caches, so that
    # first_sample_s includes the whole transfer-matrix build
    jobs = [Job("sample", {"times": len(TIMES), "depth": depth, "count": count,
                           "stream": stream, **_pt(q, t)},
                closed=sample,
                check=lambda trajs, _: len(trajs) == count
                and _valid_trajectories(trajs, TIMES, depth))]
    if fast:
        return jobs, lambda: {"dropped_mass": dropped_mass(depth, q, t)}
    tm_depth = 10
    jobs.append(Job(
        "transfer_matrix", {"depth": tm_depth, **_pt(q, t)},
        closed=lambda: plancherel.transfer_matrix(GAMMA, math.exp(-BETA), tm_depth, q, t),
        check=lambda tm, _: plancherel.spot_check_float_entries(
            tm, q, t, random.Random(stream), frac=0.01) > 0))
    samples = 60000
    jobs.append(Job(
        "chi_square", {"depth": depth, "samples": samples, "stream": stream + 1, **_pt(q, t)},
        closed=lambda: plancherel.marginal_chi_square(GAMMA, BETA, depth, q, t,
                                                      samples=samples, seed=stream + 1),
        check=lambda rep, _: rep["p_value"] > CHI_SQUARE_P_MIN))
    u, v = Fraction(rng.randint(1, 6), 7), Fraction(rng.randint(1, 7), 8)
    ring = SeriesRing(["g"], 6)
    jobs.append(Job(
        "semigroup", {"depth": depth, "reserve": 4, "u": str(u), "v": str(v), **_pt(q, t)},
        closed=lambda: plancherel.semigroup_defect(ring.gen("g"), u, v, depth, q, t,
                                                   reserve=4, mode="exact", ring=ring),
        oracle=lambda: 0))
    return jobs, lambda: {"dropped_mass": dropped_mass(depth, q, t)}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_TABLE_WEIGHTS = (9, 10, 11)


def _horizontal_strip_below(rng, lam):
    """A seeded mu with lam/mu a nonempty horizontal strip."""
    while True:
        parts = [rng.randint(lam[i + 1] if i + 1 < len(lam) else 0, lam[i])
                 for i in range(len(lam))]
        mu = partitions.make_partition(p for p in parts if p)
        if mu != lam:
            return mu


def _cli_check(argv, rc, text):
    """Exit 0, and every self-check the report carries holds."""
    if rc != 0:
        return False
    if argv[:2] == ["plancherel", "sample"]:
        return bool(text.strip())
    rep = json.loads(text)
    for field in ("oracle_match", "verified"):
        if field in rep and rep[field] is not True:
            return False
    if argv[:2] == ["macdonald", "expand"] and "--kind" not in argv:
        lam = ",".join(str(p) for p in rep["params"]["lambda"])
        lam_t = tuple(rep["params"]["lambda"])
        coeffs = rep["coefficients"]
        return coeffs.get(lam) == "1" and all(
            partitions.dominance_leq(
                tuple(int(x) for x in mu.split(",") if x), lam_t)
            for mu in coeffs)
    if argv[:2] == ["macdonald", "pieri"]:
        return rep["psi"] != "0" and rep["phi"] != "0"
    return True


def _readme_commands(rng, seed):
    def qt():
        q, t = qt_point(rng)
        return ["--q", format_rational(q), "--t", format_rational(t)]

    return [
        ["macdonald", "expand", "--lambda", "2", "--basis", "m", *qt()],
        ["macdonald", "pieri", "--lambda", "2,1", "--mu", "1", *qt()],
        ["process", "partition-function", "--N", "2", "--u-deg", "4", *qt()],
        ["process", "moment", "--series", "E", "--r", "1", "--spec-plus", "zero",
         "--spec-minus", "zero", "--u-deg", "5", *qt()],
        ["process", "shift-mixed", "--r", "1", "--zeta", "2/3", "--v-deg", "6", *qt()],
        ["plancherel", "sample", "--gamma", "0.8", "--beta", "1.0", "--times", "0.0,0.3",
         "--depth", "6", "--count", "100", "--seed", str(seed), *qt()],
        ["cylindric", "enumerate", "--N", "2", "--M", "1", "--max-weight", "4", *qt()],
        ["cylindric", "verify-macmahon", "--N", "2", "--M", "1", "--s-deg", "5", *qt()],
        ["vertex", "verify", "--grade", "4", "--nu", "1", *qt()],
        ["fock", "trace-check", "--u-deg", "5", "--seed", str(seed)],
    ]


class CommandRunner:
    """Runs ``permac`` commands one at a time, as the console script would."""

    def __init__(self, env, extras, trace_dir=None):
        self.env = env
        self.extras = extras
        self.trace_dir = trace_dir
        self.count = 0
        extras["exit_nonzero"] = 0

    def __call__(self, argv):
        env = dict(self.env)
        if self.trace_dir:
            env["PERFBENCH_TRACE_FILE"] = os.path.join(self.trace_dir, f"cmd{self.count}.json")
            env["PERFBENCH_SPAWNED_AT"] = repr(time.monotonic())
        self.count += 1
        proc = subprocess.run([sys.executable, os.path.join(HERE, "permac_cmd.py"), *argv],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        if proc.returncode:
            self.extras["exit_nonzero"] += 1
        return proc.returncode, proc.stdout


def build_cli(rng, seed, fast, cache_dir, runner, inject):
    """Write the tables the commands read, then list the commands."""
    q, t = qt_point(rng)
    weights = (4,) if fast else CLI_TABLE_WEIGHTS
    cache.configure(cache_dir)
    for n in weights:
        macdonald.macdonald_table(q, t, n)
    cache.configure(None)
    table_args = ["--q", format_rational(q), "--t", format_rational(t),
                  "--cache-dir", cache_dir]
    cached = []
    for i in range(2 if fast else 25):
        lam = rng.choice(partitions.partitions_of(weights[i % len(weights)]))
        if i % 2 == 0 or len(lam) == 0:
            cached.append(["macdonald", "expand", "--lambda", ",".join(map(str, lam)),
                           "--basis", "m", *table_args])
        else:
            mu = _horizontal_strip_below(rng, lam)
            cached.append(["macdonald", "pieri", "--lambda", ",".join(map(str, lam)),
                           "--mu", ",".join(map(str, mu)) or "0", *table_args])
    commands = cached if fast else cached + _readme_commands(rng, seed)
    rng.shuffle(commands)
    if inject:
        _corrupt_cached_table(commands, cache_dir, q, t)
    return [Job("command", {"argv": " ".join(argv[:2]), "args": argv[2:]},
                closed=lambda argv=argv: runner(argv),
                check=lambda res, _, argv=argv: _cli_check(argv, *res))
            for argv in commands]


def _corrupt_cached_table(commands, cache_dir, q, t):
    """Set P_lam's own coefficient to 999 in the cached table one expand reads."""
    argv = next(a for a in commands if a[:2] == ["macdonald", "expand"] and "--cache-dir" in a)
    lam = argv[argv.index("--lambda") + 1]
    n = sum(int(x) for x in lam.split(","))
    cache.configure(cache_dir)
    try:
        data = cache.load("macdonald", "pq-table",
                          {"q": format_rational(q), "t": format_rational(t), "weight": n})
        data["P"][lam][lam] = "999"
        cache.store("macdonald", "pq-table",
                    {"q": format_rational(q), "t": format_rational(t), "weight": n}, data)
    finally:
        cache.configure(None)


# ---------------------------------------------------------------------------


def build(name, seed, fast, trace_dir=None, inject=False):
    """Inputs for one pass of workload ``name``; the caller times this as set-up."""
    rng = random.Random(f"{name}:{seed}")
    extras = {}
    tmp_root = os.path.join(os.path.dirname(HERE), ".perfbench", "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    if name == "kernels":
        return Workload(build_kernels(rng, fast), extras)
    if name == "tables":
        cache_dir = tempfile.mkdtemp(prefix="tables-", dir=tmp_root)
        cache.configure(cache_dir)
        return Workload(build_tables(rng, fast), extras,
                        cleanup=lambda: shutil.rmtree(cache_dir, ignore_errors=True))
    if name == "sampler":
        jobs, observe = build_sampler(rng, fast, extras)
        return Workload(jobs, extras, observe=observe)
    if name == "cli":
        cache_dir = tempfile.mkdtemp(prefix="cli-", dir=tmp_root)
        env = dict(os.environ)
        runner = CommandRunner(env, extras, trace_dir)
        return Workload(build_cli(rng, seed, fast, cache_dir, runner, inject), extras,
                        cleanup=lambda: shutil.rmtree(cache_dir, ignore_errors=True))
    raise ValueError(f"unknown workload {name!r}")
