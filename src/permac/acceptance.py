"""The acceptance suite: every closed form against its independent oracle.

Each criterion function returns {"name", "passed", "details"}; run_all
executes them in order and aggregates.  All arithmetic is exact, so every
comparison is equality at zero tolerance; random (q, t) points are drawn
from a seeded generator for reproducibility.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from . import cylindric, fock, macdonald, plancherel, process
from .partitions import dominance_leq, partitions_of, partitions_up_to, weight
from .scalars import DEFAULT_SEED, random_qt_pair, random_rational
from .series import SeriesRing, qpochhammer, qpochhammer_finite


def _points(seed, count):
    rng = random.Random(seed)
    return [random_qt_pair(rng) for _ in range(count)]


def criterion_macdonald_basis(seed=DEFAULT_SEED) -> dict:
    """Unitriangularity, duality, parameter inversion, both Pieri rules."""
    failures = []
    for q, t in _points(seed, 3):
        for n in range(7):
            table = macdonald.macdonald_table(q, t, n)
            for lam, mrep in table["P"].items():
                if mrep.get(lam) != 1 or not all(
                        dominance_leq(mu, lam) for mu in mrep):
                    failures.append(("unitriangular", q, t, lam))
        for n in range(6):
            lams = partitions_of(n)
            for lam in lams:
                pl = macdonald.macdonald_P_p(lam, q, t)
                for mu in lams:
                    ip = macdonald.inner_product(
                        pl, macdonald.macdonald_Q_p(mu, q, t), q, t)
                    if ip != (1 if lam == mu else 0):
                        failures.append(("duality", q, t, lam, mu))
            if macdonald.macdonald_table(q, t, n)["P"] != \
                    macdonald.macdonald_table(1 / q, 1 / t, n)["P"]:
                failures.append(("inversion", q, t, n))
        for mu in partitions_up_to(4):
            for r in range(1, 4):
                if not _pieri_rule_holds(mu, r, q, t):
                    failures.append(("pieri", q, t, mu, r))
    return {"name": "macdonald-basis-suite", "passed": not failures,
            "details": {"points": 3, "failures": failures[:5]}}


def _pieri_rule_holds(mu, r, q, t) -> bool:
    from .partitions import horizontal_strip

    g = macdonald.g_row_p(r, q, t)
    for kind in ("P", "Q"):
        base = macdonald.macdonald_P_p(mu, q, t) if kind == "P" \
            else macdonald.macdonald_Q_p(mu, q, t)
        prod: dict = {}
        for k1, c1 in base.items():
            for k2, c2 in g.items():
                key = tuple(sorted(k1 + k2, reverse=True))
                prod[key] = prod.get(key, 0) + c1 * c2
        expect: dict = {}
        for lam in partitions_of(weight(mu) + r):
            if not horizontal_strip(lam, mu):
                continue
            psi, phi = macdonald.pieri(lam, mu, q, t)
            coeff = phi if kind == "P" else psi
            table = macdonald.macdonald_P_p(lam, q, t) if kind == "P" \
                else macdonald.macdonald_Q_p(lam, q, t)
            for k, c in table.items():
                expect[k] = expect.get(k, 0) + coeff * c
        if {k: v for k, v in prod.items() if v} != \
                {k: v for k, v in expect.items() if v}:
            return False
    return True


def criterion_trace_formula(seed=DEFAULT_SEED) -> dict:
    """Closed vertex-operator trace equals the brute-force Fock trace."""
    failures = [(trial, str(q), str(t)) for trial, q, t in
                fock.trace_check_failures(random.Random(seed + 1), 3, 5)]
    return {"name": "trace-formula", "passed": not failures,
            "details": {"specs": 3, "u_cutoff": 5, "failures": failures}}


def _single_alpha_process(N, q, t, cutoff):
    return process.process_from_names(["alpha"] * N, ["alpha"] * N, q, t, cutoff)


def criterion_partition_function(seed=DEFAULT_SEED) -> dict:
    """Closed cyclic Cauchy identity against the configuration sum.

    Includes both limits: u -> 0 reduces the configuration sum (not the
    closed Z, which holds that product as a factor) to the open-chain
    product, and the q = t point telescopes the pair kernel to a plain
    Pochhammer inverse.
    """
    rng = random.Random(seed + 2)
    failures = []
    for N in (1, 2, 3):
        for trial in range(2):
            q, t = random_qt_pair(rng)
            ps = _single_alpha_process(N, q, t, 4)
            brute = process.partition_function_bruteforce(ps, 4)
            closed = process.partition_function_closed(ps)
            if brute != closed:
                failures.append(("closed", N, str(q), str(t)))
            if brute.subs_zero("u") != \
                    process.nonperiodic_partition_function(ps):
                failures.append(("u->0", N, str(q), str(t)))
    q = Fraction(2, 7)
    ring = SeriesRing(["u", "a", "b"], 6)
    u, ab = ring.gen("u"), ring.monomial(Fraction(1), a=1, b=1)
    # at t = q the pair kernel (t ab; q, u)/(ab; q, u) is 1/(ab; u)_inf,
    # whose factors past u^cutoff are 1
    schur_pair = qpochhammer(ring, [(ab * q, [q, u])], [(ab, [q, u])])
    if schur_pair != qpochhammer_finite(ring, ab, u, ring.cutoff + 1).inverse():
        failures.append(("schur-point",))
    return {"name": "partition-function", "passed": not failures,
            "details": {"N": [1, 2, 3], "cutoff": 4, "failures": failures}}


def criterion_moment_formulas(seed=DEFAULT_SEED) -> dict:
    """Kernel moment formulas equal brute-force moments for all families."""
    rng = random.Random(seed + 3)
    failures = []
    q, t = random_qt_pair(rng)
    ps2 = _single_alpha_process(2, q, t, 3)
    if process.moment_formula(ps2, [("E", 1), ("E", 1)]) != \
            process.moment_bruteforce(ps2, [("E", 1), ("E", 1)], 3):
        failures.append(("two-step-E",))
    for tag in ("E", "E'", "G", "G'"):
        for r in (1, 2):
            q1, t1 = random_qt_pair(rng)
            ps = _single_alpha_process(1, q1, t1, 4)
            if process.moment_formula(ps, [(tag, r)]) != \
                    process.moment_bruteforce(ps, [(tag, r)], 4):
                failures.append((tag, r, str(q1), str(t1)))
    q3, t3 = random_qt_pair(rng)
    ps3 = _single_alpha_process(1, q3, t3, 5)
    if process.moment_formula(ps3, [("E", 3)]) != \
            process.moment_bruteforce(ps3, [("E", 3)], 5):
        failures.append(("E", 3, str(q3), str(t3)))
    q4, t4 = random_qt_pair(rng)
    ps4 = _single_alpha_process(2, q4, t4, 3)
    steps = [("E", 2), ("E", 2)]
    if process.moment_formula(ps4, steps) != \
            process.moment_bruteforce(ps4, steps, 3):
        failures.append(("two-step-E", 2, str(q4), str(t4)))
    # mixed families: one cross-class pair, one 3-step sequence with r = 2
    for steps, cutoff in (([("E'", 1), ("G", 1)], 3),
                          ([("G'", 1), ("E", 2), ("E'", 1)], 3)):
        q5, t5 = random_qt_pair(rng)
        ps5 = _single_alpha_process(len(steps), q5, t5, cutoff)
        if process.moment_formula(ps5, steps) != \
                process.moment_bruteforce(ps5, steps, cutoff):
            failures.append(("mixed", steps, str(q5), str(t5)))
    return {"name": "moment-formulas", "passed": not failures,
            "details": {"families": ["E", "E'", "G", "G'"], "r": [1, 2],
                        "single_step_E_r3_cutoff": 5,
                        "two_step_E_r2_cutoff": 3,
                        "mixed_steps": ["E',G", "G',E r=2,E'"],
                        "mixed_cutoff": 3, "failures": failures}}


def criterion_bessel_examples(seed=DEFAULT_SEED) -> dict:
    """Plancherel moments against the Bessel-series closed forms."""
    rng = random.Random(seed + 4)
    failures = []

    def bessel(ring, c, nmax):
        out = ring.zero()
        fact = 1
        for n in range(nmax + 1):
            if n:
                fact *= n
            out = out + ring.monomial(c**n / Fraction(fact * fact), g=2 * n)
        return out

    for tag in ("E", "E'"):
        q, t = random_qt_pair(rng)
        ps = process.process_from_names(["plancherel"], ["plancherel"], q, t, 8)
        ring = ps.ring
        got = process.moment_formula(ps, [(tag, 1)])
        u = ring.gen("u")
        if tag == "E":
            head = bessel(ring, (1 - t) * (1 / t - 1), 4) / (1 - 1 / t)
            ratio = qpochhammer(ring, [(u, [u]), (u * (q / t), [u])],
                                [(u * q, [u]), (u * (1 / t), [u])])
        else:
            head = bessel(ring, (1 - t) ** 2 / q, 4) / (1 - t)
            ratio = qpochhammer(ring, [(u, [u]), (u * (t / q), [u])],
                                [(u * t, [u]), (u * (1 / q), [u])])
        if got != head * ratio:
            failures.append((tag, str(q), str(t)))
    return {"name": "bessel-examples", "passed": not failures,
            "details": {"orders": "gamma^4, u^4", "failures": failures}}


def criterion_shift_mixed(seed=DEFAULT_SEED) -> dict:
    """Charged moment, theta Cauchy determinant, Schur-limit kernel."""
    rng = random.Random(seed + 5)
    failures = []
    q, t = random_qt_pair(rng)
    zeta = random_rational(rng)
    ring = SeriesRing(["v"], 6)
    u = ring.monomial(Fraction(1), v=2)
    ps = process.ProcessSpec(ring, q, t, u,
                             [macdonald.zero_spec()], [macdonald.zero_spec()])
    if process.shift_mixed_moment_formula(ps, 1, zeta) != \
            process.shift_mixed_moment_bruteforce(ps, 1, zeta, 6):
        failures.append(("charged-moment",))
    report = process.schur_limit_kernels(2, 8, rng)
    if not report["match"]:
        failures.append(("theta-cauchy-r2",))
    return {"name": "shift-mixed", "passed": not failures,
            "details": {"v_cutoff": 6, "determinant_r": 2,
                        "failures": failures}}


def criterion_plancherel_process(seed=DEFAULT_SEED) -> dict:
    """Exact semigroup identity on the safe block, every float entry of the
    matrix the sampler draws from against its exact value, and the sampler law."""
    failures = []
    q, t = Fraction(1, 3), Fraction(1, 5)
    ring = SeriesRing(["g"], 6)
    defect = plancherel.semigroup_defect(
        ring.gen("g"), Fraction(1, 2), Fraction(1, 3), 8, q, t,
        reserve=4, mode="exact", ring=ring)
    if defect != 0:
        lam, mu, diff = defect
        failures.append(("semigroup", lam, mu, str(diff)))
    half = Fraction(1, 2)
    tm = plancherel.transfer_matrix(0.85, math.exp(-1.0), 8, half, half)
    try:
        entries = plancherel.spot_check_float_entries(tm, half, half, None, frac=1)
    except plancherel.FloatEntryMismatch as exc:
        *entry, entries = exc.args
        failures.append(("float-entry", *entry))
    chi = plancherel.marginal_chi_square(0.85, 1.0, 8, half, half,
                                         samples=100000, seed=seed)
    if not chi["p_value"] > 0.01:
        failures.append(("chi-square", chi))
    return {"name": "plancherel-process", "passed": not failures,
            "details": {"depth": 8, "reserve": 4, "spot_check_entries": entries,
                        "chi_square_p": chi["p_value"], "failures": failures}}


def criterion_cylindric_macmahon(seed=DEFAULT_SEED) -> dict:
    """F = Phi everywhere plus the four generating-function variants."""
    import itertools

    rng = random.Random(seed + 7)
    points = [random_qt_pair(rng), random_qt_pair(rng)]
    failures = []
    for N in (1, 2, 3):
        for rsize in range(N + 1):
            for M in itertools.combinations(range(1, N + 1), rsize):
                profile = cylindric.CylindricProfile(N, M)
                for lams in cylindric.enumerate_cp(profile, 5):
                    for q, t in points:
                        if cylindric.weight_F(profile, lams, q, t) != \
                                cylindric.weight_Phi(profile, lams, q, t):
                            failures.append(("F=Phi", N, M, lams))
    for (N, M) in [(1, (1,)), (2, (1,)), (3, (1, 3)), (3, (2,))]:
        q, t = points[0]
        report = cylindric.macmahon_verify(
            cylindric.CylindricProfile(N, M), 5, q, t)
        if not report["verified"]:
            failures.append(("macmahon", N, M, report["checks"]))
    return {"name": "cylindric-macmahon", "passed": not failures,
            "details": {"weight": 5, "profiles": "all 2^N, N<=3",
                        "failures": failures[:3]}}


def criterion_vertex_traces(seed=DEFAULT_SEED) -> dict:
    """Diagonal vertex traces and the signature lemma."""
    rng = random.Random(seed + 8)
    q, t = random_qt_pair(rng)
    failures = []
    if not cylindric.cor_b2_check(4, q, t)["match"]:
        failures.append(("empty-profile-trace",))
    b1 = cylindric.thm_b1_check((1,), 3, 3, q, t)
    if not b1["match"]:
        failures.append(("single-box-profile-trace", b1))
    if not cylindric.lemma_b4_check(4, random_rational(rng))["match"]:
        failures.append(("signature-lemma",))
    if not cylindric.vertex_e1_trace_check(3, q, t)["match"]:
        failures.append(("weighted-trace",))
    return {"name": "vertex-traces", "passed": not failures,
            "details": {"grades": {"empty": 4, "single-box": 3, "lemma": 4},
                        "failures": failures}}


def criterion_eigen_relations(seed=DEFAULT_SEED) -> dict:
    """Free-field operators reproduce their eigenvalues; fermion bilinear."""
    rng = random.Random(seed + 9)
    failures = []
    points = [random_qt_pair(rng), random_qt_pair(rng)]
    for q, t in points:
        for lam in partitions_up_to(3):
            ket = macdonald.macdonald_P_p(lam, q, t)
            for family in macdonald.FREE_FIELD_FAMILIES:
                for r in (1, 2):
                    got = fock.free_field_apply(family, r, ket, q, t)
                    ev = macdonald.eigenvalue(family, r, lam, q, t)
                    if got != fock.fock_scale(ket, ev):
                        failures.append((family, r, lam, str(q), str(t)))
    t = Fraction(3, 7)
    ring = SeriesRing([], 0)
    for n in (-2, -1, 0, 1, 2):
        for lam in partitions_up_to(3):
            start = {(lam, n): Fraction(1)}
            via_ext = fock.extended_E_apply(1, start, t, t)
            via_ferm = {k: v.constant_term()
                        for k, v in fock.fermion_bilinear_apply(
                            start, t, ring).items()}
            via_ferm = {k: v for k, v in via_ferm.items() if v}
            if via_ext != via_ferm:
                failures.append(("fermion-bilinear", lam, n))
    return {"name": "eigen-relations", "passed": not failures,
            "details": {"points": 2, "grades": "<=3", "r": [1, 2],
                        "failures": failures[:5]}}


CRITERIA = [
    criterion_macdonald_basis,
    criterion_trace_formula,
    criterion_partition_function,
    criterion_moment_formulas,
    criterion_bessel_examples,
    criterion_shift_mixed,
    criterion_plancherel_process,
    criterion_cylindric_macmahon,
    criterion_vertex_traces,
    criterion_eigen_relations,
]


def run_all(seed=DEFAULT_SEED, echo=print) -> dict:
    reports = []
    ok = True
    for fn in CRITERIA:
        started = time.time()
        rep = fn(seed)
        seconds = round(time.time() - started, 2)
        reports.append(rep)
        ok &= rep["passed"]
        if echo:
            echo(f"[{'PASS' if rep['passed'] else 'FAIL'}] "
                 f"{rep['name']} ({seconds}s)")
    return {"passed": ok, "criteria": reports}
