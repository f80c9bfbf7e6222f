"""Command-line entry point.

Subcommands expose the verification, enumeration, evaluation and sampling
operations with JSON reports on stdout (or --out).  Exit codes: 0 on
success/verified, 1 on an identity mismatch (the report carries the first
failing coefficient), 2 on usage errors, including arguments outside a
command's domain.  A JSON config file can preload any flag; explicit flags
win.  Identical configuration and seed produce byte-identical output.

Each handler imports the modules it runs, so ``macdonald expand`` and
``pieri`` load no process, Fock, Laurent, Plancherel or cylindric code.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import macdonald
from .partitions import make_partition
from .scalars import DEFAULT_SEED, format_rational, parse_rational, random_rational


class UsageError(Exception):
    pass


def _parse_partition(text: str) -> tuple:
    text = text.strip()
    if not text or text in ("0", "[]", "empty"):
        return ()
    try:
        return make_partition(int(p) for p in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}")


def _parse_q_t(args):
    try:
        q = parse_rational(args.q)
        t = parse_rational(args.t)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational: {exc}")
    if not getattr(args, "algebraic_point", False):
        if not (0 < q < 1 and 0 < t < 1):
            raise UsageError("q and t must lie in (0,1); "
                             "pass --algebraic-point to override")
    return q, t


def _require_at_least(args, low: int, *names) -> None:
    for name in names:
        if getattr(args, name) < low:
            raise UsageError(f"--{name.replace('_', '-')} must be at least {low}")


def _write(args, text: str) -> None:
    """Write a report to --out when given, else to stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict) -> None:
    _write(args, json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n")


def _emit_oracle_report(args, quantity: str, params: dict, cutoffs: dict,
                        formula, oracle) -> int:
    """Report a closed-form series against its oracle; 0 if equal, else 1."""
    from .series import first_mismatch

    match = formula == oracle
    first = first_mismatch(formula, oracle)
    if first is not None:
        exp, ca, cb = first
        first = {"exp": dict(zip(formula.ring.symbols, exp)),
                 "formula": str(ca), "oracle": str(cb)}
    _emit(args, {
        "quantity": quantity,
        "params": params,
        "cutoffs": cutoffs,
        "series": formula.to_json(),
        "oracle_match": match,
        "max_abs_discrepancy": "0" if match else "nonzero",
        "first_mismatch": first,
    })
    return 0 if match else 1


# ---------------------------------------------------------------------------
# subcommand handlers (return process exit status)
# ---------------------------------------------------------------------------


def cmd_macdonald_expand(args) -> int:
    q, t = _parse_q_t(args)
    lam = _parse_partition(args.lam)
    if args.basis == "m":
        table = macdonald.macdonald_P(lam, q, t) if args.kind == "P" \
            else macdonald.macdonald_Q(lam, q, t)
    else:
        table = macdonald.macdonald_P_p(lam, q, t) if args.kind == "P" \
            else macdonald.macdonald_Q_p(lam, q, t)
    payload = {
        "quantity": f"{args.kind}_lambda in {args.basis} basis",
        "params": {"lambda": list(lam), "q": args.q, "t": args.t},
        "coefficients": {",".join(map(str, mu)): format_rational(c)
                         for mu, c in sorted(table.items())},
    }
    _emit(args, payload)
    return 0


def cmd_macdonald_pieri(args) -> int:
    q, t = _parse_q_t(args)
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    try:
        psi, phi = macdonald.pieri(lam, mu, q, t)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(args, {
        "quantity": "pieri coefficients",
        "params": {"lambda": list(lam), "mu": list(mu), "q": args.q, "t": args.t},
        "psi": format_rational(psi),
        "phi": format_rational(phi),
    })
    return 0


def _build_process(args):
    from . import process

    q, t = _parse_q_t(args)
    _require_at_least(args, 1, "N", "u_deg")
    N = args.N
    names = []
    for flag, spec in (("spec-plus", args.spec_plus), ("spec-minus", args.spec_minus)):
        steps = spec.split(";")
        if len(steps) not in (1, N):  # one name for every step, or one per step
            raise UsageError(f"--{flag} gives {len(steps)} names for --N {N}; "
                             f"give one name or {N}")
        names.append(steps * (N // len(steps)))
    try:
        return process.process_from_names(*names, q, t, args.u_deg)
    except ValueError as exc:
        raise UsageError(str(exc))


def _process_params(args) -> dict:
    return {"N": args.N, "q": args.q, "t": args.t,
            "specs": [args.spec_plus, args.spec_minus]}


def cmd_process_partition_function(args) -> int:
    from . import process

    ps = _build_process(args)
    return _emit_oracle_report(
        args, "periodic partition function", _process_params(args),
        {"grade": args.u_deg}, process.partition_function_closed(ps),
        process.partition_function_bruteforce(ps, args.u_deg))


def cmd_process_moment(args) -> int:
    from . import process

    _require_at_least(args, 1, "r")
    ps = _build_process(args)
    series_r = [(args.series, args.r)] * args.N
    return _emit_oracle_report(
        args, f"moment of {args.series}_{args.r}", _process_params(args),
        {"grade": args.u_deg}, process.moment_formula(ps, series_r),
        process.moment_bruteforce(ps, series_r, args.u_deg))


def cmd_process_shift_mixed(args) -> int:
    from . import process
    from .series import SeriesRing

    q, t = _parse_q_t(args)
    _require_at_least(args, 1, "r")
    _require_at_least(args, 2, "v_deg")  # u = v^2 needs room for one power of u
    try:
        zeta = parse_rational(args.zeta)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational: {exc}")
    if not zeta:
        raise UsageError("--zeta must be nonzero")
    ring = SeriesRing(["v"], args.v_deg)
    u = ring.monomial(Fraction(1), v=2)
    ps = process.ProcessSpec(ring, q, t, u,
                             [macdonald.zero_spec()], [macdonald.zero_spec()])
    return _emit_oracle_report(
        args, f"shift-mixed moment, r={args.r}",
        {"q": args.q, "t": args.t, "zeta": args.zeta}, {"v": args.v_deg},
        process.shift_mixed_moment_formula(ps, args.r, zeta),
        process.shift_mixed_moment_bruteforce(ps, args.r, zeta, args.v_deg))


def cmd_plancherel_sample(args) -> int:
    from . import plancherel

    q, t = _parse_q_t(args)
    _require_at_least(args, 1, "count")
    try:
        times = [float(x) for x in args.times.split(",")]
        spec = plancherel.TrajectorySpec(args.beta, args.gamma, times,
                                         args.depth, args.seed, args.count)
        cycle = plancherel.Cycle(spec, q, t)
        text = plancherel.trajectories_to_jsonl(
            plancherel.sample_trajectories(spec, q, t, cycle=cycle))
    except ValueError as exc:
        raise UsageError(str(exc))
    print(f"dropped mass: {plancherel.dropped_mass(cycle):.3e} of the "
          f"cycle at depth {spec.depth}", file=sys.stderr)
    _write(args, text)
    return 0


SPOT_CHECK_ENTRIES = 4489  # the entries of a depth-8 transfer matrix


def cmd_plancherel_check(args) -> int:
    from . import plancherel
    from .series import SeriesRing, first_mismatch

    q, t = _parse_q_t(args)
    _require_at_least(args, 1, "samples", "gamma_deg")
    _require_at_least(args, 0, "reserve")
    try:
        plancherel.check_domain(args.gamma, args.beta, args.depth)
        u, v = parse_rational(args.u), parse_rational(args.v)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc))
    if args.reserve > args.depth:
        raise UsageError("--reserve must not exceed --depth: the safe block "
                         "|lambda| + |mu| <= depth - reserve would be empty")
    if args.gamma_deg >= args.depth + args.reserve + 2:
        raise UsageError("--gamma-deg must be below depth + reserve + 2: from "
                         "that degree on, states beyond the depth reach the "
                         "safe block")
    ring = SeriesRing(["g"], args.gamma_deg)
    defect = plancherel.semigroup_defect(
        ring.gen("g"), u, v, args.depth, q, t, reserve=args.reserve,
        mode="exact", ring=ring)
    try:
        chi = plancherel.marginal_chi_square(args.gamma, args.beta, args.depth,
                                             q, t, samples=args.samples,
                                             seed=args.seed)
        tm = plancherel.transfer_matrix(args.gamma, math.exp(-args.beta),
                                        args.depth, q, t)
    except ValueError as exc:
        raise UsageError(str(exc))
    # every entry of the sampled matrix up to depth 8 (4,489 of them), and
    # as many entries, drawn at random, beyond it
    spot = {"fraction": min(1.0, SPOT_CHECK_ENTRIES / len(tm.states) ** 2)}
    try:
        spot["entries"] = plancherel.spot_check_float_entries(
            tm, q, t, random.Random(args.seed), frac=spot["fraction"])
    except plancherel.FloatEntryMismatch as exc:
        lam, mu, got, expect, spot["entries"] = exc.args
        spot["first_mismatch"] = {"lambda": list(lam), "mu": list(mu),
                                  "float": got, "exact": expect}
    ok = defect == 0 and "first_mismatch" not in spot and chi["p_value"] > 0.01
    report = {
        "quantity": "plancherel process checks",
        "params": {"q": args.q, "t": args.t, "gamma": args.gamma,
                   "beta": args.beta, "depth": args.depth,
                   "reserve": args.reserve, "seed": args.seed},
        "semigroup_defect": str(defect),
        "spot_check": spot,
        "chi_square": chi,
        "verified": ok,
    }
    if defect != 0:
        lam, mu, diff = defect
        exp, c, _ = first_mismatch(diff, ring.zero())
        report["semigroup_defect"] = str(diff)
        report["first_mismatch"] = {"lambda": list(lam), "mu": list(mu),
                                    "exp": dict(zip(ring.symbols, exp)),
                                    "defect": str(c)}
    _emit(args, report)
    return 0 if ok else 1


def cmd_cylindric_enumerate(args) -> int:
    from . import cylindric

    q, t = _parse_q_t(args)
    _require_at_least(args, 0, "max_weight")
    profile = _build_profile(args)
    _emit(args, cylindric.cp_dump(profile, args.max_weight, q, t))
    return 0


def _build_profile(args):
    from . import cylindric

    _require_at_least(args, 1, "N")
    text = args.M.strip()
    try:
        steps = tuple(int(x) for x in text.replace(" ", "").split(",")) if text else ()
        return cylindric.CylindricProfile(args.N, steps)
    except ValueError as exc:
        raise UsageError(f"bad profile {args.M!r}: {exc}")


def cmd_cylindric_verify(args) -> int:
    from . import cylindric

    q, t = _parse_q_t(args)
    _require_at_least(args, 0, "s_deg")
    profile = _build_profile(args)
    report = cylindric.macmahon_verify(profile, args.s_deg, q, t)
    _emit(args, report)
    return 0 if report["verified"] else 1


def cmd_vertex_verify(args) -> int:
    from . import cylindric

    q, t = _parse_q_t(args)
    _require_at_least(args, 0, "grade")
    rng = random.Random(args.seed)

    checks = {
        "empty_profile_trace": cylindric.cor_b2_check(args.grade, q, t)["match"],
        "signature_lemma": cylindric.lemma_b4_check(
            args.grade, random_rational(rng))["match"],
    }
    if args.nu:
        nu = _parse_partition(args.nu)
        b1 = cylindric.thm_b1_check(nu, max(2, args.grade - 1),
                                    max(2, args.grade - 1), q, t)
        checks["profile_trace"] = b1["match"]
    ok = all(checks.values())
    _emit(args, {"quantity": "vertex trace verification",
                 "params": {"q": args.q, "t": args.t, "grade": args.grade,
                            "nu": args.nu},
                 "checks": checks, "verified": ok})
    return 0 if ok else 1


def cmd_fock_trace_check(args) -> int:
    from . import fock

    _require_at_least(args, 0, "u_deg")
    _require_at_least(args, 1, "trials")
    failures = [{"trial": trial, "q": str(q), "t": str(t)} for trial, q, t in
                fock.trace_check_failures(random.Random(args.seed), args.trials,
                                          args.u_deg)]
    _emit(args, {"quantity": "vertex trace closed vs brute force",
                 "params": {"trials": args.trials, "u_deg": args.u_deg,
                            "seed": args.seed},
                 "failures": failures, "verified": not failures})
    return 0 if not failures else 1


def cmd_verify_all(args) -> int:
    from . import acceptance

    out = acceptance.run_all(seed=args.seed,
                             echo=(None if args.out else
                                   lambda line: print(line, file=sys.stderr)))
    _emit(args, out)
    return 0 if out["passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


NEEDED = "required, as a flag or a --config key"


def _add_qt(p):
    p.add_argument("--q", default="1/3", help="rational q as num/den")
    p.add_argument("--t", default="1/5", help="rational t as num/den")
    p.add_argument("--algebraic-point", action="store_true",
                   help="allow q, t outside (0,1)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="permac",
        description="exact verification engine for periodic Macdonald processes")
    ap.add_argument("--config", help="JSON file with default flag values")
    ap.add_argument("--out", help="write the JSON report here instead of stdout")
    ap.add_argument("--cache-dir", help="directory for coefficient-table caches")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)

    # the same bookkeeping flags are accepted after the subcommand; SUPPRESS
    # keeps a leaf from clobbering a value given at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--cache-dir", dest="cache_dir",
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    sub = ap.add_subparsers(dest="command")

    def leaf(group, name):
        return group.add_parser(name, parents=[common])

    mac = sub.add_parser("macdonald").add_subparsers(dest="subcommand")
    me = leaf(mac, "expand")
    me.add_argument("--lambda", dest="lam", help=NEEDED)
    me.add_argument("--basis", choices=["m", "p"], default="m")
    me.add_argument("--kind", choices=["P", "Q"], default="P")
    _add_qt(me)
    me.set_defaults(handler=cmd_macdonald_expand, needs=("lam",))
    mp = leaf(mac, "pieri")
    mp.add_argument("--lambda", dest="lam", help=NEEDED)
    mp.add_argument("--mu", help=NEEDED)
    _add_qt(mp)
    mp.set_defaults(handler=cmd_macdonald_pieri, needs=("lam", "mu"))

    proc = sub.add_parser("process").add_subparsers(dest="subcommand")
    pf = leaf(proc, "partition-function")
    pf.add_argument("--N", type=int, default=1)
    pf.add_argument("--spec-plus", default="alpha")
    pf.add_argument("--spec-minus", default="alpha")
    pf.add_argument("--u-deg", type=int, default=4)
    _add_qt(pf)
    pf.set_defaults(handler=cmd_process_partition_function)
    pm = leaf(proc, "moment")
    pm.add_argument("--series", choices=macdonald.FREE_FIELD_FAMILIES, default="E")
    pm.add_argument("--r", type=int, default=1)
    pm.add_argument("--N", type=int, default=1)
    pm.add_argument("--spec-plus", default="zero")
    pm.add_argument("--spec-minus", default="zero")
    pm.add_argument("--u-deg", type=int, default=5)
    _add_qt(pm)
    pm.set_defaults(handler=cmd_process_moment)
    psm = leaf(proc, "shift-mixed")
    psm.add_argument("--r", type=int, default=1)
    psm.add_argument("--zeta", default="2/3")
    psm.add_argument("--v-deg", type=int, default=6)
    _add_qt(psm)
    psm.set_defaults(handler=cmd_process_shift_mixed)

    pl = sub.add_parser("plancherel").add_subparsers(dest="subcommand")
    pls = leaf(pl, "sample")
    pls.add_argument("--gamma", type=float, default=0.8)
    pls.add_argument("--beta", type=float, default=1.0)
    pls.add_argument("--times", default="0.0")
    pls.add_argument("--depth", type=int, default=6)
    pls.add_argument("--count", type=int, default=100)
    _add_qt(pls)
    pls.set_defaults(handler=cmd_plancherel_sample)
    plc = leaf(pl, "check")
    plc.add_argument("--gamma", type=float, default=0.85)
    plc.add_argument("--beta", type=float, default=1.0)
    plc.add_argument("--u", default="1/2")
    plc.add_argument("--v", default="1/3")
    plc.add_argument("--depth", type=int, default=8)
    plc.add_argument("--reserve", type=int, default=4)
    plc.add_argument("--gamma-deg", type=int, default=6)
    plc.add_argument("--samples", type=int, default=20000)
    _add_qt(plc)
    plc.set_defaults(handler=cmd_plancherel_check)

    cyl = sub.add_parser("cylindric").add_subparsers(dest="subcommand")
    ce = leaf(cyl, "enumerate")
    ce.add_argument("--N", type=int, help=NEEDED)
    ce.add_argument("--M", default="")
    ce.add_argument("--max-weight", type=int, default=4)
    _add_qt(ce)
    ce.set_defaults(handler=cmd_cylindric_enumerate, needs=("N",))
    cv = leaf(cyl, "verify-macmahon")
    cv.add_argument("--N", type=int, help=NEEDED)
    cv.add_argument("--M", default="")
    cv.add_argument("--s-deg", type=int, default=5)
    _add_qt(cv)
    cv.set_defaults(handler=cmd_cylindric_verify, needs=("N",))

    vx = sub.add_parser("vertex").add_subparsers(dest="subcommand")
    vv = leaf(vx, "verify")
    vv.add_argument("--grade", type=int, default=4)
    vv.add_argument("--nu", default="")
    _add_qt(vv)
    vv.set_defaults(handler=cmd_vertex_verify)

    fk = sub.add_parser("fock").add_subparsers(dest="subcommand")
    ft = leaf(fk, "trace-check")
    ft.add_argument("--u-deg", type=int, default=5)
    ft.add_argument("--trials", type=int, default=3)
    ft.set_defaults(handler=cmd_fock_trace_check)

    ver = sub.add_parser("verify").add_subparsers(dest="subcommand")
    va = leaf(ver, "all")
    va.set_defaults(handler=cmd_verify_all)

    return ap


def _leaf_options(ap, args) -> tuple:
    """The chosen subcommand's parser, and config key -> its argparse action.

    Each option is reachable by its flag spelling (``u-deg``, ``lambda``) and
    by its dest (``u_deg``, ``lam``).
    """
    parser = ap
    for name in (args.command, args.subcommand):
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    options = {}
    for action in parser._actions:
        if action.dest == "help":
            continue
        options[action.dest] = action
        for opt in action.option_strings:
            options[opt.lstrip("-")] = action
    return parser, options


def _merge_config(ap, args, argv) -> argparse.Namespace:
    """argv parsed again with the JSON config values as flag defaults.

    Values go through the flag's argparse type and choices, as they would on
    the command line; every flag argv names wins.  Top-level dests default on
    the top parser, as a leaf's would beat a flag before the subcommand.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        with open(path) as fh:
            conf = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise UsageError(f"bad config file: {exc}")
    if not isinstance(conf, dict):
        raise UsageError("bad config file: expected a JSON object")
    leaf, options = _leaf_options(ap, args)
    top = {action.dest for action in ap._actions}
    for key, val in conf.items():
        action = options.get(key)
        if action is None:
            raise UsageError(f"unknown config key {key!r} for this subcommand")
        if action.nargs == 0:  # store_true
            if not isinstance(val, bool):
                raise UsageError(f"config key {key!r} needs true or false")
        else:
            if isinstance(val, bool) or not isinstance(val, (str, int, float)):
                raise UsageError(f"config key {key!r} needs a string or a number")
            try:
                val = (action.type or str)(str(val))
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad config value for {key!r}: {exc}")
            if action.choices is not None and val not in action.choices:
                raise UsageError(f"config key {key!r} must be one of "
                                 f"{', '.join(action.choices)}")
        (ap if action.dest in top else leaf).set_defaults(**{action.dest: val})
    return ap.parse_args(argv)


def _check_needs(ap, args) -> None:
    """The flags a leaf needs (its ``needs`` default), from argv or --config.

    argparse's ``required`` would check them before the config is read, and
    the README has a config value stand in for its flag.
    """
    missing = [dest for dest in getattr(args, "needs", ()) if getattr(args, dest) is None]
    if missing:
        _, options = _leaf_options(ap, args)
        raise UsageError("the following arguments are required: " + ", ".join(
            options[dest].option_strings[0] for dest in missing))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = None
    try:
        args = ap.parse_args(argv)
        handler = getattr(args, "handler", None)
        if handler is None:
            ap.print_help(sys.stderr)
            return 2
        args = _merge_config(ap, args, argv)
        _check_needs(ap, args)
        if not args.cache_dir:
            return handler(args)
        from . import cache

        previous = cache.configure(args.cache_dir)
        try:
            return handler(args)
        finally:
            cache.configure(previous)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # an --out or --cache-dir path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # Exact arithmetic fails only where a formula the command evaluates
        # has a pole (a vanishing 1 - q^a t^b, norm or pairing).  Inside
        # (0,1)^2 there is none, so without --algebraic-point it is a bug.
        if not getattr(args, "algebraic_point", False):
            raise
        print(f"error: (q, t) = ({args.q}, {args.t}) is a degenerate point for "
              f"this command: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
