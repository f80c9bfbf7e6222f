"""permac benchmark: run a workload, check every result, print its metrics.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Run it from anywhere; it builds nothing and imports permac from ``src/``.
Each pass of a workload runs in a fresh interpreter (``worker.py``), so the
in-process memo caches start cold as they do for a user.  A run makes as
many passes, all with the same inputs, as ``--seconds`` holds nominal
passes.  One client, one process, closed loop: a job is sent only after the
previous one was checked.  BLAS is pinned to one thread.

Other processes on a shared machine slow identical work by a fifth or more
for tens of seconds at a time.  So each pass also times a fixed reference
loop of exact arithmetic around its jobs (``worker.reference_loop``), and
the gated times ``setup_s`` and ``wall_s`` are seconds at the reference
speed: measured seconds times ``REF_LOOP_S`` over the loop's seconds at that
moment.  ``wall_s`` sums over jobs each job's median over passes; ``setup_s``
and memory are medians over passes.  The measured seconds are reported
beside them (``setup_raw_s``, ``wall_raw_s``, ``ref_loop_s``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: span counts and
times from ``spans.py``, self time per module, and the tracing overhead
(traced minus untraced wall time).  Human-readable lines come first; the last
line of standard output is one JSON object.  A full report with the run
record and every job's seconds and size parameters goes to
``.perfbench/reports/``, spans of traced passes to ``.perfbench/spans/``.

The exit code is 0 when every check passed, 1 when one failed (the JSON
still reports it) and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kernels", "tables", "sampler", "cli")
BLAS_THREADS = "1"
# nominal seconds of one pass on a 2-core 2.1 GHz Xeon VM under load; sets the
# pass count, which keeps all runs of the benchmark inside an hour
PASS_SECONDS = {"kernels": 8, "tables": 8, "sampler": 12, "cli": 12}
DEADLINE_S = 170  # every run ends well inside three minutes
# seconds of worker.reference_loop that define the reference speed (about
# its time on an idle 2-core 2.1 GHz Xeon VM)
REF_LOOP_S = 0.012

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# reported with their workload, not compared across workloads
WORKLOAD_METRICS = {
    "kernels": {"closed_s": "s"},
    "tables": {},
    "sampler": {"first_sample_s": "s", "samples_per_s": "1/s"},
    "cli": {"cmd_p50_s": "s", "cmd_p90_s": "s"},
}
_HIGHER = {"cache.load_hits", "cache.hit_ratio", "plancherel.draws"}


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith("cache.bytes"):
        return "bytes"
    if name in ("cache.hit_ratio", "plancherel.dropped_mass"):
        return "ratio"
    return "count"


def per_layer_names():
    from spans import layer_metrics

    empty = {"calls": {}, "incl": {}, "self_s": {}, "maxima": {}, "totals": {}, "hits": {}}
    return list(layer_metrics(empty)) + ["plancherel.dropped_mass", "cli.interpreter_s",
                                          "cli.import_s", "cli.exit_nonzero",
                                          "trace.overhead_s"]


def per_layer_spec():
    """The per-layer metric list as BENCHMARK.json states it."""
    return [{"name": n, "unit": _layer_unit(n),
             "better": "higher" if n in _HIGHER else "lower"}
            for n in per_layer_names()]


def worker_env():
    env = dict(os.environ)
    env.pop("PERMAC_CACHE_DIR", None)  # never the user's cache
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class BenchError(Exception):
    pass


def run_pass(workload, seed, traced, index, fast, inject, deadline):
    """One worker process; returns its parsed result."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    if traced:
        argv += ["--trace-out", os.path.join(ROOT, ".perfbench", "spans",
                                             f"{workload}-seed{seed}-pass{index}.json")]
    if fast:
        argv.append("--fast")
    if inject:
        argv.append("--inject-mismatch")
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(argv, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{workload} pass {index} ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {index}: worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def pass_count(workload, seconds, trace, fast):
    """Passes per run: fixed by the budget, never by how fast the passes go."""
    if trace:
        return 2  # one untraced, one traced
    if fast:
        return 1
    return max(1, int(seconds // PASS_SECONDS[workload]))


def run_workload(workload, seed, seconds, trace, fast=False, inject=False):
    """Returns the untraced and the traced pass results."""
    deadline = time.monotonic() + DEADLINE_S
    plain, traced = [], []
    for index in range(pass_count(workload, seconds, trace, fast)):
        with_trace = bool(trace) and index % 2 == 1
        res = run_pass(workload, seed, with_trace, index, fast, inject, deadline)
        (traced if with_trace else plain).append(res)
    return plain, traced


def _p90(values):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def job_wall(passes, side="seconds", scaled=False):
    """A pass's job time, each job at its median over the identical passes.

    ``scaled`` converts each time to seconds at the reference speed first.
    """
    def at_ref(rec):
        value = rec.get(side) or 0.0
        return value * REF_LOOP_S / rec["ref_loop_s"] if scaled else value

    return sum(statistics.median(at_ref(p["jobs"][i]) for p in passes)
               for i in range(len(passes[0]["jobs"])))


def end_to_end(workload, plain):
    med = lambda values: statistics.median(list(values))  # noqa: E731
    values = {
        "setup_s": med(p["setup_s"] * REF_LOOP_S / p["setup_loop_s"] for p in plain),
        "wall_s": job_wall(plain, scaled=True),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    extra = {"setup_raw_s": med(p["setup_s"] for p in plain),
             "wall_raw_s": job_wall(plain),
             "ref_loop_s": med(r["ref_loop_s"] for p in plain for r in p["jobs"])}
    if workload == "kernels":
        extra["closed_s"] = job_wall(plain, "closed_s", scaled=True)
    if workload == "sampler":
        extra["first_sample_s"] = med(p["extras"]["first_sample_s"] for p in plain)
        extra["samples_per_s"] = med(p["extras"]["samples_per_s"] for p in plain)
    if workload == "cli":
        lat = [r["seconds"] for p in plain for r in p["jobs"]]
        extra["cmd_p50_s"] = statistics.median(lat)
        extra["cmd_p90_s"] = _p90(lat)
        extra["commands"] = len(lat)
    return metrics, extra


def per_layer(plain, traced):
    """Per-layer values of the traced pass, plus its overhead over the untraced one."""
    from spans import layer_metrics

    (probe,) = traced
    values = layer_metrics(probe["aggregates"])
    dropped = probe["extras"].get("dropped_mass")
    values["plancherel.dropped_mass"] = max(dropped.values()) if dropped else 0.0
    for key in ("interpreter_s", "import_s"):
        values[f"cli.{key}"] = probe["cli"][key] if "cli" in probe else 0.0
    values["cli.exit_nonzero"] = probe["extras"].get("exit_nonzero", 0)
    values["trace.overhead_s"] = job_wall(traced) - job_wall(plain)
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in per_layer_spec()}


def _git_commit():
    """HEAD of a git checkout, read from .git without walking up the tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def run_record(seed, seconds, trace):
    """What two reports must share before their figures can be compared."""
    return {"seed": seed, "seconds": seconds, "trace": trace, "commit": _git_commit(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "machine": platform.machine()}


def job_detail(passes):
    """Every job's size parameters with its seconds in each pass."""
    rows = []
    for i, rec in enumerate(passes[0]["jobs"]):
        row = {"job": rec["job"], "params": rec["params"],
               "seconds": [p["jobs"][i]["seconds"] for p in passes],
               "ref_loop_s": [p["jobs"][i]["ref_loop_s"] for p in passes],
               "ok": all(p["jobs"][i]["ok"] for p in passes)}
        for side in ("closed_s", "oracle_s"):
            if rec.get(side) is not None:
                row[side] = [p["jobs"][i][side] for p in passes]
        errors = [p["jobs"][i]["error"] for p in passes if "error" in p["jobs"][i]]
        if errors:
            row["error"] = errors[0]
        rows.append(row)
    return rows


def measure(workload, seed, seconds, trace, fast=False, inject=False):
    """Run one workload; returns (result JSON object, report)."""
    plain, traced = run_workload(workload, seed, seconds, trace, fast, inject)
    everything = plain + traced
    attempted = sum(len(p["jobs"]) for p in everything)
    failed = sum(1 for p in everything for rec in p["jobs"] if not rec["ok"])
    e2e, extra = end_to_end(workload, plain)
    extra["fail_frac"] = failed / attempted
    metrics = per_layer(plain, traced) if trace else e2e
    report = {"workload": workload, "record": run_record(seed, seconds, trace),
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "end_to_end": e2e, "workload_metrics": extra,
              "per_layer": metrics if trace else None,
              "passes": [{"setup_s": p["setup_s"], "setup_loop_s": p["setup_loop_s"],
                          "peak_rss_mb": p["peak_rss_mb"], "traced": flag}
                         for group, flag in ((plain, False), (traced, True)) for p in group],
              "jobs": job_detail(plain)}
    if traced and "dropped_mass" in traced[0]["extras"]:
        report["dropped_mass_by_cycle"] = traced[0]["extras"]["dropped_mass"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def print_lines(workload, report):
    rows = [(k, v["value"], v["unit"]) for k, v in report["end_to_end"].items()]
    units = dict(WORKLOAD_METRICS[workload], fail_frac="ratio", commands="count",
                 setup_raw_s="s", wall_raw_s="s", ref_loop_s="s")
    rows += [(k, v, units[k]) for k, v in report["workload_metrics"].items()]
    if report["per_layer"]:
        rows += [(k, v["value"], v["unit"]) for k, v in report["per_layer"].items()]
    for name, value, unit in rows:
        print(f"{workload:8s} {name:40s} {value:>16.6g} {unit}")


def write_report(workload, seed, trace, report):
    path = os.path.join(ROOT, ".perfbench", "reports", f"{workload}-seed{seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true",
                    help="one tiny job per workload, one pass (self-test)")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="replace one oracle value by one that matches nothing")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "permac", "__init__.py")):
        print(f"error: no permac sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, report = measure(name, args.seed, args.seconds, args.trace,
                                     args.fast, args.inject_mismatch)
            print_lines(name, report)
            print(f"# report: {write_report(name, args.seed, args.trace, report)}")
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
