"""One pass of one workload in a fresh interpreter.

Started by ``run.py``; prints one JSON object with the pass's set-up time,
wall time, peak memory, per-job seconds and outcomes, the reference-loop
timings that measure the machine's speed around each job, and, when traced,
the span aggregates.  The in-process memo caches start cold, as they do for
a user's first command, and warm up along the pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

RECALIBRATE_S = 0.3  # time the reference loop again once this much has passed


def reference_loop() -> float:
    """Seconds for a fixed slice of exact arithmetic: the speed we get now.

    Other processes on the machine slow this loop as they slow the program.
    Garbage collection is off for the loop, so the heap the program built
    does not change its cost; its operands stay a few digits long.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        y = Fraction(0)
        for k in range(1, 3000):
            y = (y + Fraction(k, k + 1)) * Fraction(k + 1, k + 2)
        return time.perf_counter() - started
    finally:
        gc.enable()


def run_jobs(jobs, inject, calibrate):
    """Closed loop: each job is sent only after the previous one was checked.

    With ``calibrate``, the reference loop runs before the first job, after
    the last, and between jobs once ``RECALIBRATE_S`` has passed; each job
    records the mean of the loop timings just before and just after it.
    """
    from workloads import Mismatch

    records, marks, loops = [], [], []

    def mark():
        loops.append(reference_loop())
        marks.append(time.perf_counter())

    if calibrate:
        mark()
    injected = False
    for job in jobs:
        if calibrate and time.perf_counter() - marks[-1] > RECALIBRATE_S:
            mark()
        rec = {"job": job.name, "params": job.params, "ok": False, "loop": len(loops) - 1}
        started = time.perf_counter()
        try:
            value = job.closed() if job.closed else None
            closed_done = time.perf_counter()
            expected = job.oracle() if job.oracle else None
            oracle_done = time.perf_counter()
            if inject and job.oracle and not injected:
                expected, injected = Mismatch(), True
            rec["ok"] = bool(job.check(value, expected))
            rec["closed_s"] = closed_done - started if job.closed else None
            rec["oracle_s"] = oracle_done - closed_done if job.oracle else None
        except Exception as exc:  # a crash is a failed check, never a skip
            rec["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        rec["seconds"] = time.perf_counter() - started
        records.append(rec)
    if calibrate:
        mark()
    for rec in records:
        i = rec.pop("loop")
        rec["ref_loop_s"] = (loops[i] + loops[i + 1]) / 2 if calibrate else None
    return records, (loops[0] if calibrate else None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--trace-out", help="traced pass: write spans here")
    ap.add_argument("--fast", action="store_true")
    ap.add_argument("--inject-mismatch", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace_out:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    import workloads

    trace_dir = None
    if tracer is not None and args.workload == "cli":
        trace_dir = os.path.splitext(args.trace_out)[0] + "-cmds"
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    wl = workloads.build(args.workload, args.seed, args.fast,
                         trace_dir=trace_dir, inject=args.inject_mismatch)
    setup_s = time.monotonic() - args.spawned_at
    try:
        records, setup_loop_s = run_jobs(wl.jobs, args.inject_mismatch,
                                         calibrate=tracer is None)
    finally:
        if wl.cleanup:
            wl.cleanup()

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out = {"setup_s": setup_s, "setup_loop_s": setup_loop_s,
           "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
           "jobs": records, "extras": dict(wl.extras)}
    if tracer is not None:
        from spans import merge_aggregates

        parts = [tracer.aggregates()]
        if trace_dir:
            cmds = []
            for name in sorted(os.listdir(trace_dir)):
                with open(os.path.join(trace_dir, name)) as fh:
                    cmds.append(json.load(fh))
            parts += [c["aggregates"] for c in cmds]
            out["cli"] = {
                "interpreter_s": statistics.median(c["interpreter_s"] for c in cmds),
                "import_s": statistics.median(c["import_s"] for c in cmds)}
        out["aggregates"] = merge_aggregates(parts)
        tracer.dump(args.trace_out)
        if wl.observe:
            out["extras"].update(wl.observe())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
