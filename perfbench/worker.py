"""One pass of a workload, in a fresh process.

Usage, from the root of a checkout with its src directory on PYTHONPATH:

    python perfbench/worker.py --workload W --seed N --traced 0|1 \
        --deadline T --tmp DIR

Set-up is the interpreter start, `import fwpp`, loading the recorded
digests and making the inputs from the seed; there is no warm-up, so each
pass starts with every cache of the process empty (sympy's factor cache
included), as a user's `fwpp` run does. Each op then runs under its own
wall-clock cap, enforced by SIGALRM in this single thread, and its output
is checked once its clock has stopped.

Prints one JSON object: when set-up ended (time.monotonic), per-op latency
and status, peak RSS, and with --traced 1 the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time


class OpTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so that no `except
    Exception` inside the library can swallow it."""


_armed = False


def _on_alarm(signum, frame):
    # One OpTimeout per arming at most, so none can escape run_op.
    global _armed
    if _armed:
        _armed = False
        raise OpTimeout


def run_op(op, deadline):
    """(latency_s, status, result or detail) of one op under its cap."""
    global _armed
    cap = min(op.cap, deadline - time.monotonic())
    if cap <= 0:
        return op.cap, "skipped", "pass deadline reached"
    result, status = None, "ok"
    t0 = time.perf_counter()
    try:
        try:
            _armed = True
            signal.setitimer(signal.ITIMER_REAL, cap)
            result = op.run()
            _armed = False
        except Exception as exc:  # an op that raises is a failed op
            _armed = False
            status, result = "error", f"{type(exc).__name__}: {str(exc)[:300]}"
    except OpTimeout:
        status, result = "timeout", f"over its {cap:.3g} s cap"
    latency = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    if status == "ok" and latency > cap:  # the alarm was swallowed
        status, result = "timeout", f"over its {cap:.3g} s cap"
    return latency, status, result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans", default=None, help="write the spans here")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once set-up is done (an extra set-up sample)")
    args = ap.parse_args()

    import fwpp  # noqa: F401  (part of set-up)
    import workloads

    golden = workloads.load_golden()
    ops = workloads.build(args.workload, args.seed, golden, args.tmp, bool(args.traced))
    ready = time.monotonic()
    if args.setup_only:
        sys.stdout.write(json.dumps({"ready": ready}) + "\n")
        return 0

    tracer = None
    if args.traced and args.workload != "cli":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    records, child_raw, main_s, stdout_bytes = [], [], [], 0
    for op in ops:
        span = tracer.begin("op") if tracer else None
        latency, status, result = run_op(op, args.deadline)
        if tracer:
            tracer.end(span)
        detail = None
        if status == "ok":
            try:
                op.verify(result, golden["digests"])
            except Exception as exc:  # WrongOutput, or an output checks cannot read
                status, detail = "wrong", f"{type(exc).__name__}: {str(exc)[:300]}"
        else:
            detail = result
        result = None
        if op.trace_file and os.path.exists(op.trace_file):
            with open(op.trace_file, encoding="utf-8") as fh:
                summary = json.load(fh)
            child_raw.append(summary["raw"])
            main_s.append(summary["main_s"])
            stdout_bytes += summary["stdout_bytes"]
        records.append([op.name, latency, status, detail])

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out = {
        "ready": ready,
        "ops": records,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }
    if args.traced:
        from tracer import merge_metrics
        out["raw"] = merge_metrics(child_raw + ([tracer.raw_metrics()] if tracer else []))
        out["cli_main_s"] = main_s
        out["cli_stdout_bytes"] = stdout_bytes
        if tracer and args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
