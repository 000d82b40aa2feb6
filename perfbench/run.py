"""Benchmark of fwpp: one workload per run, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload triangles|weights|cli --seed N \
        --seconds S --trace 0|1

A run makes passes over the workload's list of ops for about S seconds.
Each pass is a fresh worker process (perfbench/worker.py) and passes run
one after another: a closed loop with one client and no threads; the cli
workload starts one fwpp process at a time. Every output is checked.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, and
with --trace 1 the per-layer metrics of the traced passes, which alternate
with untraced ones so that the tracing overhead can be reported. The line
before it records the environment and every pass.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import SPAN_METRICS, finish  # noqa: E402

WORKLOADS = ("triangles", "weights", "cli")
RUN_LIMIT_S = 165.0   # every run must end within 180 s
PASS_LIMIT_S = 120.0
TAIL_BEYOND = 10      # op_tail_ms: highest percentile with >= 10 ops beyond it
PROBES = 3            # launches per start-up probe in a traced run
SETUP_SAMPLES = 7     # setup_s is the median of at least this many set-ups
TMP = ".perfbench_tmp"
OUT = ".perfbench_out"


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(latencies):
    """(latency, percentile): the op at rank n-10 of n has 10 ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_pass(args, env, traced, run_start, index, setup_only=False):
    tmp = os.path.join(TMP, f"pass{index}")
    os.makedirs(tmp, exist_ok=True)
    t0 = time.monotonic()
    deadline = min(t0 + PASS_LIMIT_S, run_start + RUN_LIMIT_S - 5.0)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--traced", str(int(traced)), "--deadline", repr(deadline), "--tmp", tmp]
    if setup_only:
        cmd.append("--setup-only")
    elif traced and args.workload != "cli":
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}.bin")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        out, err = proc.communicate(timeout=max(deadline - t0, 0.0) + 15.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    end = time.monotonic()
    shutil.rmtree(tmp, ignore_errors=True)
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"traced": traced, "crashed": err.decode(errors="replace")[-2000:],
                "duration": end - t0}
    res.update(traced=traced, crashed=None, duration=end - t0, setup_s=res["ready"] - t0)
    if not setup_only:
        res["wall_s"] = sum(op[1] for op in res["ops"])
    return res


def probe_ms(cmd, env):
    t0 = time.perf_counter()
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True)
    return (time.perf_counter() - t0) * 1e3, done.stdout


def startup_probes(env):
    """cli.interp_floor_ms (`python -c pass`) and cli.import_ms (a fresh
    `import fwpp.cli`, timed inside the child)."""
    floor = [probe_ms([sys.executable, "-c", "pass"], env)[0] for _ in range(PROBES)]
    code = ("import time; t = time.perf_counter(); import fwpp.cli; "
            "print(time.perf_counter() - t)")
    imports = [float(probe_ms([sys.executable, "-c", code], env)[1]) * 1e3
               for _ in range(PROBES)]
    return median(floor), median(imports)


def end_to_end(passes, setups):
    plain = [p for p in passes if not p["traced"]]
    per_op = {}
    for p in plain:
        for name, latency, _, _ in p["ops"]:
            per_op.setdefault(name, []).append(latency)
    op_ms = [median(v) * 1e3 for v in per_op.values()]
    tail_ms, pct = tail(op_ms)
    ops = [op for p in plain for op in p["ops"]]
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([p["wall_s"] for p in plain]), "s"),
        "op_p50_ms": (median(op_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (median([p["peak_rss_kb"] / 1024 for p in plain]), "MB"),
        "ok_frac": (sum(op[2] == "ok" for op in ops) / len(ops), "ratio"),
    }
    return metrics, {"op_tail_percentile": pct, "ops_per_pass": len(per_op)}


def per_layer(passes, env):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = [finish(p["raw"]) for p in traced]
    metrics = {k: (median([m[k] for m in layers]), unit) for k, unit in SPAN_METRICS.items()}
    floor_ms, import_ms = startup_probes(env)
    untraced_wall = median([p["wall_s"] for p in plain])
    traced_wall = median([p["wall_s"] for p in traced])
    metrics.update({
        "cli.interp_floor_ms": (floor_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_ms": (median([median(p["cli_main_s"]) * 1e3 for p in traced]), "ms"),
        "cli.stdout_bytes": (median([p["cli_stdout_bytes"] for p in traced]), "bytes"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    return metrics


def environment(args):
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = None
    return {
        "python": sys.version.split()[0],
        "sympy": sympy,
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "fwpp", "__init__.py")):
        print("perfbench: run from the root of an fwpp checkout (no src/fwpp here)",
              file=sys.stderr)
        return 2
    run_start = time.monotonic()
    # Byte-compile up front so that no measured start-up pays for it.
    compileall.compile_dir("src", quiet=1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    kinds = [False, True] if args.trace else [False]
    passes, last = [], {}
    while True:
        traced = kinds[len(passes) % len(kinds)]
        res = run_pass(args, env, traced, run_start, len(passes))
        passes.append(res)
        last[traced] = res["duration"]
        if res["crashed"]:
            break
        # Keep time for what follows the passes: the missing set-up samples,
        # or the start-up probes of a traced run (each about one set-up).
        setup = median([p["setup_s"] for p in passes])
        after = 2 * PROBES if args.trace else max(SETUP_SAMPLES - len(passes) - 1, 0)
        upcoming = kinds[len(passes) % len(kinds)]
        estimate = last.get(upcoming, res["duration"]) + after * setup
        elapsed = time.monotonic() - run_start
        covered = len(passes) >= len(kinds)
        if covered and elapsed + estimate > args.seconds:
            break
        if elapsed + estimate > RUN_LIMIT_S - 10.0:
            break
    missing = 0 if args.trace else max(SETUP_SAMPLES - len(passes), 0)
    extra = [run_pass(args, env, False, run_start, len(passes) + i, setup_only=True)
             for i in range(missing)]
    shutil.rmtree(TMP, ignore_errors=True)

    crashed = [p for p in passes + extra if p["crashed"]]
    if crashed:
        print(f"perfbench: a worker failed:\n{crashed[0]['crashed']}", file=sys.stderr)
        return 1

    ops = [op for p in passes for op in p["ops"]]
    e2e, shape = end_to_end(passes, [p["setup_s"] for p in passes + extra])
    metrics = per_layer(passes, env) if args.trace else e2e
    env_record = environment(args) | shape | {"op_tail_beyond": TAIL_BEYOND}
    print(json.dumps({
        "env": env_record,
        "passes": [{"traced": p["traced"], "setup_s": p["setup_s"], "wall_s": p["wall_s"],
                    "peak_rss_mb": p["peak_rss_kb"] / 1024,
                    "not_ok": [[n, s, d] for n, _, s, d in p["ops"] if s != "ok"]}
                   for p in passes],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
    }))
    print(json.dumps({
        "correct": not any(op[2] == "wrong" for op in ops),
        "attempted": len(ops),
        "failed": sum(op[2] != "ok" for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
