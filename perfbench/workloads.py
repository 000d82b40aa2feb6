"""The three workloads: inputs made from a seed, one timed call per op,
and checks of each op's output that run after the op's clock has stopped.

triangles  lattice and mutation: a stratified random corpus of Fano
           triangles, each analysed and mutated two steps deep, then the
           Markov max-growth rungs, heights 3 up to 1.4e9.
weights    fwps, diophantine and pell357 on big integers: the depth-16
           Markov tree and its JSON, descents, equations and Pell families.
cli        fresh `python -m fwpp` processes on small inputs, one at a time,
           where interpreter start-up and imports dominate.

Every op's output is checked against invariants recomputed in checks.py,
and against a SHA-256 digest recorded at the commit that added this
benchmark where one exists (golden.json, written by make_golden.py).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

from fwpp import diophantine, fwps, lattice, mutation, pell357

import checks
from checks import require

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

DEFAULT_CAP_S = 20.0
# The two ops that outgrow any reasonable cap in the fwpp this benchmark was
# added with (the sixth Markov rung and the depth-11 equation) time out by
# design after this long.
GROWTH_CAP_S = 2.0

CORPUS_SIZE = 300
TAKE_ALL = 10
MARKOV_RUNGS = [(1, 1, 1), (1, 1, 4), (1, 4, 25), (4, 25, 841),
                (25, 841, 187489), (841, 187489, 1418727556)]
DESCENT_SAMPLES = 64
DESCENT_DEPTH = 16
PELL_TERMS = 300
BIGINT_STEPS = 18


@dataclass
class Op:
    """One timed operation. `run` is the only timed part; `check` raises
    WrongOutput; `serialize` gives the JSON-ready (or str/bytes) output
    whose digest is compared with the recorded one."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    serialize: Callable[[Any], Any] | None = None
    cap: float = DEFAULT_CAP_S
    trace_file: str | None = None

    def verify(self, result, digests: dict) -> None:
        self.check(result)
        want = digests.get(self.name)
        if want is not None and self.serialize is not None:
            require(checks.digest(self.serialize(result)) == want,
                    "output differs from the recorded digest")


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def build(workload: str, seed: int, golden: dict, tmp: str, traced: bool) -> list[Op]:
    rng = random.Random(seed)
    if workload == "triangles":
        return triangle_ops(select_corpus(golden["pool"], rng)) + rung_ops()
    if workload == "weights":
        return weights_ops(rng)
    if workload == "cli":
        return cli_ops(select_cli(rng), tmp, traced)
    raise ValueError(f"unknown workload {workload!r}")


# --- triangles -----------------------------------------------------------------

def select_corpus(pool, rng):
    """CORPUS_SIZE triangles of the pool, stratified by cost.

    The pool is sorted by the number of lattice slices its op took when the
    benchmark was added, a heavy-tailed cost: its costliest triangle takes
    eight times the slices of the tenth. The TAKE_ALL costliest are in every
    corpus; each other pick comes from its own stratum of about five
    triangles of similar cost. So every seed draws different triangles but
    the same mix of cheap and costly ones, which keeps the spread between
    seeds down.
    """
    rest, n = pool[:-TAKE_ALL], CORPUS_SIZE - TAKE_ALL
    edges = [i * len(rest) // n for i in range(n + 1)]
    picks = [rest[rng.randrange(edges[i], edges[i + 1])] for i in range(n)]
    picks += pool[-TAKE_ALL:]
    rng.shuffle(picks)
    return [lattice.make_fano_triangle(p[0:2], p[2:4], p[4:6]) for p in picks]


def _enum_obj(results):
    return [[list(f.w), list(f.f), int(f.length),
             [list(v) for v in checks.vertices(Q)]] for f, Q in results]


def _check_mutations(results, deg, mult):
    for _, Q in results:
        require(checks.is_fano(Q), "mutation output {!r} is not Fano", Q)
        require(checks.degree(Q) == deg, "mutation changed the degree: {!r}", Q)
        if len(Q) == 3:
            require(checks.weights_mult(Q)[1] == mult,
                    "mutation changed mult: {!r}", Q)


def corpus_name(P) -> str:
    return "corpus:" + ",".join(str(x) for v in checks.vertices(P) for x in v)


def _corpus_op(P) -> Op:
    def run():
        inv = fwps.weights_of(P)
        vs = P.vertices
        cones = [fwps.cone_singularity(vs[i], vs[(i + 1) % 3]) for i in range(3)]
        deg = lattice.degree(P)
        first = mutation.enumerate_one_step(P)
        second = [mutation.enumerate_one_step(Q) for _, Q in first if len(Q) == 3]
        return inv, cones, deg, first, second

    def check(out):
        inv, cones, deg, first, second = out
        weights, mult = checks.weights_mult(P)
        want = checks.degree(P)
        require((tuple(inv.weights), inv.mult) == (weights, mult), "weights_of disagrees")
        require(deg == want == inv.degree == checks.weight_degree(weights, mult),
                "degree disagrees")
        vs = checks.vertices(P)
        for i, c in enumerate(cones):
            require(c.r == abs(checks.det(vs[i], vs[(i + 1) % 3])), "cone index")
        for results in [first, *second]:
            _check_mutations(results, want, mult)

    def serialize(out):
        inv, cones, deg, first, second = out
        return {"weights": list(inv.weights), "mult": inv.mult, "degree": str(deg),
                "cones": [[c.r, c.a] for c in cones], "first": _enum_obj(first),
                "second": [_enum_obj(r) for r in second]}

    return Op(corpus_name(P), run, check, serialize)


def triangle_ops(corpus) -> list[Op]:
    return [_corpus_op(P) for P in corpus]


def _rung_op(w) -> Op:
    def run():
        P = fwps.wps_triangle(*w)
        return P, mutation.enumerate_one_step(P)

    def check(out):
        P, results = out
        require(checks.weights_mult(P) == (tuple(sorted(w)), 1), "wps_triangle weights")
        require(results, "no one-step mutation found")
        _check_mutations(results, checks.weight_degree(w), 1)

    def serialize(out):
        P, results = out
        return {"triangle": [list(v) for v in checks.vertices(P)],
                "first": _enum_obj(results)}

    cap = GROWTH_CAP_S if w == MARKOV_RUNGS[-1] else DEFAULT_CAP_S
    return Op("rung:" + ",".join(map(str, w)), run, check, serialize, cap)


def rung_ops() -> list[Op]:
    return [_rung_op(w) for w in MARKOV_RUNGS]


# --- weights -------------------------------------------------------------------

def markov_tree(max_depth):
    """Weights of the (1,1,1) mutation tree to max_depth, level by level."""
    out = level = [(1, 1, 1)]
    for _ in range(max_depth):
        level = sorted({t for w in level for p in range(3)
                        if (t := checks.mutate_weights(w, p)) is not None
                        and sum(t) > sum(w)})
        out = out + level
    return out


def max_branch(steps):
    """The max-growth branch (1,1,1), (1,1,4), (1,4,25), ... of given length."""
    path = [(1, 1, 1)]
    for _ in range(steps):
        path.append(checks.mutate_weights(path[-1], 0))
    return path


def random_climb(rng, steps):
    """A seeded height-increasing path of weight mutations from (1,1,1)."""
    path = [(1, 1, 1)]
    for _ in range(steps):
        w = path[-1]
        ups = sorted({t for p in range(3)
                      if (t := checks.mutate_weights(w, p)) is not None and sum(t) > sum(w)})
        path.append(rng.choice(ups))
    return path


def _tree_ops(root, depth, nodes, markov) -> list[Op]:
    """Build a mutation tree (one op), then write its JSON (a second op)."""
    built = {}
    name = "tree:" + ",".join(map(str, root)) + f":{depth}"

    def run_build():
        built["tree"] = diophantine.build_mutation_tree(root, max_depth=depth)
        return built["tree"]

    def check_build(tree):
        ns = tree.nodes
        require(len(ns) == nodes, "{} nodes, expected {}", len(ns), nodes)
        require(tuple(ns[0].weights) == tuple(sorted(root)), "tree root")
        deg = checks.weight_degree(ns[0].weights)
        for n in ns:
            w = tuple(n.weights)
            # On the Markov tree, (a^2, b^2, c^2) with a^2+b^2+c^2 = 3abc
            # already fixes the degree at 9.
            if markov:
                require(checks.markov_root(w) is not None, "{} is not a Markov square triple", w)
            else:
                require(checks.weight_degree(w) == deg, "degree changes at {}", w)
            require(n.height == sum(w), "height of {}", w)
            if n.parent is not None:
                parent = ns[n.parent]
                require(checks.mutate_weights(parent.weights, n.pivot) == w,
                        "{} is not a mutation of its parent", w)
                require(n.height > parent.height, "height does not grow at {}", w)

    def run_json():
        return diophantine.tree_to_json(built.pop("tree"))

    def check_json(text):
        require(text.startswith("{"), "tree JSON")

    return [Op(name, run_build, check_build),
            Op(name + ":json", run_json, check_json, lambda text: text)]


def _descend_op(i, climb) -> Op:
    def run():
        return diophantine.descend_to_minimal(climb[-1])

    def check(path):
        require([tuple(w) for w in path] == climb[::-1], "descent path differs")
        heights = [sum(w) for w in path]
        require(all(a > b for a, b in zip(heights, heights[1:])), "heights not decreasing")

    return Op(f"descend:{i}", run, check)


def _derive_op(name, w, cap=DEFAULT_CAP_S) -> Op:
    def run():
        return diophantine.derive_equation(w)

    def check(out):
        eq, solution, _ = out
        require(checks.solves(eq, solution), "derived solution fails for {}", w)

    def serialize(out):
        eq, solution, d = out
        return {"m": eq.m, "k": eq.k, "c": list(eq.c), "r": eq.r,
                "solution": list(solution), "derivation": [d.d, d.S, d.T, d.g]}

    return Op(name, run, check, serialize, cap)


def _pell_op(family) -> Op:
    def run():
        if family == "a1":
            rows = pell357.family_a1_fixed(PELL_TERMS)
            sols = [(a0, 1, a2) for a0, a2, _ in rows]
        else:
            rows = pell357.family_a2_fixed(PELL_TERMS)
            sols = [(a0, a1, 1) for a0, a1, _ in rows]
        return rows, sols, [pell357.component_of(s) for s in sols]

    def check(out):
        rows, sols, comps = out
        require(len(rows) == PELL_TERMS, "term count")
        d = 15 if family == "a1" else 21
        for (_, x, m), s, comp in zip(rows, sols, comps):
            require(x * x - 1 == d * m * m, "Pell identity fails at {}", x)
            require(checks.solves_357(*s), "{} does not solve the 3-5-7 equation", s)
            require(s in comp.solutions, "{} missing from its component", s)
            require(all(checks.solves_357(*t) for t in comp.solutions), "component")

    def serialize(out):
        rows, _, comps = out
        return {"rows": [list(r) for r in rows],
                "components": [[list(t) for t in c.solutions] for c in comps]}

    return Op(f"pell:{family}", run, check, serialize)


def _bigint_io_op() -> Op:
    branch = max_branch(BIGINT_STEPS)

    def run():
        w = (1, 1, 1)
        for _ in range(BIGINT_STEPS):
            w = fwps.mutate_weights(w, 0)
        path = diophantine.descend_to_minimal(w)
        P = fwps.wps_triangle(*w)
        inv = fwps.weights_of(P)
        back = lattice.triangle_from_json(lattice.triangle_to_json(P))
        return w, path, P, inv, back

    def check(out):
        w, path, P, inv, back = out
        require(tuple(w) == branch[-1], "climb")
        require([tuple(x) for x in path] == branch[::-1], "descent path")
        require((tuple(inv.weights), inv.mult) == (branch[-1], 1), "weights_of")
        require(checks.weights_mult(P) == (branch[-1], 1), "wps_triangle")
        require(checks.vertices(back) == checks.vertices(P), "JSON round trip")

    return Op("bigint_io", run, check)


def weights_ops(rng) -> list[Op]:
    ops = _tree_ops((1, 1, 1), 16, 32769, markov=True)
    ops += _tree_ops((1, 1, 2), 12, 4096, markov=False)
    ops += _tree_ops((1, 2, 3), 12, 8191, markov=False)
    ops += [_descend_op(i, random_climb(rng, DESCENT_DEPTH))
            for i in range(DESCENT_SAMPLES)]
    ops += [_derive_op("derive:" + ",".join(map(str, w)), w) for w in markov_tree(8)]
    branch = max_branch(11)
    ops += [_derive_op("derive:branch9", branch[9]),
            _derive_op("derive:branch10", branch[10]),
            _derive_op("derive:branch11", branch[11], GROWTH_CAP_S)]
    ops += [_pell_op("a1"), _pell_op("a2"), _bigint_io_op()]
    return ops


# --- cli -----------------------------------------------------------------------

CLI_TRIANGLES = {
    "p2": ((-1, 2), (0, -1), (1, -1)),
    "w114": ((-1, -4), (1, 0), (0, 1)),
    "w123": ((-2, -3), (1, 0), (0, 1)),
    "w1425": ((-4, -25), (1, 0), (0, 1)),
    "w235": ((-4, -5), (1, 0), (1, 2)),
    "w357": ((-4, -7), (1, 0), (1, 3)),
    "bad": ((2, 0), (0, 1), (-1, -1)),  # (2, 0) is not primitive
}

# (id, argv, triangle fed on stdin or None). "@name" is the path of a
# triangle file and "@out" an output path. Only "malformed" exits 1.
CLI_POOL = [
    ("analyze-p2", ["analyze", "@p2"], None),
    ("analyze-w114", ["analyze", "@w114"], None),
    ("analyze-w123", ["analyze", "@w123"], None),
    ("analyze-w1425", ["analyze", "@w1425"], None),
    ("analyze-w235", ["analyze", "@w235"], None),
    ("analyze-w357", ["analyze", "@w357"], None),
    ("analyze-text-p2", ["--format", "text", "analyze", "@p2"], None),
    ("analyze-text-w357", ["--format", "text", "analyze", "@w357"], None),
    ("analyze-stdin-p2", ["analyze", "-"], "p2"),
    ("analyze-stdin-w235", ["analyze", "-"], "w235"),
    ("analyze-output-w123", ["--output", "@out", "analyze", "@w123"], None),
    ("mutate-p2", ["mutate", "@p2", "--width", "0,1", "--factor", "1,0"], None),
    ("mutate-w114", ["mutate", "@w114", "--width=-1,-1", "--factor=-1,1"], None),
    ("mutate-w123", ["mutate", "@w123", "--width=-1,1", "--factor", "1,1",
                     "--length", "3"], None),
    ("mutate-w235", ["mutate", "@w235", "--width=-1,1", "--factor", "1,1",
                     "--length", "5"], None),
    ("mutate-text-w1425", ["--format", "text", "mutate", "@w1425", "--width=-5,1",
                           "--factor", "1,5"], None),
    ("enumerate-p2", ["enumerate", "@p2"], None),
    ("enumerate-w123", ["enumerate", "@w123"], None),
    ("enumerate-tri-w235", ["enumerate", "@w235", "--triangles-only"], None),
    ("enumerate-text-w357", ["--format", "text", "enumerate", "@w357"], None),
    ("enumerate-stdin-w1425", ["enumerate", "-"], "w1425"),
    ("weights-mutate-114", ["weights-mutate", "1", "1", "4", "--pivot", "2"], None),
    ("weights-mutate-1425", ["weights-mutate", "1", "4", "25", "--pivot", "0"], None),
    ("weights-mutate-357", ["weights-mutate", "3", "5", "7", "--pivot", "2"], None),
    ("weights-mutate-text-425841", ["--format", "text", "weights-mutate", "4", "25",
                                    "841", "--pivot", "0"], None),
    ("minimal-425841", ["minimal", "4", "25", "841"], None),
    ("minimal-25841187489", ["minimal", "25", "841", "187489"], None),
    ("minimal-text-3532", ["--format", "text", "minimal", "3", "5", "32"], None),
    ("tree-111", ["tree", "1", "1", "1", "--depth", "5"], None),
    ("tree-dot-112", ["--format", "dot", "tree", "1", "1", "2", "--depth", "4"], None),
    ("tree-text-123", ["--format", "text", "tree", "1", "2", "3", "--depth", "4"], None),
    ("tree-output-111", ["--output", "@out", "tree", "1", "1", "1", "--depth", "6"], None),
    ("tree-height-111", ["tree", "1", "1", "1", "--max-height", "100000"], None),
    ("diophantine-1257", ["diophantine", "12", "5", "7"], None),
    ("diophantine-111", ["diophantine", "1", "1", "1"], None),
    ("diophantine-425841", ["diophantine", "4", "25", "841"], None),
    ("diophantine-text-123", ["--format", "text", "diophantine", "1", "2", "3"], None),
    ("tsing-513", ["tsing", "5", "1", "3"], None),
    ("tsing-411", ["tsing", "4", "1", "1"], None),
    ("tsing-text-912", ["--format", "text", "tsing", "9", "1", "2"], None),
    ("pell-a1", ["pell", "--family", "a1", "--count", "6"], None),
    ("pell-text-a2", ["--format", "text", "pell", "--family", "a2", "--count", "6"], None),
    ("pell-a2-12", ["pell", "--family", "a2", "--count", "12"], None),
    ("malformed", ["analyze", "@bad"], None),
]
# Always run: every subcommand, stdin input, --output, dot and text output,
# and the malformed triangle.
CLI_REQUIRED = ["analyze-stdin-p2", "mutate-p2", "enumerate-p2", "weights-mutate-114",
                "minimal-425841", "tree-dot-112", "tree-output-111", "diophantine-1257",
                "tsing-513", "pell-text-a2", "malformed"]
CLI_OPS_PER_PASS = 16


def select_cli(rng):
    by_id = {entry[0]: entry for entry in CLI_POOL}
    rest = [e for e in CLI_POOL if e[0] not in CLI_REQUIRED]
    picks = [by_id[i] for i in CLI_REQUIRED]
    picks += rng.sample(rest, CLI_OPS_PER_PASS - len(picks))
    rng.shuffle(picks)
    return picks


def triangle_text(vertices) -> str:
    return json.dumps({"vertices": [[str(x), str(y)] for x, y in vertices]})


def write_cli_inputs(tmp):
    paths = {}
    for name, vs in CLI_TRIANGLES.items():
        paths[name] = os.path.join(tmp, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(triangle_text(vs))
    return paths


def _cli_op(index, entry, paths, tmp, traced) -> Op:
    op_id, argv, stdin_name = entry
    out_path = os.path.join(tmp, f"out-{index}.txt")
    argv = [out_path if a == "@out" else paths[a[1:]] if a.startswith("@") else a
            for a in argv]
    stdin = triangle_text(CLI_TRIANGLES[stdin_name]).encode() if stdin_name else None
    trace_file = os.path.join(tmp, f"trace-{index}.json") if traced else None
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_file, *argv]
    else:
        cmd = [sys.executable, "-m", "fwpp", *argv]

    def run():
        if os.path.exists(out_path):
            os.remove(out_path)
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(stdin)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return proc.returncode, out, err

    def document(result):
        rc, out, _ = result
        if "@out" not in entry[1]:
            return out
        require(out == b"", "stdout not empty with --output")
        with open(out_path, "rb") as fh:
            return fh.read()

    def check(result):
        rc, out, err = result
        if op_id == "malformed":
            lines = err.decode(errors="replace").splitlines()
            require(rc == 1 and out == b"", "malformed input: exit {}", rc)
            require(len(lines) == 1 and lines[0].startswith("error:"),
                    "malformed input: stderr {!r}", err[:200])
            return
        require(rc == 0, "exit {}: {!r}", rc, err[-300:])
        require(err == b"", "stderr {!r}", err[-300:])
        document(result)

    return Op("cli:" + op_id, run, check, document, trace_file=trace_file)


def cli_ops(entries, tmp, traced=False) -> list[Op]:
    paths = write_cli_inputs(tmp)
    return [_cli_op(i, e, paths, tmp, traced) for i, e in enumerate(entries)]
