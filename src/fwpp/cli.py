"""Command-line interface.

Every subcommand reads plain arguments or a triangle JSON document
({"vertices": [[x, y], ...]}, decimal-string coordinates) from a file path
or '-' for stdin, and writes a deterministic document: JSON with sorted
keys and decimal-string integers, plain text, or DOT for trees.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import diophantine, fwps, lattice, mutation, pell357


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_triangle(path: str) -> lattice.FanoTriangle:
    return lattice.triangle_from_json(_read_input(path))


def _jsonable(value):
    """Recursively convert ints to decimal strings and fractions to 'p/q'."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return lattice.int_to_decimal(value)
    if isinstance(value, Fraction):
        return (f"{lattice.int_to_decimal(value.numerator)}/"
                f"{lattice.int_to_decimal(value.denominator)}")
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(args, obj, text_lines, dot=None):
    """Write obj as JSON, or the document of the text_lines() or dot()
    callable, which are only called when that format is asked for."""
    fmt = args.format
    if fmt == "json":
        out = json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"
    elif fmt == "dot":
        out = dot() + "\n"
    else:
        out = "\n".join(text_lines()) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _parse_point(text: str) -> tuple[int, int]:
    parts = text.replace("(", "").replace(")", "").split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _factor_obj(factor: mutation.Factor) -> dict:
    return {"w": list(factor.w), "f": list(factor.f), "length": factor.length}


def cmd_analyze(args) -> int:
    P = _load_triangle(args.input)
    inv = fwps.weights_of(P)
    edges = []
    vs = P.vertices
    for i in range(3):
        u, v = vs[i], vs[(i + 1) % 3]
        s = fwps.cone_singularity(u, v)
        edges.append({
            "from": list(u),
            "to": list(v),
            "r": s.r,
            "a": s.a,
            "type": str(s),
            "t_singularity": fwps.is_T_singularity(s),
        })
    obj = {
        "vertices": [list(v) for v in vs],
        "weights": list(inv.weights),
        "mult": inv.mult,
        "degree": inv.degree,
        "edges": edges,
    }
    _emit(args, obj, lambda: [
        f"weights: {inv.weights}  mult: {inv.mult}  degree: {inv.degree}",
    ] + [
        f"edge {e['from']} -> {e['to']}: {e['type']}"
        f" ({'T' if e['t_singularity'] else 'not T'})"
        for e in edges
    ])
    return 0


def cmd_mutate(args) -> int:
    P = _load_triangle(args.input)
    factor = mutation.Factor(w=args.width, f=args.factor, length=args.length)
    Q = mutation.mutate_with(P, factor)
    obj = lattice.polygon_to_obj(Q)
    _emit(args, obj, lambda: [str(list(v)) for v in Q])
    return 0


def cmd_enumerate(args) -> int:
    P = _load_triangle(args.input)
    results = mutation.enumerate_one_step(P, triangles_only=args.triangles_only)
    obj = {
        "mutations": [
            {"factor": _factor_obj(f), **lattice.polygon_to_obj(Q)}
            for f, Q in results
        ]
    }
    _emit(args, obj, lambda: [f"{len(results)} mutation class(es)"] + [
        f"w={f.w} f={f.f} l={f.length}: {list(Q)}" for f, Q in results
    ])
    return 0


def cmd_weights_mutate(args) -> int:
    try:
        target = fwps.mutate_weights(tuple(args.weights), args.pivot)
    except fwps.NotDivisible as exc:
        _emit(args, {"result": None, "reason": str(exc)},
              lambda: [f"no mutation: {exc}"])
    else:
        _emit(args, {"result": list(target)}, lambda: [str(tuple(target))])
    return 0


def cmd_minimal(args) -> int:
    path = diophantine.descend_to_minimal(tuple(args.weights))
    obj = {"path": [list(w) for w in path], "minimal": list(path[-1])}
    _emit(args, obj, lambda: [" -> ".join(str(w) for w in path)])
    return 0


def cmd_tree(args) -> int:
    tree = diophantine.build_mutation_tree(
        tuple(args.weights), max_depth=args.depth, max_height=args.max_height
    )
    obj = diophantine.tree_to_obj(tree)
    _emit(args, obj, lambda: [
        f"{'  ' * n.depth}{n.weights} h={n.height}"
        + (" [truncated]" if n.truncated else "")
        for n in tree.nodes
    ], dot=lambda: diophantine.tree_to_dot(tree))
    return 0


def cmd_diophantine(args) -> int:
    eq, sol, deriv = diophantine.derive_equation(tuple(args.weights))
    obj = {
        "equation": str(eq),
        "m": eq.m,
        "k": eq.k,
        "c": list(eq.c),
        "r": eq.r,
        "solution": list(sol),
        "derivation": {"d": deriv.d, "S": deriv.S, "T": deriv.T, "g": deriv.g},
    }
    _emit(args, obj, lambda: [str(eq), f"solution: {sol}"])
    return 0


def cmd_tsing(args) -> int:
    s = fwps.quotient_singularity(args.r, args.a, args.b)
    obj = {
        "r": s.r,
        "a": s.a,
        "normalized": str(s),
        "t_singularity": fwps.is_T_singularity(s),
    }
    _emit(args, obj,
          lambda: [f"{s}: {'T' if fwps.is_T_singularity(s) else 'not T'}"])
    return 0


def cmd_pell(args) -> int:
    if args.family == "a1":
        rows = pell357.family_a1_fixed(args.count)
        keys = ("a0", "a2")
    else:
        rows = pell357.family_a2_fixed(args.count)
        keys = ("a0", "a1")
    obj = {
        "rows": [
            {
                "n": n,
                "a0": row[0],
                "a1": 1 if args.family == "a1" else row[1],
                "a2": row[1] if args.family == "a1" else 1,
                "M": row[2],
            }
            for n, row in enumerate(rows)
        ]
    }
    _emit(args, obj, lambda: [f"n={n} {keys[0]}={r[0]} {keys[1]}={r[1]} M={r[2]}"
                              for n, r in enumerate(rows)])
    return 0


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwpp",
        description="Mutations of Fano triangles and fake weighted "
                    "projective planes (exact arithmetic).",
    )
    parser.add_argument("--format", choices=("json", "text", "dot"),
                        default="json", help="output format (default: json)")
    parser.add_argument("--output", help="write the document to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    def triangle_cmd(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="triangle JSON file, or '-' for stdin")
        p.set_defaults(func=func)
        return p

    triangle_cmd("analyze", cmd_analyze,
                 "weights, mult, degree, and edge singularities")

    p = triangle_cmd("mutate", cmd_mutate, "apply one combinatorial mutation")
    p.add_argument("--width", type=_parse_point, required=True, help="w as 'a,b'")
    p.add_argument("--factor", type=_parse_point, required=True,
                   help="factor direction f as 'x,y'")
    p.add_argument("--length", type=_positive_int, default=1)

    p = triangle_cmd("enumerate", cmd_enumerate,
                     "all one-step mutations up to equivalence")
    p.add_argument("--triangles-only", action="store_true")

    def weights_cmd(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("weights", type=_positive_int, nargs=3,
                       metavar=("L0", "L1", "L2"))
        p.set_defaults(func=func)
        return p

    p = weights_cmd("weights-mutate", cmd_weights_mutate,
                    "mutate a weight triple at a pivot")
    p.add_argument("--pivot", type=int, choices=(0, 1, 2), required=True)

    weights_cmd("minimal", cmd_minimal, "descend to the minimal weights")

    p = weights_cmd("tree", cmd_tree, "mutation tree from the minimal root")
    p.add_argument("--depth", type=_positive_int, default=None)
    p.add_argument("--max-height", type=_positive_int, default=None)

    weights_cmd("diophantine", cmd_diophantine,
                "the Diophantine equation attached to the weights")

    p = sub.add_parser("tsing", help="classify a quotient singularity 1/r(a,b)")
    p.add_argument("r", type=_positive_int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=cmd_tsing)

    p = sub.add_parser("pell", help="terms of the Pell families of the 3-5-7 equation")
    p.add_argument("--family", choices=("a1", "a2"), required=True)
    p.add_argument("--count", type=_positive_int, default=5)
    p.set_defaults(func=cmd_pell)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tree" and args.depth is None and args.max_height is None:
        args.depth = 5
    try:
        if args.format == "dot" and args.command != "tree":
            raise ValueError("dot output is only available for 'tree'")
        return args.func(args)
    except (lattice.LatticeError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
