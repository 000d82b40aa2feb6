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

_text = lattice.format_ints


def _load_triangle(path: str) -> lattice.FanoPolygon:
    """The triangle document at the path, or on stdin for '-'."""
    if path == "-":
        return lattice.triangle_from_json(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return lattice.triangle_from_json(fh.read())


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
    callable, which are only called when that format is asked for. A
    callable obj gives the JSON document itself, in chunks, which are
    written as they come."""
    fmt = args.format
    if fmt == "json":
        if callable(obj):
            chunks = obj()
        else:
            chunks = [json.dumps(_jsonable(obj), sort_keys=True, indent=2)]
    elif fmt == "dot":
        chunks = [dot()]
    else:
        chunks = ["\n".join(text_lines())]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
            fh.write("\n")
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")


def _parse_point(text: str) -> tuple[int, int]:
    """'x,y' or '(x, y)': spaces around a coordinate are allowed."""
    parts = text.replace("(", "").replace(")", "").split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    return tuple(lattice.decimal_to_int(part.strip(" ")) for part in parts)


def cmd_analyze(args) -> int:
    P = _load_triangle(args.input)
    inv = fwps.weights_of(P)
    edges = []
    for u, v in zip(P, P[1:] + P[:1]):
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
        "vertices": [list(v) for v in P],
        "weights": list(inv.weights),
        "mult": inv.mult,
        "degree": inv.degree,
        "edges": edges,
    }
    _emit(args, obj, lambda: [
        f"weights: {_text(inv.weights)}  mult: {_text(inv.mult)}"
        f"  degree: {_text(inv.degree)}",
    ] + [
        f"edge {_text(e['from'])} -> {_text(e['to'])}: {e['type']}"
        f" ({'T' if e['t_singularity'] else 'not T'})"
        for e in edges
    ])
    return 0


def cmd_mutate(args) -> int:
    P = _load_triangle(args.input)
    factor = mutation.Factor(w=args.width, f=args.factor, length=args.length)
    Q = mutation.mutate_with(P, factor)
    obj = lattice.polygon_to_obj(Q)
    _emit(args, obj, lambda: [_text(list(v)) for v in Q])
    return 0


def cmd_enumerate(args) -> int:
    P = _load_triangle(args.input)
    results = mutation.enumerate_one_step(P, triangles_only=args.triangles_only)
    obj = {"mutations": [{"factor": f._asdict(), **lattice.polygon_to_obj(Q)}
                         for f, Q in results]}
    _emit(args, obj, lambda: [f"{len(results)} mutation class(es)"] + [
        f"w={_text(f.w)} f={_text(f.f)} l={_text(f.length)}: {_text(list(Q))}"
        for f, Q in results
    ])
    return 0


def cmd_weights_mutate(args) -> int:
    try:
        target = fwps.mutate_weights(tuple(args.weights), args.pivot)
    except fwps.NotDivisible as exc:
        _emit(args, {"result": None, "reason": str(exc)},
              lambda: [f"no mutation: {exc}"])
    else:
        _emit(args, {"result": list(target)}, lambda: [_text(target)])
    return 0


def cmd_minimal(args) -> int:
    path = diophantine.descend_to_minimal(tuple(args.weights))
    obj = {"path": [list(w) for w in path], "minimal": list(path[-1])}
    _emit(args, obj, lambda: [" -> ".join(_text(w) for w in path)])
    return 0


def cmd_tree(args) -> int:
    tree = diophantine.build_mutation_tree(
        tuple(args.weights), max_depth=args.depth, max_height=args.max_height
    )

    def json_chunks():
        return map("".join, diophantine._tree_json_chunks(tree, quoted=True))

    def text_lines():
        dec = diophantine._weight_decimals()
        return [f"{'  ' * n.depth}({', '.join(map(dec, n.weights))})"
                f" h={_text(n.height)}" + (" [truncated]" if n.truncated else "")
                for n in tree.nodes]

    _emit(args, json_chunks, text_lines, dot=lambda: diophantine.tree_to_dot(tree))
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
    _emit(args, obj, lambda: [str(eq), f"solution: {_text(sol)}"])
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
    # Each row is (a0, the free one of a1 and a2, M); the fixed one is 1.
    if args.family == "a1":
        rows, free = pell357.family_a1_fixed(args.count), "a2"
    else:
        rows, free = pell357.family_a2_fixed(args.count), "a1"
    obj = {"rows": [{"n": n, "a0": a0, args.family: 1, free: a, "M": m}
                    for n, (a0, a, m) in enumerate(rows)]}
    _emit(args, obj, lambda: [
        f"n={n} a0={_text(a0)} {free}={_text(a)} M={_text(m)}"
        for n, (a0, a, m) in enumerate(rows)])
    return 0


def _positive_int(text: str) -> int:
    n = lattice.decimal_to_int(text)
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
        # A tuple metavar breaks argparse's help and missing-argument
        # messages for positionals, so the three weights share one name.
        p.add_argument("weights", type=_positive_int, nargs=3, metavar="L",
                       help="the three positive weights L0 L1 L2")
        p.set_defaults(func=func)
        return p

    p = weights_cmd("weights-mutate", cmd_weights_mutate,
                    "mutate a weight triple at a pivot")
    # fwps.mutate_weights checks the range, for a pivot of any size
    p.add_argument("--pivot", type=lattice.decimal_to_int, metavar="{0,1,2}",
                   required=True)

    weights_cmd("minimal", cmd_minimal, "descend to the minimal weights")

    p = weights_cmd("tree", cmd_tree, "mutation tree from the minimal root")
    p.add_argument("--depth", type=_positive_int, default=None)
    p.add_argument("--max-height", type=_positive_int, default=None)

    weights_cmd("diophantine", cmd_diophantine,
                "the Diophantine equation attached to the weights")

    p = sub.add_parser("tsing", help="classify a quotient singularity 1/r(a,b)")
    p.add_argument("r", type=_positive_int)
    p.add_argument("a", type=lattice.decimal_to_int)
    p.add_argument("b", type=lattice.decimal_to_int)
    p.set_defaults(func=cmd_tsing)

    p = sub.add_parser("pell", help="terms of the Pell families of the 3-5-7 equation")
    p.add_argument("--family", choices=("a1", "a2"), required=True)
    p.add_argument("--count", type=_positive_int, default=5)
    p.set_defaults(func=cmd_pell)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse (seen on Python 3.11) reads "--opt=--" as an empty list and
    # skips the option's type and choices checks.
    if any(value == [] for value in vars(args).values()):
        parser.error("an option was given '--' as its value")
    if args.command == "tree" and args.depth is None and args.max_height is None:
        args.depth = 5
    try:
        if args.format == "dot" and args.command != "tree":
            raise ValueError("dot output is only available for 'tree'")
        return args.func(args)
    except (lattice.LatticeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

