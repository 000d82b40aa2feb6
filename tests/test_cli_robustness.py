"""cli.main on generated argv and arbitrary triangle documents.

Every run must end in one of three ways: exit 0 with a document that
parses, exit 1 with exactly one `error:` line on stderr and nothing on
stdout, or argparse's SystemExit(2) for argv it rejects. A traceback fails
the test. Integers and tree depths are kept small so that each run is fast.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from fwpp.cli import main

JUNK = st.sampled_from(["", "x", "1.5", "-0", "+3", "1_0", " 7", "0x10", "1e3",
                        "٣", "nan", "--", "-"])
# Past Python's 4300-digit int/str limit; only where it is cheap to use.
HUGE = "1" + "0" * 4399 + "1"  # 10**4400 + 1


def integer(lo, hi):
    """An integer token in [lo, hi], or a token that is no such integer."""
    return st.one_of(st.integers(lo, hi).map(str), JUNK)


WEIGHT = st.one_of(st.sampled_from(["1", "2", "3", "4", "5", "7", "12", "25", "841"]),
                   integer(-2, 10**6))
WEIGHTS = st.lists(WEIGHT, min_size=3, max_size=3)
POINT = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda p: f"{p[0]},{p[1]}"),
    JUNK)


def flag(name, values):
    """Nothing, or one `name=value` option."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
COORDINATE = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(str), JSON_VALUE)
TRIANGLE_DOC = st.one_of(
    st.lists(st.lists(COORDINATE, min_size=2, max_size=2), min_size=2, max_size=4)
    .map(lambda vs: json.dumps({"vertices": vs})),
    JSON_VALUE.map(json.dumps),
    st.text(max_size=20))


@st.composite
def invocations(draw):
    """(argv, triangle document or None, whether it is read from stdin)."""
    command = draw(st.sampled_from(["analyze", "mutate", "enumerate", "weights-mutate",
                                    "minimal", "tree", "diophantine", "tsing", "pell"]))
    doc, stdin = None, False
    if command in ("analyze", "mutate", "enumerate"):
        doc, stdin = draw(TRIANGLE_DOC), draw(st.booleans())
        args = ["-" if stdin else "@doc"]
        if command == "mutate":
            args += draw(flag("--width", POINT)) + draw(flag("--factor", POINT))
            args += draw(flag("--length", integer(-1, 4)))
        elif command == "enumerate":
            args += draw(st.sampled_from([[], ["--triangles-only"]]))
    elif command == "tsing":
        args = [draw(integer(1, 10**6) | st.just(HUGE))]
        args += [draw(integer(-10**6, 10**6) | st.just(HUGE)) for _ in range(2)]
    elif command == "pell":
        args = draw(flag("--family", st.sampled_from(["a1", "a2", "a3"])))
        args += draw(flag("--count", integer(0, 30)))
    elif command == "minimal":
        args = draw(st.lists(WEIGHT | st.just(HUGE), min_size=3, max_size=3))
    else:
        args = draw(WEIGHTS)
        if command == "weights-mutate":
            args += draw(flag("--pivot", integer(-1, 3)))
        elif command == "tree":
            args += draw(flag("--depth", integer(0, 6)))
            args += draw(flag("--max-height", integer(0, 10**6)))
    opts = draw(flag("--format", st.sampled_from(["json", "text", "dot", "yaml"])))
    opts += draw(st.sampled_from([[], ["--output", "@out"]]))
    return opts + [command] + args, doc, stdin


def run(argv, doc, stdin, tmp):
    paths = {"@doc": os.path.join(tmp, "doc.json"), "@out": os.path.join(tmp, "out")}
    if doc is not None:
        with open(paths["@doc"], "w", encoding="utf-8") as fh:
            fh.write(doc)
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(doc if stdin else "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("argparse", exc.code)
    finally:
        sys.stdin = saved_stdin
    written = None
    if os.path.exists(paths["@out"]):
        with open(paths["@out"], encoding="utf-8") as fh:
            written = fh.read()
    return code, out.getvalue(), err.getvalue(), written


def parses(fmt, document):
    if fmt == "json":
        json.loads(document)
        return True
    if fmt == "dot":
        return document.startswith("digraph") and document.endswith("}\n")
    return document.endswith("\n")


@settings(max_examples=400, deadline=None)
@given(invocations())
def test_every_run_exits_cleanly(invocation):
    argv, doc, stdin = invocation
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, written = run(argv, doc, stdin, tmp)
    if code == ("argparse", 2):
        assert out == "" and written is None
        return
    if code == 1:
        assert out == "" and written is None
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        return
    assert code == 0, code
    assert err == ""
    fmt = next((a.split("=", 1)[1] for a in argv if a.startswith("--format=")), "json")
    if "--output" in argv:
        assert out == ""
        out = written
    assert parses(fmt, out), out[:200]


# One refused token for each integer or point argument, and the argument
# and expectation argparse's message must name.
REFUSED_ARGUMENTS = {
    "L": (["weights-mutate", "1", "1", "x", "--pivot", "0"],
          "argument L: expected an integer, got 'x'"),
    "L-positive": (["minimal", "1", "0", "1"],
                   "argument L: expected a positive integer, got '0'"),
    "pivot": (["weights-mutate", "1", "1", "1", "--pivot", "x"],
              "argument --pivot: expected an integer, got 'x'"),
    "depth": (["tree", "1", "1", "1", "--depth", "1.5"],
              "argument --depth: expected an integer, got '1.5'"),
    "depth-negative": (["tree", "1", "1", "1", "--depth", "-1"],
                       "argument --depth: expected a nonnegative integer, got '-1'"),
    "max-height": (["tree", "1", "1", "1", "--max-height", "-3"],
                   "argument --max-height: expected a positive integer, got '-3'"),
    "count": (["pell", "--family", "a1", "--count", "+3"],
              "argument --count: expected an integer, got '+3'"),
    "length": (["mutate", "p.json", "--width", "0,1", "--factor", "1,0",
                "--length", "0x10"],
               "argument --length: expected an integer, got '0x10'"),
    "tsing-r": (["tsing", "0", "1", "1"],
                "argument r: expected a positive integer, got '0'"),
    "tsing-a": (["tsing", "5", "x", "1"], "argument a: expected an integer, got 'x'"),
    "tsing-b": (["tsing", "5", "1", "1e3"],
                "argument b: expected an integer, got '1e3'"),
    "width": (["mutate", "p.json", "--width", "(0,1", "--factor", "1,0"],
              "argument --width: expected 'x,y', got '(0,1'"),
    "width-triple": (["mutate", "p.json", "--width", "0,1,2", "--factor", "1,0"],
                     "argument --width: expected 'x,y', got '0,1,2'"),
    "factor": (["mutate", "p.json", "--width", "0,1", "--factor", "1,y"],
               "argument --factor: expected 'x,y', got '1,y'"),
}


@pytest.mark.parametrize("argv, message", REFUSED_ARGUMENTS.values(),
                         ids=REFUSED_ARGUMENTS.keys())
def test_a_refused_argument_names_what_was_expected(argv, message):
    """argparse quotes the __name__ of a type function that raises
    ValueError, so each one raises ArgumentTypeError with its expectation."""
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, _ = run(argv, None, False, tmp)
    assert (code, out) == (("argparse", 2), "")
    assert err.splitlines()[-1].endswith(f"error: {message}")
    assert "invalid" not in err
