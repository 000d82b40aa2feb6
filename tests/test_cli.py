import io
import json
import os
import pathlib
import re
import subprocess
import sys
from math import isqrt

import pytest

import fwpp
from fwpp.cli import main
from fwpp.fwps import cone_singularity, weights_of, wps_triangle
from fwpp.lattice import (
    decimal_to_int,
    int_to_decimal,
    make_fano_triangle,
    triangle_from_json,
    triangle_to_json,
)
from fwpp.mutation import Factor, enumerate_one_step, mutate_with

P2_JSON = triangle_to_json(make_fano_triangle((1, -1), (-1, 2), (0, -1)))


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(P2_JSON)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestAnalyze:
    def test_json(self, capsys, p2_file):
        code, out, _ = run(capsys, ["analyze", p2_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["weights"] == ["1", "1", "1"]
        assert doc["mult"] == "1"
        assert doc["degree"] == "9/1"
        assert all(e["t_singularity"] for e in doc["edges"])

    def test_text(self, capsys, p2_file):
        code, out, _ = run(capsys, ["--format", "text", "analyze", p2_file])
        assert code == 0
        assert "weights: (1, 1, 1)" in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(P2_JSON))
        code, out, _ = run(capsys, ["analyze", "-"])
        assert code == 0
        assert json.loads(out)["weights"] == ["1", "1", "1"]

    def test_deterministic(self, capsys, p2_file):
        _, first, _ = run(capsys, ["analyze", p2_file])
        _, second, _ = run(capsys, ["analyze", p2_file])
        assert first == second

    def test_output_file(self, capsys, p2_file, tmp_path):
        dest = tmp_path / "out.json"
        code, out, _ = run(capsys, ["--output", str(dest), "analyze", p2_file])
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["mult"] == "1"


class TestMutate:
    def test_example(self, capsys, p2_file):
        code, out, _ = run(capsys, [
            "mutate", p2_file, "--width", "0,1", "--factor", "1,0",
        ])
        assert code == 0
        doc = json.loads(out)
        got = {tuple(int(x) for x in v) for v in doc["vertices"]}
        assert got == {(1, 2), (-1, 2), (0, -1)}

    def test_infeasible_length_errors(self, capsys, p2_file):
        code, _, err = run(capsys, [
            "mutate", p2_file, "--width", "0,1", "--factor", "1,0",
            "--length", "2",
        ])
        assert code == 1
        assert "error:" in err


class TestEnumerate:
    def test_p2(self, capsys, p2_file):
        code, out, _ = run(capsys, ["enumerate", p2_file])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["mutations"]) == 1
        assert doc["mutations"][0]["factor"]["length"] == "1"


class TestPolygonDocuments:
    """mutate and enumerate read any Fano polygon, so each polygon that
    enumerate writes reads back; analyze takes a triangle only."""

    QUAD = ((-1, -4), (1, 0), (0, 1), (-1, -1))

    @pytest.fixture
    def quad_file(self, capsys, tmp_path):
        w123 = tmp_path / "w123.json"
        w123.write_text('{"vertices": [["-2","-3"],["1","0"],["0","1"]]}')
        code, out, _ = run(capsys, ["enumerate", str(w123)])
        assert code == 0
        written = [m["vertices"] for m in json.loads(out)["mutations"]]
        doc = {"vertices": [[str(x), str(y)] for x, y in self.QUAD]}
        assert doc["vertices"] in written
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_enumerate_reads_a_written_quadrilateral(self, capsys, quad_file):
        code, out, err = run(capsys, ["--format", "text", "enumerate", quad_file])
        assert (code, err) == (0, "")
        classes = enumerate_one_step(self.QUAD)
        assert len(classes) == 5
        assert out.splitlines() == ["5 mutation class(es)"] + [
            f"w={f.w} f={f.f} l={f.length}: {list(Q)}" for f, Q in classes]

    def test_mutate_reads_a_written_quadrilateral(self, capsys, quad_file):
        code, out, err = run(capsys, ["--format", "text", "mutate", quad_file,
                                      "--width", "1,0", "--factor", "0,-1"])
        assert (code, err) == (0, "")
        Q = mutate_with(self.QUAD, Factor(w=(1, 0), f=(0, -1), length=1))
        assert out.splitlines() == [str(list(v)) for v in Q]

    def test_analyze_refuses_a_quadrilateral(self, capsys, quad_file):
        code, out, err = run(capsys, ["analyze", quad_file])
        assert (code, out) == (1, "")
        assert err == "error: expected 3 vertices, got 4\n"


class TestWeightsMutate:
    def test_markov(self, capsys):
        code, out, _ = run(capsys, ["weights-mutate", "1", "1", "1",
                                    "--pivot", "0"])
        assert code == 0
        assert json.loads(out)["result"] == ["1", "1", "4"]

    def test_blocked(self, capsys):
        code, out, _ = run(capsys, ["weights-mutate", "3", "5", "11",
                                    "--pivot", "0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] is None and "reason" in doc


class TestMinimal:
    def test_descent(self, capsys):
        code, out, _ = run(capsys, ["minimal", "4", "25", "841"])
        assert code == 0
        doc = json.loads(out)
        assert doc["minimal"] == ["1", "1", "1"]
        assert len(doc["path"]) == 4


class TestTree:
    def test_default_depth_five(self, capsys):
        code, out, _ = run(capsys, ["tree", "1", "1", "1"])
        assert code == 0
        doc = json.loads(out)
        assert max(int(n["depth"]) for n in doc["nodes"]) == 5

    def test_max_height_below_the_root_rejected(self, capsys):
        code, out, err = run(capsys, ["tree", "1", "1", "1", "--max-height", "1"])
        assert (code, out) == (1, "")
        assert err == ("error: max_height 1 is below the height 3 of the"
                       " minimal weights (1, 1, 1)\n")

    def test_dot(self, capsys):
        code, out, _ = run(capsys, ["--format", "dot", "tree", "1", "1", "1",
                                    "--depth", "2"])
        assert code == 0
        assert out.startswith("digraph") and "->" in out

    def test_dot_rejected_elsewhere(self, capsys, p2_file, tmp_path):
        out_path = tmp_path / "out.txt"
        for argv in (["analyze", p2_file],
                     ["mutate", p2_file, "--width", "0,1", "--factor", "1,0"],
                     ["enumerate", p2_file],
                     ["weights-mutate", "1", "1", "4", "--pivot", "2"],
                     ["minimal", "1", "1", "1"],
                     ["diophantine", "12", "5", "7"],
                     ["tsing", "5", "1", "3"],
                     ["pell", "--family", "a1"],
                     ["--output", str(out_path), "minimal", "1", "1", "4"]):
            code, out, err = run(capsys, ["--format", "dot", *argv])
            assert (code, out) == (1, ""), argv
            assert err == "error: dot output is only available for 'tree'\n"
        assert not out_path.exists()


class TestDiophantine:
    def test_12_5_7(self, capsys):
        code, out, _ = run(capsys, ["diophantine", "12", "5", "7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["equation"] == "12*x0*x1*x2 = 3*x0^2 + 5*x1^2 + 7*x2^2"
        assert doc["solution"] == ["2", "1", "1"]
        assert doc["r"] == "105"


class TestTsing:
    def test_t(self, capsys):
        code, out, _ = run(capsys, ["tsing", "4", "1", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["t_singularity"] is True
        assert doc["normalized"] == "1/4(1,1)"

    def test_not_t(self, capsys):
        code, out, _ = run(capsys, ["--format", "text", "tsing", "5", "1", "3"])
        assert code == 0
        assert "not T" in out

    def test_not_isolated(self, capsys):
        code, _, err = run(capsys, ["tsing", "4", "2", "1"])
        assert code == 1 and "error:" in err


class TestPell:
    def test_a1_family(self, capsys):
        code, out, _ = run(capsys, ["pell", "--family", "a1", "--count", "3"])
        assert code == 0
        doc = json.loads(out)
        assert [r["a2"] for r in doc["rows"]] == ["1", "4", "31"]
        assert all(r["a1"] == "1" for r in doc["rows"])

    def test_a2_family_text(self, capsys):
        code, out, _ = run(capsys, ["--format", "text", "pell",
                                    "--family", "a2", "--count", "2"])
        assert code == 0
        assert "a1=55" in out


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["analyze", "/nonexistent/triangle.json"])
        assert code == 1 and "error:" in err

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 1 and "error:" in err


# a JSON integer past the digit limit of str(), which no message may convert
_HUGE = "1" + "0" * 5000


def _named_by_text(text, message):
    return pytest.param(text, message, id=text)


class TestMalformedTriangle:
    @pytest.mark.parametrize("text, message", [
        _named_by_text('{"vertices": [[1.9, 0], [0, 1], [-1, -1]]}',
                       "vertex 0 has a coordinate that is not an integer: 1.9"),
        _named_by_text('{"vertices": [[true, 0], [0, 1], [-1, -1]]}',
                       "vertex 0 has a coordinate that is not an integer: a boolean"),
        _named_by_text('{"vertices": 5}', 'expected an object with a "vertices" list'),
        _named_by_text('[1, 2]', 'expected an object with a "vertices" list'),
        pytest.param("[" * 100000, "the document is nested too deeply",
                     id="nested-100000-deep"),
        pytest.param(f'{{"vertices": [[0, 1], [1, 0, {_HUGE}], [-1, -1]]}}',
                     "vertex 1 is not an [x, y] pair: a list of length 3",
                     id="huge-integer-in-a-three-entry-vertex"),
        pytest.param(f'{{"vertices": [[0, 1], [1, 0], [-1, [{_HUGE}]]]}}',
                     "vertex 2 has a coordinate that is not an integer:"
                     " a list of length 1",
                     id="huge-integer-in-a-list-coordinate"),
    ])
    def test_rejected_with_one_error_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, ["analyze", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


class TestBigIntegers:
    def test_analyze_weights_past_the_digit_limit(self, capsys, tmp_path,
                                                  max_growth_branch):
        w = max_growth_branch[-1]
        P = wps_triangle(*w)
        path = tmp_path / "big.json"
        path.write_text(triangle_to_json(P))
        code, out, err = run(capsys, ["analyze", str(path)])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [decimal_to_int(x) for x in doc["weights"]] == list(w)
        assert (doc["mult"], doc["degree"]) == ("1", "9/1")
        assert triangle_from_json(json.dumps(doc)) == P
        assert sorted(decimal_to_int(e["r"]) for e in doc["edges"]) == list(w)

    def test_minimal_argument_past_the_digit_limit(self, capsys):
        n = 10**4400 + 1
        code, out, err = run(capsys, ["minimal", "1", "1", int_to_decimal(n)])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [decimal_to_int(x) for x in doc["minimal"]] == [1, 1, n]

    def test_errors_quote_integers_past_the_digit_limit(
            self, capsys, tmp_path, p2_file, without_digit_limit):
        n = 2 * 10**4400
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"vertices": [[int_to_decimal(n), "2"],
                                                 ["0", "1"], ["-1", "-1"]]}))
        for argv, message in [
                (["analyze", str(path)], lambda: f"vertex {(n, 2)} is not primitive"),
                (["mutate", p2_file, f"--width={int_to_decimal(n)},2", "--factor=1,0"],
                 lambda: f"width {(n, 2)} must be primitive")]:
            code, out, err = run(capsys, argv)
            assert (code, out) == (1, "")
            assert err == without_digit_limit(lambda: f"error: {message()}\n")

    def test_json_integer_coordinates_past_the_digit_limit(self, capsys, tmp_path):
        # P2 sheared by (x, y) -> (x, y + n x), with 5,000-digit coordinates
        # written as JSON integers and as decimal strings
        n = 10**4999
        quoted = triangle_to_json(make_fano_triangle((1, n), (0, 1), (-1, -n - 1)))
        bare = re.sub(r'"(-?[0-9]+)"', r"\1", quoted)
        assert bare.count('"') == 2
        outputs = {}
        for name, text in (("quoted", quoted), ("bare", bare)):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            for fmt in ("json", "text"):
                code, out, err = run(capsys, ["--format", fmt, "analyze", str(path)])
                assert (code, err) == (0, ""), (name, fmt)
                outputs[name, fmt] = out
        assert outputs["bare", "json"] == outputs["quoted", "json"]
        assert outputs["bare", "text"] == outputs["quoted", "text"]
        assert json.loads(outputs["bare", "json"])["weights"] == ["1", "1", "1"]

    def test_text_past_the_digit_limit(self, capsys, tmp_path, max_growth_branch,
                                       without_digit_limit):
        w = max_growth_branch[-1]
        P = wps_triangle(*w)
        path = tmp_path / "big.json"
        path.write_text(triangle_to_json(P))
        args = [int_to_decimal(x) for x in w]
        inv = weights_of(P)
        vs = P.vertices
        edges = [(vs[i], vs[(i + 1) % 3]) for i in range(3)]
        singularities = [cone_singularity(u, v) for u, v in edges]
        classes = enumerate_one_step(P)

        def expected():
            return {
                "analyze": [f"weights: {inv.weights}  mult: 1  degree: 9"] + [
                    f"edge {list(u)} -> {list(v)}: {s} (T)"
                    for (u, v), s in zip(edges, singularities)],
                "enumerate": [f"{len(classes)} mutation class(es)"] + [
                    f"w={f.w} f={f.f} l={f.length}: {list(Q)}" for f, Q in classes],
                "minimal": [" -> ".join(str(x) for x in max_growth_branch[::-1])],
                "diophantine": ["3*x0*x1*x2 = x0^2 + x1^2 + x2^2",
                                f"solution: {tuple(isqrt(x) for x in w)}"],
            }

        expected = without_digit_limit(expected)
        for command, argv in [("analyze", [str(path)]), ("enumerate", [str(path)]),
                              ("minimal", args), ("diophantine", args)]:
            code, out, err = run(capsys, ["--format", "text", command, *argv])
            assert (code, err) == (0, ""), command
            assert out.splitlines() == expected[command], command


class TestIntegerArguments:
    """Every integer argument is read by lattice.decimal_to_int: -?[0-9]+
    at any length, and no other spelling."""

    # Spaces around a point coordinate are allowed, as in "1, 2", so " 7"
    # is refused everywhere but in --width.
    @pytest.mark.parametrize("place, token", [
        (place, token) for place in ("weight", "pivot", "tsing", "width")
        for token in ("+3", " 7", "1_0", "\u0661", "0x10")
        if (place, token) != ("width", " 7")])
    def test_other_spellings_refused(self, capsys, p2_file, place, token):
        argv = {
            "weight": ["weights-mutate", token, "1", "1", "--pivot", "0"],
            "pivot": ["weights-mutate", "1", "1", "1", f"--pivot={token}"],
            "tsing": ["tsing", "5", token, "3"],
            "width": ["mutate", p2_file, f"--width={token},1", "--factor=1,0"],
        }[place]
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, _ = capsys.readouterr()
        assert (info.value.code, out) == (2, "")

    def test_spaces_around_point_coordinates(self, capsys, p2_file):
        outputs = set()
        for width in ("0,1", "0, 1", " (0 , 1) "):
            code, out, err = run(capsys, ["mutate", p2_file, "--width", width,
                                          "--factor=1,0"])
            assert (code, err) == (0, "")
            outputs.add(out)
        assert len(outputs) == 1

    # One pair of parentheses around the whole point, or none.
    @pytest.mark.parametrize("token", ["(0,1", ")0,1(", "((0,1))", "0,1)"])
    def test_unbalanced_parentheses_refused(self, capsys, p2_file, token):
        with pytest.raises(SystemExit) as info:
            main(["mutate", p2_file, f"--width={token}", "--factor=1,0"])
        out, _ = capsys.readouterr()
        assert (info.value.code, out) == (2, "")

    def test_five_thousand_digit_weight(self, capsys):
        n = 10**4999 + 1
        code, out, err = run(capsys, ["minimal", "1", "1", int_to_decimal(n)])
        assert (code, err) == (0, "")
        assert json.loads(out)["minimal"] == ["1", "1", int_to_decimal(n)]

    @pytest.mark.parametrize("pivot", [3, -1, 10**5000], ids=["3", "-1", "huge"])
    def test_pivot_out_of_range(self, capsys, pivot):
        code, out, err = run(capsys, ["weights-mutate", "1", "1", "1",
                                      "--pivot", int_to_decimal(pivot)])
        assert (code, out) == (1, "")
        assert err == f"error: pivot must be 0, 1 or 2, got {int_to_decimal(pivot)}\n"


def test_sympy_not_imported():
    """sympy is only imported to factor numbers that trial division cannot
    settle; these commands never need it."""
    script = """if True:
        import contextlib, io, sys
        import fwpp
        assert "sympy" not in sys.modules, "import fwpp"
        from fwpp.cli import main
        for argv in (["tsing", "5", "1", "3"], ["diophantine", "12", "5", "7"],
                     ["diophantine", "4", "25", "841"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            assert "sympy" not in sys.modules, argv
    """
    src = os.path.dirname(os.path.dirname(fwpp.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


NON_PRIMITIVE_JSON = '{"vertices": [["2", "0"], ["0", "1"], ["-1", "-1"]]}'


@pytest.mark.parametrize("argv, stdin, code", [
    (["tsing", "5", "1", "3"], "", 0),
    (["analyze", "-"], NON_PRIMITIVE_JSON, 1),
    (["tree", "1", "1", "1", "--depth=--"], "", 2),
], ids=["tsing", "non-primitive", "option-dashes"])
def test_python_m_fwpp(argv, stdin, code):
    """`python -m fwpp` runs __main__.py, whose sys.exit passes on main's
    code: 0 with the pinned stdout, 1 with one error line, 2 from argparse."""
    src = os.path.dirname(os.path.dirname(fwpp.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "fwpp", *argv], input=stdin,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout == (PINNED_DIR / "tsing-513.txt").read_text()
        assert proc.stderr == ""
    elif code == 1:
        assert (proc.stdout, proc.stderr) == ("", "error: vertex (2, 0) is not primitive\n")
    else:
        assert proc.stdout == ""
        assert proc.stderr.endswith("error: an option was given '--' as its value\n")


def test_start_up_imports_stay_light():
    """A bare interpreter (-I -S) that runs one command of each subcommand
    loads none of dataclasses, inspect, typing or sympy: each would add
    milliseconds to every CLI process, or, for sympy, hundreds."""
    script = """if True:
        import contextlib, io, sys
        sys.path.insert(0, sys.argv[1])
        from fwpp.cli import main
        p2 = '{"vertices": [["1", "-1"], ["-1", "2"], ["0", "-1"]]}'
        for argv in (["analyze", "-"], ["mutate", "-", "--width=0,1", "--factor=1,0"],
                     ["enumerate", "-"], ["weights-mutate", "1", "1", "1", "--pivot=0"],
                     ["minimal", "1", "1", "4"], ["tree", "1", "1", "1"],
                     ["diophantine", "1", "1", "1"], ["tsing", "5", "1", "3"],
                     ["pell", "--family", "a1"]):
            sys.stdin = io.StringIO(p2)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        loaded = sorted({"dataclasses", "inspect", "typing", "sympy"} & set(sys.modules))
        assert not loaded, loaded
    """
    src = os.path.dirname(os.path.dirname(fwpp.__file__))
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_enumerate_names_the_factor_fields(capsys, p2_file):
    code, out, _ = run(capsys, ["enumerate", p2_file])
    assert code == 0
    mutations = json.loads(out)["mutations"]
    assert [sorted(m["factor"]) for m in mutations] == [["f", "length", "w"]]


# Exact stdout of the cli workload's invocations, one file per entry in
# tests/pinned_stdout, recorded before the mutation engine moved to the
# closed-form shear (`mutate`, `enumerate`) and before equations were derived
# from the minimal root (the other subcommands). The inputs and argv are
# those of the benchmark's cli workload: "@name" is the path of a file
# holding PINNED_TRIANGLES[name], "@out" is an --output path whose contents
# are pinned in place of stdout, and a second field names the triangle fed
# on stdin. tree-depth0-123, the root-only tree, is pinned beside them.
PINNED_DIR = pathlib.Path(__file__).parent / "pinned_stdout"

PINNED_TRIANGLES = {
    "p2": ((-1, 2), (0, -1), (1, -1)),
    "w114": ((-1, -4), (1, 0), (0, 1)),
    "w123": ((-2, -3), (1, 0), (0, 1)),
    "w1425": ((-4, -25), (1, 0), (0, 1)),
    "w235": ((-4, -5), (1, 0), (1, 2)),
    "w357": ((-4, -7), (1, 0), (1, 3)),
}

PINNED = {
    "analyze-p2": (["analyze", "@p2"], None),
    "analyze-w114": (["analyze", "@w114"], None),
    "analyze-w123": (["analyze", "@w123"], None),
    "analyze-w1425": (["analyze", "@w1425"], None),
    "analyze-w235": (["analyze", "@w235"], None),
    "analyze-w357": (["analyze", "@w357"], None),
    "analyze-text-p2": (["--format", "text", "analyze", "@p2"], None),
    "analyze-text-w357": (["--format", "text", "analyze", "@w357"], None),
    "analyze-stdin-p2": (["analyze", "-"], "p2"),
    "analyze-stdin-w235": (["analyze", "-"], "w235"),
    "analyze-output-w123": (["--output", "@out", "analyze", "@w123"], None),
    "mutate-p2": (["mutate", "@p2", "--width", "0,1", "--factor", "1,0"], None),
    "mutate-w114": (["mutate", "@w114", "--width=-1,-1", "--factor=-1,1"], None),
    "mutate-w123": (["mutate", "@w123", "--width=-1,1", "--factor", "1,1",
                     "--length", "3"], None),
    "mutate-w235": (["mutate", "@w235", "--width=-1,1", "--factor", "1,1",
                     "--length", "5"], None),
    "mutate-text-w1425": (["--format", "text", "mutate", "@w1425", "--width=-5,1",
                           "--factor", "1,5"], None),
    "enumerate-p2": (["enumerate", "@p2"], None),
    "enumerate-w123": (["enumerate", "@w123"], None),
    "enumerate-tri-w235": (["enumerate", "@w235", "--triangles-only"], None),
    "enumerate-text-w357": (["--format", "text", "enumerate", "@w357"], None),
    "enumerate-stdin-w1425": (["enumerate", "-"], "w1425"),
    "weights-mutate-114": (["weights-mutate", "1", "1", "4", "--pivot", "2"], None),
    "weights-mutate-1425": (["weights-mutate", "1", "4", "25", "--pivot", "0"], None),
    "weights-mutate-357": (["weights-mutate", "3", "5", "7", "--pivot", "2"], None),
    "weights-mutate-text-425841": (["--format", "text", "weights-mutate", "4", "25",
                                    "841", "--pivot", "0"], None),
    "minimal-425841": (["minimal", "4", "25", "841"], None),
    "minimal-25841187489": (["minimal", "25", "841", "187489"], None),
    "minimal-text-3532": (["--format", "text", "minimal", "3", "5", "32"], None),
    "tree-111": (["tree", "1", "1", "1", "--depth", "5"], None),
    "tree-dot-112": (["--format", "dot", "tree", "1", "1", "2", "--depth", "4"], None),
    "tree-text-123": (["--format", "text", "tree", "1", "2", "3", "--depth", "4"], None),
    "tree-output-111": (["--output", "@out", "tree", "1", "1", "1", "--depth", "6"], None),
    "tree-height-111": (["tree", "1", "1", "1", "--max-height", "100000"], None),
    "tree-depth0-123": (["tree", "1", "2", "3", "--depth", "0"], None),
    "diophantine-1257": (["diophantine", "12", "5", "7"], None),
    "diophantine-111": (["diophantine", "1", "1", "1"], None),
    "diophantine-425841": (["diophantine", "4", "25", "841"], None),
    "diophantine-text-123": (["--format", "text", "diophantine", "1", "2", "3"], None),
    "tsing-513": (["tsing", "5", "1", "3"], None),
    "tsing-411": (["tsing", "4", "1", "1"], None),
    "tsing-text-912": (["--format", "text", "tsing", "9", "1", "2"], None),
    "pell-a1": (["pell", "--family", "a1", "--count", "6"], None),
    "pell-text-a2": (["--format", "text", "pell", "--family", "a2", "--count", "6"], None),
    "pell-a2-12": (["pell", "--family", "a2", "--count", "12"], None),
}


def _triangle_text(vertices):
    return json.dumps({"vertices": [[str(x), str(y)] for x, y in vertices]})


@pytest.mark.parametrize("op_id", sorted(PINNED))
def test_pinned_stdout(capsys, monkeypatch, tmp_path, op_id):
    argv, stdin_name = PINNED[op_id]
    paths = {"out": tmp_path / "out.txt"}
    for name, vs in PINNED_TRIANGLES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(_triangle_text(vs))
    argv = [str(paths[a[1:]]) if a.startswith("@") else a for a in argv]
    if stdin_name:
        monkeypatch.setattr(
            sys, "stdin", io.StringIO(_triangle_text(PINNED_TRIANGLES[stdin_name])))
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    if "@out" in PINNED[op_id][0]:
        assert out == ""
        out = paths["out"].read_text()
    assert out == (PINNED_DIR / f"{op_id}.txt").read_text()


def _readme_cli_examples():
    """The fwpp command lines of the README's CLI block, split into argv;
    an optional [--flag] gives one line without the flag and one with it."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if not line.startswith("fwpp "):
            continue
        words = line.split()[1:]
        optional = [w for w in words if w.startswith("[") and w.endswith("]")]
        plain = [w for w in words if w not in optional]
        examples.append(plain)
        if optional:
            examples.append(plain + [w[1:-1] for w in optional])
    return examples


README_EXAMPLES = _readme_cli_examples()


def test_readme_examples_cover_every_subcommand():
    commands = {argv[2] if argv[0] == "--format" else argv[0] for argv in README_EXAMPLES}
    assert commands == {"analyze", "mutate", "enumerate", "weights-mutate", "minimal",
                        "tree", "diophantine", "tsing", "pell"}


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_readme_example_runs(capsys, p2_file, argv):
    argv = [p2_file if a == "triangle.json" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.strip()
    if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
        json.loads(out)
