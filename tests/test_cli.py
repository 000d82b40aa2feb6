import json

import pytest

from fwpp.cli import main
from fwpp.lattice import make_fano_triangle, triangle_to_json

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
        import io
        import sys
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

    def test_dot(self, capsys):
        code, out, _ = run(capsys, ["--format", "dot", "tree", "1", "1", "1",
                                    "--depth", "2"])
        assert code == 0
        assert out.startswith("digraph") and "->" in out

    def test_dot_rejected_elsewhere(self, capsys):
        with pytest.raises(SystemExit):
            main(["--format", "dot", "minimal", "1", "1", "1"])


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


class TestMalformedTriangle:
    @pytest.mark.parametrize("text", [
        '{"vertices": [[1.9, 0], [0, 1], [-1, -1]]}',
        '{"vertices": [[true, 0], [0, 1], [-1, -1]]}',
        '{"vertices": 5}',
        '[1, 2]',
    ])
    def test_rejected_with_one_error_line(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


# Exact stdout of `mutate` and `enumerate`, recorded before the mutation
# engine moved from per-height slices to the closed-form shear. The inputs
# and argv are those of the benchmark's cli workload: "@name" is the path of
# a file holding PINNED_TRIANGLES[name], and a second field names the
# triangle fed on stdin.
PINNED_TRIANGLES = {
    "p2": ((-1, 2), (0, -1), (1, -1)),
    "w114": ((-1, -4), (1, 0), (0, 1)),
    "w123": ((-2, -3), (1, 0), (0, 1)),
    "w1425": ((-4, -25), (1, 0), (0, 1)),
    "w235": ((-4, -5), (1, 0), (1, 2)),
    "w357": ((-4, -7), (1, 0), (1, 3)),
}


def _triangle_text(vertices):
    return json.dumps({"vertices": [[str(x), str(y)] for x, y in vertices]})


@pytest.mark.parametrize("op_id", ["mutate-p2", "mutate-w114", "mutate-w123",
                                   "mutate-w235", "mutate-text-w1425",
                                   "enumerate-p2", "enumerate-w123",
                                   "enumerate-tri-w235", "enumerate-text-w357",
                                   "enumerate-stdin-w1425"])
def test_pinned_stdout(capsys, monkeypatch, tmp_path, op_id):
    import io
    import sys
    argv, stdin_name, expected = PINNED[op_id]
    paths = {}
    for name, vs in PINNED_TRIANGLES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(_triangle_text(vs))
    argv = [str(paths[a[1:]]) if a.startswith("@") else a for a in argv]
    if stdin_name:
        monkeypatch.setattr(
            sys, "stdin", io.StringIO(_triangle_text(PINNED_TRIANGLES[stdin_name])))
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == expected


PINNED = {
    "mutate-p2": (
        ['mutate', '@p2', '--width', '0,1', '--factor', '1,0'], None,
        """\
{
  "vertices": [
    [
      "-1",
      "2"
    ],
    [
      "0",
      "-1"
    ],
    [
      "1",
      "2"
    ]
  ]
}
""",
    ),
    "mutate-w114": (
        ['mutate', '@w114', '--width=-1,-1', '--factor=-1,1'], None,
        """\
{
  "vertices": [
    [
      "-6",
      "1"
    ],
    [
      "-1",
      "-4"
    ],
    [
      "1",
      "0"
    ]
  ]
}
""",
    ),
    "mutate-w123": (
        ['mutate', '@w123', '--width=-1,1', '--factor', '1,1', '--length', '3'], None,
        """\
{
  "vertices": [
    [
      "-2",
      "-3"
    ],
    [
      "3",
      "4"
    ],
    [
      "0",
      "1"
    ]
  ]
}
""",
    ),
    "mutate-w235": (
        ['mutate', '@w235', '--width=-1,1', '--factor', '1,1', '--length', '5'], None,
        """\
{
  "vertices": [
    [
      "-4",
      "-5"
    ],
    [
      "6",
      "7"
    ],
    [
      "1",
      "2"
    ]
  ]
}
""",
    ),
    "mutate-text-w1425": (
        ['--format', 'text', 'mutate', '@w1425', '--width=-5,1', '--factor', '1,5'], None,
        """\
[-4, -25]
[1, 6]
[0, 1]
""",
    ),
    "enumerate-p2": (
        ['enumerate', '@p2'], None,
        """\
{
  "mutations": [
    {
      "factor": {
        "f": [
          "-2",
          "3"
        ],
        "length": "1",
        "w": [
          "-3",
          "-2"
        ]
      },
      "vertices": [
        [
          "-4",
          "5"
        ],
        [
          "0",
          "-1"
        ],
        [
          "1",
          "-1"
        ]
      ]
    }
  ]
}
""",
    ),
    "enumerate-w123": (
        ['enumerate', '@w123'], None,
        """\
{
  "mutations": [
    {
      "factor": {
        "f": [
          "-1",
          "-2"
        ],
        "length": "2",
        "w": [
          "2",
          "-1"
        ]
      },
      "vertices": [
        [
          "-3",
          "-8"
        ],
        [
          "1",
          "0"
        ],
        [
          "0",
          "1"
        ]
      ]
    },
    {
      "factor": {
        "f": [
          "-1",
          "-2"
        ],
        "length": "1",
        "w": [
          "2",
          "-1"
        ]
      },
      "vertices": [
        [
          "-1",
          "-4"
        ],
        [
          "1",
          "0"
        ],
        [
          "0",
          "1"
        ],
        [
          "-1",
          "-1"
        ]
      ]
    },
    {
      "factor": {
        "f": [
          "1",
          "1"
        ],
        "length": "3",
        "w": [
          "-1",
          "1"
        ]
      },
      "vertices": [
        [
          "-2",
          "-3"
        ],
        [
          "3",
          "4"
        ],
        [
          "0",
          "1"
        ]
      ]
    },
    {
      "factor": {
        "f": [
          "1",
          "1"
        ],
        "length": "1",
        "w": [
          "-1",
          "1"
        ]
      },
      "vertices": [
        [
          "-2",
          "-3"
        ],
        [
          "0",
          "-1"
        ],
        [
          "1",
          "2"
        ],
        [
          "0",
          "1"
        ]
      ]
    },
    {
      "factor": {
        "f": [
          "-1",
          "1"
        ],
        "length": "1",
        "w": [
          "-1",
          "-1"
        ]
      },
      "vertices": [
        [
          "-7",
          "2"
        ],
        [
          "-2",
          "-3"
        ],
        [
          "1",
          "0"
        ]
      ]
    }
  ]
}
""",
    ),
    "enumerate-tri-w235": (
        ['enumerate', '@w235', '--triangles-only'], None,
        """\
{
  "mutations": [
    {
      "factor": {
        "f": [
          "1",
          "1"
        ],
        "length": "5",
        "w": [
          "-1",
          "1"
        ]
      },
      "vertices": [
        [
          "-4",
          "-5"
        ],
        [
          "6",
          "7"
        ],
        [
          "1",
          "2"
        ]
      ]
    },
    {
      "factor": {
        "f": [
          "0",
          "1"
        ],
        "length": "2",
        "w": [
          "-1",
          "0"
        ]
      },
      "vertices": [
        [
          "-4",
          "-5"
        ],
        [
          "1",
          "0"
        ],
        [
          "-4",
          "3"
        ]
      ]
    }
  ]
}
""",
    ),
    "enumerate-text-w357": (
        ['--format', 'text', 'enumerate', '@w357'], None,
        """\
8 mutation class(es)
w=(-1, 0) f=(0, 1) l=2: [(-4, -7), (1, 0), (1, 1), (-4, 1)]
w=(2, -1) f=(-1, -2) l=4: [(-7, -16), (1, 0), (1, 3), (0, 1)]
w=(-1, 0) f=(0, 1) l=1: [(-4, -7), (1, 0), (1, 2), (-4, -3)]
w=(2, -1) f=(-1, -2) l=3: [(-5, -12), (1, 0), (1, 3), (-1, -1)]
w=(2, -1) f=(-1, -2) l=5: [(-9, -20), (1, 0), (1, 3)]
w=(2, -1) f=(-1, -2) l=1: [(-3, -5), (-1, -4), (1, 0), (1, 3)]
w=(2, -1) f=(-1, -2) l=2: [(-3, -8), (1, 0), (1, 3), (-2, -3)]
w=(-1, 0) f=(0, 1) l=3: [(-4, -7), (1, 0), (-4, 5)]
""",
    ),
    "enumerate-stdin-w1425": (
        ['enumerate', '-'], 'w1425',
        """\
{
  "mutations": [
    {
      "factor": {
        "f": [
          "-2",
          "-13"
        ],
        "length": "1",
        "w": [
          "13",
          "-2"
        ]
      },
      "vertices": [
        [
          "-25",
          "-169"
        ],
        [
          "1",
          "0"
        ],
        [
          "0",
          "1"
        ]
      ]
    },
    {
      "factor": {
        "f": [
          "1",
          "5"
        ],
        "length": "1",
        "w": [
          "-5",
          "1"
        ]
      },
      "vertices": [
        [
          "-4",
          "-25"
        ],
        [
          "1",
          "6"
        ],
        [
          "0",
          "1"
        ]
      ]
    },
    {
      "factor": {
        "f": [
          "-1",
          "1"
        ],
        "length": "1",
        "w": [
          "-1",
          "-1"
        ]
      },
      "vertices": [
        [
          "-33",
          "4"
        ],
        [
          "-4",
          "-25"
        ],
        [
          "1",
          "0"
        ]
      ]
    }
  ]
}
""",
    ),
}
