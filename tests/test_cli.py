import contextlib
import hashlib
import io
import json
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from geomlim import cli


def run(capsys, *argv):
    code = cli.run(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 64
    assert "error" in json.loads(err)
    assert cli.run([]) == 64


def test_monomial_parser():
    P = cli.parse_monomial_path("t^2,t,1")
    assert P.entries == [(1.0, Fraction(2)), (1.0, Fraction(1)),
                         (1.0, Fraction(0))]
    P = cli.parse_monomial_path("2*t^-1,t^1/2,3")
    assert P.entries == [(2.0, Fraction(-1)), (1.0, Fraction(1, 2)),
                         (3.0, Fraction(0))]
    with pytest.raises(cli.InvalidInput):
        cli.parse_monomial_path("t^x,1")
    with pytest.raises(cli.InvalidInput):
        cli.parse_monomial_path("5")


def test_grid_parser():
    assert cli.parse_grid("0:1:3") == [0.0, 0.5, 1.0]
    g = cli.parse_grid("1:4:4", log=True)
    assert g == [10.0, 100.0, 1000.0, 10000.0]
    with pytest.raises(cli.InvalidInput):
        cli.parse_grid("1:2")


def test_limit_command(capsys):
    code, out, _ = run(capsys, "limit", "--form", "1,1,-1",
                       "--conj", "t^2,t,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["class_3d"] == "Heis"
    basis = doc["lie_basis"]
    # strictly upper triangular: no entry on or below the diagonal
    for M in basis:
        for i in range(3):
            for j in range(i + 1):
                assert abs(M[i][j]) <= 1e-12


def test_limit_command_invalid(capsys):
    code, _, err = run(capsys, "limit", "--form", "1,0,1")
    assert code == 2
    assert "error" in json.loads(err)


REP = {"x": [0, 0], "y": [1, 0], "z": [0, 1]}
JOB = {"kind": "hyperbolic", "D_path": "t^2,t,1",
       "vertices": [[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1]]}
NAN = float("nan")


# A dict as the last argument is written to a file and passed as its path.
@pytest.mark.parametrize("argv", [
    ["poset", "0", "3"],
    ["poset", "1", "-1"],
    ["limit", "--form", "1,a,1"],
    ["limit", "--form", "1,1,1", "--conj", "t^1/0,t,1"],
    ["limit", "--form", "1,inf,1"],
    ["limit", "--form", "1,nan,1"],
    ["regen", "--input",
     dict(JOB, vertices=[[NAN, 0.0], [0.0, 0.1], [NAN, 0.0], [0.0, -0.1]],
          t_grid=[10, 100, 1000])],
    ["regen", "--input", dict(JOB, t_grid=[10, NAN, 1000])],
    ["regen", "--grid", "0:nan:5", "--input", JOB],
    ["heis", "dev", "--grid", "0:inf:5", "--input", REP],
    ["limit", "--form", "1,1,1", "--format", "csv"],
    ["limit", "--form", "1,1,1", "--format", "xml"],
    ["poset", "1", "3", "--format", "csv"],
    ["cells", "3", "--format", "dot"],
    ["cells", "3", "--poset", "--format", "json"],
    ["heis", "classify", "--format", "svg", "--input", REP],
    ["heis", "dev", "--format", "json", "--input", REP],
    ["regen", "--grid", "1:3:3", "--format", "svg", "--input", JOB],
    ["algebra", "idempotents", "--delta", "1", "--format", "csv"],
    ["algebra", "mul", "--a", '{"re":"x","delta":0}'],
    ["regen", "--input", dict(JOB, t_grid=[1e100, 1e200, 1e300])],
    ["regen", "--input",
     dict(JOB, D_path="t^1,t^1/2,1", t_grid=[-10, -100, -1000])],
    ["regen", "--input", dict(JOB, D_path="t^1,t^1/2,1", t_grid=[0, 1, 2])],
    ["regen", "--input", dict(JOB, t_grid="abc")],
    ["regen", "--input", dict(JOB, t_grid=[None])],
    ["limit", "--form", "1e308,1,1", "--conj", "0.0001*t,t,1"],
    ["cells", "x"],
    ["limit", "--bogus"],
    ["cells", "3", "--out", "/nonexistent/dir/x.json"],
    ["algebra", "mul", "--a", '{"re": NaN, "delta": 0}',
     "--b", '{"re": 1, "delta": 0}'],
    ["heis", "dev", "--grid=-1e308:1e308:3", "--input", REP],
])
def test_invalid_input_exits_2(capsys, tmp_path, argv):
    if isinstance(argv[-1], dict):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error" in json.loads(err)
    assert out == "" and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["cells", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("usage:")


@pytest.mark.parametrize("argv, default", [
    (["limit", "--form", "1,1,1"], "json"),
    (["cells", "3", "--poset"], "dot"),
    (["heis", "dev", "--input", "-"], "csv"),
    (["regen", "--grid", "1:3:3", "--input", "-"], "csv"),
])
def test_default_format_is_first_listed(capsys, monkeypatch, argv, default):
    outs = []
    for extra in ([], ["--format", default]):
        doc = REP if argv[0] == "heis" else JOB
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_limit_determinism(capsys):
    args = ("limit", "--form", "1,1,1", "--conj", "1,1,t^1/2", "--reverse")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_poset_dot(capsys):
    code, out, _ = run(capsys, "poset", "1", "3", "--format", "dot")
    assert code == 0
    assert out.count("label=") == 8
    code, out, _ = run(capsys, "poset", "1", "3")
    doc = json.loads(out)
    assert len(doc["nodes"]) == 8


def test_cells_command(capsys):
    code, out, _ = run(capsys, "cells", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == [6, 12, 4]
    assert len(doc["cells"]) == 22
    code, out, _ = run(capsys, "cells", "3", "--poset")
    assert code == 0
    assert out.startswith("digraph")


def test_heis_commands(capsys, tmp_path):
    f = tmp_path / "rep.json"
    f.write_text(json.dumps({"x": [0, 0], "y": [1, 0], "z": [0, 1]}))
    code, out, _ = run(capsys, "heis", "classify", "--input", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "Holonomy" and doc["subtype"] == "Translation"
    code, out, _ = run(capsys, "heis", "dev", "--input", str(f),
                       "--grid", "0:1:3")
    assert code == 0
    assert out.splitlines()[0] == "u,v,fx,fy"
    assert len(out.splitlines()) == 10
    code, out, _ = run(capsys, "heis", "dev", "--input", str(f),
                       "--grid", "0:1:3", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"x": [1, 0], "y": [0, 1], "z": [0, 0]}))
    code, _, err = run(capsys, "heis", "classify", "--input", str(bad))
    assert code == 2


def test_regen_command(capsys, tmp_path):
    f = tmp_path / "regen.json"
    f.write_text(json.dumps({
        "kind": "hyperbolic",
        "D_path": "t^2,t,1",
        "vertices": [[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1]],
        "t_grid": [10.0, 100.0, 1000.0],
    }))
    code, out, _ = run(capsys, "regen", "--input", str(f))
    assert code == 0
    assert out.splitlines()[0].startswith("t,A00")
    assert len(out.splitlines()) == 4
    code, out, _ = run(capsys, "regen", "--input", str(f),
                       "--format", "json")
    doc = json.loads(out)
    assert doc["limit_in_heis"] is True


def test_algebra_command(capsys):
    code, out, _ = run(capsys, "algebra", "mul",
                       "--a", '{"re": 1, "im": 2, "delta": -1}',
                       "--b", '{"re": 3, "im": -1, "delta": -1}')
    assert code == 0
    assert json.loads(out) == {"re": 5.0, "im": 5.0, "delta": -1.0}
    code, out, _ = run(capsys, "algebra", "idempotents", "--delta", "1")
    assert code == 0
    ep, em = json.loads(out)
    assert ep == {"re": 0.5, "im": 0.5, "delta": 1.0}
    code, _, err = run(capsys, "algebra", "inv",
                       "--a", '{"re": 0, "im": 0, "delta": -1}')
    assert code == 2


def test_out_flag(capsys, tmp_path):
    target = tmp_path / "cells.json"
    code, out, _ = run(capsys, "cells", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["counts"] == [6, 12, 4]


# SHA-256 of stdout, recorded before faces and limit_poset were rebuilt
# from single-block splits; the output must not change.
@pytest.mark.parametrize("argv, digest", [
    (["cells", "4", "--poset"],
     "a7f33bc59730a6c469438145e7ddc8afc1c3c6781e4289c564d3d60c9fcf37f8"),
    (["poset", "3", "3"],
     "46bb4a27e6b12521d0631874e9e969802fb9c6be812e2bfaf23123e72cd1edee"),
    (["poset", "3", "3", "--format", "dot"],
     "4c87b788e7e8c1bd6f87a0cf9c78118d2b9e80c93a112672db632214ee3a1032"),
])
def test_combinatorics_output_unchanged(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


FUZZ_DOCS = {
    "translation": REP,
    "shear": {"x": [1, 2], "y": [1, 2], "z": [0, 1]},
    "flat": {"x": [1, 0], "y": [2, 0], "z": [0, 0]},
    "noncommuting": {"x": [1, 0], "y": [0, 1], "z": [0, 0]},
    "nan_rep": {"x": [NAN, 0], "y": [1, 0], "z": [0, 1]},
    "job": JOB,
    "job_grid": dict(JOB, t_grid=[10, 100, 1000]),
    "sphere_grid": dict(JOB, kind="sphere", t_grid=[2, 3, 5, 7]),
    "null_t": dict(JOB, t_grid=[None]),
    "negative_t": dict(JOB, t_grid=[-10, 0, 10]),
    "huge_t": dict(JOB, t_grid=[1e100, 1e200]),
    "kind_number": dict(JOB, kind=5),
    "missing_key": {"x": [0, 0]},
    "list": [1, 2],
}
FORMS = ["1,1,1", "1,1,-1", "1,-1,1,-1", "2,3,-1", "1,0,1", "1,nan,1",
         "1e308,1,1", "1,a,1"]
PATHS = ["t^2,t,1", "1,1,t^1/2", "t^3,t^2,t,1", "0.0001*t,t,1", "t^1/0,t,1",
         "t^2,t", "t^x,1"]
SCALARS = ['{"re": 1.5, "im": -2, "delta": -1}', '{"re": 1, "delta": 1}',
           '{"re": 0, "im": 0, "delta": 2}', '{"re": "x", "delta": 0}',
           '{"re": null, "delta": 0}', "[1]", "{"]
# Mutation tokens.  Integers stay small, so no mutation makes cells or
# poset large; --out appears only with a directory that does not exist.
TOKENS = ["-1", "0", "1", "x", "1.5", "nan", "inf", "1e308", "", "-h",
          "--poset", "--reverse", "--format", "json", "csv", "dot", "svg",
          "xml", "--grid", "0:1:9", "0:1", "1:0:3", "0:nan:3", "0:400:3",
          "-400:0:3", "a:b:c", "--form", "--conj", "--path", "--input",
          "--a", "--b", "--delta", "--bogus", "classify", "dev", "mul", "inv",
          "frob", "--out=/nonexistent/dir/x.json"] + FORMS + PATHS + SCALARS


@st.composite
def cli_argvs(draw, doc_paths):
    """A command line of the README grammar, with at most three tokens
    after the subcommand replaced, deleted or inserted.  Sizes stay small:
    cells n <= 4, poset p + q <= 5, grids of at most 9 points."""
    def pick(options):
        return draw(st.sampled_from(options))

    p = draw(st.integers(1, 4))
    k = str(draw(st.integers(1, 9)))
    argv = pick([
        ["limit", "--form", pick(FORMS), "--conj", pick(PATHS)],
        ["limit", "--path", pick(PATHS), "--reverse"],
        ["poset", str(p), str(draw(st.integers(0, 5 - p))),
         "--format", pick(["json", "dot"])],
        ["cells", str(p)] + pick([[], ["--poset"]]),
        ["heis", pick(["classify", "dev"]), "--input", pick(doc_paths),
         "--grid", "0:1:" + k, "--format", pick(["json", "csv", "svg"])],
        ["regen", "--input", pick(doc_paths), "--grid", "1:4:" + k,
         "--format", pick(["csv", "json"])],
        ["algebra", pick(["mul", "conj", "norm", "inv", "idempotents"]),
         "--a", pick(SCALARS), "--b", pick(SCALARS),
         "--delta", pick(["-1", "0", "1", "2", "nan", "inf"])],
    ])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(argv)))
        op = pick(["insert", "replace", "delete"])
        if op == "insert":
            argv.insert(i, pick(TOKENS + doc_paths))
        elif i < len(argv) and op == "replace":
            argv[i] = pick(TOKENS + doc_paths)
        elif i < len(argv):
            del argv[i]
    return argv


def test_run_fuzz(tmp_path):
    doc_paths = [str(tmp_path / "missing.json"), str(tmp_path / "bad.json")]
    (tmp_path / "bad.json").write_text("{")
    for name, doc in FUZZ_DOCS.items():
        doc_paths.append(str(tmp_path / (name + ".json")))
        (tmp_path / (name + ".json")).write_text(json.dumps(doc))
    stdins = [json.dumps(doc) for doc in FUZZ_DOCS.values()] + ["", "{"]

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(cli_argvs(doc_paths), st.sampled_from(stdins))
    def check(argv, stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), \
                mock.patch("sys.stdin", io.StringIO(stdin)), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run(argv)
        assert code in (0, 2, 64)
        if code:
            assert out.getvalue() == "" and not caught
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and "error" in json.loads(lines[0])

    check()
