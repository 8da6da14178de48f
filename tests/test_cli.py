import hashlib
import io
import json
from fractions import Fraction

import pytest

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
])
def test_invalid_input_exits_2(capsys, tmp_path, argv):
    if isinstance(argv[-1], dict):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in json.loads(err)


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
