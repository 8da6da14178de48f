import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from geomlim import cli

import argv_lines


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
    # a "*" stands only before a t, with or without spaces
    for text in ["2 * t,t,1", "2t,t,1", "2*t,t,1"]:
        assert cli.parse_monomial_path(text).entries[0] == (2.0, Fraction(1))
    # and its numbers are of ASCII digits
    for text in ["2*,t", "t,2 *", "*t,1", "t*,1", "\u0663*t,1", "t^\u0663,1"]:
        with pytest.raises(cli.InvalidInput):
            cli.parse_monomial_path(text)


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


def test_limit_builds_no_lie_subspace(capsys, monkeypatch):
    # limit prints the basis as lists built from the limit point, so no
    # LieSubspace, numpy array or orthonormal basis is made
    from geomlim import limits

    def refuse(*args, **kwargs):
        raise AssertionError("limit built a LieSubspace")

    # the public constructor and the one eta and so_basis use
    monkeypatch.setattr(limits.LieSubspace, "__init__", refuse)
    monkeypatch.setattr(limits.LieSubspace, "_pairs", refuse)
    code, out, err = run(capsys, "limit", "--form", "1,1,-1",
                         "--conj", "t^2,t,1")
    assert code == 0 and err == "" and json.loads(out)["class_3d"] == "Heis"


# Terms of the path grammar: a coefficient of either sign from 1e-8 to
# 1e8 written out in decimal, and few exponents, so that blocks tie.
_terms = st.builds(
    lambda sign, m, k, e: "{}{:f}*t^{}".format(sign, Decimal(m).scaleb(k), e),
    st.sampled_from(["", "-"]), st.integers(1, 99), st.integers(-9, 7),
    st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/2"]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_terms, min_size=2, max_size=6), st.data())
@example(["t^2", "t", "1"], None)
@example(["-1*t^0", "0.00000001*t^0", "100000000*t^1"], None)
def test_limit_lie_basis_is_eta_basis(terms, data):
    # the printed lie_basis, through --path or through --form and --conj
    # (with or without --reverse), is eta's basis as lists, signed zeros
    # and all
    from geomlim import limits

    text, n = ",".join(terms), len(terms)
    argv = ["limit", "--path=" + text]
    path = cli.parse_monomial_path(text)
    if data is not None and data.draw(st.booleans()):
        form = data.draw(st.lists(st.sampled_from([-2.0, -1.0, 0.5, 3.0]),
                                  min_size=n, max_size=n))
        reverse = data.draw(st.booleans())
        argv = ["limit", "--form=" + ",".join(map(repr, form)),
                "--conj=" + text] + ["--reverse"] * reverse
        path = limits.conjugacy_to_form_path(
            path.reversed() if reverse else path, form)
    L = limits.psi_limit(path)
    want = repr(limits.eta(L).basis.tolist())
    assert repr(limits.eta_lists(L)) == want
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(argv) == 0
    assert repr(json.loads(out.getvalue())["lie_basis"]) == want


def test_limit_command_invalid(capsys):
    code, _, err = run(capsys, "limit", "--form", "1,0,1")
    assert code == 2
    assert "error" in json.loads(err)


REP = {"x": [0, 0], "y": [1, 0], "z": [0, 1]}
JOB = {"kind": "hyperbolic", "D_path": "t^2,t,1",
       "vertices": [[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1]]}
NAN = float("nan")
# a Euclidean job whose dual form diag(t^4, t^2, 0) overflows at t = 1e100
WIDE_JOB = {"kind": "euclidean", "D_path": "t^2,t,1",
            "vertices": [[0.3, 0.1], [-0.1, 0.3], [-0.3, -0.1], [0.1, -0.3]]}


# A dict as the last argument is written to a file and passed as its path.
INVALID_ARGVS = [
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
    # norms past the float range have no JSON representation
    ["algebra", "norm", "--a", '{"re":1e200,"delta":-1}'],
    ["algebra", "norm", "--a", '{"re":1e200,"im":1e200,"delta":1}'],
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
    ["cells", "8"],
    ["poset", "7", "6"],
    ["heis", "dev", "--grid", "0:1:1002", "--input", REP],
    ["regen", "--grid", "1:4:1002", "--input", JOB],
    # the constant form diag(1e-300, 1, 1e300): its limit is O(3), whose
    # block point has no float representation
    ["limit", "--path", "0." + "0" * 299 + "1,1,1" + "0" * 300],
    # a JSON boolean is not a number, though Python's bool is an int
    ["regen", "--input", dict(JOB, t_grid=[True, 10])],
    # limit refuses the options it would otherwise ignore
    ["limit", "--path", "t^2,t,1", "--form", "1,1,1"],
    ["limit", "--path", "t^2,t,1", "--conj", "t^2,t,1"],
    ["limit", "--path", "t^2,t,1", "--reverse"],
    ["limit", "--form", "1,1,1", "--reverse"],
    # regen refuses a --grid the job's own t_grid would override
    ["regen", "--grid", "1:3:3", "--input", dict(JOB, t_grid=[10, 100])],
    # heis and algebra refuse an option the operation does not read, an
    # option before the operation, and a missing or unknown operation
    ["heis", "classify", "--grid", "0:1:5", "--input", REP],
    ["heis", "--grid", "0:1:3", "dev", "--input", REP],
    ["heis"],
    ["heis", "frob"],
    ["heis", "--", "classify"],
    ["algebra", "conj", "--a", '{"re":1,"delta":0}',
     "--b", '{"re":1,"delta":1}'],
    ["algebra", "mul", "--a", '{"re":1,"delta":1}',
     "--b", '{"re":1,"delta":1}', "--delta", "1"],
    ["algebra", "norm", "--a", '{"re":1,"delta":1}', "--delta", "1"],
    ["algebra", "idempotents", "--delta", "1", "--a", '{"re":1,"delta":1}'],
    ["algebra", "--delta", "1", "idempotents"],
    ["algebra"],
    # and a required option that is missing
    ["algebra", "inv", "--b", '{"re":1,"delta":1}'],
    ["algebra", "idempotents"],
    # the SVG samples its own 33 points a side, so heis dev refuses a
    # --grid with it
    ["heis", "dev", "--grid", "0:1:9", "--format", "svg", "--input", REP],
    # no t at which the form stays within the float range
    ["regen", "--input", dict(WIDE_JOB, t_grid=[1e100])],
    ["regen", "--format", "json", "--input", dict(WIDE_JOB, t_grid=[1e100])],
    # a dangling "*" is not a constant term
    ["limit", "--path", "2*,t"],
    # a JSON string or boolean is not a number, though the library would
    # read it as a float
    ["algebra", "norm", "--a", '{"re":"3","delta":"1"}'],
    ["heis", "classify", "--input",
     {"x": ["1", 2], "y": [0.5, 1], "z": [3, 1]}],
    ["regen", "--input",
     dict(JOB, vertices=[[0.1, False], [False, 0.1], [-0.1, False],
                         [False, -0.1]], t_grid=[10, 100, 1000])],
    # a number on the command line is plain ASCII, though Python's int()
    # and float() read 1_0 as 10 and the digits of other scripts
    ["limit", "--form", "1,1_0,1"],
    ["poset", "1", "\u0663"],
    ["algebra", "idempotents", "--delta", "1_0"],
    ["heis", "dev", "--grid", "0:1:0_3", "--input", REP],
    # an image whose extent leaves the float range has no SVG view box
    ["heis", "dev", "--format", "svg", "--input",
     {"x": [0, 0], "y": [1e308, -1e308], "z": [1e307, 1e307]}],
    # cells' n, like the numbers above, is plain ASCII without "_"
    ["cells", "1_0"],
    # a subcommand's parser refuses an unknown option
    ["cells", "3", "--bogus"],
    # limit takes n <= 64
    ["limit", "--path", ",".join("t^{}".format(k) for k in range(65))],
    ["limit", "--form", ",".join(["1"] * 65)],
    # a job's t_grid takes at most 1001 points, as --grid does
    ["regen", "--input", dict(JOB, t_grid=[10.0] * 1002)],
    # cells takes n >= 2; regen needs t values, from a t_grid or --grid,
    # and a string kind
    ["cells", "1"],
    ["regen", "--input", JOB],
    ["regen", "--input", dict(JOB, kind=5, t_grid=[10])],
    # an option value "--", which argparse before Python 3.13 reads as []
    # (dropping the conjugator, writing to stdout, handing idempotents a
    # list) and Python 3.13 as "--" (a file named "--")
    ["limit", "--form", "1,1,1", "--conj=--"],
    ["poset", "1", "3", "--out=--"],
    ["algebra", "idempotents", "--delta=--"],
]


@pytest.mark.parametrize("argv", INVALID_ARGVS)
def test_invalid_input_exits_2(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # where an --out that is taken would write
    if isinstance(argv[-1], dict):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error" in json.loads(err)
    assert out == "" and err.count("\n") == 1


def test_limit_refuses_n_past_the_cap_before_any_work(capsys, monkeypatch):
    # psi_limit, the first step past parsing, is stubbed to raise an error
    # run does not catch: n = 65 never reaches it, and n = 64 does
    from geomlim import limits

    monkeypatch.setattr(limits, "psi_limit", lambda path: {}[path.n])
    for option in ("--path", "--form"):
        assert run(capsys, "limit", option, ",".join(["1"] * 65)) == (
            2, "", '{"error": "limit needs n <= 64"}\n')
        with pytest.raises(KeyError, match="64"):
            cli.run(["limit", option, ",".join(["1"] * 64)])


def test_regen_refuses_a_t_grid_past_the_cap_before_any_work(
        capsys, monkeypatch, tmp_path):
    from geomlim import regeneration

    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict(JOB, t_grid=[10.0] * 1001)))
    assert run(capsys, "regen", "--input", str(path))[0] == 0
    # regenerate_trace is stubbed to raise an error run does not catch
    monkeypatch.setattr(regeneration, "regenerate_trace",
                        lambda kind, D_path, Q, t_grid: {}[len(t_grid)])
    path.write_text(json.dumps(dict(JOB, t_grid=[10.0] * 1002)))
    assert run(capsys, "regen", "--input", str(path)) == (
        2, "", '{"error": "grid takes at most 1001 points"}\n')


def test_result_holding_nan_array_exits_2(capsys, monkeypatch):
    # run renders arrays through its JSON hook, and a NaN in one is still
    # a number JSON cannot hold
    import numpy as np

    _, formats, arguments = cli.COMMANDS["cells"]
    monkeypatch.setitem(cli.COMMANDS, "cells", (
        lambda args: {"x": np.array([1.0, np.nan])}, formats, arguments))
    code, out, err = run(capsys, "cells", "3")
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert "error" in json.loads(err)


# Each operation's options besides --out and --format, written out here
# rather than read from cli.COMMANDS, with a command line that exits 0.
# A dict stands for a file holding it.
SCALAR = '{"re": 1, "im": 2, "delta": 1}'
OPERATIONS = [
    (["limit", "--form", "1,1,1"], {"--form", "--conj", "--path",
                                    "--reverse"}),
    (["poset", "1", "2"], set()),
    (["cells", "2"], {"--poset"}),
    (["heis", "classify", "--input", REP], {"--input"}),
    (["heis", "dev", "--input", REP, "--grid", "0:1:3"],
     {"--input", "--grid"}),
    (["regen", "--input", JOB, "--grid", "1:3:3"], {"--input", "--grid"}),
    (["algebra", "mul", "--a", SCALAR, "--b", SCALAR], {"--a", "--b"}),
    (["algebra", "conj", "--a", SCALAR], {"--a"}),
    (["algebra", "norm", "--a", SCALAR], {"--a"}),
    (["algebra", "inv", "--a", SCALAR], {"--a"}),
    (["algebra", "idempotents", "--delta", "1"], {"--delta"}),
]
# Every option, with a value its operation would take (none for a flag).
OPTION_VALUES = {"--form": ["1,1,1"], "--conj": ["t^2,t,1"],
                 "--path": ["t^2,t,1"], "--reverse": [], "--poset": [],
                 "--input": [REP], "--grid": ["0:1:3"], "--a": [SCALAR],
                 "--b": [SCALAR], "--delta": ["1"]}


def _files(argv, tmp_path):
    """argv with each dict written to a file and replaced by its path."""
    out = []
    for i, word in enumerate(argv):
        if isinstance(word, dict):
            path = tmp_path / "input{}.json".format(i)
            path.write_text(json.dumps(word))
            word = str(path)
        out.append(word)
    return out


@pytest.mark.parametrize("argv, options", OPERATIONS,
                         ids=[" ".join(argv[:2]) for argv, _ in OPERATIONS])
def test_operation_refuses_options_it_does_not_read(capsys, tmp_path, argv,
                                                    options):
    assert set().union(*(o for _, o in OPERATIONS)) == set(OPTION_VALUES)
    argv = _files(argv, tmp_path)
    assert run(capsys, *argv)[0] == 0
    for option in sorted(set(OPTION_VALUES) - options):
        extra = _files([option, *OPTION_VALUES[option]], tmp_path)
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2, option
        assert out == "" and err.count("\n") == 1
        assert "error" in json.loads(err)


def test_every_n3_signature_has_a_class(capsys):
    # so cmd_limit and cmd_cells name the class of every n = 3 limit
    from geomlim import cells, limits

    sigs = {c.signature() for c in cells.enumerate_cells(3)}
    for signs in itertools.product([1.0, -1.0], repeat=3):
        for exps in itertools.product(range(3), repeat=3):
            path = limits.MonomialDiagonal(zip(signs, exps))
            sigs.add(limits.flag_signature(
                limits.decode_partition(limits.psi_limit(path))))
    assert sigs <= limits.CLASS_3D.keys()
    code, out, _ = run(capsys, "cells", "3")
    assert code == 0
    assert all("class_3d" in c for c in json.loads(out)["cells"])


HELP_ARGVS = [["-h"], ["cells", "--help"], ["limit", "-h"], ["heis", "-h"],
              ["algebra", "-h"], ["heis", "dev", "-h"],
              ["algebra", "idempotents", "-h"]]


def check_help(argv, out):
    """out, argv's help page, starts with the usage line of its own parser,
    "geomlim <words>", and a page of commands or operations lists them."""
    words = tuple(argv[:-1])
    assert out.startswith(" ".join(["usage: geomlim", *words]) + " ")
    assert {(): "{limit,poset,cells,heis,regen,algebra}",
            ("heis",): "{classify,dev}",
            ("algebra",): "{mul,conj,norm,inv,idempotents}"}.get(
                words, "") in out


@pytest.mark.parametrize("argv", HELP_ARGVS)
def test_help_exits_0(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    check_help(argv, out)


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


def test_heis_commands(capsys, monkeypatch, tmp_path):
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
                       "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"x": [1, 0], "y": [0, 1], "z": [0, 0]}))
    code, _, err = run(capsys, "heis", "classify", "--input", str(bad))
    assert code == 2
    # a Shear rep read from stdin is a holonomy with canonical coordinates
    shear = '{"x": [1, 2], "y": [0.5, 1], "z": [3, 1]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(shear))
    code, out, _ = run(capsys, "heis", "classify", "--input", "-")
    doc = json.loads(out)
    assert (code, doc["class"], doc["subtype"]) == (0, "Holonomy", "Shear")
    assert "canonical" in doc


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_regen_drops_each_t_whose_form_leaves_the_float_range(
        capsys, tmp_path, fmt):
    # such a t is an error sample, which the CSV omits; a grid of no other
    # t exits 2, and numpy warns of nothing on stderr
    f = tmp_path / "job.json"
    argv = ["regen", "--input", str(f), "--format", fmt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f.write_text(json.dumps(dict(WIDE_JOB, t_grid=[1e100])))
        assert run(capsys, *argv) == (
            2, "", '{"error": "no valid samples on the grid"}\n')
        f.write_text(json.dumps(dict(WIDE_JOB, t_grid=[10, 1e100])))
        code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    if fmt == "csv":
        assert [line.split(",", 1)[0] for line in out.splitlines()] == [
            "t", "10.0"]
    else:
        ok, wide = json.loads(out)["samples"]
        assert ok["t"] == 10 and ok["form_residual"] == 0.0
        assert wide == {"t": 1e100, "error": "form leaves the float range"}


def test_negative_grid_start_needs_equals(capsys, tmp_path):
    # argparse takes a value that starts with "-" for an option unless it
    # is a plain number, so a grid from a negative end is given with "="
    job, rep = tmp_path / "job.json", tmp_path / "rep.json"
    job.write_text(json.dumps(JOB))
    rep.write_text(json.dumps(REP))
    code, out, _ = run(capsys, "regen", "--input", str(job), "--grid=-1:1:3",
                       "--format", "json")
    assert code == 0
    assert [s["t"] for s in json.loads(out)["samples"]] == pytest.approx(
        [0.1, 1.0, 10.0])
    code, out, _ = run(capsys, "heis", "dev", "--input", str(rep),
                       "--grid=-1:1:3")
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()[1:4]] == [
        ["-1.0", "-1.0"], ["-1.0", "0.0"], ["-1.0", "1.0"]]
    code, _, err = run(capsys, "heis", "dev", "--input", str(rep),
                       "--grid", "-1:1:3")
    assert code == 2 and "expected one argument" in json.loads(err)["error"]


def _plain(value):
    """value as json.loads gives it back: arrays and tuples as lists."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.tolist() if hasattr(value, "tolist") else value


# One job of each kind; the hyperbolic one starts at t = 0.1, where the
# vertices lie outside the model's disk, so its first sample is an error.
REGEN_JOBS = [dict(JOB, t_grid=[0.1, 10, 100, 1000]),
              dict(JOB, kind="sphere", t_grid=[10, 100.0, 1000]),
              dict(JOB, kind="euclidean", t_grid=[2, 20.5])]


def _trace(job):
    from geomlim import regeneration

    return regeneration.regenerate_trace(
        job["kind"], cli.parse_monomial_path(job["D_path"]),
        regeneration.Parallelogram(job["vertices"]), job["t_grid"])


@pytest.mark.parametrize("job", REGEN_JOBS)
def test_regen_json_is_the_trace(capsys, tmp_path, job):
    f = tmp_path / "job.json"
    f.write_text(json.dumps(job))
    code, out, _ = run(capsys, "regen", "--input", str(f), "--format", "json")
    assert code == 0
    doc, want = json.loads(out), _trace(job)
    assert doc == _plain(want)
    assert doc["samples"][0].keys() == ({"t", "error"}
                                        if job["kind"] == "hyperbolic"
                                        else {"t", "A", "B", "midpoints",
                                              "commutator_residual",
                                              "form_residual"})


@pytest.mark.parametrize("job", REGEN_JOBS)
def test_regen_csv_rows_are_the_valid_samples(capsys, tmp_path, job):
    f = tmp_path / "job.json"
    f.write_text(json.dumps(job))
    code, out, _ = run(capsys, "regen", "--input", str(f))
    assert code == 0
    head, *lines = out.splitlines()
    assert head.split(",") == (
        ["t"] + ["A{}{}".format(i, j) for i in range(3) for j in range(3)]
        + ["B{}{}".format(i, j) for i in range(3) for j in range(3)]
        + ["commutator_residual", "form_residual"])
    want = [[s["t"], *s["A"].ravel().tolist(), *s["B"].ravel().tolist(),
             s["commutator_residual"], s["form_residual"]]
            for s in _trace(job)["samples"] if "error" not in s]
    assert [[float(x) for x in line.split(",")] for line in lines] == want


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


def _outcome(f, *args):
    """f(*args), or the type and text of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False,
                      default=cli._tolist)


def _json_docs():
    """Documents of the kinds handlers return and some they do not: str,
    int, float, bool and None leaves, numpy arrays and scalars, lists and
    tuples, and dicts with string keys."""
    import numpy as np
    from hypothesis.extra import numpy as hnp

    finite = st.floats(allow_nan=False, allow_infinity=False)
    strings = st.text() | st.sampled_from(
        ['"', "\\", "\x00\x1f\x7f", "\u00e9", "\u2028", "\U0001f600"])
    floats = finite | st.sampled_from([-0.0, 5e-324, 1e308])
    ints = st.integers() | st.sampled_from([2 ** 64, -2 ** 100])
    arrays = hnp.arrays(
        st.sampled_from([np.float64, np.int64, np.bool_]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
    leaves = st.one_of(
        st.none(), st.booleans(), ints, floats, strings, arrays,
        finite.map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(
            np.int64),
        # lists of one leaf type, and a non-finite float among finite ones
        st.lists(floats), st.lists(ints), st.lists(strings),
        st.lists(st.floats()))
    return st.recursive(leaves, lambda docs: st.one_of(
        st.lists(docs, max_size=4), st.lists(docs, max_size=4).map(tuple),
        st.dictionaries(strings, docs, max_size=4)), max_leaves=24)


def test_json_writer_is_the_stdlib_encoder():
    @settings(max_examples=500, deadline=None, derandomize=True,
              database=None)
    @given(_json_docs())
    def check(doc):
        assert _outcome(cli._json, doc) == _outcome(_dumps, doc)

    check()


@pytest.mark.parametrize("bad", [NAN, float("inf"), float("-inf")])
def test_json_writer_refuses_non_finite_floats(bad):
    import numpy as np

    for doc in (bad, [1.0, bad], [1, bad], np.float64(bad),
                np.array([[0.5, bad]]), {"x": (2.0, {"y": bad})}):
        got = _outcome(cli._json, doc)
        assert got == _outcome(_dumps, doc)
        assert got[0] is ValueError and got[1].startswith(
            "Out of range float values are not JSON compliant: ")


def test_json_writer_refuses_keys_that_are_not_strings():
    for doc in ({1: 2}, {"a": {None: 1}}):
        with pytest.raises(TypeError):
            cli._json(doc)


def _csv_per_row(head, rows):
    """cli._csv as it was, one join of reprs per row."""
    return "".join(",".join(row) + "\n" for row in [
        head, *(map(repr, row) for row in rows)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example([])
@given(st.lists(st.tuples(
    st.integers(1, 10 ** 6).map(float),
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False)), max_size=5))
def test_csv_writer_is_the_per_row_join(rows):
    head = ["t", "x", "y"]
    assert cli._csv(head, rows) == _csv_per_row(head, rows)


# SHA-256 of stdout, recorded before faces and limit_poset were rebuilt
# from single-block splits (the first three) and before signatures and
# sign classes became canonical tuples (the rest); the output must not
# change.
COMBINATORICS_DIGESTS = [
    (["cells", "4", "--poset"],
     "a7f33bc59730a6c469438145e7ddc8afc1c3c6781e4289c564d3d60c9fcf37f8"),
    (["poset", "3", "3"],
     "46bb4a27e6b12521d0631874e9e969802fb9c6be812e2bfaf23123e72cd1edee"),
    (["poset", "3", "3", "--format", "dot"],
     "4c87b788e7e8c1bd6f87a0cf9c78118d2b9e80c93a112672db632214ee3a1032"),
    (["cells", "3"],
     "7e15a03441c413f4b463d353ee28b6c9cdb72eda415b9381e5cf7e3a7cfa7775"),
    (["cells", "4"],
     "cde8d5213b558e6d07cb64a803f2ad794db16803fa6210d6f945823aca2ae7bc"),
    (["poset", "4", "4"],
     "bd5f572794149c7b6f12f2283e4e90fdadeacceecb85bcd1a776a68b32095809"),
    (["poset", "4", "4", "--format", "dot"],
     "87c1ebd74a5d31f0a0eb1657f81c685249a1a2c035debab1475530a687d1f752"),
]


@pytest.mark.parametrize("argv, digest", COMBINATORICS_DIGESTS)
def test_combinatorics_output_unchanged(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of stdout for the help texts and the README examples, recorded
# before the library modules and numpy were imported lazily (the two
# heis dev digests: before the CSV output moved to a shared writer, the
# SVG one with a --grid it never read; the heis and algebra help: when it
# became the list of their operations, each of which has a help page of
# its own; the operations' own pages: before each operation's arguments
# moved to a cached parent parser).  argparse lays out help
# differently across Python versions (and by COLUMNS); the help digests
# are those of Python 3.11 at 80 columns.
README_REP = '{"x":[0,0],"y":[1,0],"z":[0,1]}'
HELP_DIGESTS = [
    (["-h"],
     "fd46fe9dd667bb7992970bc23a66bf1031158a3d1c6889d169b22dc5ff3cfd3c"),
    (["limit", "--help"],
     "5c4234be8a766a234a7e14b06ad92c658b8151ae4dfbc21042b039e0d34f24c8"),
    (["poset", "--help"],
     "9231153fda085385e4882e636f47f53cb2157d6f812a484959c2f904b75f9a73"),
    (["cells", "--help"],
     "d5eb182c53b732348b93d75b8da954fce4c9136be2351e07483036e90cfe39a1"),
    (["heis", "--help"],
     "9ef99078aa6d1c83f077981271157fae551033f5e96a1cc22cc5f96b4b27c35b"),
    (["regen", "--help"],
     "b37c5f39eb821ad56df9a6a9198b2796ab0f7a76026188e316d642c5b3f63e00"),
    (["algebra", "--help"],
     "5e07ac4b5228700df8bc5f19af933cb2ff5a57978b96cf7cd4ba373bb7b2edb8"),
]
# each operation's own page; parametrized after README_DIGESTS, so that
# the cases before keep their ids
OPERATION_HELP_DIGESTS = [
    (["heis", "classify", "-h"],
     "cefb568e53555a46f57defa3d4fd47d479dd9ceef82869bfc587584e512cab0d"),
    (["heis", "dev", "-h"],
     "7e084bb5964dc61d703c74d461caf6740c9cc8abcecdb5b89ddb9b98906a7922"),
    (["algebra", "mul", "-h"],
     "8b7e0d12a124c765b9dddb2f638fa9d7a1f380ea88ee2ed38495fff6f543e0ce"),
    (["algebra", "conj", "-h"],
     "774db1ea90c0934f50ffe04d86f50e430c1007f49c00d241d3e253dbc56c5bb4"),
    (["algebra", "norm", "-h"],
     "1328b41cb0cf7b1fe363d950b6ede17b63144abfa9c04c7fd0f1356884a14cc1"),
    (["algebra", "inv", "-h"],
     "165fb8c759054bf382b31cb69cdd09b19854ec11a4697cfc5114a7a24b8408f1"),
    (["algebra", "idempotents", "-h"],
     "183add88d52bbe507ac176b3878ec1782036b5fc7bf5a0696d56ce97d66fed66"),
]
README_DIGESTS = [
    (["limit", "--form", "1,1,1", "--conj", "t^2,t,1"], "",
     "ecf355f25f642a794e4a083a2c093c87f418c216d650d888f27eee254762fd2c"),
    (["limit", "--form", "1,1,-1", "--conj", "1,1,t^1/2", "--reverse"], "",
     "fe2066052683ab09bec3b2e1d1b00791550bd07bf59cbd4f5d01ac586aea9671"),
    (["heis", "classify"], README_REP,
     "06d5833848c055809dc5871ba62032ac5c13582d9009e8a7575f08672f057bf4"),
    (["algebra", "mul", "--a", '{"re":1,"im":2,"delta":-1}',
      "--b", '{"re":3,"im":-1,"delta":-1}'], "",
     "6040ed6c235ac86a8b08db0b2b1d199a956f8cf8468b3747d33ffa8c25d77caa"),
    (["algebra", "idempotents", "--delta", "1"], "",
     "8ba8f3534d406d1f3ccadae4982528f9672bebfcb70b27a3d7823c38d7fc5cf8"),
    (["heis", "dev", "--grid", "0:1:9"], README_REP,
     "46e2ca38c90ed3a5cfe83e79c10757074e85aaa49856846d99034f7143f5c18e"),
    (["heis", "dev", "--format", "svg"], README_REP,
     "16bf7e77b8814198f77cfd970be24fd535719f7b0353e09cd771508fbff2324c"),
]
PY311 = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                           reason="help digests are of Python 3.11")


@pytest.mark.parametrize("argv, stdin, digest", [
    *(pytest.param(argv, "", digest, marks=PY311)
      for argv, digest in HELP_DIGESTS),
    *README_DIGESTS,
    *(pytest.param(argv, "", digest, marks=PY311)
      for argv, digest in OPERATION_HELP_DIGESTS),
])
def test_help_and_readme_output_unchanged(capsys, monkeypatch, argv, stdin,
                                          digest):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_regen_square_limit_is_the_translation(capsys, tmp_path):
    # The square of side 0.1: A carries the bottom side to the top one,
    # so its limit is the translation by (0, 0.1).
    f = tmp_path / "square.json"
    f.write_text(json.dumps(dict(
        JOB, vertices=[[-0.05, -0.05], [0.05, -0.05], [0.05, 0.05],
                       [-0.05, 0.05]])))
    code, out, _ = run(capsys, "regen", "--input", str(f),
                       "--grid", "1:4:4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    want = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.1], [0.0, 0.0, 1.0]]
    for got_row, want_row in zip(doc["A_inf"], want, strict=True):
        for got, expected in zip(got_row, want_row, strict=True):
            assert abs(got - expected) <= 1e-12
    assert doc["limit_in_heis"] is True


# Which of fractions, numbers and numpy are loaded after each step.
IMPORT_PROBE = """
import contextlib, io, json, sys
def loaded():
    return [m for m in ("fractions", "numbers", "numpy") if m in sys.modules]
out = {}
import geomlim
out["geomlim"] = loaded()
import geomlim.cli
out["geomlim.cli"] = loaded()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = geomlim.cli.run(argv)
    out[" ".join(argv)] = [code, loaded()]
print(json.dumps(out))
"""


def _python(code, *args):
    """stdout of a fresh interpreter running code against this checkout."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def _probe(*argvs):
    return json.loads(_python(IMPORT_PROBE, json.dumps(argvs)))


def test_combinatorics_and_algebra_do_not_import_numpy():
    # algebra runs first: poset and cells load fractions (and with it
    # numbers) through limits
    got = _probe(["algebra", "mul", "--a", '{"re":1,"im":2,"delta":-1}',
                  "--b", '{"re":3,"im":-1,"delta":-1}'],
                 ["algebra", "idempotents", "--delta", "1"],
                 ["poset", "1", "3"], ["cells", "3", "--poset"])
    assert got.pop("geomlim") == got.pop("geomlim.cli") == []
    assert got.pop('algebra mul --a {"re":1,"im":2,"delta":-1} '
                   '--b {"re":3,"im":-1,"delta":-1}') == [0, []]
    assert got.pop("algebra idempotents --delta 1") == [0, []]
    assert got == {"poset 1 3": [0, ["fractions", "numbers"]],
                   "cells 3 --poset": [0, ["fractions", "numbers"]]}
    # limit builds its Lie basis as lists, so it loads no numpy
    got = _probe(["limit", "--form", "1,1,-1", "--conj", "t^2,t,1",
                  "--reverse"], ["limit", "--path", "2*t^-1,t^1/2,3"])
    assert got["limit --form 1,1,-1 --conj t^2,t,1 --reverse"] == [
        0, ["fractions", "numbers"]]
    assert got["limit --path 2*t^-1,t^1/2,3"] == [
        0, ["fractions", "numbers"]]


def test_package_attributes_load_on_first_use():
    code = ("import sys, geomlim; "
            "listed = 'regeneration' in dir(geomlim); "
            "lazy = 'geomlim.regeneration' not in sys.modules; "
            "from geomlim import *; "
            "print(listed, lazy, geomlim.limits.__name__, "
            "regeneration.__name__, geomlim.__version__)")
    assert _python(code).split() == [
        "True", "True", "geomlim.limits", "geomlim.regeneration", "0.1.0"]
    import geomlim
    with pytest.raises(AttributeError):
        getattr(geomlim, "no_such_module")


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
SCALARS_OK = ['{"re": 1.5, "im": -2, "delta": -1}', '{"re": 1, "delta": 1}',
              '{"re": 0, "im": 0, "delta": 2}']
SCALARS = SCALARS_OK + ['{"re": "x", "delta": 0}', '{"re": null, "delta": 0}',
                        "[1]", "{"]
# Mutation tokens.  Integers stay small or, like 99, past the size caps
# of cells and poset, and grids stay small or, like 0:1:1002, past the
# grid cap, so no mutation makes a large run; --out appears only with a
# directory that does not exist.
TOKENS = ["-1", "0", "1", "99", "x", "1.5", "nan", "inf", "1e308", "", "-h",
          "--poset", "--reverse", "--format", "json", "csv", "dot", "svg",
          "xml", "--grid", "0:1:9", "0:1", "1:0:3", "0:nan:3", "0:400:3",
          "0:1:1002", "-400:0:3", "a:b:c", "--form", "--conj", "--path",
          "--input", "--a", "--b", "--delta", "--bogus", "classify", "dev",
          "mul", "inv", "frob",
          "--out=/nonexistent/dir/x.json"] + FORMS + PATHS + SCALARS


# The documents an unmutated draw reads: Heisenberg representations for
# heis, job files for regen, scalars for algebra.  The other documents
# and scalars reach a command line through the mutations.
FUZZ_REPS = ["translation", "shear", "flat"]
FUZZ_JOBS = ["job", "job_grid", "sphere_grid"]


@st.composite
def cli_argvs(draw, paths):
    """A command line of the README grammar, with at most three tokens
    after the subcommand replaced, deleted or inserted.  Before the
    mutations each operation gets its own formats, documents of its kind
    (``paths`` maps a FUZZ_DOCS name to its file) and --grid only where it
    is read: for heis dev's csv and a regen job without a t_grid.  Sizes
    stay small: cells n <= 4, poset p + q <= 5, grids of at most 9 points,
    unless a mutation puts in 99, which the size caps refuse."""
    def pick(options):
        return draw(st.sampled_from(options))

    p = draw(st.integers(1, 4))
    k = str(draw(st.integers(1, 9)))
    dev_format = pick(["csv", "svg"])
    job = pick(FUZZ_JOBS)
    argv = pick([
        ["limit", "--form", pick(FORMS), "--conj", pick(PATHS)],
        ["limit", "--path", pick(PATHS)] + pick([[], ["--reverse"]]),
        ["poset", str(p), str(draw(st.integers(0, 5 - p))),
         "--format", pick(["json", "dot"])],
        ["cells", str(draw(st.integers(2, 4)))] + pick([[], ["--poset"]]),
        ["heis", "classify", "--input", paths[pick(FUZZ_REPS)],
         "--format", "json"],
        ["heis", "dev", "--input", paths[pick(FUZZ_REPS)],
         "--format", dev_format]
        + (["--grid", "0:1:" + k] if dev_format == "csv" else []),
        ["regen", "--input", paths[job], "--format", pick(["csv", "json"])]
        + ([] if "t_grid" in FUZZ_DOCS[job] else ["--grid", "1:4:" + k]),
        ["algebra", "mul", "--a", pick(SCALARS_OK), "--b", pick(SCALARS_OK)],
        ["algebra", pick(["conj", "norm", "inv"]), "--a", pick(SCALARS_OK)],
        ["algebra", "idempotents",
         "--delta", pick(["-1", "0", "1", "2", "nan", "inf"])],
    ])
    doc_paths = list(paths.values())
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
    paths = {"missing": str(tmp_path / "missing.json"),
             "bad": str(tmp_path / "bad.json")}
    (tmp_path / "bad.json").write_text("{")
    for name, doc in FUZZ_DOCS.items():
        paths[name] = str(tmp_path / (name + ".json"))
        (tmp_path / (name + ".json")).write_text(json.dumps(doc))
    stdins = [json.dumps(doc) for doc in FUZZ_DOCS.values()] + ["", "{"]
    succeeded = set()

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(cli_argvs(paths), st.sampled_from(stdins))
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
        else:
            succeeded.add(argv[0])

    check()
    # the draws reach every subcommand's output, not only its refusals
    assert succeeded == set(cli.COMMANDS)


@pytest.mark.parametrize("argv, code", [
    (["poset", "1", "3"], 0),
    (["cells", "x"], 2),
    (["-h"], 0),
    (["--help"], 0),
    (["limit", "--help"], 0),
    (["algebra", "mul", "--a", SCALAR, "--b", SCALAR], 0),
    (["heis", "-h"], 0),
])
def test_run_builds_one_parser(capsys, monkeypatch, argv, code):
    # a plain line builds no parser; the first help page or refused line
    # of a subcommand, operation or table of them builds its parser, and
    # the same line again builds none
    progs = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli._parser.cache_clear()
    assert run(capsys, *argv)[0] == code
    assert run(capsys, *argv)[0] == code
    prog = {"-h": "geomlim", "--help": "geomlim", "poset": None,
            "algebra": None}.get(argv[0], "geomlim " + argv[0])
    assert progs == ([prog] if prog else [])


def test_plain_reader_reads_as_argparse():
    # lines of every row, with abbreviations, "=" forms, negative and empty
    # values, "-", "--", repeated options, -h and "_" or non-ASCII digits;
    # argv_lines.check asserts the reader's namespace where it gives one
    taken = set()

    @settings(max_examples=600, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(argv_lines.ROWS), st.randoms(use_true_random=False))
    def check(row, rng):
        if argv_lines.check(row[0], argv_lines.random_line(rng, row[1])):
            taken.add(row[0])

    check()
    # the draws reach a plain line of every row
    assert taken == {words for words, _ in argv_lines.ROWS}


# The exit code of each line, and whether argparse is loaded after it.
ARGPARSE_PROBE = """
import contextlib, io, json, sys
import geomlim.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = geomlim.cli.run(argv)
    print(code, "argparse" in sys.modules)
"""


def test_plain_lines_do_not_import_argparse():
    plain = [["limit", "--form", "1,1,-1", "--conj", "t^2,t,1", "--reverse"],
             ["poset", "1", "3", "--format=dot"], ["cells", "3", "--poset"],
             ["algebra", "idempotents", "--delta", "1"]]
    assert _python(ARGPARSE_PROBE, json.dumps([*plain, ["-h"]])) == (
        "0 False\n" * 4 + "0 True\n")
    assert _python(ARGPARSE_PROBE, json.dumps([plain[0], ["cells", "x"]])) == (
        "0 False\n2 True\n")


def test_cached_parsers_share_no_state_across_calls(capsys, monkeypatch):
    # a line refused after parsing leaves its --reverse in no later
    # namespace, and a repeated line builds no parser and adds no
    # argument: its operation's parser is built once per process
    assert run(capsys, "limit", "--path", "t^2,t,1", "--reverse")[0] == 2
    argv, _, digest = README_DIGESTS[0]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    built, added = [], []
    init = argparse.ArgumentParser.__init__
    add = argparse.ArgumentParser.add_argument

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(type(self))

    def spy_add(self, *args, **kwargs):
        added.append(args)
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy_add)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert built == [] and added == []


def test_cached_parser_prints_help_between_lines(capsys, monkeypatch):
    # a row's parser prints its help (and exits through SystemExit) after
    # a line and parses a line after its help, and lays the help out at
    # the COLUMNS of each call
    def output(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return out

    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    fresh = output("limit", "-h")
    cli._parser.cache_clear()
    argv, _, digest = README_DIGESTS[0]
    assert hashlib.sha256(output(*argv).encode()).hexdigest() == digest
    assert output("limit", "-h") == fresh
    assert hashlib.sha256(output(*argv).encode()).hexdigest() == digest
    monkeypatch.setenv("COLUMNS", "40")
    assert output("limit", "-h") != fresh
    monkeypatch.setenv("COLUMNS", "80")
    assert output("limit", "-h") == fresh


def test_library_refusal_keeps_its_message(capsys):
    # the number check runs after the library has read the document, so
    # a value the library cannot read keeps the library's own message
    code, _, err = run(capsys, "algebra", "conj",
                       "--a", '{"re": "x", "delta": 0}')
    assert code == 2
    assert json.loads(err) == {
        "error": "could not convert string to float: 'x'"}
