"""Command-line front end.

Subcommands: limit, poset, cells, heis, regen, algebra.  Exit codes:
0 success, 2 invalid input (JSON error on stderr), 64 unknown subcommand.
"""

import argparse
import io
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import algebra, cells, heisenberg, limits, regeneration

_TERM = re.compile(
    r"^\s*(?:(?P<coeff>[+-]?\d+(?:\.\d+)?)\s*\*?\s*)?"
    r"(?:t(?:\^(?P<exp>[+-]?\d+(?:/\d*[1-9]\d*)?))?)?\s*$")


class InvalidInput(ValueError):
    pass


def parse_monomial_path(text):
    """Parse 'c*t^e' terms, comma separated; coefficients default to 1,
    exponents are rational p/q."""
    entries = []
    for term in text.split(","):
        mt = _TERM.match(term)
        if not mt or (mt.group("coeff") is None and "t" not in term):
            raise InvalidInput("cannot parse path term {!r}".format(term))
        coeff = float(mt.group("coeff")) if mt.group("coeff") else 1.0
        if "t" in term:
            exp = Fraction(mt.group("exp")) if mt.group("exp") else Fraction(1)
        else:
            exp = Fraction(0)
        entries.append((coeff, exp))
    if len(entries) < 2:
        raise InvalidInput("need at least two path entries")
    try:
        return limits.MonomialDiagonal(entries)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None


def parse_grid(text, log=False):
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise InvalidInput("grid must be 'a:b:n'") from None
    if n < 1 or not np.isfinite([a, b]).all():
        raise InvalidInput("grid needs finite ends and at least one point")
    if log:
        return list(np.logspace(a, b, n))
    return list(np.linspace(a, b, n))


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _signature_json(F):
    return [list(p) for p in F.pairs]


def _partition_json(P):
    return {
        "blocks": [list(b) for b in P.blocks],
        "points": [list(p) for p in P.block_points],
    }


def cmd_limit(args):
    if args.path:
        path = parse_monomial_path(args.path)
    else:
        if not args.form:
            raise InvalidInput("need --form (with optional --conj) or --path")
        try:
            J = [float(v) for v in args.form.split(",")]
        except ValueError:
            raise InvalidInput(
                "cannot parse form {!r}".format(args.form)) from None
        if 0 in J or not np.isfinite(J).all():
            raise InvalidInput("form entries must be finite and nonzero")
        if args.conj:
            C = parse_monomial_path(args.conj)
            if args.reverse:
                C = C.reversed()
            path = limits.conjugacy_to_form_path(C, J)
        else:
            path = limits.MonomialDiagonal.constant(J)
    L = limits.psi_limit(path)
    P = limits.decode_partition(L)
    sub = limits.eta(L)
    F = limits.flag_signature(P)
    doc = {
        "path": [[c, str(e)] for c, e in path.entries],
        "limit_point": {"{},{}".format(i, j): list(v)
                        for (i, j), v in sorted(L.components.items())},
        "partition": _partition_json(P),
        "flag_signature": _signature_json(F),
        "lie_basis": [b.tolist() for b in sub.basis],
    }
    if path.n == 3:
        try:
            doc["class_3d"] = limits.classify_limit_group_3d(F)
        except limits.UnknownSignature:
            pass
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _sig_label(F):
    return "".join("({},{})".format(p, q) for p, q in F.pairs)


def cmd_poset(args):
    if args.p < 1 or args.q < 0:
        raise InvalidInput("need p >= 1 and q >= 0")
    nodes, edges = limits.limit_poset(args.p, args.q)
    index = {F: i for i, F in enumerate(nodes)}
    if args.format == "dot":
        buf = io.StringIO()
        buf.write("digraph limits {\n")
        for F in nodes:
            buf.write('  n{} [label="{}"];\n'.format(index[F], _sig_label(F)))
        for a, b in edges:
            buf.write("  n{} -> n{};\n".format(index[a], index[b]))
        buf.write("}\n")
        _emit(buf.getvalue(), args.out)
    else:
        doc = {
            "nodes": [_signature_json(F) for F in nodes],
            "edges": [[index[a], index[b]] for a, b in edges],
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_cells(args):
    n = args.n
    if n < 2:
        raise InvalidInput("need n >= 2")
    all_cells = cells.enumerate_cells(n)
    if args.poset:
        buf = io.StringIO()
        buf.write("digraph cells {\n")
        for i, c in enumerate(all_cells):
            buf.write('  c{} [label="{} d{}"];\n'.format(
                i, c.blocks, c.dim))
        index = {c: i for i, c in enumerate(all_cells)}
        for i, c in enumerate(all_cells):
            for j in sorted(index[f] for f in cells.faces(c)):
                buf.write("  c{} -> c{};\n".format(i, j))
        buf.write("}\n")
        _emit(buf.getvalue(), args.out)
        return 0
    doc = {"counts": cells.closure_cell_counts(n), "cells": []}
    for c in all_cells:
        item = {
            "blocks": [list(b) for b in c.blocks],
            "signs": [c.signs[i] for i in range(n)],
            "dim": c.dim,
            "flag_signature": _signature_json(c.signature()),
        }
        if n == 3:
            try:
                item["class_3d"] = limits.classify_limit_group_3d(c.signature())
            except limits.UnknownSignature:
                pass
        doc["cells"].append(item)
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _read_json_input(path):
    try:
        if path in (None, "-"):
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput("bad input: {}".format(exc)) from None


def _heis_rep(doc):
    try:
        return heisenberg.HeisRep(doc["x"], doc["y"], doc["z"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput("bad representation: {}".format(exc)) from None


def cmd_heis(args):
    doc = _read_json_input(args.input)
    r = _heis_rep(doc)
    if not heisenberg.is_representation(r):
        raise InvalidInput("generators do not commute")
    if args.heis_cmd == "classify":
        tag, sub = heisenberg.classify(r)
        out = {"class": tag, "subtype": sub}
        if tag == "Holonomy":
            c = heisenberg.teichmuller_coords(r)
            out["canonical"] = {"x": list(c.x), "y": list(c.y), "z": list(c.z)}
        _emit(json.dumps(out, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    # developing-map sampling
    grid = parse_grid(args.grid or "0:1:9")
    if args.format == "svg":
        # image of the unit-square boundary as a polyline, 33 points a
        # side; v runs one side behind u
        ts = np.linspace(0, 1, 33)
        u = np.concatenate([ts, np.ones(33), 1 - ts, np.zeros(33)])
        xs, ys = heisenberg.developing_map(r, u, np.roll(u, 33))
        pad = 0.1 * max(xs.max() - xs.min(), ys.max() - ys.min(), 1e-9)
        view = "{} {} {} {}".format(xs.min() - pad, ys.min() - pad,
                                    xs.max() - xs.min() + 2 * pad,
                                    ys.max() - ys.min() + 2 * pad)
        poly = " ".join("{:.6g},{:.6g}".format(x, y) for x, y in zip(xs, ys))
        svg = ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="{}">'
               '<polyline points="{}" fill="none" stroke="black" '
               'stroke-width="0.5%"/></svg>\n').format(view, poly)
        _emit(svg, args.out)
        return 0
    us, vs = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    fxs, fys = heisenberg.developing_map(r, us, vs)
    buf = io.StringIO()
    buf.write("u,v,fx,fy\n")
    for u, v, fx, fy in zip(us, vs, fxs, fys):
        buf.write("{},{},{},{}\n".format(u, v, fx, fy))
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_regen(args):
    doc = _read_json_input(args.input)
    try:
        kind = doc["kind"]
        D_path = parse_monomial_path(doc["D_path"])
        Q = regeneration.Parallelogram(doc["vertices"])
        t_grid = doc.get("t_grid")
        if t_grid is not None and not np.isfinite(t_grid).all():
            raise ValueError("t_grid entries must be finite")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(str(exc)) from None
    if t_grid is None:
        if not args.grid:
            raise InvalidInput("need t_grid in the input or --grid")
        t_grid = parse_grid(args.grid, log=True)
    try:
        trace = regeneration.regenerate_trace(kind, D_path, Q, t_grid)
    except (ValueError, regeneration.OutsideDomain) as exc:
        raise InvalidInput(str(exc)) from None
    if args.format == "json":
        doc = {
            "A_inf": trace["A_inf"].tolist(),
            "B_inf": trace["B_inf"].tolist(),
            "limit_in_heis": trace["limit_in_heis"],
            "samples": [
                {k: (v.tolist() if isinstance(v, np.ndarray)
                     else [m.tolist() for m in v] if k == "midpoints" else v)
                 for k, v in s.items()}
                for s in trace["samples"]],
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    buf = io.StringIO()
    head = ["t"] + ["A{}{}".format(i, j) for i in range(3) for j in range(3)] \
        + ["B{}{}".format(i, j) for i in range(3) for j in range(3)] \
        + ["commutator_residual", "form_residual"]
    buf.write(",".join(head) + "\n")
    for s in trace["samples"]:
        if "error" in s:
            continue
        row = [s["t"]] + list(s["A"].ravel()) + list(s["B"].ravel()) \
            + [s["commutator_residual"], s["form_residual"]]
        buf.write(",".join(repr(float(x)) for x in row) + "\n")
    _emit(buf.getvalue(), args.out)
    return 0


def _scalar_from_json(text):
    try:
        doc = json.loads(text)
        return algebra.AlgScalar(doc["re"], doc.get("im", 0.0), doc["delta"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InvalidInput("bad scalar: {}".format(exc)) from None


def _scalar_json(x):
    return {"re": x.re, "im": x.im, "delta": x.delta}


def cmd_algebra(args):
    op = args.op
    if op == "idempotents":
        if args.delta is None:
            raise InvalidInput("idempotents needs --delta")
        try:
            ep, em = algebra.idempotents(args.delta)
        except algebra.NotSplit as exc:
            raise InvalidInput(str(exc)) from None
        doc = [_scalar_json(ep), _scalar_json(em)]
    else:
        if not args.a:
            raise InvalidInput("operation {} needs --a".format(op))
        x = _scalar_from_json(args.a)
        if op == "mul":
            if not args.b:
                raise InvalidInput("mul needs --b")
            y = _scalar_from_json(args.b)
            try:
                doc = _scalar_json(algebra.mul(x, y))
            except algebra.DeltaMismatch as exc:
                raise InvalidInput(str(exc)) from None
        elif op == "conj":
            doc = _scalar_json(algebra.conj(x))
        elif op == "norm":
            doc = algebra.norm(x)
        elif op == "inv":
            try:
                doc = _scalar_json(algebra.inv(x))
            except algebra.ZeroDivisor as exc:
                raise InvalidInput(str(exc)) from None
        else:
            raise InvalidInput("unknown algebra op {!r}".format(op))
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def build_parser():
    top = argparse.ArgumentParser(prog="geomlim", add_help=True)
    sub = top.add_subparsers(dest="cmd")

    def common(p):
        p.add_argument("--out", default=None)
        p.add_argument("--format", default=None)

    p = sub.add_parser("limit")
    common(p)
    p.add_argument("--form", default=None)
    p.add_argument("--conj", default=None)
    p.add_argument("--path", default=None)
    p.add_argument("--reverse", action="store_true",
                   help="re-parameterize the conjugator by t -> 1/t")

    p = sub.add_parser("poset")
    common(p)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    p = sub.add_parser("cells")
    common(p)
    p.add_argument("n", type=int)
    p.add_argument("--poset", action="store_true")

    p = sub.add_parser("heis")
    common(p)
    p.add_argument("heis_cmd", choices=["classify", "dev"])
    p.add_argument("--input", default=None)
    p.add_argument("--grid", default=None)

    p = sub.add_parser("regen")
    common(p)
    p.add_argument("--input", default=None)
    p.add_argument("--grid", default=None)

    p = sub.add_parser("algebra")
    common(p)
    p.add_argument("op", choices=["mul", "conj", "norm", "inv", "idempotents"])
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--delta", type=float, default=None)
    return top


COMMANDS = {
    "limit": cmd_limit,
    "poset": cmd_poset,
    "cells": cmd_cells,
    "heis": cmd_heis,
    "regen": cmd_regen,
    "algebra": cmd_algebra,
}


def _formats(args):
    """The output formats a subcommand emits; the first is the default."""
    if args.cmd == "heis" and args.heis_cmd == "dev":
        return ("csv", "svg")
    if args.cmd == "cells" and args.poset:
        return ("dot",)
    return {"poset": ("json", "dot"), "regen": ("csv", "json")}.get(
        args.cmd, ("json",))


def run(argv):
    if not argv:
        sys.stderr.write(json.dumps({"error": "missing subcommand"}) + "\n")
        return 64
    if argv[0] in ("-h", "--help"):
        build_parser().print_help()
        return 0
    if argv[0] not in COMMANDS:
        sys.stderr.write(json.dumps(
            {"error": "unknown subcommand {!r}".format(argv[0])}) + "\n")
        return 64
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        formats = _formats(args)
        args.format = args.format or formats[0]
        if args.format not in formats:
            raise InvalidInput("{} emits only {}".format(
                args.cmd, ", ".join(formats)))
        return COMMANDS[args.cmd](args)
    except (InvalidInput, limits.Inconsistent, limits.ZeroEigenvalue,
            limits.DimensionMismatch, heisenberg.NotARepresentation,
            heisenberg.NotHolonomy) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
