"""Command-line front end.

Subcommands: limit, poset, cells, heis, regen, algebra.  Exit codes:
0 success, 2 invalid input (JSON error on stderr), 64 unknown subcommand.
The library raises a ValueError for input outside its domain; ``run`` is
the one place that turns it into exit 2, and the one place that writes
command output.
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
    """A command line or input document that breaks the CLI grammar."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as invalid input, not as usage text."""

    def error(self, message):
        raise InvalidInput(message)


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
    return limits.MonomialDiagonal(entries)


def parse_grid(text, log=False):
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise InvalidInput("grid must be 'a:b:n'") from None
    if n < 1 or not np.isfinite([a, b]).all():
        raise InvalidInput("grid needs finite ends and at least one point")
    # a grid past the float range (a log grid, or a linear one whose step
    # overflows) reaches the library as inf or NaN, and the library
    # rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        return list(np.logspace(a, b, n) if log else np.linspace(a, b, n))


def _read_json(build, text=None, path=None):
    """Build a library object from a JSON document: ``text``, or else the
    file at ``path`` (stdin for None or "-").  Text that is not JSON, a
    missing key or a value of the wrong type is invalid input."""
    try:
        if text is None and path in (None, "-"):
            text = sys.stdin.read()
        elif text is None:
            with open(path) as fh:
                text = fh.read()
        return build(json.loads(text))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise InvalidInput("bad input: {}".format(exc)) from None


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
    elif not args.form:
        raise InvalidInput("need --form (with optional --conj) or --path")
    else:
        J = [float(v) for v in args.form.split(",")]
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
    return doc


def _sig_label(F):
    return "".join("({},{})".format(p, q) for p, q in F.pairs)


def cmd_poset(args):
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
        return buf.getvalue()
    return {
        "nodes": [_signature_json(F) for F in nodes],
        "edges": [[index[a], index[b]] for a, b in edges],
    }


def cmd_cells(args):
    n = args.n
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
        return buf.getvalue()
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
    return doc


def cmd_heis(args):
    r = _read_json(lambda d: heisenberg.HeisRep(d["x"], d["y"], d["z"]),
                   path=args.input)
    if args.heis_cmd == "classify":
        tag, sub = heisenberg.classify(r)
        out = {"class": tag, "subtype": sub}
        if tag == "Holonomy":
            c = heisenberg.teichmuller_coords(r)
            out["canonical"] = {"x": list(c.x), "y": list(c.y), "z": list(c.z)}
        return out
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
        return ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="{}">'
                '<polyline points="{}" fill="none" stroke="black" '
                'stroke-width="0.5%"/></svg>\n').format(view, poly)
    us, vs = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    fxs, fys = heisenberg.developing_map(r, us, vs)
    buf = io.StringIO()
    buf.write("u,v,fx,fy\n")
    for u, v, fx, fy in zip(us, vs, fxs, fys):
        buf.write("{},{},{},{}\n".format(u, v, fx, fy))
    return buf.getvalue()


def _regen_job(doc):
    """Kind, conjugator path, parallelogram and t grid (None when absent)
    of a regen document.  t is passed on as given, so it prints as given."""
    kind, D_path, t_grid = doc["kind"], doc["D_path"], doc.get("t_grid")
    if not (isinstance(kind, str) and isinstance(D_path, str)):
        raise TypeError("kind and D_path must be strings")
    if t_grid is not None and not all(
            isinstance(t, (int, float)) for t in t_grid):
        raise TypeError("t_grid must be a list of numbers")
    return (kind, parse_monomial_path(D_path),
            regeneration.Parallelogram(doc["vertices"]), t_grid)


def cmd_regen(args):
    kind, D_path, Q, t_grid = _read_json(_regen_job, path=args.input)
    if t_grid is None:
        if not args.grid:
            raise InvalidInput("need t_grid in the input or --grid")
        t_grid = parse_grid(args.grid, log=True)
    trace = regeneration.regenerate_trace(kind, D_path, Q, t_grid)
    if args.format == "json":
        return {
            "A_inf": trace["A_inf"].tolist(),
            "B_inf": trace["B_inf"].tolist(),
            "limit_in_heis": trace["limit_in_heis"],
            "samples": [
                {k: (v.tolist() if isinstance(v, np.ndarray)
                     else [m.tolist() for m in v] if k == "midpoints" else v)
                 for k, v in s.items()}
                for s in trace["samples"]],
        }
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
    return buf.getvalue()


def _scalar(doc):
    return algebra.AlgScalar(doc["re"], doc.get("im", 0.0), doc["delta"])


def _scalar_json(x):
    return {"re": x.re, "im": x.im, "delta": x.delta}


def cmd_algebra(args):
    op = args.op
    if op == "idempotents":
        if args.delta is None:
            raise InvalidInput("idempotents needs --delta")
        return [_scalar_json(e) for e in algebra.idempotents(args.delta)]
    if not args.a:
        raise InvalidInput("operation {} needs --a".format(op))
    x = _read_json(_scalar, text=args.a)
    if op == "mul":
        if not args.b:
            raise InvalidInput("mul needs --b")
        return _scalar_json(algebra.mul(x, _read_json(_scalar, text=args.b)))
    if op == "conj":
        return _scalar_json(algebra.conj(x))
    if op == "norm":
        return algebra.norm(x)
    return _scalar_json(algebra.inv(x))


def build_parser():
    top = _Parser(prog="geomlim", add_help=True)
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
    if argv[0] not in (*COMMANDS, "-h", "--help"):
        sys.stderr.write(json.dumps(
            {"error": "unknown subcommand {!r}".format(argv[0])}) + "\n")
        return 64
    try:
        args = build_parser().parse_args(argv)
        formats = _formats(args)
        args.format = args.format or formats[0]
        if args.format not in formats:
            raise InvalidInput("{} emits only {}".format(
                args.cmd, ", ".join(formats)))
        result = COMMANDS[args.cmd](args)
        if not isinstance(result, str):
            result = json.dumps(result, sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(result)
        else:
            sys.stdout.write(result)
    except SystemExit:
        # argparse printed the help; its errors raise InvalidInput
        return 0
    except (ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
