"""Command-line front end.

Subcommands: limit, poset, cells, heis, regen, algebra; heis and algebra
take an operation as their second word.  Exit codes: 0 success, 2
invalid input (JSON error on stderr), 64 unknown subcommand.
The library raises a ValueError for input outside its domain; ``run`` is
the one place that turns it into exit 2, and the one place that writes
command output.  Handlers return library values as they are, in trees
with string keys (``cells`` joins pieces of ``_json`` text, each written
once), and ``run`` renders them with the one JSON writer, ``_json``: the
bytes of the stdlib's ``json.dumps`` with sorted keys and a 2-space
indent (an indent the stdlib serves only from its pure-Python encoder),
numpy arrays through one hook, ``_tolist``.  The text formats come from
the one DOT writer, ``_dot``, and the one CSV writer, ``_csv``.

numpy, ``fractions`` and the library modules are imported by the
functions that use them, so ``limit`` (whose Lie basis is built as
lists), ``poset``, ``cells`` and ``algebra`` run without loading numpy,
and ``algebra`` without ``fractions``.  A command line is parsed by
the one parser of its row of ``COMMANDS``, kept for the process, which
refuses an option the operation does not read; the help of ``geomlim``,
``geomlim heis`` and ``geomlim algebra`` is a parser with one positional
argument that lists the choices.
"""

import argparse
import functools
import io
import itertools
import json
import re
import sys

_TERM = re.compile(
    r"^\s*(?:(?P<coeff>[+-]?\d+(?:\.\d+)?)\s*(?:\*\s*(?=t))?)?(?P<t>t"
    r"(?:\^(?P<num>[+-]?\d+)(?:/(?P<den>\d*[1-9]\d*))?)?)?\s*$", re.ASCII)


class InvalidInput(ValueError):
    """A command line or input document that breaks the CLI grammar."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as invalid input, not as usage text."""

    def error(self, message):
        raise InvalidInput(message)


def parse_monomial_path(text):
    """Parse 'c*t^e' terms, comma separated, with a '*' only before a t;
    coefficients default to 1, exponents are rational p/q."""
    from fractions import Fraction

    from . import limits

    entries = []
    for term in text.split(","):
        mt = _TERM.match(term)
        if not mt or not (mt["coeff"] or mt["t"]):
            raise InvalidInput("cannot parse path term {!r}".format(term))
        entries.append((float(mt["coeff"] or 1), Fraction(
            int(mt["num"] or (1 if mt["t"] else 0)), int(mt["den"] or 1))))
    if len(entries) < 2:
        raise InvalidInput("need at least two path entries")
    return limits.MonomialDiagonal(entries)


def _plain(kind):
    """kind (int or float) of a command-line number; text holding a "_" or
    a non-ASCII character, which int() and float() also read, is refused."""
    def read(text):
        if "_" in text or not text.isascii():
            raise ValueError("not a plain number: {!r}".format(text))
        return kind(text)
    read.__name__ = kind.__name__  # which argparse's refusal names
    return read


_INT, _FLOAT = _plain(int), _plain(float)
# the cap on the points of a --grid or a regen t_grid; heis dev takes n^2
MAX_GRID_POINTS = 1001
_GRID_CAP = "grid takes at most {} points".format(MAX_GRID_POINTS)
# cmd_limit's cap on n; its lie_basis holds n^3 (n - 1) / 2 numbers
MAX_LIMIT_N = 64


def parse_grid(text, log=False):
    import numpy as np

    try:
        a, b, n = text.split(":")
        a, b, n = _FLOAT(a), _FLOAT(b), _INT(n)
    except ValueError:
        raise InvalidInput("grid must be 'a:b:n'") from None
    if n < 1 or not np.isfinite([a, b]).all():
        raise InvalidInput("grid needs finite ends and at least one point")
    if n > MAX_GRID_POINTS:
        raise InvalidInput(_GRID_CAP)
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


def _numbers(values, message):
    """Raise a TypeError with message unless each of values is a JSON
    number.  The library reads a numeric string or a boolean as a float,
    and Python's bool is an int, so a builder checks its document's
    numbers after the library has taken them: a value the library refuses
    keeps the library's message."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
        raise TypeError(message)


def _tolist(value):
    """The JSON hook: a numpy array (or scalar) as nested lists."""
    return value.tolist()


_STR = json.encoder.encode_basestring_ascii
# the writer of each leaf type a list is often made of alone; a list of
# floats is checked afterwards, since only a non-finite repr holds an "n"
_JOIN = {str: _STR, int: int.__repr__, float: float.__repr__}


def _float(x):
    """A float as json writes it, which refuses NaN and infinities."""
    text = float.__repr__(x)
    if "n" in text:
        raise ValueError(
            "Out of range float values are not JSON compliant: " + repr(x))
    return text


def _json(doc, pad="\n"):
    """The text of json.dumps(doc, sort_keys=True, indent=2,
    allow_nan=False, default=_tolist), byte for byte and with its errors,
    for the trees handlers return: a key that is not a string raises a
    TypeError, and cycles are not detected.  pad is the newline and indent
    of doc's own line; a list of one leaf type is written by one join."""
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            _STR(k) + ": " + _json(v, inner)
            for k, v in sorted(doc.items())]) + pad + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, doc))
        leaf = _JOIN.get(kinds.pop()) if len(kinds) == 1 else None
        text = ("," + inner).join(
            map(leaf, doc) if leaf else [_json(x, inner) for x in doc])
        if leaf is float.__repr__ and "n" in text:
            list(map(_float, doc))  # raises on the first non-finite entry
        return "[" + inner + text + pad + "]"
    if isinstance(doc, str):
        return _STR(doc)
    # bool is an int, so the constants come first
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, float):
        return _float(doc)
    return _json(_tolist(doc), pad)


def _dot(name, prefix, labels, edges):
    """A DOT digraph: node <prefix>i carries the i-th label, and each edge
    is a pair of node indices."""
    node = "  " + prefix + '{} [label="{}"];\n'
    edge = "  " + prefix + "{} -> " + prefix + "{};\n"
    buf = io.StringIO()
    buf.write("digraph {} {{\n".format(name))
    buf.writelines(itertools.starmap(node.format, enumerate(labels)))
    buf.writelines(itertools.starmap(edge.format, edges))
    buf.write("}\n")
    return buf.getvalue()


def _csv(head, rows):
    """The CSV of head and rows, tuples of Python floats, each written as
    its repr."""
    line = ",".join(["%r"] * len(head)) + "\n"
    return ",".join(head) + "\n" + "".join(map(line.__mod__, rows))


def cmd_limit(args):
    from . import limits

    if args.path:
        if args.form or args.conj or args.reverse:
            raise InvalidInput("--path takes no --form, --conj or --reverse")
        path = parse_monomial_path(args.path)
    elif not args.form:
        raise InvalidInput("need --form (with optional --conj) or --path")
    else:
        J = [_FLOAT(v) for v in args.form.split(",")]
        if args.conj:
            C = parse_monomial_path(args.conj)
            if args.reverse:
                C = C.reversed()
            path = limits.conjugacy_to_form_path(C, J)
        elif args.reverse:
            raise InvalidInput("--reverse needs --conj")
        else:
            path = limits.MonomialDiagonal.constant(J)
    if path.n > MAX_LIMIT_N:
        raise InvalidInput("limit needs n <= {}".format(MAX_LIMIT_N))
    L = limits.psi_limit(path)
    P = limits.decode_partition(L)
    F = limits.flag_signature(P)
    doc = {
        "path": [[c, str(e)] for c, e in path.entries],
        "limit_point": {"{},{}".format(i, j): v
                        for (i, j), v in L.components.items()},
        "partition": {"blocks": P.blocks, "points": P.block_points},
        "flag_signature": F,
        "lie_basis": limits.eta_lists(L),
    }
    if path.n == 3:
        doc["class_3d"] = limits.classify_limit_group_3d(F)
    return doc


def cmd_poset(args):
    from . import limits

    nodes, edges = limits.limit_poset(args.p, args.q)
    index = {F: i for i, F in enumerate(nodes)}
    edges = [(index[a], index[b]) for a, b in edges]
    if args.format == "dot":
        labels = ("".join("({},{})".format(p, q) for p, q in F) for F in nodes)
        return _dot("limits", "n", labels, edges)
    return {"nodes": nodes, "edges": edges}


def cmd_cells(args):
    from . import cells, limits

    n = args.n
    all_cells = cells.enumerate_cells(n)
    if args.poset:
        index = {c.key(): i for i, c in enumerate(all_cells)}
        labels = {b: "{} d{}".format(b, n - len(b))
                  for b in dict.fromkeys(c.blocks for c in all_cells)}
        return _dot(
            "cells", "c", (labels[c.blocks] for c in all_cells),
            ((i, j) for i, c in enumerate(all_cells)
             for j in sorted(index[f.key()] for f in cells.faces(c))))
    # a cell's JSON: the text of its blocks, class_3d, dim and
    # flag_signature once per (partition, signature), then of its signs,
    # the last key; equal tuples of ints share one text
    pad, inner, heads, items = "\n    ", "\n      ", {}, []
    text = functools.cache(functools.partial(_json, pad=inner))
    for c in all_cells:
        F = c.signature()
        head = heads.get((c.blocks, F))
        if head is None:
            head = ['"blocks": ' + text(c.blocks), '"dim": ' + str(c.dim),
                    '"flag_signature": ' + text(F), '"signs": ']
            if n == 3:
                head.insert(1, '"class_3d": ' + _STR(
                    limits.classify_limit_group_3d(F)))
            head = heads[c.blocks, F] = "{" + inner + ("," + inner).join(head)
        items.append(head + text(c.signs) + pad + "}")
    return ('{\n  "cells": [' + pad + ("," + pad).join(items) + "\n  ],\n"
            '  "counts": ' + _json(cells.closure_cell_counts(n), "\n  ")
            + "\n}\n")


def _heis_rep(doc):
    from . import heisenberg

    x, y, z = doc["x"], doc["y"], doc["z"]
    rep = heisenberg.HeisRep(x, y, z)
    _numbers([*x, *y, *z], "x, y and z must be lists of numbers")
    return rep


def cmd_heis(args):
    import numpy as np

    from . import heisenberg

    r = _read_json(_heis_rep, path=args.input)
    if args.op == "classify":
        tag, sub, c = heisenberg.classify_canonical(r)
        out = {"class": tag, "subtype": sub}
        if c is not None:
            out["canonical"] = {"x": c.x, "y": c.y, "z": c.z}
        return out
    # developing-map sampling
    if args.format == "svg":
        # image of the unit-square boundary as a polyline, 33 points a
        # side; v runs one side behind u
        if args.grid is not None:
            raise InvalidInput("heis dev --format svg takes no --grid")
        ts = np.linspace(0, 1, 33)
        u = np.concatenate([ts, np.ones(33), 1 - ts, np.zeros(33)])
        xs, ys = heisenberg.developing_map(r, u, np.roll(u, 33))
        with np.errstate(over="ignore", invalid="ignore"):
            w, h = xs.max() - xs.min(), ys.max() - ys.min()
            pad = 0.1 * max(w, h, 1e-9)
            box = (xs.min() - pad, ys.min() - pad, w + 2 * pad, h + 2 * pad)
        if not np.isfinite(box).all():
            raise ValueError("the image's view box leaves the float range")
        view = "{} {} {} {}".format(*box)
        poly = " ".join("{:.6g},{:.6g}".format(x, y) for x, y in zip(xs, ys))
        return ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="{}">'
                '<polyline points="{}" fill="none" stroke="black" '
                'stroke-width="0.5%"/></svg>\n').format(view, poly)
    grid = parse_grid(args.grid or "0:1:9")
    us, vs = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    fxs, fys = heisenberg.developing_map(r, us, vs)
    return _csv(["u", "v", "fx", "fy"],
                zip(us.tolist(), vs.tolist(), fxs.tolist(), fys.tolist()))


def _regen_job(doc):
    """Kind, conjugator path, parallelogram and t grid (None when absent)
    of a regen document.  t is passed on as given, so it prints as given."""
    from . import regeneration

    kind, D_path, t_grid = doc["kind"], doc["D_path"], doc.get("t_grid")
    if not (isinstance(kind, str) and isinstance(D_path, str)):
        raise TypeError("kind and D_path must be strings")
    if t_grid is not None:
        _numbers(t_grid, "t_grid must be a list of numbers")
        if len(t_grid) > MAX_GRID_POINTS:
            raise InvalidInput(_GRID_CAP)
    D_path, V = parse_monomial_path(D_path), doc["vertices"]
    Q = regeneration.Parallelogram(V)
    _numbers(itertools.chain(*V), "vertices must be pairs of numbers")
    return kind, D_path, Q, t_grid


def cmd_regen(args):
    from . import regeneration

    kind, D_path, Q, t_grid = _read_json(_regen_job, path=args.input)
    if t_grid is None:
        if not args.grid:
            raise InvalidInput("need t_grid in the input or --grid")
        t_grid = parse_grid(args.grid, log=True)
    elif args.grid is not None:
        raise InvalidInput("the input has a t_grid, so --grid is not taken")
    trace = regeneration.regenerate_trace(kind, D_path, Q, t_grid)
    if args.format == "json":
        return trace
    head = ["t", *(m + i + j for m in "AB" for i in "012" for j in "012"),
            "commutator_residual", "form_residual"]
    return _csv(head, (
        (float(s["t"]), *s["A"].ravel().tolist(), *s["B"].ravel().tolist(),
         s["commutator_residual"], s["form_residual"])
        for s in trace["samples"] if "error" not in s))


def _scalar(doc):
    from . import algebra

    re, im, delta = doc["re"], doc.get("im", 0.0), doc["delta"]
    x = algebra.AlgScalar(re, im, delta)
    _numbers((re, im, delta), "re, im and delta must be numbers")
    return x


def _scalar_json(x):
    return {"re": x.re, "im": x.im, "delta": x.delta}


def cmd_algebra(args):
    from . import algebra

    if args.op == "idempotents":
        return [_scalar_json(e) for e in algebra.idempotents(args.delta)]
    x = _read_json(_scalar, text=args.a)
    if args.op == "mul":
        return _scalar_json(algebra.mul(x, _read_json(_scalar, text=args.b)))
    if args.op == "norm":
        return algebra.norm(x)
    return _scalar_json(getattr(algebra, args.op)(x))  # conj or inv


# The arguments every operation takes first.  Each row of COMMANDS is an
# operation's handler, formats (the first is the default) and further
# arguments, as add_argument calls in help order; heis and algebra hold a
# table of rows, keyed by the operation, the second word.
COMMON_ARGUMENTS = [("--out", {}), ("--format", {})]
COMMANDS = {
    "limit": (cmd_limit, ("json",), [
        ("--form", {}), ("--conj", {}), ("--path", {}),
        ("--reverse", {"action": "store_true",
                       "help": "re-parameterize the conjugator by t -> 1/t"}),
    ]),
    "poset": (cmd_poset, ("json", "dot"),
              [("p", {"type": _INT}), ("q", {"type": _INT})]),
    "cells": (cmd_cells, ("json",), [("n", {"type": _INT}),
                                     ("--poset", {"action": "store_true"})]),
    "heis": {
        "classify": (cmd_heis, ("json",), [("--input", {})]),
        "dev": (cmd_heis, ("csv", "svg"), [("--input", {}), ("--grid", {})]),
    },
    "regen": (cmd_regen, ("csv", "json"), [("--input", {}), ("--grid", {})]),
    "algebra": {
        "mul": (cmd_algebra, ("json",), [("--a", {"required": True}),
                                         ("--b", {"required": True})]),
        "conj": (cmd_algebra, ("json",), [("--a", {"required": True})]),
        "norm": (cmd_algebra, ("json",), [("--a", {"required": True})]),
        "inv": (cmd_algebra, ("json",), [("--a", {"required": True})]),
        "idempotents": (cmd_algebra, ("json",),
                        [("--delta", {"type": _FLOAT, "required": True})]),
    },
}


@functools.cache
def _parser(words):
    """The one parser "geomlim <words>" of the row ``words`` names: -h,
    COMMON_ARGUMENTS and the row's arguments.  Built on first use, not at
    import, since a process's first argparse parser imports ``locale``."""
    parser = _Parser(prog=" ".join(["geomlim", *words]))
    row = functools.reduce(dict.__getitem__, words, COMMANDS)
    for flag, options in COMMON_ARGUMENTS + row[2]:
        parser.add_argument(flag, **options)
    return parser


def parse_args(argv):
    """The handler, formats and namespace of a command line.  Its first
    word names a row of COMMANDS or, for heis and algebra, a table whose
    row the second word names; the row's parser, "geomlim <words>", reads
    the rest into a namespace with cmd the first word and op the last.
    A missing or unknown word goes to a parser whose one positional
    argument lists the choices: it prints the help or refuses the line."""
    row, words = COMMANDS, []
    while isinstance(row, dict):
        rest = argv[len(words):]
        if not rest or rest[0] not in row:
            menu = _Parser(prog=" ".join(["geomlim", *words]))
            menu.add_argument("operation", choices=list(row),
                              nargs=argparse.PARSER)
            menu.parse_args(rest)
            # an argparse that drops a leading "--" may accept the rest
            raise InvalidInput("the operation must come second")
        words.append(rest[0])
        row = row[rest[0]]
    args = _parser(tuple(words)).parse_args(argv[len(words):])
    args.cmd, args.op = words[0], words[-1]
    return *row[:2], args


def run(argv):
    if not argv or argv[0] not in (*COMMANDS, "-h", "--help"):
        error = "unknown subcommand {!r}".format(argv[0]) if argv \
            else "missing subcommand"
        sys.stderr.write(json.dumps({"error": error}) + "\n")
        return 64
    try:
        handler, formats, args = parse_args(argv)
        if args.cmd == "cells" and args.poset:
            formats = ("dot",)
        args.format = args.format or formats[0]
        if args.format not in formats:
            op = "" if args.op == args.cmd else " " + args.op
            raise InvalidInput("{}{} emits only {}".format(
                args.cmd, op, ", ".join(formats)))
        result = handler(args)
        if not isinstance(result, str):
            result = _json(result) + "\n"
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
