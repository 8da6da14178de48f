"""Output checks, run outside the timed region.

Combinatorial outputs are reduced to a canonical form (nodes, edges and
cells sorted) and compared exactly against ``refs.json``, recorded from
the seed commit by ``record_refs.py``.  Cell totals are also checked
against an independent closed form.  Floating-point outputs are compared
against independent oracles (closed forms and defining properties) with
the tolerances stated below, so a reordering or a last-digit change in
the program does not count as a failure.
"""

import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

REFS = json.loads((Path(__file__).with_name("refs.json")).read_text())

# Agreement of recomputed closed forms with library output.
TOL = 1e-9
# Regeneration maps: frame transport in the library loses a few digits as
# the conjugator grows, so mapping and form checks use a looser bound.
TOL_REGEN = 1e-6
# Bisection midpoint against the closed form.  The library bisects on a
# difference of arccosh distances, which loses about half the digits once
# the conjugator shrinks the polygon to 1e-9 (the README job at t = 1e4).
TOL_MIDPOINT = 1e-6
# The SVG polyline is printed with six significant digits.
TOL_SVG = 1e-5


class CheckFailed(Exception):
    pass


def require(ok, msg, *args):
    if not ok:
        raise CheckFailed(msg.format(*args) if args else msg)


def close(got, want, tol=TOL, what="value"):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, "{}: shape {} != {}", what,
            got.shape, want.shape)
    err = np.abs(got - want).max(initial=0.0)
    scale = max(1.0, np.abs(want).max(initial=0.0))
    require(err <= tol * scale, "{}: off by {:.3g}", what, err)


# -- combinatorics --------------------------------------------------------

def cell_counts(n):
    """Cells of the closure by dimension d: ordered set partitions into
    k = n - d blocks (k! S(n, k)) times 2^(n - k) sign classes."""
    stirling = [[0] * (n + 1) for _ in range(n + 1)]
    stirling[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            stirling[m][k] = k * stirling[m - 1][k] + stirling[m - 1][k - 1]
    return [math.factorial(n - d) * stirling[n][n - d] * 2 ** d
            for d in range(n)]


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def canon_cells_json(text, n):
    doc = json.loads(text)
    counts = cell_counts(n)
    require(doc["counts"] == counts, "counts {} != {}", doc["counts"], counts)
    cells = doc["cells"]
    require(len(cells) == sum(counts), "{} cells, want {}", len(cells),
            sum(counts))
    by_dim = [0] * n
    for c in cells:
        by_dim[c["dim"]] += 1
    require(by_dim == counts, "cells by dimension {} != {}", by_dim, counts)
    items = sorted(json.dumps(c, sort_keys=True) for c in cells)
    return {"sha256": digest(items), "nodes": len(items), "edges": 0}


_CELL_NODE = re.compile(r'^\s*c(\d+) \[label="(.*)"\];$')
_POSET_NODE = re.compile(r'^\s*n(\d+) \[label="(.*)"\];$')
_EDGE = re.compile(r"^\s*[cn](\d+) -> [cn](\d+);$")


def _canon_graph(labels, edges):
    nodes = sorted(labels.values())
    arcs = sorted([labels[a], labels[b]] for a, b in edges)
    return {"sha256": digest([nodes, arcs]), "nodes": len(nodes),
            "edges": len(arcs)}


def canon_dot(text, node_re):
    lines = text.splitlines()
    require(lines and lines[0].startswith("digraph") and lines[-1] == "}",
            "not a DOT digraph")
    labels, edges = {}, []
    for line in lines[1:-1]:
        m = node_re.match(line)
        if m:
            labels[m.group(1)] = m.group(2)
            continue
        m = _EDGE.match(line)
        require(m is not None, "bad DOT line {!r}", line)
        edges.append((m.group(1), m.group(2)))
    return _canon_graph(labels, edges)


def _sig_label(pairs):
    return "".join("({},{})".format(p, q) for p, q in pairs)


def canon_poset_json(text):
    doc = json.loads(text)
    labels = {str(i): _sig_label(F) for i, F in enumerate(doc["nodes"])}
    return _canon_graph(labels, [(str(a), str(b)) for a, b in doc["edges"]])


def canon(kind, text, n=None):
    if kind == "cells":
        return canon_cells_json(text, n)
    if kind == "cells_dot":
        got = canon_dot(text, _CELL_NODE)
        require(got["nodes"] == sum(cell_counts(n)), "{} DOT nodes, want {}",
                got["nodes"], sum(cell_counts(n)))
        return got
    if kind == "poset_dot":
        return canon_dot(text, _POSET_NODE)
    return canon_poset_json(text)


def check_reference(key, kind, text, n=None):
    got = canon(kind, text, n)
    want = REFS[key]
    require(got == want, "{}: canonical output {} != reference {}", key, got,
            want)


# -- exact limits ---------------------------------------------------------

def limit_oracle(entries):
    """Partition, block points and flag signature of the limit along the
    form path diag(c_i t^e_i): blocks group equal exponents, the fastest
    growing block first; a block's point is its coefficients divided by
    the largest-magnitude one."""
    exps = sorted({e for _, e in entries}, reverse=True)
    blocks, points, pairs = [], [], []
    for e in exps:
        b = [i for i, (_, ei) in enumerate(entries) if ei == e]
        cs = [entries[i][0] for i in b]
        k = max(range(len(cs)), key=lambda j: (abs(cs[j]), -j))
        pt = [c / cs[k] for c in cs]
        blocks.append(b)
        points.append(pt)
        p = sum(1 for v in pt if v > 0)
        pairs.append([p, len(pt) - p])
    pairs = pairs[:1] + [[max(p), min(p)] for p in pairs[1:]]
    return blocks, points, pairs


CLASS_3D = {
    ((3, 0),): "O(3)", ((2, 1),): "O(2,1)", ((1, 2),): "O(2,1)",
    ((2, 0), (1, 0)): "Euc(2)^-T", ((1, 1), (1, 0)): "Mink^-T",
    ((1, 0), (2, 0)): "Euc(2)", ((1, 0), (1, 1)): "Mink",
    ((1, 0), (1, 0), (1, 0)): "Heis", ((0, 1), (1, 0), (1, 0)): "Heis",
}


def lie_basis_oracle(entries):
    n = len(entries)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            (ci, ei), (cj, ej) = entries[i], entries[j]
            if ei == ej:
                m = max(abs(ci), abs(cj))
                x, y = ci / m, cj / m
                if (x if x != 0 else y) < 0:
                    x, y = -x, -y
            elif ei > ej:
                x, y = 1.0, 0.0
            else:
                x, y = 0.0, 1.0
            M = np.zeros((n, n))
            M[i, j] = y
            M[j, i] = -x
            out.append(M)
    return out


def parse_terms(text):
    out = []
    for term in text.split(","):
        c, _, e = term.partition("t")
        c = c.rstrip("*")
        coeff = float(c) if c else 1.0
        exp = Fraction(e[1:]) if e.startswith("^") else Fraction(
            1 if "t" in term else 0)
        out.append((coeff, exp))
    return out


def check_limit(text, form, conj):
    doc = json.loads(text)
    J = [float(v) for v in form.split(",")]
    entries = [(J[i] / (c * c), -2 * e)
               for i, (c, e) in enumerate(parse_terms(conj))]
    close([c for c, _ in doc["path"]], [c for c, _ in entries], what="path")
    require([e for _, e in doc["path"]] == [str(e) for _, e in entries],
            "path exponents")
    blocks, points, pairs = limit_oracle(entries)
    require(doc["partition"]["blocks"] == blocks, "blocks {} != {}",
            doc["partition"]["blocks"], blocks)
    for got, want in zip(doc["partition"]["points"], points, strict=True):
        close(got, want, what="block point")
    require(doc["flag_signature"] == pairs, "signature {} != {}",
            doc["flag_signature"], pairs)
    close(doc["lie_basis"], lie_basis_oracle(entries), what="lie basis")
    want = CLASS_3D.get(tuple(tuple(p) for p in pairs))
    require(doc.get("class_3d") == want, "class {} != {}",
            doc.get("class_3d"), want)


def check_limit_chain(result, entries):
    """Library results of psi_limit -> decode_partition -> eta ->
    flag_signature on a monomial form path."""
    P, sub, F = result
    blocks, points, pairs = limit_oracle(entries)
    require([list(b) for b in P.blocks] == blocks, "blocks")
    for got, want in zip(P.block_points, points, strict=True):
        close(got, want, what="block point")
    require([list(p) for p in F.pairs] == pairs, "signature")
    n = len(entries)
    require(sub.dim == n * (n - 1) // 2, "eta dimension {}", sub.dim)
    close(sub.basis, lie_basis_oracle(entries), what="eta basis")


# -- algebra and matrices -------------------------------------------------

def scalar_mul(x, y):
    d = x["delta"]
    return {"re": x["re"] * y["re"] + d * x["im"] * y["im"],
            "im": x["re"] * y["im"] + x["im"] * y["re"], "delta": d}


def scalar_close(got, want):
    require(got["delta"] == want["delta"], "delta")
    close([got["re"], got["im"]], [want["re"], want["im"]], what="scalar")


def check_algebra(op, text, a=None, b=None, delta=None):
    doc = json.loads(text)
    if op == "mul":
        scalar_close(doc, scalar_mul(a, b))
    elif op == "conj":
        scalar_close(doc, dict(a, im=-a["im"]))
    elif op == "norm":
        close(doc, a["re"] ** 2 - a["delta"] * a["im"] ** 2, what="norm")
    elif op == "inv":
        one = scalar_mul(a, doc)
        scalar_close(one, {"re": 1.0, "im": 0.0, "delta": a["delta"]})
    else:
        s = 0.5 / math.sqrt(delta)
        scalar_close(doc[0], {"re": 0.5, "im": s, "delta": delta})
        scalar_close(doc[1], {"re": 0.5, "im": -s, "delta": delta})


def real_rep(re, im, delta):
    n = len(re)
    R = np.zeros((2 * n, 2 * n))
    R[0::2, 0::2] = re
    R[1::2, 1::2] = re
    R[0::2, 1::2] = delta * np.asarray(im)
    R[1::2, 0::2] = im
    return R


def det_oracle(re, im, delta):
    """Determinant over the algebra: through the complex numbers or the
    two idempotent components, and by Jacobi's formula
    det(X + eY) = det X (1 + e tr(X^-1 Y)) for the dual numbers."""
    re, im = np.asarray(re), np.asarray(im)
    if delta < 0:
        r = math.sqrt(-delta)
        z = np.linalg.det(re + 1j * r * im)
        return z.real, z.imag / r
    if delta > 0:
        r = math.sqrt(delta)
        dp, dm = np.linalg.det(re + r * im), np.linalg.det(re - r * im)
        return 0.5 * (dp + dm), 0.5 * (dp - dm) / r
    base = np.linalg.det(re)
    return base, base * np.trace(np.linalg.solve(re, im))


def expm_oracle(R):
    """Matrix exponential of a real matrix: scale below 1/8 in the 1-norm,
    30 Taylor terms, square back up."""
    s = max(0, math.ceil(math.log2(max(np.abs(R).sum(axis=0).max(), 1e-300)
                                   / 0.125)))
    X = R / 2.0 ** s
    term = np.eye(len(R))
    acc = np.eye(len(R))
    for m in range(1, 31):
        term = term @ X / m
        acc = acc + term
    for _ in range(s):
        acc = acc @ acc
    return acc


def check_exp(A, re, im, delta):
    close(real_rep(A.re, A.im, delta), expm_oracle(real_rep(re, im, delta)),
          what="exp_delta")


def check_det(x, re, im, delta):
    close([x.re, x.im], det_oracle(re, im, delta), what="det")


def check_inverse(A, re, im, delta):
    prod = real_rep(re, im, delta) @ real_rep(A.re, A.im, delta)
    close(prod, np.eye(prod.shape[0]), what="A inverse(A)")


def check_u_lie_basis(basis, n, delta):
    m = n + 1
    require(len(basis) == m * m, "{} basis elements, want {}", len(basis),
            m * m)
    Q = np.eye(m)
    Q[n, n] = -1.0
    for X in basis:
        close(X.re.T @ Q + Q @ X.re, np.zeros((m, m)), what="u(n,1) real")
        close(Q @ X.im - X.im.T @ Q, np.zeros((m, m)), what="u(n,1) lambda")
    vecs = np.array([np.concatenate([X.re.ravel(), X.im.ravel()])
                     for X in basis])
    require(np.linalg.matrix_rank(vecs) == m * m, "basis is dependent")


# -- Heisenberg plane -----------------------------------------------------

def develop(rep, u, v):
    """Closed form of exp(u log g1) exp(v log g2) applied to the origin."""
    (x1, x2), (y1, y2), (z1, z2) = rep["x"], rep["y"], rep["z"]
    fx = u * z1 + 0.5 * u * u * x1 * y1 + u * x1 * v * y2 + v * z2 \
        + 0.5 * v * v * x2 * y2
    return fx, u * y1 + v * y2


def canonical_oracle(rep):
    x, y, z = (np.array(rep[k], dtype=float) for k in "xyz")
    s = 1.0 / math.sqrt(x @ x + y @ y)
    x, y, z = s * x, s * y, s * z
    if y @ y >= x @ x:
        z = z - (z @ y) / (y @ y) * y
    else:
        z = z - (z @ x) / (x @ x) * x
    if y[0] < 0 or (y[0] == 0 and y[1] < 0):
        y, z = -y, -z
    return {"x": x, "y": y, "z": z}


def check_heis_classify(text, rep, want):
    doc = json.loads(text)
    require((doc["class"], doc["subtype"]) == want, "class {} != {}",
            (doc["class"], doc["subtype"]), want)
    if want[0] == "Holonomy":
        want_c = canonical_oracle(rep)
        for k in "xyz":
            close(doc["canonical"][k], want_c[k], what="canonical " + k)
    else:
        require("canonical" not in doc, "unexpected canonical coordinates")


def check_heis_csv(text, rep, n):
    lines = text.splitlines()
    require(lines[0] == "u,v,fx,fy", "CSV header")
    grid = np.linspace(0, 1, n)
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    uv = np.array([(u, v) for u in grid for v in grid])
    close(rows[:, :2], uv, what="grid")
    close(rows[:, 2:], [develop(rep, u, v) for u, v in uv],
          what="developing map")


def check_heis_svg(text, rep):
    m = re.search(r'viewBox="([^"]*)".*points="([^"]*)"', text)
    require(m is not None, "no polyline")
    ts = np.linspace(0, 1, 33)
    path = [(t, 0) for t in ts] + [(1, t) for t in ts] \
        + [(1 - t, 1) for t in ts] + [(0, 1 - t) for t in ts]
    want = np.array([develop(rep, u, v) for u, v in path])
    got = np.array([[float(c) for c in p.split(",")]
                    for p in m.group(2).split()])
    close(got, want, tol=TOL_SVG, what="boundary polyline")
    lo, hi = want.min(axis=0), want.max(axis=0)
    pad = 0.1 * max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
    close([float(v) for v in m.group(1).split()],
          [lo[0] - pad, lo[1] - pad, hi[0] - lo[0] + 2 * pad,
           hi[1] - lo[1] + 2 * pad], tol=TOL_SVG, what="viewBox")


# -- regeneration ---------------------------------------------------------

def _lift(kind, a):
    r2 = a @ a
    s = math.sqrt(1.0 - r2) if kind == "hyperbolic" else math.sqrt(1.0 + r2)
    return np.array([a[0], a[1], 1.0]) / s


def midpoint_oracle(kind, D, p, q):
    """Normalised sum of the quadric lifts (plain average for the
    Euclidean plane), in working coordinates."""
    if kind == "euclidean":
        return 0.5 * (p + q)
    w = _lift(kind, p / D[:2]) + _lift(kind, q / D[:2])
    return w[:2] / w[2] * D[:2]


def _apply(M, p):
    v = M @ np.array([p[0], p[1], 1.0])
    return v[:2] / v[2]


def check_pairing(kind, D, V, A, B):
    """A carries (v1, v2) to (v4, v3) and B carries (v2, v3) to (v1, v4)
    as orientation-preserving isometries of the conjugated model; these
    conditions determine A and B."""
    close([_apply(A, V[0]), _apply(A, V[1]), _apply(B, V[1]), _apply(B, V[2])],
          [V[3], V[2], V[0], V[3]], tol=TOL_REGEN, what="side pairing")
    Dm = np.diag([D[0], D[1], 1.0])
    Dinv = np.diag([1.0 / D[0], 1.0 / D[1], 1.0])
    for G in (A, B):
        M = Dinv @ G @ Dm
        require(np.linalg.det(M) > 0, "orientation reversed")
        if kind == "euclidean":
            close(M[2], [0.0, 0.0, M[2, 2]], tol=TOL_REGEN, what="affine row")
            R = M[:2, :2] / M[2, 2]
            close(R.T @ R, np.eye(2), tol=TOL_REGEN, what="rotation")
        else:
            Bf = np.diag([1.0, 1.0, -1.0 if kind == "hyperbolic" else 1.0])
            F = M.T @ Bf @ M
            close(F / abs(F[2, 2]), Bf, tol=TOL_REGEN, what="form")


def extrapolate(ts, mats):
    ts, mats = ts[-3:], mats[-3:]
    hs = [1.0 / t for t in ts]
    out = np.zeros((3, 3))
    for i, (hi, Mi) in enumerate(zip(hs, mats)):
        w = 1.0
        for j, hj in enumerate(hs):
            if j != i:
                w *= hj / (hj - hi)
        out = out + w * Mi
    return out


def in_heis(M, tol=1e-4):
    M = np.asarray(M)
    M = M / M[2, 2] if abs(M[2, 2]) > 1e-8 else M / M.flat[np.argmax(np.abs(M))]
    low = max(abs(M[1, 0]), abs(M[2, 0]), abs(M[2, 1]))
    return low <= tol and np.abs(np.diag(M) - 1.0).max() <= tol


def _path_at(entries, t):
    return np.array([c * float(t) ** float(e) for c, e in entries])


def check_regen_json(text, job, t_grid):
    doc = json.loads(text)
    kind, V = job["kind"], np.array(job["vertices"], dtype=float)
    entries = parse_terms(job["D_path"])
    samples = doc["samples"]
    close([s["t"] for s in samples], t_grid, what="t grid")
    ts, As, Bs = [], [], []
    for s in samples:
        require("error" not in s, "dropped sample at t={}", s["t"])
        D = _path_at(entries, s["t"])
        A, B = np.array(s["A"]), np.array(s["B"])
        check_pairing(kind, D, V, A, B)
        for (p, q), m in zip([(V[i], V[(i + 1) % 4]) for i in range(4)],
                             s["midpoints"], strict=True):
            close(m, midpoint_oracle(kind, D, p, q), tol=TOL_MIDPOINT,
                  what="midpoint")
        comm = A @ B @ np.linalg.inv(A) @ np.linalg.inv(B) - np.eye(3)
        close(s["commutator_residual"], np.linalg.norm(comm), tol=TOL_REGEN,
              what="commutator residual")
        require(math.isfinite(s["form_residual"]), "form residual")
        ts.append(s["t"])
        As.append(A)
        Bs.append(B)
    A_inf, B_inf = extrapolate(ts, As), extrapolate(ts, Bs)
    close(doc["A_inf"], A_inf, what="A_inf")
    close(doc["B_inf"], B_inf, what="B_inf")
    require(doc["limit_in_heis"] == bool(in_heis(A_inf) and in_heis(B_inf)),
            "limit_in_heis")


def check_regen_csv(text, job, t_grid):
    lines = text.splitlines()
    require(len(lines[0].split(",")) == 21, "CSV header")
    kind, V = job["kind"], np.array(job["vertices"], dtype=float)
    entries = parse_terms(job["D_path"])
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    close(rows[:, 0], t_grid, what="t grid")
    for row in rows:
        A, B = row[1:10].reshape(3, 3), row[10:19].reshape(3, 3)
        check_pairing(kind, _path_at(entries, row[0]), V, A, B)
        comm = A @ B @ np.linalg.inv(A) @ np.linalg.inv(B) - np.eye(3)
        close(row[19], np.linalg.norm(comm), tol=TOL_REGEN,
              what="commutator residual")


def check_error(code, err):
    """The README contract for invalid input: exit 2, a JSON error."""
    require(code == 2, "exit {} on invalid input".format(code))
    try:
        doc = json.loads(err)
    except ValueError:
        raise CheckFailed("stderr is not a JSON error") from None
    require(isinstance(doc, dict) and "error" in doc, "no error key")
