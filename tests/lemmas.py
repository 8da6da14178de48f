"""Sampled checks of the paper's lemmas, and the fiber recursion for the
closure's cell counts: test code, imported by the suites as ``lemmas``.

Each function names the lemma it reproduces.  None of them is part of
the library: the library computes, these confirm its statements."""

import math
from math import comb

import numpy as np

from geomlim import matrices as mat
from geomlim.cells import closure_cell_counts
from geomlim.matrices import AlgMatrix
from geomlim.regeneration import ModelParam, OutsideDomain, model_distance


def midpoint_bound_check(kind, D, segment, eps):
    """Midpoint pinching lemma: along a segment inside B(0, eps), the
    ratio of the model distances from the Euclidean midpoint to the two
    ends lies between K and 1/K, K the explicit constant of the
    geometry.  Returns (ratio, K, whether the ratio is pinched)."""
    p, q = (np.asarray(v, dtype=float) for v in segment)
    if np.linalg.norm(p) > eps or np.linalg.norm(q) > eps:
        raise OutsideDomain("segment leaves the Euclidean eps-ball")
    m = ModelParam(kind, D)
    mid = 0.5 * (p + q)
    ratio = model_distance(m, p, mid) / model_distance(m, mid, q)
    if m.kind == "hyperbolic":
        K = 1.0 / math.sqrt(1.0 - 4.0 * eps * eps)
    elif m.kind == "sphere":
        K = 1.0 / (1.0 + eps * eps)
    else:
        K = 1.0
    lo, hi = min(K, 1.0 / K), max(K, 1.0 / K)
    return ratio, K, bool(lo <= ratio <= hi)


def axis_translation(kind, tau):
    """The isometry of the area distortion lemma: translation by tau
    along the first coordinate axis of a curved model."""
    if kind == "hyperbolic":
        c, s = math.cosh(tau), math.sinh(tau)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    if kind == "sphere":
        c, s = math.cos(tau), math.sin(tau)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    raise ValueError("translation bound applies to the curved models")


def _apply_projective(M, p):
    v = M @ np.array([p[0], p[1], 1.0])
    return v[:2] / v[2]


def _triangle_area(P):
    (x1, y1), (x2, y2), (x3, y3) = P
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


def area_distortion_check(kind, tau, eps, triangles):
    """Area distortion lemma: the axis translation by tau scales the
    Euclidean area of a small triangle in B(0, eps) by a ratio between
    1/(c + eps s)^3 and 1/(c - eps s)^3, with (c, s) = (cosh, sinh) or
    (cos, sin) of tau."""
    C = axis_translation(kind, tau)
    if kind == "hyperbolic":
        c, s = math.cosh(tau), math.sinh(tau)
    else:
        c, s = math.cos(tau), math.sin(tau)
    lo = 1.0 / (c + eps * s) ** 3
    hi = 1.0 / (c - eps * s) ** 3
    results = []
    ok = True
    for tri in triangles:
        tri = np.asarray(tri, dtype=float)
        img = np.array([_apply_projective(C, p) for p in tri])
        ratio = _triangle_area(img) / _triangle_area(tri)
        good = lo - 1e-12 <= ratio <= hi + 1e-12
        ok = ok and good
        results.append({"triangle": tri, "ratio": ratio, "pass": good})
    return {"pass": bool(ok), "low": lo, "high": hi, "results": results}


def sample_triangles(eps, count, rng):
    """Non-degenerate random triangles inside B(0, eps), the inputs of
    the area distortion lemma."""
    out = []
    while len(out) < count:
        tri = rng.uniform(-eps, eps, size=(3, 2))
        if np.max(np.linalg.norm(tri, axis=1)) >= eps:
            continue
        if _triangle_area(tri) < 1e-4 * eps * eps:
            continue
        out.append(tri)
    return out


def submersion_rank_check(A, Q):
    """Submersion lemma: X -> dagger(X) Q X is a submersion at A onto
    the Hermitian matrices, so its level set, the unitary group, is a
    manifold.  The exact differential E -> dagger(E) Q A + dagger(A) Q E
    (the map is quadratic) must map the 2n^2 real coordinate directions
    onto a spanning set of the n^2-dimensional space of Hermitian
    matrices over the algebra; the rank is cut at 1e-9 of the largest
    singular value."""
    n = A.n
    QA, AQ = Q @ A, mat.dagger(A) @ Q
    cols = []
    for re, im in np.eye(2 * n * n).reshape(-1, 2, n, n):
        E = AlgMatrix._wrap(re, im, A.delta)
        D = mat.dagger(E) @ QA + AQ @ E
        cols.append(np.concatenate([D.re.ravel(), D.im.ravel()]))
    J = np.column_stack(cols)
    return np.linalg.matrix_rank(J, tol=1e-9 * np.linalg.norm(J, 2)) == n * n


def simplex_cell_counts(n):
    """The base of the fibration lemma: the open simplices of the
    projectivized coordinate arrangement, 2^k * C(n, k+1) cells of
    dimension k, k = 0..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    return [2 ** k * comb(n, k + 1) for k in range(n)]


def fiber_cell_counts(n):
    """Fibration lemma: the closure of the n-dimensional diagonal group
    fibers over the projectivized coordinate arrangement, each k-simplex
    of the base carrying a copy of the (n-k-1)-closure.  Its cell counts
    by dimension, by recursion on n; an oracle independent of
    ``cells.closure_cell_counts``' closed form."""
    if n < 1:
        raise ValueError("need n >= 1")
    table = [[1], [1]]
    for m in range(2, n + 1):
        c = [0] * m
        for k, simp in enumerate(simplex_cell_counts(m)):
            for j, f in enumerate(table[m - k - 1]):
                c[k + j] += simp * f
        table.append(c)
    return table[n]


def euler_characteristic(n):
    """Euler characteristic of the closure: the alternating sum of its
    cell counts by dimension."""
    counts = closure_cell_counts(n)
    return sum((-1) ** d * c for d, c in enumerate(counts))
