"""Numerics for conjugated constant-curvature models and cone-torus
regeneration.

All three plane geometries are handled in one affine patch: a diagonal
conjugator D = diag(d1, d2, 1) carries the fixed Klein disk / projective
sphere / Euclidean plane to the working model.  A side pairing of an
origin-centered parallelogram is the half-turn about the origin after
the half-turn about the midpoint of its side, one formula in all three
models; the pairings are traced as the conjugator diverges."""

import math

import numpy as np

KINDS = ("hyperbolic", "sphere", "euclidean")
CURVATURE = {"hyperbolic": -1.0, "sphere": 1.0, "euclidean": 0.0}


class OutsideDomain(ValueError):
    pass


class ModelParam:
    """A plane geometry kind plus its diagonal conjugator."""

    def __init__(self, kind, D=(1.0, 1.0, 1.0)):
        kind = kind.lower()
        if kind not in KINDS:
            raise ValueError("unknown kind {!r}".format(kind))
        self.kind = kind
        D = np.asarray(D, dtype=float)
        if D.shape != (3,) or not np.all(np.isfinite(D) & (D > 0)):
            raise ValueError(
                "conjugator must be three finite positive entries")
        self.D = D

    def to_model(self, p):
        """Affine patch point -> fixed model coordinates."""
        p = np.asarray(p, dtype=float)
        return p / self.D[:2]

    def form(self):
        """The bilinear form preserved by the model's isometries, in the
        working (conjugated) coordinates."""
        sigma = -1.0 if self.kind == "hyperbolic" else 1.0
        Dinv = np.diag(1.0 / self.D)
        return Dinv.T @ np.diag([1.0, 1.0, sigma]) @ Dinv


def _lift(kind, p):
    """Lift a model point onto the quadric of the geometry."""
    p = np.asarray(p, dtype=float)
    r2 = p @ p
    if kind == "hyperbolic":
        if r2 >= 1.0:
            raise OutsideDomain("point outside the unit disk")
        return np.array([p[0], p[1], 1.0]) / math.sqrt(1.0 - r2)
    return np.array([p[0], p[1], 1.0]) / math.sqrt(1.0 + r2)


def model_distance(m, p, q):
    """Distance between two affine-patch points in the model m."""
    a = m.to_model(p)
    b = m.to_model(q)
    if m.kind == "euclidean":
        return float(np.linalg.norm(a - b))
    if m.kind == "hyperbolic":
        if a @ a >= 1.0 or b @ b >= 1.0:
            raise OutsideDomain("point outside the unit disk")
        c = (1.0 - a @ b) / math.sqrt((1.0 - a @ a) * (1.0 - b @ b))
        return float(np.arccosh(max(1.0, c)))
    u = _lift("sphere", a)
    v = _lift("sphere", b)
    return float(np.arccos(np.clip(u @ v, -1.0, 1.0)))


def geodesic_midpoint(m, p, q):
    """Equidistant point on the segment, in closed form.

    The Euclidean midpoint is the average.  In the curved models the
    quadric lifts u, v of the ends have <u, u> = <v, v> for the form, so
    <u, u + v> = <v, u + v>: the affine point of w = u + v, which lies
    in the plane of u and v and hence on the segment, is at equal
    distance from both ends.  Raises OutsideDomain for an end outside
    the disk."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if m.kind == "euclidean":
        return 0.5 * (p + q)
    w = _lift(m.kind, m.to_model(p)) + _lift(m.kind, m.to_model(q))
    return w[:2] / w[2] * m.D[:2]


class Parallelogram:
    """Four cyclically ordered affine vertices with centroid at the
    origin, so the half-turn diag(-1,-1,1) pairs opposite sides."""

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.shape != (4, 2):
            raise ValueError("need four plane vertices")
        if not np.isfinite(V).all():
            raise ValueError("vertices must be finite")
        if np.abs(V.sum(axis=0)).max() > 4e-12:
            raise ValueError("centroid must be the origin")
        if np.abs(V[0] + V[2]).max() > 1e-12 or np.abs(V[1] + V[3]).max() > 1e-12:
            raise ValueError("opposite vertices must be antipodal")
        e1 = V[1] - V[0]
        e2 = V[3] - V[0]
        if abs(e1[0] * e2[1] - e1[1] * e2[0]) < 1e-12:
            raise ValueError("degenerate (collinear) vertices")
        self.vertices = V

    @staticmethod
    def square(side):
        h = 0.5 * side
        return Parallelogram([(-h, -h), (h, -h), (h, h), (-h, h)])

    def sides(self):
        V = self.vertices
        return [(V[i], V[(i + 1) % 4]) for i in range(4)]


def side_pairing(m, Q):
    """The two side pairings (A, B) of the parallelogram: A carries side
    (v1, v2) to (v4, v3), B carries (v2, v3) to (v1, v4).

    Each is the half-turn H = diag(-1, -1, 1) about the origin after the
    half-turn about the geodesic midpoint c of its side, conjugated by
    D = diag(d1, d2, 1).  The half-turn about c swaps the ends of the
    side, and H sends each vertex to its antipode, the opposite vertex;
    an orientation-preserving isometry is determined by the images of
    two points.  With curvature k, u = (c, 1) and Gu = (k c, 1), the
    half-turn about c is 2 u Gu^T / <u, Gu> - I in all three models
    (x -> 2c - x for k = 0).  Raises OutsideDomain for a vertex outside
    the disk."""
    k = CURVATURE[m.kind]
    d = np.array([m.D[0], m.D[1], 1.0])
    hd = d * (-1.0, -1.0, 1.0)  # H D
    V = Q.vertices
    pairings = []
    for p, q in ((V[0], V[1]), (V[1], V[2])):
        c = m.to_model(geodesic_midpoint(m, p, q))
        u = np.array([c[0], c[1], 1.0])
        Gu = np.array([k * c[0], k * c[1], 1.0])
        R = 2.0 * np.outer(u, Gu) / (u @ Gu) - np.eye(3)
        pairings.append(hd[:, None] * R / d)
    return tuple(pairings)


def projective_normalize(M):
    """Scale a 3x3 matrix by its bottom-right entry (or, when that is at
    most 1e-8, its largest entry)."""
    M = np.asarray(M, dtype=float)
    if abs(M[2, 2]) > 1e-8:
        return M / M[2, 2]
    piv = M.flat[np.argmax(np.abs(M))]
    return M / piv


def in_heis(M):
    """Upper triangular and unipotent within 1e-4."""
    M = projective_normalize(M)
    low = max(abs(M[1, 0]), abs(M[2, 0]), abs(M[2, 1]))
    return low <= 1e-4 and np.abs(np.diag(M) - 1.0).max() <= 1e-4


def _extrapolate(ts, mats):
    """Lagrange extrapolation to h = 0 with h = 1/t, on the last three
    samples."""
    ts = ts[-3:]
    mats = mats[-3:]
    hs = [1.0 / t for t in ts]
    out = np.zeros_like(mats[0])
    for i, (hi, Mi) in enumerate(zip(hs, mats)):
        w = 1.0
        for j, hj in enumerate(hs):
            if j != i:
                w *= hj / (hj - hi)
        out = out + w * Mi
    return out


def heisenberg_criterion(D_path):
    """Do the first two path entries and their ratio all diverge?"""
    (_, e1), (_, e2), (c3, e3) = D_path.entries
    return e1 > e2 > 0 and e3 == 0 and c3 == 1.0


def regenerate_trace(kind, D_path, Q, t_grid):
    """Trace the side pairings of Q along the conjugated models D_t.

    Returns per-t samples (pairings, side midpoints, commutator and form
    residuals) and extrapolated limits with a Heisenberg membership flag."""
    kind = ModelParam(kind).kind  # checked and lower-cased
    if D_path.n != 3:
        raise ValueError("conjugator path must have three entries")
    if kind != "euclidean" and not heisenberg_criterion(D_path):
        raise ValueError(
            "conjugator path does not satisfy the divergence criterion")
    samples = []
    ok_t, ok_A, ok_B = [], [], []
    for t in t_grid:
        m = ModelParam(kind, D_path.evaluate(t))
        try:
            A, B = side_pairing(m, Q)
        except OutsideDomain as exc:
            samples.append({"t": t, "error": str(exc)})
            continue
        Qm = m.form()
        form_res = max(
            np.abs(A.T @ Qm @ A - Qm).max(),
            np.abs(B.T @ Qm @ B - Qm).max(),
        )
        A = projective_normalize(A)
        B = projective_normalize(B)
        comm = A @ B @ np.linalg.inv(A) @ np.linalg.inv(B) - np.eye(3)
        mids = [geodesic_midpoint(m, p, q) for p, q in Q.sides()]
        samples.append({
            "t": t, "A": A, "B": B,
            "commutator_residual": float(np.linalg.norm(comm)),
            "form_residual": float(form_res),
            "midpoints": mids,
        })
        ok_t.append(t)
        ok_A.append(A)
        ok_B.append(B)
    if len(ok_t) >= 3:
        A_inf = _extrapolate(ok_t, ok_A)
        B_inf = _extrapolate(ok_t, ok_B)
    elif ok_t:
        A_inf, B_inf = ok_A[-1], ok_B[-1]
    else:
        raise OutsideDomain("no valid samples on the grid")
    return {
        "samples": samples,
        "A_inf": A_inf,
        "B_inf": B_inf,
        "limit_in_heis": bool(in_heis(A_inf) and in_heis(B_inf)),
    }


def midpoint_bound_check(kind, D, segment, eps):
    """Compare the Euclidean midpoint against the model midpoint: the
    distance ratio along a segment inside B(0, eps) is pinched by the
    explicit constant of the geometry."""
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
    """Isometry translating by tau along the first coordinate axis."""
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
    """Euclidean area distortion of the axis translation on small
    triangles: each ratio must lie in the cubed-denominator sandwich."""
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
    """Non-degenerate random triangles inside B(0, eps)."""
    out = []
    while len(out) < count:
        tri = rng.uniform(-eps, eps, size=(3, 2))
        if np.max(np.linalg.norm(tri, axis=1)) >= eps:
            continue
        if _triangle_area(tri) < 1e-4 * eps * eps:
            continue
        out.append(tri)
    return out
