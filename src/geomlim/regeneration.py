"""Numerics for conjugated constant-curvature models and cone-torus
regeneration.

All three plane geometries are handled in one affine patch: a diagonal
conjugator D = diag(d1, d2, 1) carries the fixed Klein disk / projective
sphere / Euclidean plane to the working model.  Side pairings of
origin-centered parallelograms are built by frame transport on the
quadric and traced as the conjugator diverges."""

import math

import numpy as np

KINDS = ("hyperbolic", "sphere", "euclidean")


class OutsideDomain(ValueError):
    pass


class SideLengthMismatch(ValueError):
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


def _frame(kind, p, q):
    """Positively oriented orthonormal frame (for the form diag(1,1,s))
    at model point p, first tangent vector aimed at q."""
    sigma = -1.0 if kind == "hyperbolic" else 1.0
    B = np.diag([1.0, 1.0, sigma])
    u0 = _lift(kind, p)
    # The tangent is (q, 1) - (1 - s)(p, 1) = (d + s p, s), d = q - p,
    # with s = -p.d / (sigma + |p|^2) making it B-orthogonal to (p, 1).
    # Projecting the lift of q off u0 instead subtracts two vectors that
    # agree to about |d|, which cancels once the model points are tiny.
    d = q - p
    s = -(p @ d) / (sigma + p @ p)
    t = np.array([d[0] + s * p[0], d[1] + s * p[1], s])
    n = t @ B @ t
    if n <= 0:
        raise OutsideDomain("coincident endpoints")
    u1 = t / math.sqrt(n)
    u2 = np.linalg.solve(B, np.cross(u0, u1))
    u2 = u2 / math.sqrt(u2 @ B @ u2)
    F = np.column_stack([u0, u1, u2])
    if np.linalg.det(F) < 0:
        F[:, 2] = -F[:, 2]
    return F


def _segment_isometry(kind, a, b, c, d):
    """The orientation-preserving model isometry taking segment (a, b) to
    (c, d) endpoint-to-endpoint (model coordinates)."""
    if kind == "euclidean":
        th = math.atan2(*(d - c)[::-1]) - math.atan2(*(b - a)[::-1])
        R = np.array([[math.cos(th), -math.sin(th)],
                      [math.sin(th), math.cos(th)]])
        t = c - R @ a
        G = np.eye(3)
        G[:2, :2] = R
        G[:2, 2] = t
        return G
    sigma = -1.0 if kind == "hyperbolic" else 1.0
    J = np.diag([sigma, 1.0, 1.0])
    B = np.diag([1.0, 1.0, sigma])
    F1 = _frame(kind, a, b)
    F2 = _frame(kind, c, d)
    # F1^-1 = J^-1 F1^T B because the frame is B-orthonormal with Gram J
    return F2 @ np.linalg.inv(J) @ F1.T @ B


def side_pairing(m, Q, tol=1e-9):
    """The two side pairings (A, B) of the parallelogram: A carries side
    (v1, v2) to (v4, v3), B carries (v2, v3) to (v1, v4)."""
    V = Q.vertices
    mv = [m.to_model(v) for v in V]
    len_bottom = model_distance(m, V[0], V[1])
    len_top = model_distance(m, V[3], V[2])
    len_right = model_distance(m, V[1], V[2])
    len_left = model_distance(m, V[0], V[3])
    if abs(len_bottom - len_top) > tol or abs(len_right - len_left) > tol:
        raise SideLengthMismatch("opposite sides differ in model length")
    GA = _segment_isometry(m.kind, mv[0], mv[1], mv[3], mv[2])
    GB = _segment_isometry(m.kind, mv[1], mv[2], mv[0], mv[3])
    Dm = np.diag([m.D[0], m.D[1], 1.0])
    Dinv = np.diag([1.0 / m.D[0], 1.0 / m.D[1], 1.0])
    return Dm @ GA @ Dinv, Dm @ GB @ Dinv


def projective_normalize(M, tol=1e-8):
    """Scale a 3x3 matrix by its bottom-right entry (or, failing that,
    its largest entry)."""
    M = np.asarray(M, dtype=float)
    if abs(M[2, 2]) > tol:
        return M / M[2, 2]
    piv = M.flat[np.argmax(np.abs(M))]
    return M / piv


def in_heis(M, tol=1e-4):
    """Upper triangular and unipotent within tolerance."""
    M = projective_normalize(M)
    low = max(abs(M[1, 0]), abs(M[2, 0]), abs(M[2, 1]))
    return low <= tol and np.abs(np.diag(M) - 1.0).max() <= tol


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
