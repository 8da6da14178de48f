"""Numerics for conjugated constant-curvature models and cone-torus
regeneration.

All three plane geometries are handled in one affine patch: a diagonal
conjugator D = diag(d1, d2, 1) carries the fixed Klein disk / projective
sphere / Euclidean plane to the working model.  A side pairing of an
origin-centered parallelogram is the half-turn about the origin after
the half-turn about the midpoint of its side, one formula in all three
models; the pairings are traced as the conjugator diverges, and their
limits, translations of the affine plane, are given in closed form.
model_distance gives a model's distance between two affine points; the
sampled checks of the midpoint and area-distortion lemmas, built on it,
are in tests/lemmas.py."""

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
        """The form preserved by the model's isometries, in the working
        (conjugated) coordinates.  In the curved models it is
        D^-1 diag(1, 1, sigma) D^-1, preserved as A^T Q A = Q.  The
        Euclidean isometries preserve no nondegenerate form; the form
        returned is the degenerate dual form D diag(1, 1, 0) D,
        preserved as A J A^T = J."""
        if self.kind == "euclidean":
            return np.diag([self.D[0] ** 2, self.D[1] ** 2, 0.0])
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
    """Four cyclically ordered affine vertices, opposite ones antipodal,
    so the half-turn diag(-1,-1,1) about their centroid, the origin, pairs
    opposite sides.  The checks are relative to the size of the vertices."""

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.shape != (4, 2):
            raise ValueError("need four plane vertices")
        if not np.isfinite(V).all():
            raise ValueError("vertices must be finite")
        if np.abs(V[:2] + V[2:]).max() > 1e-12 * np.abs(V).max():
            raise ValueError("opposite vertices must be antipodal")
        e1 = V[1] - V[0]
        e2 = V[3] - V[0]
        if abs(e1[0] * e2[1] - e1[1] * e2[0]) \
                <= 1e-12 * math.hypot(*e1) * math.hypot(*e2):
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


def heisenberg_criterion(D_path):
    """Do the first two path entries and their ratio all diverge?"""
    (_, e1), (_, e2), (c3, e3) = D_path.entries
    return e1 > e2 > 0 and e3 == 0 and c3 == 1.0


def regenerate_trace(kind, D_path, Q, t_grid):
    """Trace the side pairings of Q along the conjugated models D_t.

    Returns per-t samples (pairings, side midpoints, commutator and form
    residuals) and the limits of the pairings in closed form: A tends to
    the affine translation by v4 - v1 and B to the translation by
    v1 - v2.  Along a path that satisfies the divergence criterion the
    side midpoints tend to the affine ones and the other entries of the
    half-turns decay like t^(-2 e2), e2 the smaller exponent; in the
    Euclidean kind the pairings are these translations at every t.  A
    translation is in Heis, so limit_in_heis holds by construction.
    Raises OutsideDomain when no t on the grid gives a valid sample."""
    kind = ModelParam(kind).kind  # checked and lower-cased
    if D_path.n != 3:
        raise ValueError("conjugator path must have three entries")
    if kind != "euclidean" and not heisenberg_criterion(D_path):
        raise ValueError(
            "conjugator path does not satisfy the divergence criterion")
    samples = []
    for t in t_grid:
        m = ModelParam(kind, D_path.evaluate(t))
        try:
            A, B = side_pairing(m, Q)
        except OutsideDomain as exc:
            samples.append({"t": t, "error": str(exc)})
            continue
        Qm = m.form()
        if kind == "euclidean":
            # the dual form, relative to its largest entry
            form_res = max(np.abs(X @ Qm @ X.T - Qm).max()
                           for X in (A, B)) / np.abs(Qm).max()
        else:
            form_res = max(np.abs(X.T @ Qm @ X - Qm).max() for X in (A, B))
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
    if all("error" in s for s in samples):
        raise OutsideDomain("no valid samples on the grid")
    V = Q.vertices
    A_inf, B_inf = np.eye(3), np.eye(3)
    A_inf[:2, 2] = V[3] - V[0]
    B_inf[:2, 2] = V[0] - V[1]
    return {"samples": samples, "A_inf": A_inf, "B_inf": B_inf,
            "limit_in_heis": True}
