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
are in tests/lemmas.py.

A ModelParam may hold a stack of conjugators, and the point functions
broadcast over its leading axes, so regenerate_trace computes every t of
its grid in one pass over (T, ...) stacks with the code that computes a
single point.  Each slice goes through the BLAS and LAPACK routine that a
single point's product, dot or inverse calls, so a stacked sample has the
bytes of the same sample computed alone."""

import math

import numpy as np

KINDS = ("hyperbolic", "sphere", "euclidean")
CURVATURE = {"hyperbolic": -1.0, "sphere": 1.0, "euclidean": 0.0}


class OutsideDomain(ValueError):
    pass


class ModelParam:
    """A plane geometry kind plus its diagonal conjugator, or a stack of
    conjugators: D has shape (..., 3), and every method broadcasts over
    its leading axes."""

    def __init__(self, kind, D=(1.0, 1.0, 1.0)):
        kind = kind.lower()
        if kind not in KINDS:
            raise ValueError("unknown kind {!r}".format(kind))
        self.kind = kind
        D = np.asarray(D, dtype=float)
        if D.shape[-1:] != (3,) or not (np.isfinite(D) & (D > 0)).all():
            raise ValueError(
                "conjugator must be three finite positive entries")
        self.D = D

    def to_model(self, p):
        """Affine patch point -> fixed model coordinates."""
        p = np.asarray(p, dtype=float)
        return p / self.D[..., :2]

    def form(self):
        """The form preserved by the model's isometries, in the working
        (conjugated) coordinates.  In the curved models it is
        D^-1 diag(1, 1, sigma) D^-1, preserved as A^T Q A = Q.  The
        Euclidean isometries preserve no nondegenerate form; the form
        returned is the degenerate dual form D diag(1, 1, 0) D,
        preserved as A J A^T = J."""
        if self.kind == "euclidean":
            # float_power calls the C library's pow on each entry, as a
            # scalar d ** 2 does; an array ** 2 multiplies instead
            d2 = np.float_power(self.D, 2)
            d2[..., 2] = 0.0
            return _diag(d2)
        sigma = -1.0 if self.kind == "hyperbolic" else 1.0
        Dinv = _diag(1.0 / self.D)
        return np.swapaxes(Dinv, -1, -2) @ np.diag([1.0, 1.0, sigma]) @ Dinv


def _diag(v):
    """The diagonal matrices of the rows of a (..., 3) stack."""
    out = np.zeros(v.shape + (3,))
    i = np.arange(3)
    out[..., i, i] = v
    return out


def _affine(p):
    """The rows (x, y, 1) of a (..., 2) stack of points."""
    out = np.empty(p.shape[:-1] + (3,))
    out[..., :2] = p
    out[..., 2] = 1.0
    return out


def _dot(x, y):
    """x . y over the last axis: one BLAS dot per row, as the 1-D x @ y
    computes it."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


OUTSIDE_DISK = "point outside the unit disk"
OUT_OF_RANGE = "form leaves the float range"


def _lift(kind, p):
    """Lift model points, a (..., 2) stack, onto the quadric of the
    geometry."""
    p = np.asarray(p, dtype=float)
    r2 = _dot(p, p)
    if kind == "hyperbolic":
        if not (r2 < 1.0).all():
            raise OutsideDomain(OUTSIDE_DISK)
        s = np.sqrt(1.0 - r2)
    else:
        s = np.sqrt(1.0 + r2)
    return _affine(p) / s[..., None]


def model_distance(m, p, q):
    """Distance between two affine-patch points in the model m."""
    a = m.to_model(p)
    b = m.to_model(q)
    if m.kind == "euclidean":
        return float(np.linalg.norm(a - b))
    if m.kind == "hyperbolic":
        if a @ a >= 1.0 or b @ b >= 1.0:
            raise OutsideDomain(OUTSIDE_DISK)
        c = (1.0 - a @ b) / math.sqrt((1.0 - a @ a) * (1.0 - b @ b))
        return float(np.arccosh(max(1.0, c)))
    u = _lift("sphere", a)
    v = _lift("sphere", b)
    return float(np.arccos(np.clip(u @ v, -1.0, 1.0)))


def geodesic_midpoint(m, p, q):
    """Equidistant point on the segment, in closed form; p and q may be
    stacks of points that broadcast with m's conjugators.

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
    return w[..., :2] / w[..., 2:] * m.D[..., :2]


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


def _side_midpoints(m, Q, k):
    """The geodesic midpoints of the first k sides (v1, v2), (v2, v3), ...
    of Q, as one (k, ..., 2) stack over the leading axes of m.D."""
    V = Q.vertices.reshape(4, *[1] * (m.D.ndim - 1), 2)
    mids = geodesic_midpoint(m, V[:k], V[[1, 2, 3, 0][:k]])
    return np.broadcast_to(mids, (k, *m.D.shape[:-1], 2))


def side_pairing(m, Q):
    """The two side pairings (A, B) of the parallelogram, as one
    (2, ..., 3, 3) stack over the leading axes of m.D: A carries side
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
    d = m.D.copy()
    d[..., 2] = 1.0
    hd = d * (-1.0, -1.0, 1.0)  # H D
    c = m.to_model(_side_midpoints(m, Q, 2))
    u = _affine(c)
    Gu = _affine(k * c)
    R = 2.0 * (u[..., :, None] * Gu[..., None, :]) \
        / _dot(u, Gu)[..., None, None] - np.eye(3)
    return hd[..., :, None] * R / d[..., None, :]


def projective_normalize(M):
    """Scale a 3x3 matrix, or each of a stack, by its bottom-right entry
    (or, when that is at most 1e-8, its largest entry)."""
    M = np.asarray(M, dtype=float)
    corner = M[..., 2:, 2:]
    flat = M.reshape(*M.shape[:-2], 9)
    top = np.take_along_axis(flat, np.abs(flat).argmax(axis=-1)[..., None],
                             axis=-1)[..., None]
    return M / np.where(np.abs(corner) > 1e-8, corner, top)


def heisenberg_criterion(D_path):
    """Do the first two path entries and their ratio all diverge?"""
    (_, e1), (_, e2), (c3, e3) = D_path.entries
    return e1 > e2 > 0 and e3 == 0 and c3 == 1.0


def _larger(a, b):
    """Python's max(a, b), entry by entry: b where b > a, else a."""
    return np.where(b > a, b, a)


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

    The path is evaluated and checked at each t in order.  A t at which
    a vertex lies outside the disk, or else the form has an entry past
    the float range, gives a sample of t and the error; the others are
    computed in one pass over (T, ...) stacks of the conjugators, by the
    functions above.  Raises OutsideDomain when no t on the grid gives a
    valid sample."""
    kind = ModelParam(kind).kind  # checked and lower-cased
    if D_path.n != 3:
        raise ValueError("conjugator path must have three entries")
    if kind != "euclidean" and not heisenberg_criterion(D_path):
        raise ValueError(
            "conjugator path does not satisfy the divergence criterion")
    t_grid = list(t_grid)
    D = []
    for t in t_grid:
        D.append(D_path.evaluate(t))
        if len(D) == 1:
            # D_t has the signs of the path's coefficients at every t, so
            # the first D checks them all
            ModelParam(kind, D[0])
    m = ModelParam(kind, np.reshape(D, (-1, 3)))
    V = Q.vertices
    inside = np.ones(len(t_grid), dtype=bool)
    # a form or a model point past the float range is inf or NaN, and is
    # told by the masks, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "hyperbolic":
            P = m.to_model(V[:, None])  # (4, T, 2)
            inside = (_dot(P, P) < 1.0).all(axis=0)
        Qm = m.form()
        valid = inside & np.isfinite(Qm).all(axis=(-2, -1))
    if not valid.any():
        raise OutsideDomain("no valid samples on the grid")
    if not valid.all():
        m, Qm = ModelParam(kind, m.D[valid]), Qm[valid]
    AB = side_pairing(m, Q)
    if kind == "euclidean":
        # the dual form, relative to its largest entry
        res = np.abs(AB @ Qm @ AB.swapaxes(-1, -2) - Qm).max(axis=(-2, -1))
        form_res = _larger(*res) / np.abs(Qm).max(axis=(-2, -1))
    else:
        res = np.abs(AB.swapaxes(-1, -2) @ Qm @ AB - Qm).max(axis=(-2, -1))
        form_res = _larger(*res)
    AB = projective_normalize(AB)
    (A, B), (Ai, Bi) = AB, np.linalg.inv(AB)
    comm = (A @ B @ Ai @ Bi - np.eye(3)).reshape(-1, 9)
    rows = zip(A, B, np.sqrt(_dot(comm, comm)).tolist(), form_res.tolist(),
               _side_midpoints(m, Q, 4).swapaxes(0, 1))
    samples = []
    for t, ok, ins in zip(t_grid, valid.tolist(), inside.tolist()):
        if not ok:
            samples.append({"t": t,
                            "error": OUT_OF_RANGE if ins else OUTSIDE_DISK})
            continue
        a, b, comm_r, form_r, mid = next(rows)
        samples.append({"t": t, "A": a, "B": b, "commutator_residual": comm_r,
                        "form_residual": form_r, "midpoints": mid})
    A_inf, B_inf = np.eye(3), np.eye(3)
    A_inf[:2, 2] = V[3] - V[0]
    B_inf[:2, 2] = V[0] - V[1]
    return {"samples": samples, "A_inf": A_inf, "B_inf": B_inf,
            "limit_in_heis": True}
