"""Regeneration one t and one point at a time: the loop that
geomlim.regeneration.regenerate_trace replaced with one pass over stacks,
kept as the reference that pass must match byte for byte.  Each sample's
four midpoints come before its pairings, so a t at which any vertex lies
outside the disk gives an error sample; so does a t whose form has an
entry past the float range.  Test code, imported by the suites as
``regen_reference``."""

import math

import numpy as np

from geomlim.regeneration import (
    CURVATURE, ModelParam, OutsideDomain, heisenberg_criterion)


def form(kind, D):
    """ModelParam.form of one conjugator D."""
    if kind == "euclidean":
        return np.diag([D[0] ** 2, D[1] ** 2, 0.0])
    sigma = -1.0 if kind == "hyperbolic" else 1.0
    Dinv = np.diag(1.0 / D)
    return Dinv.T @ np.diag([1.0, 1.0, sigma]) @ Dinv


def lift(kind, p):
    r2 = p @ p
    if kind == "hyperbolic":
        if r2 >= 1.0:
            raise OutsideDomain("point outside the unit disk")
        return np.array([p[0], p[1], 1.0]) / math.sqrt(1.0 - r2)
    return np.array([p[0], p[1], 1.0]) / math.sqrt(1.0 + r2)


def geodesic_midpoint(kind, D, p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if kind == "euclidean":
        return 0.5 * (p + q)
    w = lift(kind, p / D[:2]) + lift(kind, q / D[:2])
    return w[:2] / w[2] * D[:2]


def side_pairing(kind, D, V):
    k = CURVATURE[kind]
    d = np.array([D[0], D[1], 1.0])
    hd = d * (-1.0, -1.0, 1.0)
    pairings = []
    for p, q in ((V[0], V[1]), (V[1], V[2])):
        c = geodesic_midpoint(kind, D, p, q) / D[:2]
        u = np.array([c[0], c[1], 1.0])
        Gu = np.array([k * c[0], k * c[1], 1.0])
        R = 2.0 * np.outer(u, Gu) / (u @ Gu) - np.eye(3)
        pairings.append(hd[:, None] * R / d)
    return tuple(pairings)


def projective_normalize(M):
    M = np.asarray(M, dtype=float)
    if abs(M[2, 2]) > 1e-8:
        return M / M[2, 2]
    return M / M.flat[np.argmax(np.abs(M))]


def regenerate_trace(kind, D_path, Q, t_grid):
    kind = ModelParam(kind).kind
    if D_path.n != 3:
        raise ValueError("conjugator path must have three entries")
    if kind != "euclidean" and not heisenberg_criterion(D_path):
        raise ValueError(
            "conjugator path does not satisfy the divergence criterion")
    V = Q.vertices
    samples = []
    for t in t_grid:
        D = ModelParam(kind, D_path.evaluate(t)).D
        try:
            mids = [geodesic_midpoint(kind, D, V[i], V[(i + 1) % 4])
                    for i in range(4)]
            A, B = side_pairing(kind, D, V)
        except OutsideDomain as exc:
            samples.append({"t": t, "error": str(exc)})
            continue
        Qm = form(kind, D)
        if not np.isfinite(Qm).all():
            samples.append({"t": t, "error": "form leaves the float range"})
            continue
        if kind == "euclidean":
            form_res = max(np.abs(X @ Qm @ X.T - Qm).max()
                           for X in (A, B)) / np.abs(Qm).max()
        else:
            form_res = max(np.abs(X.T @ Qm @ X - Qm).max() for X in (A, B))
        A = projective_normalize(A)
        B = projective_normalize(B)
        comm = A @ B @ np.linalg.inv(A) @ np.linalg.inv(B) - np.eye(3)
        samples.append({
            "t": t, "A": A, "B": B,
            "commutator_residual": float(np.linalg.norm(comm)),
            "form_residual": float(form_res),
            "midpoints": mids,
        })
    if all("error" in s for s in samples):
        raise OutsideDomain("no valid samples on the grid")
    A_inf, B_inf = np.eye(3), np.eye(3)
    A_inf[:2, 2] = V[3] - V[0]
    B_inf[:2, 2] = V[0] - V[1]
    return {"samples": samples, "A_inf": A_inf, "B_inf": B_inf,
            "limit_in_heis": True}
