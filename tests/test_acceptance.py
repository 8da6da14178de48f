"""End-to-end acceptance checks; each test prints a single verdict line."""

import time
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import scipy.linalg

from geomlim import cells
from geomlim import heisenberg as heis
from geomlim import limits as lim
from geomlim import matrices as mat
from geomlim import regeneration as regen
from geomlim.heisenberg import HeisRep
from geomlim.limits import FlagSignature, LieSubspace, MonomialDiagonal
from geomlim.matrices import AlgMatrix
from geomlim.regeneration import Parallelogram

import lemmas

rng = np.random.default_rng(987654321)


def verdict(num, ok, label):
    print("criterion {:2d} [{}]: {}".format(
        num, "PASS" if ok else "FAIL", label))
    assert ok, label


def e(i, j):
    M = np.zeros((3, 3))
    M[i, j] = 1.0
    return M


def test_01_euclidean_limit():
    t0 = time.perf_counter()
    target = LieSubspace([e(0, 1) - e(1, 0), e(0, 2), e(1, 2)])
    outputs = []
    ok = True
    for form in ([1.0, 1.0, 1.0], [1.0, 1.0, -1.0]):
        conj = MonomialDiagonal([(1.0, 0), (1.0, 0),
                                 (1.0, Fraction(1, 2))]).reversed()
        path = lim.conjugacy_to_form_path(conj, form)
        sub = lim.eta(lim.psi_limit(path))
        outputs.append(sub)
        ok = ok and sub.principal_angle_distance(target) < 1e-12
    ok = ok and outputs[0].principal_angle_distance(outputs[1]) < 1e-12
    ok = ok and (time.perf_counter() - t0) < 1.0
    verdict(1, ok, "euclidean limit of both curved forms")


def test_02_heisenberg_limit():
    target = LieSubspace([e(0, 1), e(0, 2), e(1, 2)])
    conj = MonomialDiagonal([(1.0, 2), (1.0, 1), (1.0, 0)])
    ok = True
    for form in ([1.0, 1.0, 1.0], [1.0, 1.0, -1.0]):
        path = lim.conjugacy_to_form_path(conj, form)
        sub = lim.eta(lim.psi_limit(path))
        ok = ok and sub.principal_angle_distance(target) < 1e-12
    verdict(2, ok, "heisenberg limit is strictly upper triangular")


def test_03_cell_counts():
    t0 = time.perf_counter()
    ok = cells.closure_cell_counts(2) == [2, 2]
    ok = ok and cells.closure_cell_counts(3) == [6, 12, 4]
    ok = ok and cells.closure_cell_counts(4)[-1] == 8
    for n in range(2, 8):
        ok = ok and lemmas.simplex_cell_counts(n) \
            == [2 ** k * comb(n, k + 1) for k in range(n)]
    ok = ok and lemmas.euler_characteristic(3) == -2
    ok = ok and (time.perf_counter() - t0) < 1.0
    verdict(3, ok, "cell counts, simplex counts, euler characteristic")


def test_04_limit_poset_1_3():
    nodes, edges = lim.limit_poset(1, 3)
    expected = {
        ((1, 3),),
        ((1, 0), (3, 0)), ((1, 1), (2, 0)), ((1, 2), (1, 0)),
        ((1, 0), (1, 0), (2, 0)), ((1, 0), (2, 0), (1, 0)),
        ((1, 1), (1, 0), (1, 0)),
        ((1, 0), (1, 0), (1, 0), (1, 0)),
    }
    ok = {tuple(F.pairs) for F in nodes} == expected
    ok = ok and all(lim.is_limit_of(F, 1, 3) for F in nodes)
    root = FlagSignature([(1, 3)])
    ok = ok and sum(1 for a, _ in edges if a == root) == 3
    verdict(4, ok, "signature poset of the (1,3) form has the 8 nodes")


def test_05_hexagon_labels():
    top = cells.Cell([(0, 1, 2)], {0: 1, 1: 1, 2: 1})
    names = Counter()
    for c in cells.boundary_cells(top):
        names[lim.classify_limit_group_3d(c.signature())] += 1
    ok = names == Counter({"Euc(2)^-T": 3, "Euc(2)": 3, "Heis": 6})
    verdict(5, ok, "hexagon boundary: 3+3 euclidean edges, 6 heis vertices")


def test_06_iota_exp_commutation():
    t0 = time.perf_counter()
    deltas = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    worst_ok = True
    for k in range(100):
        n = int(rng.integers(1, 5))
        delta = deltas[k % len(deltas)]
        X = AlgMatrix(rng.standard_normal((n, n)),
                      rng.standard_normal((n, n)), delta)
        nrm = np.linalg.norm(mat.iota_delta(X))
        if nrm > 2.0:
            X = X * (2.0 / nrm)
            nrm = 2.0
        lhs = mat.iota_delta(mat.exp_delta(X))
        rhs = scipy.linalg.expm(mat.iota_delta(X))
        worst_ok = worst_ok and np.abs(lhs - rhs).max() <= 1e-9 * np.exp(nrm)
    ok = worst_ok and (time.perf_counter() - t0) < 5.0
    verdict(6, ok, "exp commutes with the real representation")


def test_07_unitary_algebra_constancy():
    ok = True
    for n in (1, 2, 3):
        per_delta = []
        for delta in (-1.0, 0.0, 1.0):
            basis = mat.u_lie_basis(n, delta)
            ok = ok and len(basis) == (n + 1) ** 2
            per_delta.append([(X.re, X.im) for X in basis])
        for other in per_delta[1:]:
            for (r0, i0), (r1, i1) in zip(per_delta[0], other, strict=True):
                ok = ok and np.array_equal(r0, r1) and np.array_equal(i0, i1)
    verdict(7, ok, "unitary lie algebra grids constant in delta, dim (n+1)^2")


def test_08_rr_isomorphism():
    Q = AlgMatrix.identity(3, 1.0)
    ok = True
    done = 0
    while done < 100:
        X = rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 3))
        if abs(np.linalg.det(X)) < 1e-3 or abs(np.linalg.det(Y)) < 1e-3:
            continue
        done += 1
        U, V = mat.rr_to_unitary(X), mat.rr_to_unitary(Y)
        W = mat.rr_to_unitary(X @ Y)
        P = U @ V
        scale = 1 + W.max_abs()
        ok = ok and np.abs(P.re - W.re).max() <= 1e-10 * scale
        ok = ok and np.abs(P.im - W.im).max() <= 1e-10 * scale
        ok = ok and mat.is_unitary(U, Q, tol=1e-10 * (1 + U.max_abs()) ** 2)
    verdict(8, ok, "split-algebra map is a homomorphism into the unitaries")


def test_09_reps_eps_membership():
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        Q = mat.standard_form(n, 0.0)
        Qr = Q.re
        S = rng.standard_normal((n + 1, n + 1))
        S = 0.5 * (S + S.T)
        Q0 = AlgMatrix(Qr, None, 0.0)
        good = mat.is_unitary(AlgMatrix(np.eye(n + 1), Qr @ S, 0.0), Q0)
        J = np.diag([1.0] * n + [-1.0])
        M = rng.standard_normal((n + 1, n + 1)) * 0.4
        M = M - J @ M.T @ J  # J-skew, so expm lands in O(n,1)
        X = scipy.linalg.expm(M)
        good2 = mat.is_unitary(AlgMatrix(X, None, 0.0), Q0)
        K = rng.standard_normal((n + 1, n + 1))
        K = K - K.T
        K = K / np.abs(K).max()  # X^T Q Y picks up an asymmetric 1e-3 part
        bad = mat.is_unitary(
            AlgMatrix(np.eye(n + 1), Qr @ (S + 1e-3 * K), 0.0), Q0)
        ok = ok and good and good2 and not bad
    verdict(9, ok, "dual-number membership accepts/rejects both families")


def test_10_heisenberg_suite():
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        d = rng.standard_normal(2)
        a, b = rng.standard_normal(2)
        r = HeisRep(a * d, b * d, rng.standard_normal(2))
        g, h = rng.standard_normal(2)
        c = heis.conjugate_rep(r, g, h)
        ok = ok and c.bracket() == r.bracket()
        tag, sub = heis.classify(r)
        ok = ok and heis.classify(c) == (tag, sub)
        s = float(rng.uniform(0.1, 4.0))
        ok = ok and heis.classify(HeisRep(s * r.x, s * r.y, s * r.z)) \
            == (tag, sub)
        if tag == "Central":
            continue
        u = heis.normalize(r)
        ok = ok and abs(u.x @ u.x + u.y @ u.y - 1.0) <= 1e-12
        axis = u.y if u.y @ u.y >= u.x @ u.x else u.x
        ok = ok and abs(u.z @ axis) <= 1e-12 * max(1.0, float(np.abs(u.z).max()))
        if tag != "Holonomy":
            continue
        uu, vv = rng.uniform(-1, 1, size=2)
        f = heis.developing_map(r, uu, vv)
        p = r.generator(0) @ np.array([f[0], f[1], 1.0])
        shift = heis.developing_map(r, uu + 1, vv)
        ok = ok and np.abs(np.array(shift) - p[:2] / p[2]).max() <= 1e-10
        t1 = heis.teichmuller_coords(r)
        t2 = heis.teichmuller_coords(t1)
        ok = ok and np.allclose((t1.x, t1.y, t1.z), (t2.x, t2.y, t2.z),
                                atol=1e-12)
    ok = ok and (time.perf_counter() - t0) < 5.0
    verdict(10, ok, "heisenberg representation property suite (1000 reps)")


def test_11_regeneration():
    t0 = time.perf_counter()
    path = MonomialDiagonal([(1.0, 2), (1.0, 1), (1.0, 0)])
    trace = regen.regenerate_trace("hyperbolic", path,
                                   Parallelogram.square(0.2),
                                   [1e1, 1e2, 1e3, 1e4])
    samples = trace["samples"]
    ok = all("error" not in s for s in samples)
    res = [s["commutator_residual"] for s in samples]
    ok = ok and all(a > b for a, b in zip(res, res[1:]))
    ok = ok and res[-1] <= 1e-4
    ok = ok and all(s["form_residual"] <= 1e-9 for s in samples)
    for M in (trace["A_inf"], trace["B_inf"]):
        low = max(abs(M[1, 0]), abs(M[2, 0]), abs(M[2, 1]))
        ok = ok and low <= 1e-4
        ok = ok and np.abs(np.diag(M) - 1.0).max() <= 1e-4
    ok = ok and (time.perf_counter() - t0) < 10.0
    verdict(11, ok, "square regenerates: residuals shrink, limit unipotent")


def test_12_bounds():
    t0 = time.perf_counter()
    ok = True
    for kind in ("hyperbolic", "sphere"):
        for _ in range(100):
            seg = rng.uniform(-0.2, 0.2, size=(2, 2))
            _, _, good = lemmas.midpoint_bound_check(
                kind, (2.0, 1.5, 1.0), seg, 0.3)
            ok = ok and good
        for tau in (0.01, 0.1):
            for eps in (0.1, 0.2):
                tris = lemmas.sample_triangles(eps, 50, rng)
                out = lemmas.area_distortion_check(kind, tau, eps, tris)
                ok = ok and out["pass"]
    ok = ok and (time.perf_counter() - t0) < 10.0
    verdict(12, ok, "midpoint and area distortion bounds hold")


def test_13_numeric_vs_exact_grassmannian():
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 6))
        entries = [(float(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])),
                    Fraction(int(rng.integers(-3, 4))))
                   for _ in range(n)]
        path = MonomialDiagonal(entries)
        exact = lim.eta(lim.psi_limit(path))
        numeric = lim.so_basis(path.evaluate(1e6))
        ok = ok and exact.principal_angle_distance(numeric) <= 1e-4
    verdict(13, ok, "exact limits match t=1e6 numerics on 200 random paths")
