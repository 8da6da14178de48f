import numpy as np
import pytest
import scipy.linalg

from geomlim import algebra as alg
from geomlim import matrices as mat
from geomlim.algebra import AlgScalar
from geomlim.matrices import AlgMatrix

DELTAS = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]

rng = np.random.default_rng(20240817)


def random_matrix(n, delta, scale=1.0):
    return AlgMatrix(scale * rng.standard_normal((n, n)),
                     scale * rng.standard_normal((n, n)), delta)


def cofactor_det(A):
    """Independent determinant oracle: Laplace expansion over the algebra."""
    n = A.n
    if n == 1:
        return A.entry(0, 0)
    total = AlgScalar(0.0, 0.0, A.delta)
    for j in range(n):
        keep = [k for k in range(n) if k != j]
        minor = AlgMatrix(A.re[1:][:, keep], A.im[1:][:, keep], A.delta)
        term = alg.mul(A.entry(0, j), cofactor_det(minor))
        sign = -1.0 if j % 2 else 1.0
        total = AlgScalar(total.re + sign * term.re,
                          total.im + sign * term.im, A.delta)
    return total


@pytest.mark.parametrize("delta", DELTAS)
def test_det_against_cofactor_oracle(delta):
    for n in (1, 2, 3, 4):
        for _ in range(5):
            A = random_matrix(n, delta)
            d1 = mat.det(A)
            d2 = cofactor_det(A)
            scale = 1 + abs(d2.re) + abs(d2.im)
            assert abs(d1.re - d2.re) <= 1e-9 * scale
            assert abs(d1.im - d2.im) <= 1e-9 * scale


@pytest.mark.parametrize("delta", DELTAS)
def test_det_multiplicative(delta):
    A = random_matrix(3, delta)
    B = random_matrix(3, delta)
    d1 = mat.det(A @ B)
    d2 = alg.mul(mat.det(A), mat.det(B))
    scale = 1 + abs(d2.re) + abs(d2.im)
    assert abs(d1.re - d2.re) <= 1e-9 * scale
    assert abs(d1.im - d2.im) <= 1e-9 * scale


@pytest.mark.parametrize("delta", DELTAS)
def test_iota_is_a_homomorphism(delta):
    A = random_matrix(3, delta)
    B = random_matrix(3, delta)
    assert np.allclose(mat.iota_delta(A @ B),
                       mat.iota_delta(A) @ mat.iota_delta(B))
    back = mat.iota_delta_inverse(mat.iota_delta(A), delta)
    assert np.array_equal(back.re, A.re) and np.array_equal(back.im, A.im)


@pytest.mark.parametrize("delta", DELTAS)
def test_exp_against_real_expm(delta):
    for _ in range(5):
        X = random_matrix(3, delta, scale=0.5)
        E1 = mat.iota_delta(mat.exp_delta(X))
        E2 = scipy.linalg.expm(mat.iota_delta(X))
        nrm = np.linalg.norm(mat.iota_delta(X))
        assert np.abs(E1 - E2).max() <= 1e-10 * np.exp(nrm)


@pytest.mark.parametrize("delta", DELTAS)
def test_inverse(delta):
    A = random_matrix(3, delta)
    # avoid accidentally singular draws
    d = mat.det(A)
    if abs(alg.norm(d)) < 1e-6:
        return
    I = A @ mat.inverse(A)
    assert np.abs(I.re - np.eye(3)).max() <= 1e-8
    assert np.abs(I.im).max() <= 1e-8


def test_inverse_singular():
    A = AlgMatrix(np.zeros((2, 2)), np.zeros((2, 2)), -1.0)
    with pytest.raises(mat.Singular):
        mat.inverse(A)


def test_conjugator_moves_representations():
    # C^-1 iota_delta(A) C has the iota_mu block structure with scaled im
    delta, mu = 1.0, 4.0
    A = random_matrix(2, delta)
    C = mat.conjugator_C(delta, mu, 2)
    R = np.linalg.inv(C) @ mat.iota_delta(A) @ C
    Amu = mat.iota_delta_inverse(R, mu)
    assert np.allclose(mat.iota_delta(Amu), R)
    assert np.allclose(Amu.re, A.re)
    assert np.allclose(Amu.im * np.sqrt(mu / delta), A.im)


def test_conjugator_sign_mismatch():
    with pytest.raises(mat.SignMismatch):
        mat.conjugator_C(-1.0, 1.0, 2)
    with pytest.raises(mat.SignMismatch):
        mat.conjugator_C(0.0, 1.0, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_u_lie_basis_dimension_and_equation(n):
    basis = mat.u_lie_basis(n, -1.0)
    assert len(basis) == (n + 1) ** 2
    Q = mat.standard_form(n, -1.0)
    for X in basis:
        R = mat.dagger(X) @ Q + Q @ X
        assert R.max_abs() <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_u_lie_basis_delta_independent(n):
    grids = []
    for delta in (-1.0, 0.0, 1.0):
        basis = mat.u_lie_basis(n, delta)
        grids.append([(X.re.copy(), X.im.copy()) for X in basis])
    for other in grids[1:]:
        for (r0, i0), (r1, i1) in zip(grids[0], other, strict=True):
            assert np.array_equal(r0, r1)
            assert np.array_equal(i0, i1)


def svd_u_lie_basis(n):
    """Reference basis: null space, by SVD, of the linear system
    A^T Q + Q A = 0, Q B - B^T Q = 0 over the 2(n+1)^2 coordinates."""
    m = n + 1
    Q = np.eye(m)
    Q[n, n] = -1.0
    rows = []
    for i in range(m):
        for j in range(m):
            rowA = np.zeros(2 * m * m)
            rowB = np.zeros(2 * m * m)
            for k in range(m):
                rowA[k * m + i] += Q[k, j]
                rowA[k * m + j] += Q[i, k]
                rowB[m * m + k * m + j] += Q[i, k]
                rowB[m * m + k * m + i] -= Q[k, j]
            rows.append(rowA)
            rows.append(rowB)
    _, s, vt = np.linalg.svd(np.array(rows))
    return vt[np.concatenate([s <= 1e-10 * s[0],
                              np.ones(vt.shape[0] - len(s), bool)])]


@pytest.mark.parametrize("n", range(1, 9))
def test_u_lie_basis_spans_null_space(n):
    V = np.array([np.concatenate([X.re.ravel(), X.im.ravel()])
                  for X in mat.u_lie_basis(n, 0.5)])
    W = svd_u_lie_basis(n)
    assert V.shape == W.shape == ((n + 1) ** 2, 2 * (n + 1) ** 2)
    assert np.abs(V @ V.T - np.eye(len(V))).max() <= 1e-12
    assert np.abs(V.T @ V - W.T @ W).max() <= 1e-12


def operator_exp(X):
    """Reference exponential: the same scaling, series and squaring,
    written with AlgMatrix's operators."""
    nrm = np.linalg.norm(mat.iota_delta(X))
    k = 0
    while nrm > 0.5:
        nrm /= 2.0
        k += 1
    Y = X * (0.5 ** k)
    term = AlgMatrix.identity(X.n, X.delta)
    acc = AlgMatrix.identity(X.n, X.delta)
    for m in range(1, 21):
        term = term @ Y
        term = term * (1.0 / m)
        acc = acc + term
    for _ in range(k):
        acc = acc @ acc
    return acc


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("delta", [-2.0, -1.0, 0.0, 1.0, 3.0])
def test_exp_delta_matches_operator_series(n, delta):
    for scale in (0.1, 1.0, 4.0):
        X = random_matrix(n, delta, scale)
        got, want = mat.exp_delta(X), operator_exp(X)
        assert got.delta == want.delta
        assert np.array_equal(got.re, want.re)
        assert np.array_equal(got.im, want.im)


def test_rr_to_unitary_homomorphism():
    Q = AlgMatrix.identity(3, 1.0)
    for _ in range(25):
        X = rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 3))
        if abs(np.linalg.det(X)) < 1e-3 or abs(np.linalg.det(Y)) < 1e-3:
            continue
        U = mat.rr_to_unitary(X)
        V = mat.rr_to_unitary(Y)
        W = mat.rr_to_unitary(X @ Y)
        P = U @ V
        assert np.abs(P.re - W.re).max() <= 1e-10 * (1 + W.max_abs())
        assert np.abs(P.im - W.im).max() <= 1e-10 * (1 + W.max_abs())
        assert mat.is_unitary(U, Q, tol=1e-8 * (1 + U.max_abs()) ** 2)


def random_o_n1(n):
    """Random element of O(n,1) via the exponential of a form-skew matrix."""
    J = np.diag([1.0] * n + [-1.0])
    S = rng.standard_normal((n + 1, n + 1)) * 0.3
    M = J @ (S - S.T) @ np.diag(1.0 / np.diag(J))  # J-skew: M^T J + J M = 0
    return scipy.linalg.expm(0.5 * (M - J @ M.T @ J))


def test_reps_eps_membership():
    n = 2
    Q = mat.standard_form(n, 0.0)
    Qr = Q.re
    for _ in range(50):
        S = rng.standard_normal((n + 1, n + 1))
        S = 0.5 * (S + S.T)
        good = AlgMatrix(np.eye(n + 1), Qr @ S, 0.0)
        _, _, ok = mat.reps_eps_decompose(good, Q)
        assert ok
        X = random_o_n1(n)
        _, _, ok = mat.reps_eps_decompose(AlgMatrix(X, None, 0.0), Q)
        assert ok
        K = rng.standard_normal((n + 1, n + 1))
        K = K - K.T
        K = K / np.abs(K).max()
        bad = AlgMatrix(np.eye(n + 1), Qr @ (S + 1e-3 * K), 0.0)
        _, _, ok = mat.reps_eps_decompose(bad, Q)
        assert not ok


def test_point_hyperplane_complete():
    for _ in range(20):
        v = rng.standard_normal(4)
        phi = rng.standard_normal(4)
        phi = phi / (phi @ v)
        X = mat.point_hyperplane_complete(phi, v)
        assert np.allclose(X[:, 0], v)
        assert np.allclose(np.linalg.inv(X)[0, :], phi, atol=1e-8)
    with pytest.raises(mat.PairingNotOne):
        mat.point_hyperplane_complete([1.0, 0, 0, 0], [0, 1.0, 0, 0])


def test_pairing_coordinate_change():
    for _ in range(20):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        phi, v = mat.pairing_coordinate_change(x, y)
        x2, y2 = mat.pairing_coordinate_change_inverse(phi, v)
        assert np.allclose(x, x2) and np.allclose(y, y2)
        # points of Hermitian radius -1 land on the phi.v = 1 level set
        r = (x[:2] @ x[:2] - y[:2] @ y[:2]) - (x[2] ** 2 - y[2] ** 2)
        s = np.sqrt(abs(r))
        if r < -1e-6:
            phi, v = mat.pairing_coordinate_change(x / s, y / s)
            assert abs(phi @ v - 1.0) <= 1e-9


def test_stabilizer_and_unitary_checks():
    Q = mat.standard_form(2, -1.0)
    th = 0.7
    A = AlgMatrix(
        np.array([[np.cos(th), -np.sin(th), 0],
                  [np.sin(th), np.cos(th), 0],
                  [0, 0, 1.0]]), None, -1.0)
    assert mat.is_unitary(A, Q)
    assert mat.is_stabilizer(A, Q)
    boost = np.eye(3)
    boost[1, 1] = boost[2, 2] = np.cosh(0.3)
    boost[1, 2] = boost[2, 1] = np.sinh(0.3)
    B = AlgMatrix(boost, None, -1.0)
    assert mat.is_unitary(B, Q)
    assert not mat.is_stabilizer(B, Q)
    with pytest.raises(mat.NotUnitary):
        mat.is_stabilizer(AlgMatrix(2 * np.eye(3), None, -1.0), Q)


def test_submersion_rank():
    Q = mat.standard_form(2, -1.0)
    A = AlgMatrix.identity(3, -1.0)
    assert mat.submersion_rank_check(A, Q)
    Z = AlgMatrix(np.zeros((3, 3)), None, -1.0)
    assert not mat.submersion_rank_check(Z, Q)
