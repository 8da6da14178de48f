import copy
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st

from geomlim import algebra as alg
from geomlim import matrices as mat
from geomlim.algebra import AlgScalar
from geomlim.matrices import AlgMatrix

import lemmas

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


@pytest.mark.parametrize("n", range(1, 9))
def test_det_dual_part_is_the_column_sum(n):
    """For delta = 0 the dual part is the sum, left to right, of det X with
    column i replaced by column i of Y; the bytes match that sum."""
    A = random_matrix(n, 0.0)
    want = 0.0
    for i in range(n):
        M = A.re.copy()
        M[:, i] = A.im[:, i]
        want += np.linalg.det(M)
    got = mat.det(A)
    assert np.float64(got.im).tobytes() == np.float64(want).tobytes()
    assert np.float64(got.re).tobytes() == np.linalg.det(A.re).tobytes()


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


def test_alg_matrix_refuses_mismatched_grids_and_operands():
    with pytest.raises(mat.ShapeMismatch):
        AlgMatrix(np.zeros((2, 3)))
    with pytest.raises(mat.ShapeMismatch):
        AlgMatrix(np.zeros((2, 2)), np.zeros((3, 3)))
    A = AlgMatrix(np.eye(2), delta=1.0)
    with pytest.raises(alg.DeltaMismatch):
        A @ AlgMatrix(np.eye(2), delta=-1.0)
    with pytest.raises(mat.ShapeMismatch):
        A @ AlgMatrix(np.eye(3), delta=1.0)


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


def _grids(basis):
    return [g for X in basis for g in (X.re, X.im)]


@pytest.mark.parametrize("n", [1, 3, 8, 9])
def test_u_lie_basis_returns_fresh_writable_grids(n):
    first, second = mat.u_lie_basis(n, 1.0), mat.u_lie_basis(n, -1.0)
    want = [g.copy() for g in _grids(second)]
    grids = _grids(first) + _grids(second)
    assert all(g.flags.writeable for g in grids)
    for a, b in itertools.combinations(grids, 2):
        assert not np.shares_memory(a, b)
    for g in _grids(first):
        g[...] = 7.0
    later = _grids(mat.u_lie_basis(n, -1.0))
    assert all(np.array_equal(a, b) for a, b in zip(later, want, strict=True))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_alg_matrix_survives_deepcopy_and_pickle(protocol):
    A = random_matrix(3, -1.0)
    A.re[0, 0] = -0.0  # a signed zero counts
    # an element of u_lie_basis holds views into the stacks of its call
    for X in (A, mat.u_lie_basis(2, 2.0)[4]):
        assert not hasattr(X, "__dict__")
        for Y in (copy.deepcopy(X), pickle.loads(pickle.dumps(X, protocol))):
            assert type(Y) is AlgMatrix
            assert Y.re.tobytes() == X.re.tobytes()
            assert Y.im.tobytes() == X.im.tobytes()
            assert Y.re.shape == X.re.shape and Y.im.shape == X.im.shape
            assert type(Y.delta) is float and Y.delta == X.delta
            assert not np.shares_memory(Y.re, X.re)
            assert not np.shares_memory(Y.im, X.im)


def test_u_lie_basis_keeps_no_blocks_above_the_cache_cap():
    n = 12  # its S and T blocks take 8 * 13^4 bytes
    assert 8 * (n + 1) ** 4 > mat.U_LIE_CACHE_BYTES
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mat.u_lie_basis(n, 0.0)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 8 * (n + 1) ** 4 // 20


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
    """exp_delta against the same Taylor series summed term by term with
    AlgMatrix's operators.  The two sum in a different order, so they agree
    to rounding: 1e-14 of e^|R|_F, the bound of the mpmath test below."""
    for scale in (0.1, 1.0, 4.0):
        X = random_matrix(n, delta, scale)
        got, want = mat.exp_delta(X), operator_exp(X)
        assert got.delta == want.delta
        err = max(np.abs(got.re - want.re).max(),
                  np.abs(got.im - want.im).max())
        assert err <= 1e-14 * np.exp(np.linalg.norm(mat.iota_delta(X)))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("delta", [-2.0, -1.0, 0.0, 1.0, 3.0])
def test_exp_delta_matches_mpmath(n, delta):
    """exp_delta against a 40-digit expm of the real representation, to
    1e-14 of e^|R|_F, the bound on |expm(R)| a rounding error scales with."""
    mp = pytest.importorskip("mpmath")
    for scale in (0.1, 1.0, 4.0, 10.0):
        X = random_matrix(n, delta, scale)
        R = mat.iota_delta(X)
        with mp.workdps(40):
            want = np.array(mp.expm(mp.matrix(R.tolist())).tolist(), float)
        got = mat.exp_delta(X)
        assert got.delta == delta
        err = np.abs(mat.iota_delta(got) - want).max()
        assert err <= 1e-14 * np.exp(np.linalg.norm(R))


@pytest.mark.parametrize("n", [1, 3])
def test_u_lie_basis_elements_share_no_storage(n):
    for k in range((n + 1) ** 2):
        for part in ("re", "im"):
            basis = mat.u_lie_basis(n, 1.0)
            before = [(X.re.copy(), X.im.copy()) for X in basis]
            getattr(basis[k], part)[...] = 7.0
            for i, (X, (re, im)) in enumerate(zip(basis, before)):
                if i != k:
                    assert np.array_equal(X.re, re)
                    assert np.array_equal(X.im, im)


def test_exp_delta_grids_share_no_storage():
    X = random_matrix(3, -1.0)
    for part, other in (("re", "im"), ("im", "re")):
        A = mat.exp_delta(X)
        keep = getattr(A, other).copy()
        getattr(A, part)[...] = 7.0
        assert np.array_equal(getattr(A, other), keep)


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
    Q0 = AlgMatrix(Qr, None, 0.0)  # the real form, of the dual numbers
    for _ in range(50):
        S = rng.standard_normal((n + 1, n + 1))
        S = 0.5 * (S + S.T)
        good = AlgMatrix(np.eye(n + 1), Qr @ S, 0.0)
        ok = mat.is_unitary(good, Q0)
        assert ok
        X = random_o_n1(n)
        ok = mat.is_unitary(AlgMatrix(X, None, 0.0), Q0)
        assert ok
        K = rng.standard_normal((n + 1, n + 1))
        K = K - K.T
        K = K / np.abs(K).max()
        bad = AlgMatrix(np.eye(n + 1), Qr @ (S + 1e-3 * K), 0.0)
        ok = mat.is_unitary(bad, Q0)
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
    assert lemmas.submersion_rank_check(A, Q)
    Z = AlgMatrix(np.zeros((3, 3)), None, -1.0)
    assert not lemmas.submersion_rank_check(Z, Q)


# c = 10^e for e in [-8, 8]
scales = st.floats(min_value=-8.0, max_value=8.0).map(lambda e: 10.0 ** e)
# entries of E with I + E invertible for every delta: |E +- lambda F| < 1
small = st.floats(min_value=-0.15, max_value=0.15)


@given(delta=st.sampled_from([-1.0, 0.0, 1.0]),
       s=st.floats(min_value=1.0, max_value=20.0))
@example(delta=-1.0, s=15.0)
@example(delta=0.0, s=15.0)
@example(delta=1.0, s=15.0)
def test_exp_of_a_boost_stays_unitary(delta, s):
    # the boost mixes coordinates 0 and 2; its entries cosh(s / sqrt 2)
    # reach 1e6 near s = 20.5, and its residual is roundoff of |A|^2
    Q = mat.standard_form(2, delta)
    A = mat.exp_delta(s * mat.u_lie_basis(2, delta)[1])
    assert mat.is_unitary(A, Q)
    assert not mat.is_stabilizer(A, Q)
    # doubling row 0 leaves dagger(A) diag(3, 0, 0) A, of size 3 |A|^2
    D = AlgMatrix(np.diag([2.0, 1.0, 1.0]), None, delta)
    assert not mat.is_unitary(D @ A, Q)
    with pytest.raises(mat.NotUnitary):
        mat.is_stabilizer(D @ A, Q)


@given(c=st.floats(min_value=0.0, max_value=5.0).map(lambda e: 10.0 ** e),
       theta=st.floats(min_value=0.0, max_value=2 * np.pi))
@example(c=1e4, theta=0.0)
@example(c=1e5, theta=0.0)  # X = diag(1e5, 1e-5), condition number 1e10
def test_split_stabilizer_of_any_size(c, theta):
    # diag(U, 1), U unitary for the identity 2x2 form, fixes the last
    # coordinate line of the (2, 1) form
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    U = mat.rr_to_unitary(R @ np.diag([c, 1.0 / c]))
    A = AlgMatrix.identity(3, 1.0)
    A.re[:2, :2], A.im[:2, :2] = U.re, U.im
    assert mat.is_stabilizer(A, mat.standard_form(2, 1.0))


@given(c=st.floats(min_value=0.0, max_value=5.0).map(lambda e: 10.0 ** e))
@example(c=1e5)
def test_moved_line_is_not_a_stabilizer(c):
    # A = G e+ + Q G^-T Q e- is Q-unitary for every invertible real G.
    # G = diag(1, c, 1) + 1e-2 E_02 keeps u = 1, of unit norm, but puts
    # entries of 5e-3 in row and column 2, far above 1e-9 c
    Q = mat.standard_form(2, 1.0)
    G = np.diag([1.0, c, 1.0])
    for g, moved in ((0.0, False), (1e-2, True)):
        G[0, 2] = g
        H = Q.re @ np.linalg.inv(G).T @ Q.re
        A = AlgMatrix(0.5 * (G + H), 0.5 * (G - H), 1.0)
        assert mat.is_unitary(A, Q)
        assert mat.is_stabilizer(A, Q) == (not moved)


@given(tau=st.floats(min_value=0.0, max_value=20.0),
       t=st.lists(st.floats(min_value=-3.0, max_value=3.0),
                  min_size=6, max_size=6))
@example(tau=10.0, t=[1.0, -2.0, 0.5, 3.0, 0.25, -1.5])
@example(tau=20.0, t=[0.0, 1.0, 0.0, 0.0, 1.0, 0.0])  # residual 1.0, |X||Y| 2e8
def test_reps_eps_accepts_boosted_members(tau, t):
    # X in O(2, 1) and Y = X Q T with T symmetric: X^T Q Y = T
    Q = mat.standard_form(2, 0.0)
    Q0 = AlgMatrix(Q.re, None, 0.0)
    X = np.eye(3)
    X[0, 0] = X[2, 2] = np.cosh(tau)
    X[0, 2] = X[2, 0] = np.sinh(tau)
    T = np.zeros((3, 3))
    T[np.triu_indices(3)] = t
    T = T + np.triu(T, 1).T
    assert mat.is_unitary(AlgMatrix(X, X @ Q.re @ T, 0.0), Q0)
    D = np.diag([2.0, 1.0, 1.0])  # D X leaves X^T diag(3, 0, 0) X
    bad = AlgMatrix(D @ X, D @ X @ Q.re @ T, 0.0)
    assert not mat.is_unitary(bad, Q0)
    # X^T Q X - Q = 2e-3 Q is roundoff of neither |X|^2 nor of a large Y
    big = AlgMatrix(1.001 * np.eye(3), 1e6 * Q.re @ T, 0.0)
    assert not mat.is_unitary(big, Q0)
    assert not mat.is_unitary(big, Q)


@given(delta=st.sampled_from([-1.0, 0.0, 1.0]), c=scales,
       re=st.lists(small, min_size=9, max_size=9),
       im=st.lists(small, min_size=9, max_size=9))
@example(delta=-1.0, c=1e-6, re=[0.0] * 9, im=[0.0] * 9)
@example(delta=0.0, c=1e-8, re=[0.0] * 9, im=[0.0] * 9)
def test_submersion_rank_check_ignores_scale(delta, c, re, im):
    Q = mat.standard_form(2, delta)
    A = AlgMatrix(np.eye(3) + np.reshape(re, (3, 3)), np.reshape(im, (3, 3)),
                  delta)
    assert lemmas.submersion_rank_check(c * A, Q)
    # for v in the kernel of a singular A, v^H D v = 0 for every image D
    A.re[:, 2] = A.im[:, 2] = 0.0
    assert not lemmas.submersion_rank_check(c * A, Q)


@given(c=scales, e=st.lists(small, min_size=4, max_size=4))
@example(c=1e-7, e=[0.0] * 4)
def test_rr_to_unitary_ignores_scale(c, e):
    X = c * (np.eye(2) + np.reshape(e, (2, 2)))
    assert mat.is_unitary(mat.rr_to_unitary(X), AlgMatrix.identity(2, 1.0))
    X[1] = 0.0
    with pytest.raises(mat.Singular):
        mat.rr_to_unitary(X)
    # ill-conditioned but invertible, with an exact inverse
    U = mat.rr_to_unitary(c * np.diag([1e5, 1e-5]))
    assert mat.is_unitary(U, AlgMatrix.identity(2, 1.0))


@given(x=st.floats(min_value=1.0, max_value=1e8))
@example(x=98765432.1)
def test_point_hyperplane_pairing_is_relative(x):
    # phi.v = 3 fl(x + 1/3) - 3 x is 1 up to roundoff of size |phi|.|v|
    v = np.array([3.0, 3.0, 0.0])
    X = mat.point_hyperplane_complete([x + 1 / 3, -x, 0.3], v)
    assert np.array_equal(X[:, 0], v)
    with pytest.raises(mat.PairingNotOne):
        mat.point_hyperplane_complete([x + 2 / 3, -x, 0.3], v)
    with pytest.raises(mat.PairingNotOne):  # 5e-10 off at unit scale
        mat.point_hyperplane_complete([1 + 5e-10, 0.0, 0.0], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
def test_overflowing_residuals_are_refused(delta):
    # residual and scale both overflow to inf; an inf residual is not zero
    A = AlgMatrix(1e200 * np.eye(3), None, delta)
    Q = mat.standard_form(2, delta)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not mat.is_unitary(A, Q)
        with pytest.raises(mat.NotUnitary):
            mat.is_stabilizer(A, Q)
        with pytest.raises(mat.PairingNotOne):
            mat.point_hyperplane_complete([1e200, 0.0, 0.0],
                                          [1e200, 0.0, 0.0])
