"""Matrices over the lambda^2 = delta algebras.

An AlgMatrix keeps the two real coefficient grids (of 1 and of lambda)
as numpy arrays, so the involution-transpose, determinant, exponential,
the real 2n x 2n representation, and the unitary-group predicates are all
plain real linear algebra underneath.  The Lie algebra of the (n,1)
unitary group has the closed form X = QS + lambda*QT with S skew and T
symmetric, so its coefficient grids do not depend on delta.
"""

import math

import numpy as np

from . import algebra
from .algebra import AlgScalar, DeltaMismatch


class ShapeMismatch(ValueError):
    pass


class SignMismatch(ValueError):
    pass


class NotUnitary(ValueError):
    pass


class Singular(ValueError):
    pass


class PairingNotOne(ValueError):
    pass


class AlgMatrix:
    """Square matrix re + lambda*im with real coefficient grids re, im."""

    def __init__(self, re, im=None, delta=0.0):
        self.re = np.array(re, dtype=float)
        if im is None:
            im = np.zeros_like(self.re)
        self.im = np.array(im, dtype=float)
        if self.re.shape != self.im.shape or self.re.ndim != 2 \
                or self.re.shape[0] != self.re.shape[1]:
            raise ShapeMismatch("need matching square grids")
        self.delta = float(delta)

    @property
    def n(self):
        return self.re.shape[0]

    def __repr__(self):
        return "AlgMatrix(n={}, delta={})".format(self.n, self.delta)

    def _check(self, other):
        if self.delta != other.delta:
            raise DeltaMismatch(
                "delta mismatch: {} vs {}".format(self.delta, other.delta))
        if self.re.shape != other.re.shape:
            raise ShapeMismatch("size mismatch")

    def __add__(self, other):
        self._check(other)
        return AlgMatrix(self.re + other.re, self.im + other.im, self.delta)

    def __sub__(self, other):
        self._check(other)
        return AlgMatrix(self.re - other.re, self.im - other.im, self.delta)

    def __neg__(self):
        return AlgMatrix(-self.re, -self.im, self.delta)

    def __matmul__(self, other):
        self._check(other)
        return AlgMatrix(
            self.re @ other.re + self.delta * (self.im @ other.im),
            self.re @ other.im + self.im @ other.re,
            self.delta,
        )

    def __mul__(self, s):
        if isinstance(s, AlgScalar):
            if s.delta != self.delta:
                raise DeltaMismatch("delta mismatch")
            return AlgMatrix(
                s.re * self.re + self.delta * s.im * self.im,
                s.re * self.im + s.im * self.re,
                self.delta,
            )
        return AlgMatrix(s * self.re, s * self.im, self.delta)

    __rmul__ = __mul__

    def entry(self, i, j):
        return AlgScalar(self.re[i, j], self.im[i, j], self.delta)

    def max_abs(self):
        return max(np.abs(self.re).max(), np.abs(self.im).max())

    @staticmethod
    def identity(n, delta):
        return AlgMatrix(np.eye(n), np.zeros((n, n)), delta)


def dagger(A):
    """Involution-transpose: transpose with entrywise conjugation."""
    return AlgMatrix(A.re.T.copy(), -A.im.T.copy(), A.delta)


def det(A):
    """Determinant with values in the algebra.

    Computed through the structure of the algebra: complex determinant for
    delta < 0, the two idempotent-component determinants for delta > 0, and
    for the dual numbers det(X + eY) = det X + e * sum_i det(X with column i
    replaced by the corresponding column of Y)."""
    d = A.delta
    if d < 0:
        r = math.sqrt(-d)
        z = np.linalg.det(A.re + 1j * r * A.im)
        return AlgScalar(z.real, z.imag / r, d)
    if d > 0:
        r = math.sqrt(d)
        dp = np.linalg.det(A.re + r * A.im)
        dm = np.linalg.det(A.re - r * A.im)
        return AlgScalar(0.5 * (dp + dm), 0.5 * (dp - dm) / r, d)
    base = np.linalg.det(A.re)
    deriv = 0.0
    for i in range(A.n):
        M = A.re.copy()
        M[:, i] = A.im[:, i]
        deriv += np.linalg.det(M)
    return AlgScalar(base, deriv, 0.0)


def inverse(A):
    """Matrix inverse over the algebra, via the real representation."""
    R = iota_delta(A)
    try:
        Rinv = np.linalg.inv(R)
    except np.linalg.LinAlgError as exc:
        raise Singular(str(exc)) from None
    return iota_delta_inverse(Rinv, A.delta)


def exp_delta(X):
    """Matrix exponential by scaling-and-squaring with the algebra product.

    Halves X until its real-representation Frobenius norm is at most 1/2,
    runs 20 series terms, then squares back up.  The series works on the
    two coefficient grids directly, in the operation order of AlgMatrix's
    @, * and +."""
    nrm = np.linalg.norm(iota_delta(X))
    k = 0
    while nrm > 0.5:
        nrm /= 2.0
        k += 1
    s = 0.5 ** k
    y_re, y_im = s * X.re, s * X.im
    d = X.delta
    n = X.n
    t_re, t_im = np.eye(n), np.zeros((n, n))
    a_re, a_im = np.eye(n), np.zeros((n, n))
    for m in range(1, 21):
        t_re, t_im = t_re @ y_re + d * (t_im @ y_im), t_re @ y_im + t_im @ y_re
        c = 1.0 / m
        t_re, t_im = c * t_re, c * t_im
        a_re, a_im = a_re + t_re, a_im + t_im
    for _ in range(k):
        a_re, a_im = a_re @ a_re + d * (a_im @ a_im), a_re @ a_im + a_im @ a_re
    return AlgMatrix(a_re, a_im, d)


def iota_delta(A):
    """Real 2n x 2n representation: each entry a+lambda*b becomes
    the 2x2 block [[a, delta*b], [b, a]]."""
    n = A.n
    R = np.zeros((2 * n, 2 * n))
    R[0::2, 0::2] = A.re
    R[1::2, 1::2] = A.re
    R[0::2, 1::2] = A.delta * A.im
    R[1::2, 0::2] = A.im
    return R


def iota_delta_inverse(R, delta):
    """Extract the coefficient grids back out of a 2n x 2n real matrix
    lying in the image of the representation."""
    return AlgMatrix(R[0::2, 0::2].copy(), R[1::2, 0::2].copy(), delta)


def conjugator_C(delta, mu, n):
    """Block-diagonal matrix with 2x2 blocks diag(1, sqrt(mu/delta));
    C^-1 iota_delta(A) C lies in the image of iota_mu."""
    if delta == 0 or mu == 0 or np.sign(delta) != np.sign(mu):
        raise SignMismatch(
            "need nonzero deltas of equal sign, got {} and {}".format(delta, mu))
    s = math.sqrt(mu / delta)
    C = np.eye(2 * n)
    C[1::2, 1::2] *= s
    return C


def standard_form(n, delta):
    """The Hermitian form diag(I_n, -1) on an (n+1)-dimensional module."""
    Q = np.eye(n + 1)
    Q[n, n] = -1.0
    return AlgMatrix(Q, None, delta)


def is_unitary(A, Q, tol=1e-9):
    """Does A preserve the Hermitian form Q, i.e. dagger(A) Q A = Q?"""
    A._check(Q)
    R = dagger(A) @ Q @ A - Q
    return R.max_abs() <= tol


def is_stabilizer(A, Q):
    """Is the Q-unitary A block diagonal diag(B, u) with u of unit norm,
    within 1e-9, i.e. in the stabilizer of the last coordinate line?"""
    if not is_unitary(A, Q):
        raise NotUnitary("matrix does not preserve the form")
    n = A.n - 1
    off = max(
        np.abs(A.re[n, :n]).max(initial=0.0),
        np.abs(A.im[n, :n]).max(initial=0.0),
        np.abs(A.re[:n, n]).max(initial=0.0),
        np.abs(A.im[:n, n]).max(initial=0.0),
    )
    u = A.entry(n, n)
    return off <= 1e-9 and abs(algebra.norm(u) - 1.0) <= 1e-9


def u_lie_basis(n, delta):
    """Orthonormal basis of the Lie algebra of the (n,1) unitary group
    over the algebra, Q = diag(I_n, -1).

    X = A + lambda*B solves dagger(X) Q + Q X = 0 exactly when QA is skew
    and QB is symmetric, i.e. X = QS + lambda*QT with S skew and T
    symmetric.  The basis is Q(E_ij - E_ji)/sqrt(2) for i < j, then
    lambda*Q(E_ij + E_ji)/sqrt(2) for i < j and lambda*Q E_ii: (n+1)^2
    elements, orthonormal in the 2(n+1)^2 real coordinates.  delta does
    not enter, so the coefficient grids are identical for every delta."""
    m = n + 1
    q = np.ones((m, 1))
    q[n] = -1.0  # Q = diag(q), so Q M is q * M
    i, j = np.triu_indices(m, 1)
    E = np.zeros((len(i), m, m))  # E_ij / sqrt(2), i < j
    E[np.arange(len(i)), i, j] = math.sqrt(0.5)
    Et = E.transpose(0, 2, 1)
    r = np.arange(m)
    D = np.zeros((m, m, m))  # E_ii
    D[r, r, r] = 1.0
    zero = np.zeros((m, m))
    return ([AlgMatrix(A, zero, delta) for A in q * (E - Et)]
            + [AlgMatrix(zero, B, delta)
               for B in q * np.concatenate([E + Et, D])])


def rr_to_unitary(X, n=None):
    """The split-algebra unitary matrix X e+ + X^-T e- built from an
    invertible real matrix; lands in the unitary group of the identity form."""
    X = np.array(X, dtype=float)
    if abs(np.linalg.det(X)) <= 1e-12:
        raise Singular("input not invertible")
    Y = np.linalg.inv(X).T
    return AlgMatrix(0.5 * (X + Y), 0.5 * (X - Y), 1.0)


def reps_eps_decompose(M, Q):
    """Split a dual-number matrix M = X + eY and test membership in the
    unitary group of Q: X^T Q X = Q and X^T Q Y symmetric, within 1e-8."""
    if M.delta != 0:
        raise DeltaMismatch("expected delta = 0")
    X, Y = M.re, M.im
    Qr = Q.re
    r1 = np.abs(X.T @ Qr @ X - Qr).max()
    S = X.T @ Qr @ Y
    r2 = np.abs(S - S.T).max()
    return X, Y, bool(r1 <= 1e-8 and r2 <= 1e-8)


def point_hyperplane_complete(phi, v):
    """Invertible X whose first column is v and whose inverse has first
    row phi; requires the pairing phi.v = 1.

    Follows the constructive recipe: complete v to an invertible matrix,
    express phi in the row basis of its inverse (the leading coefficient is
    forced to be 1), and correct by a unitriangular factor."""
    phi = np.asarray(phi, dtype=float)
    v = np.asarray(v, dtype=float)
    if abs(phi @ v - 1.0) > 1e-10:
        raise PairingNotOne("pairing is {}, need 1".format(phi @ v))
    n = len(v)
    j = int(np.argmax(np.abs(v)))
    cols = [v] + [np.eye(n)[:, k] for k in range(n) if k != j]
    Qm = np.column_stack(cols)
    alpha = Qm.T @ phi  # coordinates of phi in the row basis of Qm^-1
    Ainv = np.eye(n)
    Ainv[0, 1:] = -alpha[1:]
    return Qm @ Ainv


def pairing_coordinate_change(z_re, z_im):
    """From split-algebra coordinates x + lambda*y to dual-pairing
    coordinates (phi, v) = (x+y, x-y).

    The v side of the first n coordinates is negated so that the radius
    -1 sphere of the (n,1) Hermitian form maps onto the level set
    phi.v = 1."""
    x = np.asarray(z_re, dtype=float)
    y = np.asarray(z_im, dtype=float)
    v = x - y
    v[:-1] *= -1.0
    return x + y, v


def pairing_coordinate_change_inverse(phi, v):
    """Inverse of pairing_coordinate_change."""
    phi = np.asarray(phi, dtype=float)
    v = np.array(v, dtype=float)
    v[:-1] *= -1.0
    return 0.5 * (phi + v), 0.5 * (phi - v)


def submersion_rank_check(A, Q):
    """Finite-difference rank test of X -> dagger(X) Q X at A.

    Central differences of step 1e-6 along all 2n^2 real coordinate
    directions; true when the difference vectors span the n^2-dimensional
    space of Hermitian matrices over the algebra."""
    n = A.n
    h = 1e-6

    def f(M):
        H = dagger(M) @ Q @ M
        return np.concatenate([H.re.ravel(), H.im.ravel()])

    cols = []
    for part in ("re", "im"):
        for i in range(n):
            for j in range(n):
                E = np.zeros((n, n))
                E[i, j] = h
                if part == "re":
                    P = AlgMatrix(A.re + E, A.im, A.delta)
                    M_ = AlgMatrix(A.re - E, A.im, A.delta)
                else:
                    P = AlgMatrix(A.re, A.im + E, A.delta)
                    M_ = AlgMatrix(A.re, A.im - E, A.delta)
                cols.append((f(P) - f(M_)) / (2 * h))
    J = np.column_stack(cols)
    s = np.linalg.svd(J, compute_uv=False)
    rank = int(np.sum(s > 1e-6))
    return rank == n * n
