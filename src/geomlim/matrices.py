"""Matrices over the lambda^2 = delta algebras.

An AlgMatrix keeps the two real coefficient grids (of 1 and of lambda)
as numpy arrays, so the involution-transpose, determinant, exponential,
the real 2n x 2n representation, and the unitary-group predicates are all
plain real linear algebra underneath.  The exponential works on the real
representation, where a product over the algebra is one real 2n x 2n
matrix product, and sums its Taylor polynomial by Paterson-Stockmeyer.
The Lie algebra of the (n,1) unitary group has the closed form
X = QS + lambda*QT with S skew and T symmetric, so its coefficient grids
do not depend on delta and are built once per size.  Grids the library
has just computed are wrapped as they are, without the copy and checks
of the public constructor.

Membership tests take a residual as zero when it is finite and at most
1e-9 (is_unitary's tol; 1e-10 for a pairing) times max(1, s), s the scale
its formula fixes in the largest entries |.|: |A|^2 |Q| for each grid of
dagger(A) Q A - Q, but |X|^2 |Q| and |X| |A| |Q| over the dual numbers
(A = X + lambda Y; lambda -> c lambda is an automorphism there), and |A|
for entries of A.
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


_TOL = 1e-9  # the tolerance of the rule in the module docstring


def _negligible(residual, scale, tol=_TOL):
    return math.isfinite(residual) and residual <= tol * max(1.0, scale)


class AlgMatrix:
    """Square matrix re + lambda*im with real coefficient grids re, im."""

    __slots__ = ("re", "im", "delta")

    def __init__(self, re, im=None, delta=0.0):
        self.re = np.array(re, dtype=float)
        if im is None:
            im = np.zeros_like(self.re)
        self.im = np.array(im, dtype=float)
        if self.re.shape != self.im.shape or self.re.ndim != 2 \
                or self.re.shape[0] != self.re.shape[1]:
            raise ShapeMismatch("need matching square grids")
        self.delta = float(delta)

    @classmethod
    def _wrap(cls, re, im, delta):
        """Wrap fresh square float grids of one shape, owned by no other
        matrix, without copying or checking them."""
        A = cls.__new__(cls)
        A.re, A.im, A.delta = re, im, float(delta)
        return A

    def __reduce__(self):  # pickle protocols 0 and 1 skip __slots__
        return AlgMatrix, (self.re, self.im, self.delta)

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
        return AlgMatrix._wrap(self.re + other.re, self.im + other.im,
                               self.delta)

    def __sub__(self, other):
        self._check(other)
        return AlgMatrix._wrap(self.re - other.re, self.im - other.im,
                               self.delta)

    def __matmul__(self, other):
        self._check(other)
        return AlgMatrix._wrap(
            self.re @ other.re + self.delta * (self.im @ other.im),
            self.re @ other.im + self.im @ other.re,
            self.delta,
        )

    def __mul__(self, s):
        s = float(s)
        return AlgMatrix._wrap(s * self.re, s * self.im, self.delta)

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
    return AlgMatrix._wrap(A.re.T.copy(), -A.im.T.copy(), A.delta)


def det(A):
    """Determinant with values in the algebra.

    Computed through the structure of the algebra: complex determinant for
    delta < 0, the two idempotent-component determinants for delta > 0, and
    for the dual numbers det(X + eY) = det X + e * sum_i det(X with column i
    replaced by the corresponding column of Y).  Those n + 1 determinants
    are one stacked LAPACK call; the sum runs left to right."""
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
    n = A.n
    M = np.repeat(A.re[None], n + 1, axis=0)  # M[0] = X
    i = np.arange(n)
    M[i + 1, :, i] = A.im.T  # column i of M[i + 1] is column i of Y
    base, *dets = np.linalg.det(M).tolist()
    deriv = 0.0
    for x in dets:  # not np.sum (pairwise) nor sum (compensated on 3.12+)
        deriv += x
    return AlgScalar(base, deriv, 0.0)


def inverse(A):
    """Matrix inverse over the algebra, via the real representation."""
    R = iota_delta(A)
    try:
        Rinv = np.linalg.inv(R)
    except np.linalg.LinAlgError as exc:
        raise Singular(str(exc)) from None
    return iota_delta_inverse(Rinv, A.delta)


# Paterson-Stockmeyer with s = 5 for the degree-14 Taylor polynomial:
# row q holds 1/(5q + r)! for r = 0..4, the weights of chunk q.
_PS_CHUNKS = np.array([[1.0 / math.factorial(5 * q + r) for r in range(5)]
                       for q in range(3)])


def exp_delta(X):
    """Matrix exponential by scaling-and-squaring on the real
    representation R = iota_delta(X), where one product over the algebra
    is one real 2n x 2n matrix product.

    Halves R until its Frobenius norm is at most 1/2, sums the degree-14
    Taylor polynomial of the halved Y by Paterson-Stockmeyer: with
    B_q = sum_r Y^r / (5q + r)! for r = 0..4, the polynomial is
    B_0 + Y^5 (B_1 + Y^5 B_2), six 2n x 2n products in all (the terms it
    drops sum to under 2.5e-17).  Then squares back up and reads the two
    grids out of the result (fresh copies, so they share no storage)."""
    R = iota_delta(X)
    nrm = np.linalg.norm(R)
    k = 0
    while nrm > 0.5:
        nrm /= 2.0
        k += 1
    m = len(R)
    P = np.empty((5, m, m))  # Y^0 .. Y^4
    P[0] = np.eye(m)
    np.multiply(R, 0.5 ** k, out=P[1])
    np.matmul(P[1], P[1], out=P[2])
    np.matmul(P[2], P[1], out=P[3])
    np.matmul(P[2], P[2], out=P[4])
    Y5 = P[4] @ P[1]
    B = (_PS_CHUNKS @ P.reshape(5, -1)).reshape(3, m, m)
    E = Y5 @ (Y5 @ B[2] + B[1]) + B[0]
    for _ in range(k):
        E = E @ E
    return iota_delta_inverse(E, X.delta)


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
    return AlgMatrix._wrap(R[0::2, 0::2].copy(), R[1::2, 0::2].copy(), delta)


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


def is_unitary(A, Q, tol=_TOL):
    """Does A preserve the form Q, dagger(A) Q A = Q, to relative tol?"""
    A._check(Q)
    R = dagger(A) @ Q @ A - Q
    a = A.max_abs()
    x = a if A.delta else np.abs(A.re).max()  # units mix grids if delta != 0
    return (_negligible(np.abs(R.re).max(), x * x * Q.max_abs(), tol)
            and _negligible(np.abs(R.im).max(), x * a * Q.max_abs(), tol))


def is_stabilizer(A, Q):
    """Is the Q-unitary A diag(B, u), u of unit norm (scales |A| and
    |u|^2), i.e. in the stabilizer of the last coordinate line?"""
    if not is_unitary(A, Q):
        raise NotUnitary("matrix does not preserve the form")
    n = A.n - 1
    G = np.abs(np.stack([A.re, A.im]))
    off = max(G[:, n, :n].max(initial=0.0), G[:, :n, n].max(initial=0.0))
    u = A.entry(n, n)
    return (_negligible(off, G.max())
            and _negligible(abs(algebra.norm(u) - 1.0), G[:, n, n].max() ** 2))


# _u_lie_blocks keeps the blocks of each n whose S and T blocks take at
# most this many bytes (8 (n+1)^4: n <= 8); larger ones, 830 MB at
# n = 100, are built per call and not retained.
U_LIE_CACHE_BYTES = 64 * 1024
_u_lie_cache = {}


def _u_lie_blocks(n):
    """The read-only grids q * (E_ij - E_ji) / sqrt(2) for i < j (S) and
    q * (E_ij + E_ji) / sqrt(2) for i < j, then q * E_ii (T), with
    Q = diag(q), as one (k, m, m) block per kind."""
    blocks = _u_lie_cache.get(n)
    if blocks is not None:
        return blocks
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
    blocks = q * (E - Et), q * np.concatenate([E + Et, D])
    for B in blocks:
        B.flags.writeable = False
    if sum(B.nbytes for B in blocks) <= U_LIE_CACHE_BYTES:
        _u_lie_cache[n] = blocks
    return blocks


def u_lie_basis(n, delta):
    """Orthonormal basis of the Lie algebra of the (n,1) unitary group
    over the algebra, Q = diag(I_n, -1).

    X = A + lambda*B solves dagger(X) Q + Q X = 0 exactly when QA is skew
    and QB is symmetric, i.e. X = QS + lambda*QT with S skew and T
    symmetric.  The basis is Q(E_ij - E_ji)/sqrt(2) for i < j, then
    lambda*Q(E_ij + E_ji)/sqrt(2) for i < j and lambda*Q E_ii: (n+1)^2
    elements, orthonormal in the 2(n+1)^2 real coordinates.  delta does
    not enter, so the coefficient grids are identical for every delta and
    are built once per n.  Each call fills two fresh ((n+1)^2, n+1, n+1)
    stacks, the 1-grids (the S blocks over zeros) and the lambda-grids
    (zeros over the T blocks), and element k takes the k-th grid of each;
    no two elements, and no two calls, share storage."""
    m = n + 1
    S, T = _u_lie_blocks(n)
    re = np.zeros((m * m, m, m))
    re[:len(S)] = S
    im = np.zeros((m * m, m, m))
    im[len(S):] = T
    # AlgMatrix._wrap written out: its call per element took about a
    # fifth of this function's time at n = 2..8
    delta, new, basis = float(delta), AlgMatrix.__new__, []
    for A, B in zip(re, im):
        X = new(AlgMatrix)
        X.re, X.im, X.delta = A, B, delta
        basis.append(X)
    return basis


def rr_to_unitary(X):
    """The split-algebra unitary matrix X e+ + X^-T e- of a real X of full
    numerical rank, unitary for the identity form."""
    X = np.array(X, dtype=float)
    if np.linalg.matrix_rank(X) < len(X):
        raise Singular("input not invertible")
    Y = np.linalg.inv(X).T
    return AlgMatrix(0.5 * (X + Y), 0.5 * (X - Y), 1.0)


def point_hyperplane_complete(phi, v):
    """Invertible X whose first column is v and whose inverse has first
    row phi; requires phi.v = 1 at the scale |phi|.|v| of the dot product.

    Follows the constructive recipe: complete v to an invertible matrix,
    express phi in the row basis of its inverse (the leading coefficient is
    forced to be 1), and correct by a unitriangular factor."""
    phi = np.asarray(phi, dtype=float)
    v = np.asarray(v, dtype=float)
    if not _negligible(abs(phi @ v - 1.0), np.abs(phi) @ np.abs(v), 1e-10):
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
