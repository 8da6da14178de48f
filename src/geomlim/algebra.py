"""Arithmetic for the two-dimensional real algebras with lambda^2 = delta.

Elements are a + lambda*b where lambda squares to a real parameter delta.
Negative delta gives (a copy of) the complex numbers, delta = 0 the dual
numbers, positive delta the split-complex numbers R+R.
"""

import math
import numbers


class DeltaMismatch(ValueError):
    """Raised when combining scalars from different algebras."""


class ZeroDivisor(ZeroDivisionError, ValueError):
    """Raised when inverting an element of zero norm."""


class NotSplit(ValueError):
    """Raised when idempotents are requested for delta <= 0."""


def kind(delta):
    """Classify the algebra by the sign of delta."""
    if delta < 0:
        return "complex"
    if delta == 0:
        return "dual"
    return "split"


class AlgScalar:
    """An element re + lambda*im of the algebra with lambda^2 = delta."""

    __slots__ = ("re", "im", "delta")
    # numpy operands defer to the methods below, so an array or np.bool_
    # on the left is refused as it is on the right
    __array_ufunc__ = None

    def __init__(self, re, im=0.0, delta=0.0):
        self.re = float(re)
        self.im = float(im)
        self.delta = float(delta)
        if not (math.isfinite(self.re) and math.isfinite(self.im)
                and math.isfinite(self.delta)):
            raise ValueError("scalar entries must be finite, got {!r}".format(
                self))

    def __repr__(self):
        return "AlgScalar({}, {}, delta={})".format(self.re, self.im, self.delta)

    def _check(self, other):
        if self.delta != other.delta:
            raise DeltaMismatch(
                "delta mismatch: {} vs {}".format(self.delta, other.delta))

    def _coerce(self, other):
        """other in this algebra: an AlgScalar of the same delta, or a
        real number (numbers.Real) as re + lambda*0."""
        if isinstance(other, AlgScalar):
            self._check(other)
            return other
        if isinstance(other, numbers.Real):
            return AlgScalar(other, 0.0, self.delta)
        raise TypeError("expected a scalar or AlgScalar")

    def __eq__(self, other):
        if isinstance(other, AlgScalar) and other.delta != self.delta:
            return False
        if not isinstance(other, (AlgScalar, numbers.Real)):
            return NotImplemented
        other = self._coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im, self.delta))

    def __add__(self, other):
        other = self._coerce(other)
        return AlgScalar(self.re + other.re, self.im + other.im, self.delta)

    __radd__ = __add__

    def __neg__(self):
        return AlgScalar(-self.re, -self.im, self.delta)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + self._coerce(other)

    def __mul__(self, other):
        return mul(self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, inv(self._coerce(other)))


def mul(x, y):
    """Product in the algebra: lambda^2 contributes delta."""
    if x.delta != y.delta:
        raise DeltaMismatch("delta mismatch: {} vs {}".format(x.delta, y.delta))
    return AlgScalar(
        x.re * y.re + x.delta * x.im * y.im,
        x.re * y.im + x.im * y.re,
        x.delta,
    )


def conj(x):
    """Conjugation a + lambda*b -> a - lambda*b."""
    return AlgScalar(x.re, -x.im, x.delta)


def norm(x):
    """The multiplicative norm a^2 - delta*b^2 (real valued)."""
    return x.re * x.re - x.delta * x.im * x.im


def tau_zero(x):
    """Scale-aware zero-divisor tolerance for x."""
    return 1e-12 * (1.0 + abs(x.re) + abs(x.im))


def is_zero_divisor(x):
    """True when x has (numerically) zero norm, i.e. no inverse."""
    return abs(norm(x)) <= tau_zero(x)


def inv(x):
    """Inverse conj(x)/norm(x); raises ZeroDivisor on zero-norm elements."""
    n = norm(x)
    if abs(n) <= tau_zero(x):
        raise ZeroDivisor("element of zero norm: {!r}".format(x))
    return AlgScalar(x.re / n, -x.im / n, x.delta)


def idempotents(delta):
    """The pair of nontrivial idempotents (1 +- lambda/sqrt(delta))/2.

    Only the split algebras (finite delta > 0) have them."""
    if not 0 < delta < math.inf:
        raise NotSplit("no nontrivial idempotents for delta = {}".format(delta))
    s = 0.5 / math.sqrt(delta)
    return (AlgScalar(0.5, s, delta), AlgScalar(0.5, -s, delta))


def one(delta):
    """The multiplicative identity of the algebra."""
    return AlgScalar(1.0, 0.0, delta)


def lam(delta):
    """The generator lambda, with lambda^2 = delta."""
    return AlgScalar(0.0, 1.0, delta)
