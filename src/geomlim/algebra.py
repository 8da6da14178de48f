"""Arithmetic for the two-dimensional real algebras with lambda^2 = delta.

Elements are a + lambda*b where lambda squares to a real parameter delta.
Negative delta gives (a copy of) the complex numbers, delta = 0 the dual
numbers, positive delta the split-complex numbers R+R.  An AlgScalar has
no operators: mul, conj, norm and inv combine scalars, and two scalars
are equal when their (re, im, delta) are.

x is a zero divisor when |norm(x)| <= 1e-12 (|a| + |b|)^2, or its inverse
is past the float range: the test is of degree 2, as the norm is, so x
and c x get one answer.  It is made on x scaled by a power of two, so
neither the norm nor the tolerance over- or underflows.
"""

import math


class DeltaMismatch(ValueError):
    """Raised when combining scalars from different algebras."""


class ZeroDivisor(ZeroDivisionError, ValueError):
    """Raised when inverting an element that has no inverse."""


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

    def __init__(self, re, im=0.0, delta=0.0):
        self.re = float(re)
        self.im = float(im)
        self.delta = float(delta)
        if not (math.isfinite(self.re) and math.isfinite(self.im)
                and math.isfinite(self.delta)):
            raise ValueError("scalar entries must be finite, got {!r}".format(
                self))

    def __reduce__(self):  # pickle protocols 0 and 1 skip __slots__
        return AlgScalar, (self.re, self.im, self.delta)

    def __repr__(self):
        return "AlgScalar({}, {}, delta={})".format(self.re, self.im, self.delta)

    def __eq__(self, other):
        if not isinstance(other, AlgScalar):
            return NotImplemented
        return (self.re, self.im, self.delta) == (other.re, other.im,
                                                  other.delta)

    def __hash__(self):
        return hash((self.re, self.im, self.delta))


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


def is_zero_divisor(x):
    """True when x has no inverse (see inv)."""
    try:
        inv(x)
    except ZeroDivisor:
        return True
    return False


def inv(x):
    """Inverse conj(x)/norm(x), of x scaled by 2^-k (k the binary
    exponent of its larger component, so no digit changes) and scaled
    back; raises ZeroDivisor when x is a zero divisor."""
    k = math.frexp(max(abs(x.re), abs(x.im)))[1]
    a, b = math.ldexp(x.re, -k), math.ldexp(x.im, -k)
    n = a * a - x.delta * b * b
    s = abs(a) + abs(b)
    if abs(n) <= 1e-12 * s * s:
        raise ZeroDivisor("element of zero norm: {!r}".format(x))
    try:
        return AlgScalar(math.ldexp(a / n, -k), math.ldexp(-b / n, -k),
                         x.delta)
    except OverflowError:
        raise ZeroDivisor(
            "inverse of {!r} is past the float range".format(x)) from None


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
