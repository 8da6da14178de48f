"""Representations of Z^2 into the identity component of the Heisenberg
group, in Lie-algebra coordinates.

A representation is stored as three 2-vectors (x, y, z): the generator
images have logs [[0, x_i, z_i], [0, 0, y_i], [0, 0, 0]].  The group acts
on the affine plane by (u, v) -> (u + a v + c, v + b).

Classification and canonical coordinates share one reduction,
``_reduced``: x and y scaled by a power of two, z at its own scale, and
w, the part of z off the line of x and y, which conjugation leaves
fixed.  ``classify`` reads the class off it, ``normalize`` and
``teichmuller_coords`` scale it to the unit sphere, and
``classify_canonical`` does both after one commutation test and one
reduction.  Power-of-two scaling is exact, so it runs on Python floats;
the dot products stay numpy's."""

import math

import numpy as np


class NotIdentityComponent(ValueError):
    pass


class CentralRep(ValueError):
    pass


class NotARepresentation(ValueError):
    pass


class NotHolonomy(ValueError):
    pass


class HeisRep:
    """A pair of commuting Heisenberg elements in log coordinates."""

    def __init__(self, x, y, z):
        self.x = np.array(x, dtype=float)
        self.y = np.array(y, dtype=float)
        self.z = np.array(z, dtype=float)
        for v in (self.x, self.y, self.z):
            if v.shape != (2,) or not all(map(math.isfinite, v.tolist())):
                raise ValueError("coordinates must be finite 2-vectors")

    def __repr__(self):
        return "HeisRep(x={}, y={}, z={})".format(
            tuple(self.x), tuple(self.y), tuple(self.z))

    def bracket(self):
        """x1 y2 - x2 y1, computed without overflow in its products; a
        bracket past the float range is inf."""
        b, _, k = _scaled_bracket(self)
        with np.errstate(over="ignore"):
            return np.ldexp(b, -k)

    def generator(self, i):
        return heis_exp(self.x[i], self.y[i], self.z[i])


def heis_exp(x, y, z):
    """Exponential of [[0,x,z],[0,0,y],[0,0,0]]; the series stops at
    degree two."""
    return np.array([[1.0, x, z + 0.5 * x * y],
                     [0.0, 1.0, y],
                     [0.0, 0.0, 1.0]])


def heis_log(g):
    """Inverse of heis_exp on the identity component."""
    g = np.asarray(g, dtype=float)
    tol = 1e-12 * max(1.0, np.abs(g).max())
    if not np.allclose(np.diag(g), 1.0) or np.abs(np.tril(g, -1)).max() > tol:
        raise NotIdentityComponent("not unipotent upper triangular")
    x, y = g[0, 1], g[1, 2]
    return (x, y, g[0, 2] - 0.5 * x * y)


def _scaled_bracket(r):
    """x1 y2 - x2 y1 for x and y each scaled by a power of two to a largest
    entry in [1/2, 1), 2^-a x and 2^-b y, the product of those largest
    entries, and k = -a - b: the bracket is 2^k times that of r, and no
    product overflows.  Scaling each vector on its own keeps a small y
    from underflowing against a large x or z.  The scaling is exact, so
    it runs on Python floats."""
    (x0, x1), (y0, y1) = r.x.tolist(), r.y.tolist()
    mx, a = math.frexp(max(abs(x0), abs(x1)))
    my, b = math.frexp(max(abs(y0), abs(y1)))
    x0, x1 = math.ldexp(x0, -a), math.ldexp(x1, -a)
    y0, y1 = math.ldexp(y0, -b), math.ldexp(y1, -b)
    return x0 * y1 - x1 * y0, mx * my, -a - b


def is_representation(r):
    """The two generator images commute iff x1 y2 = x2 y1: the scaled
    bracket is at most 1e-10 |x| |y|, so c r gets the answer of r."""
    b, size, _ = _scaled_bracket(r)
    return abs(b) <= 1e-10 * size


def conjugate_rep(r, g, h):
    """Conjugation moves only the z-part: z -> z + g*y - h*x."""
    return HeisRep(r.x, r.y, r.z + g * r.y - h * r.x)


def outer_flip(r):
    """The outer automorphism diag(-1,-1,1): (x, y, z) -> (x, -y, -z)."""
    return HeisRep(r.x, -r.y, -r.z)


def _ldexp(v, e):
    """v 2^e, or an infinity of v's sign past the float range."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(math.inf, v)


def _reduced(r):
    """(x, y, z, w, s2), pairs of Python floats and a float: x and y
    scaled by one power of two to a largest entry in [1/2, 1), z scaled
    alike, w the part of z off the line of x and y, and s2 = ||x||^2 +
    ||y||^2.  Conjugation moves z along that line only (x and y are
    parallel), so every conjugate of r has the w of r.  Scaling x, y and
    z each on its own keeps the products from overflowing or
    underflowing; a z or w past the float range is inf.  The scaling is
    exact and runs on floats; the dot products are numpy's, whose
    rounding (a fused multiply-add) plain float arithmetic does not
    repeat."""
    (x0, x1), (y0, y1), (z0, z1) = r.x.tolist(), r.y.tolist(), r.z.tolist()
    m = max(abs(x0), abs(x1), abs(y0), abs(y1))
    k = math.frexp(m)[1]
    x, y = np.ldexp(r.x, -k), np.ldexp(r.y, -k)
    xx, yy = float(x @ x), float(y @ y)
    j = math.frexp(max(abs(z0), abs(z1)))[1]
    z = np.ldexp(r.z, -j)
    w0, w1 = z0, z1 = z.tolist()
    if m:  # d, the longer of x and y, is zero only when both are
        d, dd = (y, yy) if yy >= xx else (x, xx)
        c = float(z @ d) / dd
        d0, d1 = d.tolist()
        w0, w1 = z0 - c * d0, z1 - c * d1
    e = j - k
    return (x.tolist(), y.tolist(), (_ldexp(z0, e), _ldexp(z1, e)),
            (_ldexp(w0, e), _ldexp(w1, e)), xx + yy)


def _unit(red, canonical=False):
    """The rep of a reduction scaled to ||x||^2 + ||y||^2 = 1, z replaced
    by w; with canonical, flipped by outer_flip when the new y is
    lexicographically negative."""
    (x0, x1), (y0, y1), _, (w0, w1), s2 = red
    if s2 == 0:
        raise CentralRep("central representation has no normalization")
    s = 1.0 / math.sqrt(s2)
    y0, y1, w0, w1 = s * y0, s * y1, s * w0, s * w1
    if canonical and (y0 < 0 or (y0 == 0 and y1 < 0)):
        y0, y1, w0, w1 = -y0, -y1, -w0, -w1
    return HeisRep([s * x0, s * x1], [y0, y1], [w0, w1])


def normalize(r):
    """Scale to unit ||x||^2 + ||y||^2 = 1 and conjugate the z-part
    perpendicular to the (parallel) x and y directions."""
    return _unit(_reduced(r))


def _classified(r):
    """classify(r) and the reduction it was read from."""
    if not is_representation(r):
        raise NotARepresentation("generators do not commute")
    red = _reduced(r)
    x, y, z, w = (max(abs(a), abs(b)) for a, b in red[:4])
    sc = max(x, y, w)
    if x <= 1e-12 * sc and y <= 1e-12 * sc:
        return "Central", None, red
    if w <= 1e-10 * max(x, y, z):
        return "NotFaithful", None, red
    if y <= 1e-12 * sc:
        return "FaithfulNotFree", None, red
    if x <= 1e-12 * sc:
        return "Holonomy", "Translation", red
    return "Holonomy", "Shear", red


def classify(r):
    """Sort a representation into its conjugation-invariant class.

    Central: x = y = 0.  NotFaithful: the 2x3 coordinate matrix has rank
    below 2, that is, z lies on the line of x and y.  FaithfulNotFree:
    faithful but y = 0.  Otherwise Holonomy, split into Translation
    (x = 0) and Shear.  The zero tests of x and y are relative to the
    largest of x, y and w, the part of z off their line, which
    conjugation leaves fixed.  w is zero when it is at most 1e-10 times
    the largest of x, y and z: conjugation by (g, h) rounds z by a few
    eps (|g y| + |h x|), so a NotFaithful rep stays NotFaithful unless
    g y and h x cancel to about 1e-5 of their size, and a faithful rep
    keeps its class while |g y - h x| stays below about 1e10 |w|.  c r
    has the class of r."""
    tag, sub, _ = _classified(r)
    return (tag, sub)


def classify_canonical(r):
    """(class, subtype, canonical): classify(r) and, for a holonomy,
    teichmuller_coords(r), else None, from one commutation test and one
    reduction."""
    tag, sub, red = _classified(r)
    return tag, sub, _unit(red, True) if tag == "Holonomy" else None


def developing_map(r, u, v):
    """Develop the point (u, v): apply the u-th and v-th real powers of
    the generator images to the affine origin.  u and v may be scalars,
    giving a pair (fx, fy), or arrays of one shape, giving a pair of
    arrays; the representation is classified once per call.  Points must
    be finite, and so must their images."""
    tag, _ = classify(r)
    if tag != "Holonomy":
        raise NotHolonomy("developing map needs a holonomy representation")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("points must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        # heis_exp(u gen0) @ heis_exp(v gen1) @ e3; its last coordinate is 1
        x, y, z = u * r.x[0], u * r.y[0], u * r.z[0]
        X, Y, Z = v * r.x[1], v * r.y[1], v * r.z[1]
        fx = (Z + 0.5 * X * Y) + x * Y + (z + 0.5 * x * y)
        fy = Y + y
    if not (np.isfinite(fx).all() and np.isfinite(fy).all()):
        raise ValueError("developed points leave the float range")
    return (fx, fy)


def teichmuller_coords(r):
    """Canonical representative: normalize, then use the outer flip to
    make the y-vector lexicographically non-negative."""
    tag, _, red = _classified(r)
    if tag != "Holonomy":
        raise NotHolonomy("canonical coordinates need a holonomy rep")
    return _unit(red, True)
