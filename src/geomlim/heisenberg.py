"""Representations of Z^2 into the identity component of the Heisenberg
group, in Lie-algebra coordinates.

A representation is stored as three 2-vectors (x, y, z): the generator
images have logs [[0, x_i, z_i], [0, 0, y_i], [0, 0, 0]].  The group acts
on the affine plane by (u, v) -> (u + a v + c, v + b)."""

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
            if v.shape != (2,) or not np.isfinite(v).all():
                raise ValueError("coordinates must be finite 2-vectors")

    def __repr__(self):
        return "HeisRep(x={}, y={}, z={})".format(
            tuple(self.x), tuple(self.y), tuple(self.z))

    def bracket(self):
        """x1 y2 - x2 y1, computed without overflow in its products; a
        bracket past the float range is inf."""
        b, k = _scaled_bracket(self)
        with np.errstate(over="ignore"):
            return np.ldexp(b, -k)

    def scale(self):
        return max(np.abs(np.concatenate([self.x, self.y, self.z])).max(), 1.0)

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
    """x1 y2 - x2 y1 for x and y each scaled down by a power of two to
    entries below 1, 2^a x and 2^b y, and k = a + b: no product
    overflows, and the result is 2^k times the bracket.  Scaling each
    vector on its own keeps a small y from underflowing against a large
    x or z."""
    a, b = (min(0, -np.frexp(np.abs(v).max())[1]) for v in (r.x, r.y))
    x, y = np.ldexp(r.x, a), np.ldexp(r.y, b)
    return x[0] * y[1] - x[1] * y[0], a + b


def is_representation(r):
    """The two generator images commute iff x1 y2 = x2 y1, within 1e-10
    times the scale; the bound is scaled by 2^k, as the bracket is."""
    b, k = _scaled_bracket(r)
    return abs(b) <= np.ldexp(1e-10 * r.scale(), k)


def conjugate_rep(r, g, h):
    """Conjugation moves only the z-part: z -> z + g*y - h*x."""
    return HeisRep(r.x, r.y, r.z + g * r.y - h * r.x)


def outer_flip(r):
    """The outer automorphism diag(-1,-1,1): (x, y, z) -> (x, -y, -z)."""
    return HeisRep(r.x, -r.y, -r.z)


def normalize(r):
    """Scale to unit ||x||^2 + ||y||^2 = 1 and conjugate the z-part
    perpendicular to the (parallel) x and y directions."""
    s2 = r.x @ r.x + r.y @ r.y
    if s2 == 0:
        raise CentralRep("central representation has no normalization")
    s = 1.0 / np.sqrt(s2)
    x, y, z = s * r.x, s * r.y, s * r.z
    if y @ y >= x @ x:
        g = -(z @ y) / (y @ y)
        z = z + g * y
    else:
        h = (z @ x) / (x @ x)
        z = z - h * x
    return HeisRep(x, y, z)


def classify(r):
    """Sort a representation into its conjugation-invariant class.

    Central: x = y = 0.  NotFaithful: the 2x3 coordinate matrix has rank
    below 2.  FaithfulNotFree: faithful but y = 0.  Otherwise Holonomy,
    split into Translation (x = 0) and Shear."""
    if not is_representation(r):
        raise NotARepresentation("generators do not commute")
    sc = r.scale()
    if np.abs(r.x).max() <= 1e-12 * sc and np.abs(r.y).max() <= 1e-12 * sc:
        return ("Central", None)
    M = np.array([[r.x[0], r.y[0], r.z[0]],
                  [r.x[1], r.y[1], r.z[1]]])
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[1] <= 1e-10 * (sv[0] + 1.0):
        return ("NotFaithful", None)
    if np.abs(r.y).max() <= 1e-12 * sc:
        return ("FaithfulNotFree", None)
    if np.abs(r.x).max() <= 1e-12 * sc:
        return ("Holonomy", "Translation")
    return ("Holonomy", "Shear")


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
    tag, _ = classify(r)
    if tag != "Holonomy":
        raise NotHolonomy("canonical coordinates need a holonomy rep")
    r = normalize(r)
    y = r.y
    if y[0] < 0 or (y[0] == 0 and y[1] < 0):
        r = outer_flip(r)
    return r
