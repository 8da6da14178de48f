"""Classification and canonical coordinates as numpy calls on 2-vectors:
the code geomlim.heisenberg's one-pass classification replaced, with
``classify`` and ``teichmuller_coords`` each testing commutation and
reducing on their own.  Kept as the reference the library must match
byte for byte.  Test code, imported by the suites as ``heis_reference``."""

import numpy as np

from geomlim.heisenberg import (
    CentralRep, HeisRep, NotARepresentation, NotHolonomy, outer_flip)


def scaled_bracket(r):
    (mx, a), (my, b) = (np.frexp(np.abs(v).max()) for v in (r.x, r.y))
    x, y = np.ldexp(r.x, -a), np.ldexp(r.y, -b)
    return x[0] * y[1] - x[1] * y[0], mx * my, -a - b


def is_representation(r):
    b, size, _ = scaled_bracket(r)
    return abs(b) <= 1e-10 * size


def reduced(r):
    k = np.frexp(max(np.abs(r.x).max(), np.abs(r.y).max()))[1]
    x, y = np.ldexp(r.x, -k), np.ldexp(r.y, -k)
    d = y if y @ y >= x @ x else x
    j = np.frexp(np.abs(r.z).max())[1]
    z = w = np.ldexp(r.z, -j)
    if d.any():
        w = z - (z @ d) / (d @ d) * d
    with np.errstate(over="ignore"):
        return x, y, np.ldexp(z, j - k), np.ldexp(w, j - k)


def normalize(r):
    x, y, _, w = reduced(r)
    s2 = x @ x + y @ y
    if s2 == 0:
        raise CentralRep("central representation has no normalization")
    s = 1.0 / np.sqrt(s2)
    return HeisRep(s * x, s * y, s * w)


def classify(r):
    if not is_representation(r):
        raise NotARepresentation("generators do not commute")
    x, y, z, w = (np.abs(v).max() for v in reduced(r))
    sc = max(x, y, w)
    if x <= 1e-12 * sc and y <= 1e-12 * sc:
        return ("Central", None)
    if w <= 1e-10 * max(x, y, z):
        return ("NotFaithful", None)
    if y <= 1e-12 * sc:
        return ("FaithfulNotFree", None)
    if x <= 1e-12 * sc:
        return ("Holonomy", "Translation")
    return ("Holonomy", "Shear")


def teichmuller_coords(r):
    tag, _ = classify(r)
    if tag != "Holonomy":
        raise NotHolonomy("canonical coordinates need a holonomy rep")
    r = normalize(r)
    y = r.y
    if y[0] < 0 or (y[0] == 0 and y[1] < 0):
        r = outer_flip(r)
    return r
