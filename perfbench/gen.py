"""Seeded input generators.

Every generator takes a ``random.Random`` and returns plain data: CLI
argument strings and JSON documents.  The program under test only ever
sees these generated inputs.  Values are small integers or dyadic
fractions, so the invariants the library checks (commuting generators,
antipodal vertices, a zero centroid) hold exactly in floating point.
"""

import math
import random
from fractions import Fraction


def stream(seed, name):
    """An independent random stream per (seed, purpose)."""
    return random.Random("{}:{}".format(seed, name))


def _nonzero(rng, lo, hi):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


# -- monomial paths -------------------------------------------------------

def _term(c, e):
    e = Fraction(e)
    if e == 0:
        return "{:g}".format(c)
    return "{:g}*t^{}".format(c, e)


def monomial_path(rng, n, blocks):
    """A diagonal path ``c_i t^(e_i)`` whose n exponents take ``blocks``
    distinct values in near-equal numbers, so that limits have blocks of
    more than one coordinate and the work depends on (n, blocks) only.
    Returns the path string and its (coefficient, exponent) entries."""
    exps = [Fraction(2), Fraction(1), Fraction(1, 2), Fraction(0)][:blocks]
    assign = [exps[i % blocks] for i in range(n)]
    rng.shuffle(assign)
    entries = [(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]) * rng.choice([1, -1]), e)
               for e in assign]
    return ",".join(_term(c, e) for c, e in entries), entries


def criterion_path(rng):
    """A three-entry conjugator path ``c1 t^2, c2 t, 1`` with positive
    coefficients: it meets ``regeneration.heisenberg_criterion``.  The
    exponents are fixed, as in the README job, because they set how fast
    the side pairings converge and so how long their output is."""
    c1 = rng.choice([1.0, 1.5, 2.0])
    c2 = rng.choice([1.0, 1.5, 2.0])
    return "{},{},1".format(_term(c1, 2), _term(c2, 1))


def form_and_conj(rng):
    """``limit --form J --conj C`` arguments for n = 3."""
    J = [rng.choice([1, -1]) * rng.choice([1, 2, 3]) for _ in range(3)]
    exps = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    C = [(rng.choice([1.0, 2.0]), rng.choice(exps)) for _ in range(3)]
    return ",".join(str(v) for v in J), ",".join(_term(c, e) for c, e in C)


# -- geometry -------------------------------------------------------------

def parallelogram(rng, radius=0.4):
    """Vertices v0, v1, -v0, -v1 in counter-clockwise order strictly
    inside the disk of the given radius (dyadic coordinates)."""
    th0 = rng.uniform(0.0, 2.0 * math.pi)
    th1 = th0 + rng.uniform(0.35 * math.pi, 0.65 * math.pi)
    v = []
    for th in (th0, th1):
        r = radius * rng.uniform(0.4, 0.95)
        v.append((round(r * math.cos(th) * 1024) / 1024,
                  round(r * math.sin(th) * 1024) / 1024))
    (a, b), (c, d) = v
    return [[a, b], [c, d], [-a, -b], [-c, -d]]


def regen_job(rng, kind):
    """A regen job file for a seeded parallelogram and conjugator path;
    the t grid is passed separately with ``--grid``."""
    return {"kind": kind, "D_path": criterion_path(rng),
            "vertices": parallelogram(rng)}


README_REGEN = {
    "kind": "hyperbolic",
    "D_path": "t^2,t,1",
    "vertices": [[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1]],
    "t_grid": [10, 100, 1000, 10000],
}


def _halves(rng, lo=-6, hi=6):
    return _nonzero(rng, lo, hi) / 2


def heis_rep(rng, klass="Holonomy"):
    """A commuting pair in log coordinates, of a known class.

    x and y are multiples of one integer direction d, so x1 y2 = x2 y1
    holds exactly.  Returns (document, (class, subtype))."""
    d = [_nonzero(rng, -3, 3), rng.randint(-3, 3)]
    perp = [-d[1], d[0]]
    a, b = _halves(rng), _halves(rng)
    c, e = _halves(rng), rng.randint(-4, 4) / 2
    z_free = [c * perp[0] + e * d[0], c * perp[1] + e * d[1]]
    if klass == "Central":
        doc = {"x": [0, 0], "y": [0, 0], "z": z_free}
        want = ("Central", None)
    elif klass == "NotFaithful":
        doc = {"x": [a * d[0], a * d[1]], "y": [b * d[0], b * d[1]],
               "z": [e * d[0], e * d[1]]}
        want = ("NotFaithful", None)
    elif klass == "FaithfulNotFree":
        doc = {"x": [a * d[0], a * d[1]], "y": [0, 0], "z": z_free}
        want = ("FaithfulNotFree", None)
    elif klass == "Translation":
        doc = {"x": [0, 0], "y": [b * d[0], b * d[1]], "z": z_free}
        want = ("Holonomy", "Translation")
    else:
        doc = {"x": [a * d[0], a * d[1]], "y": [b * d[0], b * d[1]],
               "z": z_free}
        want = ("Holonomy", "Shear")
    return doc, want


HEIS_CLASSES = ("Central", "NotFaithful", "FaithfulNotFree",
                "Translation", "Shear")


# -- algebra --------------------------------------------------------------

def scalar(rng, delta):
    """An invertible algebra element: |re| > |im| * sqrt(|delta|) + 1/4."""
    im = rng.randint(-8, 8) / 4
    re = (abs(im) * max(1.0, math.sqrt(abs(delta))) + rng.randint(1, 8) / 4) \
        * rng.choice([1, -1])
    return {"re": re, "im": im, "delta": delta}


def matrix_pair(rng, n, norm):
    """Seeded real coefficient grids (re, im) of an n x n algebra matrix,
    scaled so the real representation has the given Frobenius norm for
    delta = +-1 (the exponential then halves it a fixed number of times)."""
    re = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    im = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    s = math.sqrt(2.0 * sum(v * v for row in re + im for v in row))
    return ([[norm * v / s for v in row] for row in re],
            [[norm * v / s for v in row] for row in im])


def well_conditioned(rng, n):
    """Identity plus a small seeded perturbation: far from singular for
    every delta."""
    re, im = matrix_pair(rng, n, 0.6)
    for i in range(n):
        re[i][i] += 1.0
    return re, im
