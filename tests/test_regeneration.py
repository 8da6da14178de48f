import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geomlim import regeneration as regen
from geomlim.limits import MonomialDiagonal
from geomlim.regeneration import ModelParam, Parallelogram

import lemmas
import regen_reference

rng = np.random.default_rng(3321)


def heis_path():
    return MonomialDiagonal([(1.0, Fraction(2)), (1.0, Fraction(1)),
                             (1.0, Fraction(0))])


def test_model_param_validation():
    with pytest.raises(ValueError):
        ModelParam("elliptic")
    with pytest.raises(ValueError):
        ModelParam("sphere", (1.0, -1.0, 1.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ModelParam("sphere", (bad, 1.0, 1.0))
    # a stack of conjugators is checked entry by entry
    assert ModelParam("sphere", np.ones((4, 3))).D.shape == (4, 3)
    for bad in ([(1.0, 1.0, 1.0), (1.0, 0.0, 1.0)], np.ones((3, 2)), 1.0):
        with pytest.raises(ValueError):
            ModelParam("sphere", bad)


@pytest.mark.parametrize("kind", regen.KINDS)
def test_distance_axioms(kind):
    m = ModelParam(kind, (2.0, 1.5, 1.0))
    for _ in range(20):
        p, q, r = rng.uniform(-0.3, 0.3, size=(3, 2))
        dpq = regen.model_distance(m, p, q)
        assert dpq >= 0
        assert abs(dpq - regen.model_distance(m, q, p)) <= 1e-12
        assert regen.model_distance(m, p, p) <= 1e-7
        assert dpq <= regen.model_distance(m, p, r) \
            + regen.model_distance(m, r, q) + 1e-12


def test_euclidean_distance_is_scaled_norm():
    m = ModelParam("euclidean", (2.0, 4.0, 1.0))
    p, q = np.array([1.0, 1.0]), np.array([3.0, 2.0])
    assert np.isclose(regen.model_distance(m, p, q),
                      np.hypot(1.0, 0.25))


def test_hyperbolic_domain():
    m = ModelParam("hyperbolic")
    with pytest.raises(regen.OutsideDomain):
        regen.model_distance(m, [0.0, 0.0], [1.5, 0.0])


@pytest.mark.parametrize("kind", regen.KINDS)
def test_geodesic_midpoint(kind):
    m = ModelParam(kind, (3.0, 2.0, 1.0))
    p, q = np.array([0.2, -0.1]), np.array([-0.15, 0.25])
    mid = regen.geodesic_midpoint(m, p, q)
    d1 = regen.model_distance(m, p, mid)
    d2 = regen.model_distance(m, mid, q)
    assert abs(d1 - d2) <= 1e-9
    # midpoint lies on the segment
    t = (mid - p) @ (q - p) / ((q - p) @ (q - p))
    assert np.allclose(mid, p + t * (q - p))


def _mp_distance(mp, m, p, q):
    """Model distance at the working precision of mpmath."""
    a = [mp.mpf(float(x)) / mp.mpf(float(d)) for x, d in zip(p, m.D[:2])]
    b = [mp.mpf(float(x)) / mp.mpf(float(d)) for x, d in zip(q, m.D[:2])]
    ab = a[0] * b[0] + a[1] * b[1]
    aa = a[0] ** 2 + a[1] ** 2
    bb = b[0] ** 2 + b[1] ** 2
    if m.kind == "hyperbolic":
        return mp.acosh((1 - ab) / mp.sqrt((1 - aa) * (1 - bb)))
    return mp.acos((1 + ab) / mp.sqrt((1 + aa) * (1 + bb)))


@pytest.mark.parametrize("kind", ["hyperbolic", "sphere"])
@pytest.mark.parametrize("t", [10.0, 1e4, 1e6])
def test_midpoint_equidistant_at_large_t(kind, t):
    # the README square shrinks to ~1e-13 in the model at t = 1e6
    mp = pytest.importorskip("mpmath")
    m = ModelParam(kind, (t * t, t, 1.0))
    Q = Parallelogram([(0.1, 0.0), (0.0, 0.1), (-0.1, 0.0), (0.0, -0.1)])
    with mp.workdps(50):
        for p, q in Q.sides():
            mid = regen.geodesic_midpoint(m, p, q)
            d1 = _mp_distance(mp, m, p, mid)
            d2 = _mp_distance(mp, m, mid, q)
            assert abs(d1 - d2) <= 1e-12 * (d1 + d2)


def test_euclidean_midpoint_is_average():
    m = ModelParam("euclidean", (3.0, 2.0, 1.0))
    p, q = np.array([0.2, -0.1]), np.array([-0.15, 0.25])
    assert np.array_equal(regen.geodesic_midpoint(m, p, q), 0.5 * (p + q))


def test_midpoint_outside_disk():
    m = ModelParam("hyperbolic")
    with pytest.raises(regen.OutsideDomain):
        regen.geodesic_midpoint(m, [0.0, 0.0], [1.5, 0.0])


def test_parallelogram_validation():
    with pytest.raises(ValueError):
        Parallelogram([(0, 0), (1, 0), (1, 1), (0, 1)])  # centroid off
    with pytest.raises(ValueError):
        Parallelogram([(1, 0), (0, 1), (-1, 0.5), (0, -1.5)])
    with pytest.raises(ValueError):
        Parallelogram([(1, 0), (2, 0), (-1, 0), (-2, 0)])  # collinear
    sq = Parallelogram.square(0.2)
    assert np.allclose(sq.vertices.sum(axis=0), 0)


@pytest.mark.parametrize("kind", regen.KINDS)
def test_side_pairing_maps_sides(kind):
    m = ModelParam(kind, (2.0, 1.2, 1.0))
    Q = Parallelogram([(0.1, 0.02), (-0.02, 0.1), (-0.1, -0.02), (0.02, -0.1)])
    A, B = regen.side_pairing(m, Q)
    V = Q.vertices

    def apply(M, p):
        w = M @ np.array([p[0], p[1], 1.0])
        return w[:2] / w[2]

    assert np.allclose(apply(A, V[0]), V[3], atol=1e-9)
    assert np.allclose(apply(A, V[1]), V[2], atol=1e-9)
    assert np.allclose(apply(B, V[1]), V[0], atol=1e-9)
    assert np.allclose(apply(B, V[2]), V[3], atol=1e-9)


@pytest.mark.parametrize("kind", ["hyperbolic", "sphere"])
def test_side_pairing_preserves_form(kind):
    m = ModelParam(kind, (2.0, 1.2, 1.0))
    Q = Parallelogram.square(0.15)
    A, B = regen.side_pairing(m, Q)
    F = m.form()
    assert np.abs(A.T @ F @ A - F).max() <= 1e-12
    assert np.abs(B.T @ F @ B - F).max() <= 1e-12


SHAPES = {
    "square": [(-0.05, -0.05), (0.05, -0.05), (0.05, 0.05), (-0.05, 0.05)],
    "diamond": [(0.1, 0.0), (0.0, 0.1), (-0.1, 0.0), (0.0, -0.1)],
    "skew": [(-0.3, -0.2), (0.1, -0.25), (0.3, 0.2), (-0.1, 0.25)],
}


@pytest.mark.parametrize("kind", ["hyperbolic", "sphere"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("t", [10.0, 1e3, 1e6])
def test_side_pairing_oracle_at_large_t(kind, shape, t):
    # The defining property at 50 digits: A carries (v1, v2) to (v4, v3)
    # and B carries (v2, v3) to (v1, v4), as isometries of the model.
    # At t = 1e6 the square's side is ~1e-13 in the model.
    mp = pytest.importorskip("mpmath")
    m = ModelParam(kind, (t * t, t, 1.0))
    Q = Parallelogram(SHAPES[shape])
    A, B = regen.side_pairing(m, Q)
    V = [[mp.mpf(float(x)) for x in v] for v in Q.vertices]
    with mp.workdps(50):
        D = [mp.mpf(float(d)) for d in m.D]
        form = mp.diag([1, 1, -1 if kind == "hyperbolic" else 1])
        for M, pairs in ((A, ((0, 3), (1, 2))), (B, ((1, 0), (2, 3)))):
            M = mp.matrix([[mp.mpf(float(x)) for x in row] for row in M])
            for i, j in pairs:
                w = M * mp.matrix([V[i][0], V[i][1], 1])
                err = mp.hypot(w[0] / w[2] - V[j][0], w[1] / w[2] - V[j][1])
                assert err <= 1e-12 * mp.hypot(*V[j])
            # the model isometry D^-1 M D, scaled to determinant 1
            G = mp.diag([1 / d for d in D]) * M * mp.diag(D)
            G = G / mp.cbrt(mp.det(G))
            assert mp.mnorm(G.T * form * G - form, 1) <= 1e-12


@settings(deadline=None)
@given(ra=st.floats(min_value=1e-2, max_value=0.9),
       rb=st.floats(min_value=1e-2, max_value=0.9),
       alpha=st.floats(min_value=0.0, max_value=2 * np.pi),
       beta=st.floats(min_value=1e-3, max_value=2 * np.pi - 1e-3),
       kind=st.sampled_from(regen.KINDS),
       t=st.sampled_from([1.0, 10.0, 1e3, 1e6]))
def test_side_pairing_random_parallelograms(ra, rb, alpha, beta, kind, t):
    # (a, b, -a, -b) is centrally symmetric for every a, b not collinear
    assume(abs(np.sin(beta)) >= 1e-4)
    a = ra * np.array([np.cos(alpha), np.sin(alpha)])
    b = rb * np.array([np.cos(alpha + beta), np.sin(alpha + beta)])
    Q = Parallelogram([a, b, -a, -b])
    A, B = regen.side_pairing(ModelParam(kind, (t * t, t, 1.0)), Q)
    V = Q.vertices
    for M, pairs in ((A, ((0, 3), (1, 2))), (B, ((1, 0), (2, 3)))):
        for i, j in pairs:
            w = M @ np.array([V[i][0], V[i][1], 1.0])
            err = np.hypot(*(w[:2] / w[2] - V[j]))
            assert err <= 1e-12 * np.hypot(*V[j])
        # after the half-turn H about the origin is undone, what is left
        # is the half-turn about a side's midpoint
        N = np.diag([-1.0, -1.0, 1.0]) @ M
        assert np.abs(N @ N - np.eye(3)).max() \
            <= 1e-12 * max(1.0, np.abs(N).max()) ** 2


def test_side_pairing_outside_domain():
    m = ModelParam("hyperbolic")
    with pytest.raises(regen.OutsideDomain):
        regen.side_pairing(m, Parallelogram.square(3.0))


def test_projective_normalize():
    M = np.array([[1.0, 0.3, 0.2], [0, 1.0, -0.1], [0, 0, 1.0]])
    assert np.array_equal(regen.projective_normalize(2.0 * M), M)


def test_heisenberg_criterion():
    assert regen.heisenberg_criterion(heis_path())
    bad = MonomialDiagonal([(1.0, 1), (1.0, 2), (1.0, 0)])
    assert not regen.heisenberg_criterion(bad)
    scaled = MonomialDiagonal([(1.0, 2), (1.0, 1), (2.0, 0)])
    assert not regen.heisenberg_criterion(scaled)


def test_axis_translation_preserves_form():
    for kind, sigma in (("hyperbolic", -1.0), ("sphere", 1.0)):
        A = lemmas.axis_translation(kind, 0.4)
        F = np.diag([1.0, 1.0, sigma])
        assert np.abs(A.T @ F @ A - F).max() <= 1e-12


def test_regenerate_trace_converges():
    trace = regen.regenerate_trace("hyperbolic", heis_path(),
                                   Parallelogram.square(0.2),
                                   [10.0, 100.0, 1000.0])
    res = [s["commutator_residual"] for s in trace["samples"]]
    assert res == sorted(res, reverse=True)
    assert trace["limit_in_heis"]
    for s in trace["samples"]:
        assert s["form_residual"] <= 1e-12


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_euclidean_form_residual_is_of_the_dual_form(shape):
    # Euclidean pairings preserve D diag(1, 1, 0) D as A J A^T = J
    trace = regen.regenerate_trace("euclidean", heis_path(),
                                   Parallelogram(SHAPES[shape]),
                                   [1.0, 10.0, 1e3, 1e6])
    for s in trace["samples"]:
        assert s["form_residual"] <= 1e-12


def test_regenerate_trace_rejects_bad_paths():
    flat = MonomialDiagonal([(1.0, 0), (1.0, 0), (1.0, 0)])
    with pytest.raises(ValueError):
        regen.regenerate_trace("hyperbolic", flat,
                               Parallelogram.square(0.2), [10.0])
    # the euclidean fiber has no divergence requirement
    out = regen.regenerate_trace("euclidean", flat,
                                 Parallelogram.square(0.2), [1.0, 2.0, 4.0])
    assert len(out["samples"]) == 3


SEEDED = np.random.default_rng(13).uniform(-0.5, 0.5, (2, 2)).tolist()


@pytest.mark.parametrize("kind", regen.KINDS)
@pytest.mark.parametrize("vertices", [
    SHAPES["diamond"], SEEDED + [[-x, -y] for x, y in SEEDED]])
@pytest.mark.parametrize("t_grid", [[10.0], [1.0, 2.0, 3.0],
                                    np.logspace(0, 2, 400)])
def test_limits_are_the_translations(kind, vertices, t_grid):
    # the README square (diamond) and a seeded parallelogram, on every
    # grid however short: A_inf by v4 - v1, B_inf by v1 - v2
    Q = Parallelogram(vertices)
    trace = regen.regenerate_trace(kind, heis_path(), Q, t_grid)
    V = Q.vertices
    A, B = np.eye(3), np.eye(3)
    A[:2, 2] = V[3] - V[0]
    B[:2, 2] = V[0] - V[1]
    assert np.array_equal(trace["A_inf"], A)
    assert np.array_equal(trace["B_inf"], B)
    assert trace["limit_in_heis"] is True


def _mp_pairings(mp, kind, D, V):
    """side_pairing's half-turn formula, H D R_c D^-1, in mpmath."""
    k = regen.CURVATURE[kind]
    H = mp.diag([-1, -1, 1])
    Dm = mp.diag([D[0], D[1], 1])
    out = []
    for p, q in ((V[0], V[1]), (V[1], V[2])):
        ends = [[x / d for x, d in zip(v, D)] for v in (p, q)]
        if kind == "euclidean":
            c = [(a + b) / 2 for a, b in zip(*ends)]
        else:
            w = [0, 0, 0]
            for a in ends:
                s = mp.sqrt(1 + k * (a[0] ** 2 + a[1] ** 2))
                w = [wi + xi / s for wi, xi in zip(w, (a[0], a[1], 1))]
            c = [w[0] / w[2], w[1] / w[2]]
        u = mp.matrix([c[0], c[1], 1])
        Gu = mp.matrix([k * c[0], k * c[1], 1])
        R = 2 * u * Gu.T / (u.T * Gu)[0] - mp.eye(3)
        M = H * Dm * R * mp.inverse(Dm)
        out.append(M / M[2, 2])
    return out


@pytest.mark.parametrize("kind", regen.KINDS)
@pytest.mark.parametrize("entries, e2", [
    ([(1.0, Fraction(3)), (1.0, Fraction(1, 2))], 0.5),
    ([(2.0, Fraction(2)), (0.5, Fraction(1))], 1.0),
    ([(1.0, Fraction(5, 2)), (1.0, Fraction(2))], 2.0),
])
def test_pairings_converge_to_the_translations(kind, entries, e2):
    # At 50 digits, max|A(t) - A_inf| decays like t^(-2 e2) in the curved
    # kinds and vanishes in the Euclidean one: the translations are the
    # limits, and A_inf, B_inf are them to rounding.
    mp = pytest.importorskip("mpmath")
    path = MonomialDiagonal(entries + [(1.0, Fraction(0))])
    Q = Parallelogram(SHAPES["skew"])
    ts = [10.0 ** j for j in range(2, 7)]
    trace = regen.regenerate_trace(kind, path, Q, ts)
    errs = []
    with mp.workdps(50):
        V = [[mp.mpf(float(x)) for x in v] for v in Q.vertices]
        limits = []
        for i, j in ((3, 0), (0, 1)):
            T = mp.eye(3)
            T[0, 2], T[1, 2] = V[i][0] - V[j][0], V[i][1] - V[j][1]
            limits.append(T)
        for T, got in zip(limits, (trace["A_inf"], trace["B_inf"])):
            assert mp.mnorm(T - mp.matrix(got.tolist()), 1) <= 1e-16
        for t in ts:
            D = [c * mp.mpf(t) ** (mp.mpf(e.numerator) / e.denominator)
                 for c, e in entries]
            errs.append(max(
                abs(M[i, j] - T[i, j]) for i in range(3) for j in range(3)
                for M, T in zip(_mp_pairings(mp, kind, D, V), limits)))
    if kind == "euclidean":
        assert max(errs) <= 1e-15
        for s in trace["samples"]:
            assert np.abs(s["A"] - trace["A_inf"]).max() <= 1e-15
            assert np.abs(s["B"] - trace["B_inf"]).max() <= 1e-15
    else:
        logs = [float(mp.log(err)) for err in errs]
        slope = -np.polyfit(np.log(ts), logs, 1)[0]
        assert abs(slope - 2 * e2) <= 0.05


def test_midpoint_bound():
    for kind in ("hyperbolic", "sphere"):
        for _ in range(25):
            seg = rng.uniform(-0.2, 0.2, size=(2, 2))
            ratio, K, ok = lemmas.midpoint_bound_check(
                kind, (2.0, 1.5, 1.0), seg, 0.3)
            assert ok
            lo, hi = min(K, 1 / K), max(K, 1 / K)
            assert lo <= ratio <= hi
    with pytest.raises(regen.OutsideDomain):
        lemmas.midpoint_bound_check("sphere", (1.0, 1.0, 1.0),
                                    ([0.5, 0.5], [0, 0]), 0.3)


def test_area_distortion():
    tris = lemmas.sample_triangles(0.1, 30, rng)
    assert all(lemmas._triangle_area(t) > 0 for t in tris)
    for kind in ("hyperbolic", "sphere"):
        out = lemmas.area_distortion_check(kind, 0.1, 0.1, tris)
        assert out["pass"]
        assert out["low"] <= out["high"]


# c = 10^e for e in [-8, 8]
scales = st.floats(min_value=-8.0, max_value=8.0).map(lambda e: 10.0 ** e)


@given(ra=st.floats(min_value=0.1, max_value=1.0),
       rb=st.floats(min_value=0.1, max_value=1.0),
       alpha=st.floats(min_value=0.0, max_value=2 * np.pi),
       beta=st.floats(min_value=0.1, max_value=np.pi - 0.1), c=scales)
@example(ra=0.3, rb=0.7, alpha=1.0, beta=2.0, c=1e6)
@example(ra=0.5, rb=0.5, alpha=0.0, beta=1.5, c=1e-7)
def test_parallelogram_checks_ignore_scale(ra, rb, alpha, beta, c):
    p = c * ra * np.array([np.cos(alpha), np.sin(alpha)])
    q = c * rb * np.array([np.cos(alpha + beta), np.sin(alpha + beta)])
    Parallelogram([p, q, -p, -q])
    Parallelogram.square(c)
    with pytest.raises(ValueError, match="antipodal"):
        Parallelogram([p, q, -p + [0.125 * c, 0.0], -q])
    with pytest.raises(ValueError, match="collinear"):
        Parallelogram([p, 2 * p, -p, -2 * p])


def _json(f, *args):
    """The JSON text of f(*args) as the CLI prints it, or the error."""
    try:
        with np.errstate(all="ignore"):
            out = f(*args)
    except ValueError as exc:
        return "{}: {}".format(type(exc).__name__, exc)
    return json.dumps(out, sort_keys=True, default=lambda a: a.tolist())


def _same_as_reference(kind, path, vertices, t_grid):
    got = _json(regen.regenerate_trace, kind, path, Parallelogram(vertices),
                t_grid)
    assert got == _json(regen_reference.regenerate_trace, kind, path,
                        Parallelogram(vertices), t_grid)
    return got


exponents = st.fractions(min_value=Fraction(1, 4), max_value=4,
                         max_denominator=4)


@st.composite
def regen_jobs(draw):
    """A kind, a conjugator path the kind admits, the vertices of a
    parallelogram and a t grid; small t often puts the vertices outside
    the hyperbolic disk."""
    kind = draw(st.sampled_from(regen.KINDS))
    e1, e2 = sorted(draw(st.lists(exponents, min_size=2, max_size=2,
                                  unique=True)), reverse=True)
    coeff = st.floats(0.25, 4.0)
    c1, c2 = draw(coeff), draw(coeff)
    if kind == "euclidean":
        c1 *= draw(st.sampled_from([1.0, -1.0]))
        e1, e2 = draw(exponents) - 2, draw(exponents) - 2
    path = MonomialDiagonal([(c1, e1), (c2, e2), (1.0, Fraction(0))])
    r = st.floats(0.01, 0.95)
    angle = st.floats(0.0, 2 * np.pi)
    ra, rb, alpha = draw(r), draw(r), draw(angle)
    beta = alpha + draw(st.floats(0.2, np.pi - 0.2))
    a = [ra * np.cos(alpha), ra * np.sin(alpha)]
    b = [rb * np.cos(beta), rb * np.sin(beta)]
    vertices = [a, b, [-a[0], -a[1]], [-b[0], -b[1]]]
    if draw(st.booleans()):
        lo = draw(st.floats(-3.0, 2.0))
        t_grid = np.logspace(lo, lo + draw(st.floats(0.0, 4.0)),
                             draw(st.integers(1, 60))).tolist()
    else:
        t_grid = draw(st.lists(st.floats(1e-3, 1e6), min_size=1,
                               max_size=12))
    return kind, path, vertices, t_grid


@settings(deadline=None, max_examples=150)
@given(regen_jobs())
def test_regenerate_trace_matches_the_per_point_loop(job):
    # the stacked pass prints what the loop over t prints, byte for byte:
    # samples, error samples, the limits and the errors raised
    _same_as_reference(*job)


@pytest.mark.parametrize("kind", regen.KINDS)
def test_regenerate_trace_matches_the_per_point_loop_on_1001_points(kind):
    from geomlim import cli

    t_grid = cli.parse_grid("-1:4:1001", log=True)
    out = json.loads(_same_as_reference(
        kind, heis_path(), SHAPES["skew"], t_grid))
    # from t = 0.1 the skew shape starts outside the hyperbolic disk
    dropped = sum("error" in s for s in out["samples"])
    assert 0 < dropped < 1001 if kind == "hyperbolic" else dropped == 0


@settings(deadline=None, max_examples=150)
@given(regen_jobs(), st.integers(0, 59))
def test_per_point_functions_match_the_reference(job, i):
    # one conjugator at a time, the broadcasting functions compute what
    # the per-point reference computes, byte for byte
    kind, path, vertices, t_grid = job
    t = t_grid[i % len(t_grid)]
    D = path.evaluate(t)
    assume((D > 0).all())
    m, Q = ModelParam(kind, D), Parallelogram(vertices)
    V = Q.vertices
    assert m.form().tobytes() == regen_reference.form(kind, D).tobytes()
    try:
        want = regen_reference.side_pairing(kind, D, V)
    except regen.OutsideDomain:
        with pytest.raises(regen.OutsideDomain):
            regen.side_pairing(m, Q)
        return
    A, B = regen.side_pairing(m, Q)
    assert A.tobytes() == want[0].tobytes()
    assert B.tobytes() == want[1].tobytes()
    for X, Y in ((A, want[0]), (B, want[1])):
        assert regen.projective_normalize(X).tobytes() \
            == regen_reference.projective_normalize(Y).tobytes()
    for p, q in Q.sides():
        assert regen.geodesic_midpoint(m, p, q).tobytes() \
            == regen_reference.geodesic_midpoint(kind, D, p, q).tobytes()


def test_projective_normalize_falls_back_to_the_largest_entry():
    # a stack that takes both branches: the corner, and the entry of
    # largest magnitude (the first of ties) when the corner is tiny
    M = np.array([[[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]],
                  [[1.0, -4.0, 0.0], [4.0, 1.0, 0.0], [0.0, 0.0, 1e-9]]])
    got = regen.projective_normalize(M)
    for X, Y in zip(got, M):
        assert X.tobytes() == regen_reference.projective_normalize(Y).tobytes()
    assert got[1, 0, 1] == 1.0


def test_regenerate_trace_drops_each_t_with_a_vertex_outside_the_disk():
    # the fourth vertex alone outside the disk drops the sample, as each
    # of the others does
    V = [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]]
    trace = regen.regenerate_trace("hyperbolic", heis_path(),
                                   Parallelogram(V), [0.1, 0.5, 10.0])
    assert [s.get("error") for s in trace["samples"]] == [
        "point outside the unit disk", "point outside the unit disk", None]
    with pytest.raises(regen.OutsideDomain, match="no valid samples"):
        regen.regenerate_trace("hyperbolic", heis_path(), Parallelogram(V),
                               [0.1, 0.5])


TINY_FIRST = MonomialDiagonal([(1e-200, Fraction(2)), (1.0, Fraction(1)),
                               (1.0, Fraction(0))])


@pytest.mark.parametrize("kind, path, t_grid, errors", [
    # the dual form diag(t^4, t^2, 0) overflows at t = 1e100
    ("euclidean", heis_path(), [10, 1e100], [None, regen.OUT_OF_RANGE]),
    # 1 / d1^2 overflows at t = 10, where d1 = 1e-198
    ("sphere", TINY_FIRST, [10, 1e30], [regen.OUT_OF_RANGE, None]),
    # there the model points overflow too, and the disk is told first
    ("hyperbolic", TINY_FIRST, [10, 1e100], [regen.OUTSIDE_DISK, None]),
])
def test_regenerate_trace_drops_each_t_whose_form_leaves_the_float_range(
        kind, path, t_grid, errors):
    import warnings

    V = [[0.3, 0.1], [-0.1, 0.3], [-0.3, -0.1], [0.1, -0.3]]
    got = json.loads(_same_as_reference(kind, path, V, t_grid))
    assert [s.get("error") for s in got["samples"]] == errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarning included
        trace = regen.regenerate_trace(kind, path, Parallelogram(V), t_grid)
        with pytest.raises(regen.OutsideDomain, match="no valid samples"):
            regen.regenerate_trace(kind, path, Parallelogram(V),
                                   [t for t, e in zip(t_grid, errors) if e])
    assert json.loads(_json(lambda: trace)) == got
