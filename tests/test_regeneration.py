from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from geomlim import regeneration as regen
from geomlim.limits import MonomialDiagonal
from geomlim.regeneration import ModelParam, Parallelogram

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


def test_in_heis_and_normalize():
    M = np.array([[1.0, 0.3, 0.2], [0, 1.0, -0.1], [0, 0, 1.0]])
    assert regen.in_heis(2.0 * M)
    M2 = M.copy()
    M2[2, 0] = 0.01
    assert not regen.in_heis(M2)


def test_heisenberg_criterion():
    assert regen.heisenberg_criterion(heis_path())
    bad = MonomialDiagonal([(1.0, 1), (1.0, 2), (1.0, 0)])
    assert not regen.heisenberg_criterion(bad)
    scaled = MonomialDiagonal([(1.0, 2), (1.0, 1), (2.0, 0)])
    assert not regen.heisenberg_criterion(scaled)


def test_axis_translation_preserves_form():
    for kind, sigma in (("hyperbolic", -1.0), ("sphere", 1.0)):
        A = regen.axis_translation(kind, 0.4)
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


def test_regenerate_trace_rejects_bad_paths():
    flat = MonomialDiagonal([(1.0, 0), (1.0, 0), (1.0, 0)])
    with pytest.raises(ValueError):
        regen.regenerate_trace("hyperbolic", flat,
                               Parallelogram.square(0.2), [10.0])
    # the euclidean fiber has no divergence requirement
    out = regen.regenerate_trace("euclidean", flat,
                                 Parallelogram.square(0.2), [1.0, 2.0, 4.0])
    assert len(out["samples"]) == 3


def test_midpoint_bound():
    for kind in ("hyperbolic", "sphere"):
        for _ in range(25):
            seg = rng.uniform(-0.2, 0.2, size=(2, 2))
            ratio, K, ok = regen.midpoint_bound_check(
                kind, (2.0, 1.5, 1.0), seg, 0.3)
            assert ok
            lo, hi = min(K, 1 / K), max(K, 1 / K)
            assert lo <= ratio <= hi
    with pytest.raises(regen.OutsideDomain):
        regen.midpoint_bound_check("sphere", (1.0, 1.0, 1.0),
                                   ([0.5, 0.5], [0, 0]), 0.3)


def test_area_distortion():
    tris = regen.sample_triangles(0.1, 30, rng)
    assert all(regen._triangle_area(t) > 0 for t in tris)
    for kind in ("hyperbolic", "sphere"):
        out = regen.area_distortion_check(kind, 0.1, 0.1, tris)
        assert out["pass"]
        assert out["low"] <= out["high"]
