import numpy as np
import pytest
from hypothesis import given, strategies as st

from geomlim import heisenberg as heis
from geomlim.heisenberg import HeisRep

rng = np.random.default_rng(77)

small = st.floats(min_value=-5, max_value=5, allow_nan=False)


@given(small, small, small)
def test_exp_log_roundtrip(x, y, z):
    assert np.allclose(heis.heis_log(heis.heis_exp(x, y, z)), (x, y, z))


def test_log_rejects_non_unipotent():
    with pytest.raises(heis.NotIdentityComponent):
        heis.heis_log(np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(heis.NotIdentityComponent):
        heis.heis_log(np.array([[1.0, 0, 0], [1.0, 1, 0], [0, 0, 1.0]]))


def test_log_tolerates_roundoff_below_diagonal():
    g = heis.heis_exp(1.0, 2.0, 3.0)
    g[2, 0] += 1e-17
    assert np.allclose(heis.heis_log(g), (1.0, 2.0, 3.0))
    g[2, 0] += 1e-3
    with pytest.raises(heis.NotIdentityComponent):
        heis.heis_log(g)


def make_rep(kind="generic"):
    d = rng.standard_normal(2)
    a, b = rng.standard_normal(2)
    z = rng.standard_normal(2)
    if kind == "translation":
        return HeisRep([0.0, 0.0], d, z)
    if kind == "shear":
        return HeisRep(a * d, b * d, z)
    if kind == "central":
        return HeisRep([0.0, 0.0], [0.0, 0.0], z)
    raise ValueError(kind)


def test_is_representation():
    assert heis.is_representation(HeisRep([1, 2], [2, 4], [0, 1]))
    assert not heis.is_representation(HeisRep([1, 0], [0, 1], [0, 0]))


def test_conjugation_matches_matrix_conjugation():
    for _ in range(50):
        r = make_rep("shear")
        g, h = rng.standard_normal(2)
        C = heis.heis_exp(g, h, 0.3)
        s = heis.conjugate_rep(r, g, h)
        for i in (0, 1):
            M = C @ r.generator(i) @ np.linalg.inv(C)
            assert np.allclose(heis.heis_log(M),
                               (s.x[i], s.y[i], s.z[i]), atol=1e-10)
        # the commutator bracket is untouched
        assert s.bracket() == r.bracket()


def test_normalize():
    for kind in ("translation", "shear"):
        for _ in range(50):
            r = make_rep(kind)
            u = heis.normalize(r)
            assert abs(u.x @ u.x + u.y @ u.y - 1.0) <= 1e-12
            d = u.y if u.y @ u.y >= u.x @ u.x else u.x
            assert abs(u.z @ d) <= 1e-10
            # normalizing again changes nothing
            v = heis.normalize(u)
            assert np.allclose((v.x, v.y, v.z), (u.x, u.y, u.z), atol=1e-12)


def test_normalize_rejects_central():
    with pytest.raises(heis.CentralRep):
        heis.normalize(make_rep("central"))


def test_classify():
    assert heis.classify(make_rep("central")) == ("Central", None)
    assert heis.classify(HeisRep([0, 0], [1, 0], [0, 1])) \
        == ("Holonomy", "Translation")
    assert heis.classify(HeisRep([1, 0], [2, 0], [0, 1])) \
        == ("Holonomy", "Shear")
    assert heis.classify(HeisRep([1, 2], [0, 0], [1, 0])) \
        == ("FaithfulNotFree", None)
    # rank-deficient coordinate matrix: the image is a line
    assert heis.classify(HeisRep([1, 2], [2, 4], [3, 6])) \
        == ("NotFaithful", None)
    with pytest.raises(heis.NotARepresentation):
        heis.classify(HeisRep([1, 0], [0, 1], [0, 0]))


def test_classify_invariance():
    for _ in range(50):
        r = make_rep("shear")
        c = heis.classify(r)
        g, h = rng.standard_normal(2)
        assert heis.classify(heis.conjugate_rep(r, g, h)) == c
        s = float(rng.uniform(0.1, 5.0))
        scaled = HeisRep(s * r.x, s * r.y, s * r.z)
        assert heis.classify(scaled) == c


def test_developing_translation_example():
    r = HeisRep([0, 0], [1, 0], [0, 1])
    for u, v in [(0, 0), (1, 0), (0.25, 0.5), (-1, 2)]:
        assert np.allclose(heis.developing_map(r, u, v), (v, u))


def test_developing_equivariance():
    for _ in range(20):
        r = make_rep("shear")
        if heis.classify(r)[0] != "Holonomy":
            continue
        u, v = rng.uniform(-1, 1, size=2)
        f = heis.developing_map(r, u, v)
        g = r.generator(0)
        p = g @ np.array([f[0], f[1], 1.0])
        shifted = heis.developing_map(r, u + 1, v)
        assert np.allclose(shifted, p[:2] / p[2], atol=1e-10)


def test_developing_map_vectorised(monkeypatch):
    r = HeisRep([0.3, 0.6], [1.5, 3.0], [0.2, -0.7])
    u, v = rng.uniform(-2, 2, size=(2, 4, 5))
    calls = []
    classify = heis.classify
    monkeypatch.setattr(heis, "classify",
                        lambda rep: calls.append(rep) or classify(rep))
    fx, fy = heis.developing_map(r, u, v)
    assert len(calls) == 1 and fx.shape == fy.shape == u.shape
    e3 = np.array([0.0, 0.0, 1.0])
    for i in np.ndindex(u.shape):
        f = heis.developing_map(r, u[i], v[i])
        assert np.allclose(f, (fx[i], fy[i]), rtol=1e-15, atol=0)
        # the matrix product the closed form expands
        p = (heis.heis_exp(*(u[i] * np.array([r.x[0], r.y[0], r.z[0]])))
             @ heis.heis_exp(*(v[i] * np.array([r.x[1], r.y[1], r.z[1]])))
             @ e3)
        assert np.allclose(f, p[:2] / p[2], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rep_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        HeisRep([bad, 0], [1, 0], [0, 1])


@pytest.mark.parametrize("u, v", [
    (np.nan, 0.0), (0.0, np.inf), (np.array([0.0, np.nan]), np.zeros(2)),
    (1e200, 1e200),  # finite, but fx overflows
])
def test_developing_rejects_non_finite(u, v):
    with pytest.raises(ValueError):
        heis.developing_map(HeisRep([1, 1], [1, 1], [0, 1]), u, v)


def test_developing_requires_holonomy():
    with pytest.raises(heis.NotHolonomy):
        heis.developing_map(HeisRep([1, 2], [0, 0], [0, 1]), 0.5, 0.5)


def test_teichmuller_idempotent_and_flip():
    for _ in range(50):
        r = make_rep("shear")
        if heis.classify(r)[0] != "Holonomy":
            continue
        c = heis.teichmuller_coords(r)
        assert c.y[0] > 0 or (c.y[0] == 0 and c.y[1] >= 0)
        c2 = heis.teichmuller_coords(c)
        assert np.allclose((c.x, c.y, c.z), (c2.x, c2.y, c2.z), atol=1e-12)
        # the outer flip lands on the same canonical point
        c3 = heis.teichmuller_coords(heis.outer_flip(r))
        assert np.allclose((c.x, c.y, c.z), (c3.x, c3.y, c3.z), atol=1e-12)
