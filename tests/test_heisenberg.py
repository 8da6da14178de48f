import io
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import heis_reference as ref
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


@pytest.mark.parametrize("x, y, commutes", [
    ([1e300, 1e300], [1e300, 1e300], True),
    ([1e300, -1e300], [1e300, 1e300], False),
    ([1e300, 0], [0, 1e300], False),
])
def test_is_representation_near_overflow(x, y, commutes):
    # x1 y2 - x2 y1 overflows near 1e300; the test must neither warn nor
    # mistake parallel generators for non-commuting ones
    assert heis.is_representation(HeisRep(x, y, [0, 1])) == commutes


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


CLASSES = {"Central": ("Central", None), "NotFaithful": ("NotFaithful", None),
           "FaithfulNotFree": ("FaithfulNotFree", None),
           "Translation": ("Holonomy", "Translation"),
           "Shear": ("Holonomy", "Shear")}


def class_rep(klass, theta, rho, a, b, e, f, c=1.0):
    """A rep of the named class, scaled by c: x and y along d (x || y, so
    they commute), z off d unless NotFaithful."""
    d = rho * np.array([np.cos(theta), np.sin(theta)])
    perp = np.array([-d[1], d[0]])
    zero = np.zeros(2)
    x, y, z = {"Central": (zero, zero, e * d + f * perp),
               "NotFaithful": (a * d, b * d, e * d),
               "FaithfulNotFree": (a * d, zero, e * d + f * perp),
               "Translation": (zero, b * d, e * d + f * perp),
               "Shear": (a * d, b * d, e * d + f * perp)}[klass]
    return HeisRep(c * x, c * y, c * z)


def test_classify_invariance():
    for _ in range(50):
        r = make_rep("shear")
        c = heis.classify(r)
        g, h = rng.standard_normal(2)
        assert heis.classify(heis.conjugate_rep(r, g, h)) == c
        s = float(rng.uniform(0.1, 5.0))
        scaled = HeisRep(s * r.x, s * r.y, s * r.z)
        assert heis.classify(scaled) == c
    # Conjugation moves z along the line of x and y only, and classify
    # reads the part w of z off that line; a faithful rep keeps its class
    # while |g y - h x| stays below about 1e10 |w|.  Here |w| >= 0.1 rho
    # and |x|, |y| <= 3 rho, so conjugators up to 1e8 are inside that
    # range; a NotFaithful rep has w = 0 and keeps its class at any
    # conjugator, up to the rounding of z (these draw no a = b, whose
    # g y and h x cancel at g = h).  A generator of its own leaves the
    # draws of the tests below as they were.
    gen = np.random.default_rng(12)
    near = [(1e6, 0), (1e8, 0), (0, 1e8), (-1e8, 1e8), (1e8, -1e8),
            (-1e8, -1e8)]
    far = [(1e12, 0), (0, 1e12), (-1e12, 1e12), (1e12, -1e12),
           (-1e12, -1e12)]
    for klass in CLASSES:
        for _ in range(20):
            a, b, f = gen.uniform(0.1, 3.0, 3) * gen.choice([-1, 1], 3)
            r = class_rep(klass, gen.uniform(0, 2 * np.pi),
                          gen.uniform(0.1, 10.0), a, b,
                          gen.uniform(-3.0, 3.0), f)
            assert heis.classify(r) == CLASSES[klass]
            for g, h in near + (far if klass == "NotFaithful" else []):
                assert heis.classify(heis.conjugate_rep(r, g, h)) \
                    == CLASSES[klass]
    # |w| = 2 against |y| = 2: Translation up to 1e9; |w| = 1 against
    # |x| = |y| = 1e-3: Shear up to 1e12
    for r, c, t in [(HeisRep([0, 0], [1, 2], [3, 1]),
                     ("Holonomy", "Translation"), 1e9),
                    (HeisRep([1e-3, 0], [1e-3, 0], [0, 1]),
                     ("Holonomy", "Shear"), 1e12)]:
        assert heis.classify(r) == c
        for g, h in [(1, 0), (0, 1), (-1, 1), (1, -1), (-1, -1)]:
            assert heis.classify(heis.conjugate_rep(r, g * t, h * t)) == c


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


@pytest.mark.parametrize("c", [2.0 ** -700, 1e-200, 1e200, 2.0 ** 1000])
def test_teichmuller_coords_at_every_magnitude(c):
    # normalize scales by powers of two before its products, so neither
    # ||x||^2 nor z.y overflows or underflows near the ends of the float
    # range
    r = HeisRep([1, 2], [-0.5, -1], [3, 1])
    u = heis.teichmuller_coords(r)
    v = heis.teichmuller_coords(HeisRep(c * r.x, c * r.y, c * r.z))
    assert np.allclose((v.x, v.y, v.z), (u.x, u.y, u.z), rtol=0, atol=1e-15)


def test_bracket_near_overflow():
    # the products overflow near 1e300; the bracket is scaled as in
    # is_representation, so it neither warns nor loses parallel vectors
    assert heis.HeisRep([1e300, 1e300], [1e300, 1e300], [0, 1]).bracket() \
        == 0.0
    assert heis.HeisRep([1e300, 0], [0, 1e-300], [0, 1]).bracket() == 1.0
    # power-of-two scaling is exact: ordinary inputs give the plain formula
    for _ in range(50):
        r = HeisRep(*rng.standard_normal((3, 2)) * 10.0)
        assert r.bracket() == r.x[0] * r.y[1] - r.x[1] * r.y[0]


# c = 10^e for e in [-8, 8]
scales = st.floats(min_value=-8.0, max_value=8.0).map(lambda e: 10.0 ** e)
nonzero = st.tuples(st.floats(min_value=0.1, max_value=3.0),
                    st.sampled_from([1.0, -1.0])).map(lambda p: p[0] * p[1])


@given(klass=st.sampled_from(sorted(CLASSES)),
       theta=st.floats(min_value=0.0, max_value=2 * np.pi),
       rho=st.floats(min_value=0.1, max_value=10.0), a=nonzero, b=nonzero,
       e=st.floats(min_value=-3.0, max_value=3.0), f=nonzero, c=scales)
@example(klass="Shear", theta=0.0, rho=1.0, a=1.0, b=1.0, e=0.0, f=1.0,
         c=1e-12)
def test_classes_ignore_scale(klass, theta, rho, a, b, e, f, c):
    r = class_rep(klass, theta, rho, a, b, e, f, c)
    d = rho * np.array([np.cos(theta), np.sin(theta)])
    perp = np.array([-d[1], d[0]])
    zero = np.zeros(2)
    assert heis.is_representation(r)
    assert heis.classify(r) == CLASSES[klass]
    assert heis.classify(HeisRep(zero, zero, zero)) == ("Central", None)
    # x across y: the bracket is a b rho^2 c^2, far from zero at every scale
    assert not heis.is_representation(HeisRep(c * a * d, c * b * perp, r.z))


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _hex(r):
    """The bytes of a rep's coordinates, or r itself when it is no rep."""
    return r if not isinstance(r, HeisRep) else (
        r.x.tobytes(), r.y.tobytes(), r.z.tobytes())


@given(klass=st.sampled_from(sorted(CLASSES) + ["NotCommuting"]),
       theta=st.floats(min_value=0.0, max_value=2 * np.pi),
       rho=st.floats(min_value=0.1, max_value=10.0), a=nonzero, b=nonzero,
       e=st.floats(min_value=-3.0, max_value=3.0), f=nonzero,
       k=st.integers(min_value=-1074, max_value=1023),
       g=st.sampled_from([0.0, 1.0, -1e4, 1e8, -1e8]),
       h=st.sampled_from([0.0, 1.0, 1e6, -1e8]),
       zero=st.sampled_from([None, "x", "y"]))
@example(klass="Shear", theta=0.0, rho=1.0, a=1.0, b=-1.0, e=0.0, f=1.0,
         k=-1074, g=0.0, h=0.0, zero=None)
@example(klass="Shear", theta=0.5, rho=1.0, a=1.0, b=1.0, e=0.0, f=1.0,
         k=990, g=1e8, h=-1e8, zero="x")
def test_one_pass_matches_two_passes(klass, theta, rho, a, b, e, f, k, g, h,
                                     zero):
    # classify_canonical is classify and teichmuller_coords of the code
    # that tested commutation and reduced once in each, byte for byte:
    # reps of every class, conjugated by large elements, scaled by powers
    # of two down to the subnormals and up to near overflow
    if klass == "NotCommuting":
        r = class_rep("Shear", theta, rho, a, b, e, f)
        r = HeisRep(r.x, r.y + [-r.y[1], r.y[0]], r.z)
    else:
        r = class_rep(klass, theta, rho, a, b, e, f)
    r = heis.conjugate_rep(r, g, h)
    if zero:
        setattr(r, zero, np.zeros(2))
    with np.errstate(over="ignore"):
        v = np.ldexp([r.x, r.y, r.z], k)
    assume(np.isfinite(v).all())
    r = HeisRep(*v)
    want = _outcome(ref.classify, r)
    got = _outcome(heis.classify_canonical, r)
    assert _outcome(heis.classify, r) == want
    if not isinstance(want, tuple) or isinstance(want[0], type):
        assert got == want
        return
    assert got[:2] == want
    coords = _outcome(ref.teichmuller_coords, r)
    if want[0] != "Holonomy":
        assert got[2] is None
        assert _outcome(heis.teichmuller_coords, r) == coords
        return
    assert _hex(got[2]) == _hex(coords)
    assert _hex(_outcome(heis.teichmuller_coords, r)) == _hex(coords)
    assert _hex(_outcome(heis.normalize, r)) \
        == _hex(_outcome(ref.normalize, r))


@pytest.mark.parametrize("x, y, z", [
    ([0, 0], [5e-324, -1e-323], [1e-322, 3e-322]),  # subnormal
    ([1e300, -1e300], [-1.5e300, 1.5e300], [1e308, 1.7e308]),
    ([0, -0.0], [-0.0, -2.0], [1, 0]),  # flipped, signed zeros
    ([3e-320, 0], [-1e-320, 0], [5e-320, 1e-315]),
])
def test_one_pass_at_the_ends_of_the_float_range(x, y, z):
    r = HeisRep(x, y, z)
    tag, sub, c = heis.classify_canonical(r)
    assert tag == "Holonomy" and (tag, sub) == ref.classify(r)
    assert _hex(c) == _hex(ref.teichmuller_coords(r)) \
        == _hex(heis.teichmuller_coords(r))


def test_classify_command_tests_commutation_and_reduces_once(monkeypatch):
    # heis classify on a holonomy reads its class and canonical rep off
    # one commutation test and one reduction
    from geomlim import cli

    calls = []
    for name in ("is_representation", "_reduced"):
        f = getattr(heis, name)
        monkeypatch.setattr(heis, name, lambda r, f=f, name=name: (
            calls.append(name) or f(r)))
    doc = '{"x": [1, 2], "y": [-0.5, -1], "z": [3, 1]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    out = io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    assert cli.run(["heis", "classify", "--input", "-"]) == 0
    assert json.loads(out.getvalue())["class"] == "Holonomy"
    assert calls == ["is_representation", "_reduced"]


def _floats(*values):
    """Floats as their hex text, so -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


# magnitudes from the subnormals to the top of the float range
MAGNITUDES = [5e-324, 3e-320, 2.0 ** -1022, 1e-300, 1.0, 1e300,
              2.0 ** 1023, 1.7e308]


@pytest.mark.parametrize("m", MAGNITUDES)
def test_float_scaling_matches_numpy(m):
    # _scaled_bracket and classify scale by powers of two on Python
    # floats; the numpy reference gives the same bits at every magnitude
    gen = np.random.default_rng(31)
    for _ in range(200):
        x, y, z = (gen.uniform(-1.0, 1.0, 2) * gen.choice([m, 1.0, 0.0], 2)
                   for _ in range(3))
        for r in (HeisRep(x, y, z), HeisRep(x, 0.5 * x, z),
                  HeisRep(x, -x, 0.25 * x), HeisRep([0, 0], y, z)):
            b, size, k = heis._scaled_bracket(r)
            rb, rsize, rk = ref.scaled_bracket(r)
            assert _floats(b, size) == _floats(rb, rsize) and k == rk
            assert _outcome(heis.classify, r) == _outcome(ref.classify, r)
            assert heis.is_representation(r) == ref.is_representation(r)
