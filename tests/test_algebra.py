import math

import pytest
from hypothesis import given, strategies as st

from geomlim import algebra as alg
from geomlim.algebra import AlgScalar

DELTAS = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]

reals = st.floats(min_value=-10, max_value=10, allow_nan=False)
deltas = st.sampled_from(DELTAS)


def scal(re, im, d):
    return AlgScalar(re, im, d)


def close(x, y, tol=1e-9):
    return abs(x.re - y.re) <= tol and abs(x.im - y.im) <= tol


def test_kind():
    assert alg.kind(-1.0) == "complex"
    assert alg.kind(0.0) == "dual"
    assert alg.kind(2.0) == "split"


def test_known_products():
    # complex: (1+2i)(3-i) = 5+5i
    assert close(alg.mul(scal(1, 2, -1), scal(3, -1, -1)), scal(5, 5, -1))
    # dual: (a+eb)(c+ed) = ac + e(ad+bc)
    assert close(alg.mul(scal(2, 3, 0), scal(5, 7, 0)), scal(10, 29, 0))
    # split: lambda^2 = 1
    assert close(alg.mul(alg.lam(1.0), alg.lam(1.0)), alg.one(1.0))


def test_delta_mismatch():
    with pytest.raises(alg.DeltaMismatch):
        alg.mul(scal(1, 0, -1), scal(1, 0, 1))
    with pytest.raises(alg.DeltaMismatch):
        scal(1, 0, -1) + scal(1, 0, 1)
    # comparison across algebras is defined: the elements differ
    assert not scal(1, 0, -1) == scal(1, 0, 1)
    assert scal(1, 0, -1) != scal(1, 0, 1)
    assert scal(1, 0, -1) == scal(1, 0, -1)


def test_scalar_rejects_non_finite():
    for entries in [(math.nan, 0.0, 0.0), (0.0, math.inf, -1.0),
                    (1.0, 0.0, -math.inf), (1.0, 2.0, math.nan)]:
        with pytest.raises(ValueError):
            AlgScalar(*entries)
    # an overflowing product is refused too, not returned as inf
    with pytest.raises(ValueError):
        alg.mul(scal(1e200, 0, 1), scal(1e200, 0, 1))


@given(reals, reals, reals, reals, reals, reals, deltas)
def test_ring_axioms(a, b, c, d, e, f, delta):
    x, y, z = scal(a, b, delta), scal(c, d, delta), scal(e, f, delta)
    assert close(alg.mul(x, y), alg.mul(y, x))
    lhs = alg.mul(alg.mul(x, y), z)
    rhs = alg.mul(x, alg.mul(y, z))
    assert close(lhs, rhs, tol=1e-6)
    assert close(alg.mul(x, alg.one(delta)), x)


@given(reals, reals, reals, reals, deltas)
def test_norm_multiplicative(a, b, c, d, delta):
    x, y = scal(a, b, delta), scal(c, d, delta)
    scale = (1 + abs(alg.norm(x))) * (1 + abs(alg.norm(y)))
    assert abs(alg.norm(alg.mul(x, y)) - alg.norm(x) * alg.norm(y)) \
        <= 1e-9 * scale


@given(reals, reals, deltas)
def test_conj_involution_and_norm(a, b, delta):
    x = scal(a, b, delta)
    assert close(alg.conj(alg.conj(x)), x)
    xxbar = alg.mul(x, alg.conj(x))
    assert abs(xxbar.re - alg.norm(x)) <= 1e-9 * (1 + abs(alg.norm(x)))
    assert abs(xxbar.im) <= 1e-9 * (1 + abs(alg.norm(x)))


@given(reals, reals, deltas)
def test_inverse(a, b, delta):
    x = scal(a, b, delta)
    if alg.is_zero_divisor(x):
        with pytest.raises(alg.ZeroDivisor):
            alg.inv(x)
    else:
        assert close(alg.mul(x, alg.inv(x)), alg.one(delta), tol=1e-7)


def test_zero_divisors_exist_only_when_degenerate():
    # split: 1 + lambda has norm 0; complex: only 0 itself
    assert alg.is_zero_divisor(scal(1, 1, 1.0))
    assert not alg.is_zero_divisor(scal(1, 1, -1.0))
    assert alg.is_zero_divisor(scal(0, 3, 0.0))


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 4.0])
def test_idempotents(delta):
    ep, em = alg.idempotents(delta)
    assert close(alg.mul(ep, ep), ep)
    assert close(alg.mul(em, em), em)
    assert close(alg.mul(ep, em), scal(0, 0, delta))
    s = AlgScalar(ep.re + em.re, ep.im + em.im, delta)
    assert close(s, alg.one(delta))
    assert abs(ep.im - 0.5 / math.sqrt(delta)) <= 1e-12


@pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
def test_idempotents_need_split(delta):
    with pytest.raises(alg.NotSplit):
        alg.idempotents(delta)


def test_zero_divisor_is_a_value_error():
    # ZeroDivisionError handlers and the CLI's ValueError boundary both
    # catch it
    for cls in (ZeroDivisionError, ValueError):
        with pytest.raises(cls):
            alg.inv(scal(0, 0, -1.0))


def test_dunder_arithmetic_matches_functions():
    x, y = scal(1, 2, -1.0), scal(3, -1, -1.0)
    assert close(x * y, alg.mul(x, y))
    assert close(x + y, scal(4, 1, -1.0))
    assert close(x - y, scal(-2, 3, -1.0))
    assert close(2.0 * x, scal(2, 4, -1.0))


def _numpy_coerce(self, other):
    """AlgScalar._coerce as it was written with numpy.isscalar."""
    np = pytest.importorskip("numpy")
    if isinstance(other, AlgScalar):
        self._check(other)
        return other
    if np.isscalar(other):
        return AlgScalar(other, 0.0, self.delta)
    return None


def _outcome(fn):
    try:
        r = fn()
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)
    return (r.re, r.im, r.delta) if isinstance(r, AlgScalar) else r


def test_coercion_matches_numpy_isscalar(monkeypatch):
    np = pytest.importorskip("numpy")
    x = scal(1.5, -2, -1.0)
    operands = [3, True, 0.25, 1 + 2j, np.float64(2.5), np.int64(-4), "1.5",
                np.array(2.0), [1.0]]
    ops = [lambda o: x + o, lambda o: o + x, lambda o: x * o,
           lambda o: o * x, lambda o: x == o]
    got = [[_outcome(lambda: op(o)) for op in ops] for o in operands]
    monkeypatch.setattr(AlgScalar, "_coerce", _numpy_coerce)
    want = [[_outcome(lambda: op(o)) for op in ops] for o in operands]
    assert got == want
    # the outcomes themselves: numbers and numeric strings coerce, the
    # rest is refused or compared by identity
    assert got[0][0] == (4.5, -2.0, -1.0) and got[6][0] == (3.0, -2.0, -1.0)
    assert got[3][0] is TypeError and got[8][0] is TypeError
