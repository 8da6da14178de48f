import copy
import math
import pickle

import pytest
from hypothesis import example, given, strategies as st

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
@example(a=0.0, b=5e-324, delta=-2.0)  # an inverse past the float range
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


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_alg_scalar_survives_deepcopy_and_pickle(protocol):
    x = scal(-0.0, 2.5, -1.0)  # a signed zero counts
    assert not hasattr(x, "__dict__")
    for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x, protocol))):
        assert type(y) is AlgScalar
        assert all(type(v) is float for v in (y.re, y.im, y.delta))
        assert repr(y) == repr(x) == "AlgScalar(-0.0, 2.5, delta=-1.0)"


def test_scalars_compare_by_value_and_have_no_operators():
    np = pytest.importorskip("numpy")
    x = scal(3.0, 0, 0.0)
    assert x == scal(3, -0.0, 0) and hash(x) == hash(scal(3, -0.0, 0))
    # a scalar is never a real number, so == agrees with hashing
    for o in (3, 3.0, np.float64(3.0), "3"):
        assert x != o and o != x and not x == o and not o == x
    assert (3 in {x}) == (x == 3)
    # mul, conj, norm and inv are the arithmetic
    for o in (x, 2.0, np.float64(2.0), np.array([2.0])):
        for op in (lambda: x + o, lambda: o + x, lambda: x - o,
                   lambda: o - x, lambda: x * o, lambda: o * x,
                   lambda: x / o, lambda: o / x):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(TypeError):
        -x


# c = 10^e for e in [-300, 300], where norm(c x) under- or overflows
scales = st.floats(min_value=-300.0, max_value=300.0).map(
    lambda e: 10.0 ** e)


@given(b=st.floats(min_value=-4, max_value=4),
       d=st.floats(min_value=0.1, max_value=4),
       r=st.floats(min_value=0.1, max_value=10),
       sign=st.sampled_from([1.0, -1.0]), delta=deltas, c=scales)
@example(b=0.0, d=1.0, r=1.0, sign=1.0, delta=-1.0, c=1e-6)
@example(b=0.0, d=1.0, r=1.0, sign=1.0, delta=2.0, c=1e8)
@example(b=0.0, d=1.0, r=1.0, sign=1.0, delta=-1.0, c=1.4e154)
@example(b=0.0, d=1.0, r=1.0, sign=1.0, delta=-1.0, c=1.4e161)
@example(b=0.0, d=1.0, r=1.0, sign=1.0, delta=-1.0, c=1e-200)
def test_zero_divisors_ignore_scale(b, d, r, sign, delta, c):
    # |a| >= |b| sqrt|delta| + d keeps the norm at least d^2
    a = sign * (abs(b) * max(1.0, math.sqrt(abs(delta))) + d)
    x = scal(c * a, c * b, delta)
    assert not alg.is_zero_divisor(x)
    assert close(alg.mul(x, alg.inv(x)), alg.one(delta))
    # c r (sqrt(delta) + lambda) for delta >= 0 has zero norm, as has 0
    zero = scal(c * r * math.sqrt(max(delta, 0.0)),
                c * r if delta >= 0 else 0.0, delta)
    assert alg.is_zero_divisor(zero)
    with pytest.raises(alg.ZeroDivisor):
        alg.inv(zero)

