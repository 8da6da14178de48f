import copy
import itertools
import math
import pickle
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import poset_reference
from geomlim import limits as lim
from geomlim.cells import Cell
from geomlim.limits import (FlagSignature, LieSubspace, LimitPoint,
                            MonomialDiagonal, OrderedPartition)

rng = np.random.default_rng(515311)


def e(i, j, n=3):
    M = np.zeros((n, n))
    M[i, j] = 1.0
    return M


def test_monomial_diagonal():
    P = MonomialDiagonal([(2.0, Fraction(1, 2)), (1.0, 0)])
    assert np.allclose(P.evaluate(4.0), [4.0, 1.0])
    R = P.reversed()
    assert R.entries == [(2.0, Fraction(-1, 2)), (1.0, Fraction(0))]
    with pytest.raises(lim.ZeroEigenvalue):
        MonomialDiagonal([(0.0, 1), (1.0, 0)])
    for c in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            MonomialDiagonal([(c, 1), (1.0, 0)])
    with pytest.raises(ValueError, match="at least two"):
        MonomialDiagonal([(1.0, 0)])


@pytest.mark.parametrize("t", [0, -10, math.inf, math.nan, 1e200])
def test_evaluate_needs_finite_positive_t_in_range(t):
    # at t = 1e200, t^2 overflows and t^-2 underflows to 0
    P = MonomialDiagonal([(1.0, Fraction(2)), (1.0, Fraction(1, 2)),
                          (1.0, 0)])
    for path in (P, P.reversed()):
        with pytest.raises(ValueError):
            path.evaluate(t)


def test_form_path_overflow_is_an_error_not_a_warning():
    C = MonomialDiagonal([(0.0001, 1), (1.0, 1), (1.0, 0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            lim.conjugacy_to_form_path(C, [1e308, 1.0, 1.0])


@given(st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-100, max_value=100),
       st.floats(min_value=0.01, max_value=100))
@example(-5e-324, 1.0, 0.5)  # 0.5 * u underflows to -0.0
def test_rp1_scale_invariant(u, v, s):
    if abs(u) < 1e-6 and abs(v) < 1e-6:
        return
    a = lim.rp1(u, v)
    b = lim.rp1(s * u, s * v)
    assert np.allclose(a, b, rtol=1e-9, atol=1e-12)
    c = lim.rp1(-u, -v)
    assert np.allclose(a, c, rtol=1e-9, atol=1e-12)
    assert max(abs(a[0]), abs(a[1])) == 1.0


def test_rp1_negligible_coordinate_is_zero():
    assert lim.rp1(-5e-324, 1.0) == (0.0, 1.0)
    assert lim.rp1(1.0, -lim.RP1_TINY / 2) == (1.0, 0.0)
    assert lim.rp1(-1e-200, 1.0) == (1e-200, -1.0)
    with pytest.raises(ValueError, match="not a projective point"):
        lim.rp1(0, 0)


def test_psi_limit_exact():
    P = MonomialDiagonal([(3.0, 1), (-2.0, 1), (1.0, 0)])
    L = lim.psi_limit(P)
    assert L.components[(0, 1)] == lim.rp1(3.0, -2.0)
    assert L.components[(0, 2)] == (1.0, 0.0)
    assert L.components[(1, 2)] == (1.0, 0.0)


def random_partition(n):
    idx = list(rng.permutation(n))
    cuts = sorted(rng.choice(range(1, n), size=rng.integers(0, n - 1),
                             replace=False))
    blocks, prev = [], 0
    for c in list(cuts) + [n]:
        blocks.append(idx[prev:c])
        prev = c
    pts = []
    for b in blocks:
        p = rng.uniform(0.5, 2.0, size=len(b)) * rng.choice([-1.0, 1.0],
                                                            size=len(b))
        pts.append(p)
    return OrderedPartition(blocks, pts)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_encode_decode_roundtrip(n):
    for _ in range(50):
        P = random_partition(n)
        Q = lim.decode_partition(lim.encode_partition(P))
        assert Q.blocks == P.blocks
        for a, b in zip(Q.block_points, P.block_points):
            assert np.allclose(a, b, rtol=1e-9)


def test_decode_rejects_inconsistent():
    # 0 dominates 1, 1 dominates 2, but 2 dominates 0: a 3-cycle
    comp = {(0, 1): (1.0, 0.0), (1, 2): (1.0, 0.0), (0, 2): (0.0, 1.0)}
    with pytest.raises(lim.Inconsistent):
        lim.decode_partition(LimitPoint(3, comp))
    # tie classes broken: 0~1, 1~2, but 0 dominates 2
    comp = {(0, 1): (1.0, 1.0), (1, 2): (1.0, 1.0), (0, 2): (1.0, 0.0)}
    with pytest.raises(lim.Inconsistent):
        lim.decode_partition(LimitPoint(3, comp))
    # incoherent in-block ratios
    comp = {(0, 1): (1.0, 1.0), (1, 2): (1.0, 1.0), (0, 2): (1.0, 0.5)}
    with pytest.raises(lim.Inconsistent):
        lim.decode_partition(LimitPoint(3, comp))


@pytest.mark.parametrize("rel, ok", [(5e-10, True), (-5e-10, True),
                                     (1e-8, False), (-1e-8, False)])
def test_decode_in_block_tolerance(rel, ok):
    # one block [1 : 0.5 : 0.25]; the (1, 2) ratio is off by rel relative
    comp = {(0, 1): (1.0, 0.5), (0, 2): (1.0, 0.25),
            (1, 2): (1.0, 0.5 * (1 + rel))}
    L = LimitPoint(3, comp)
    if ok:
        P = lim.decode_partition(L)
        assert P.blocks == [(0, 1, 2)]
        assert np.allclose(P.block_points[0], [1.0, 0.5, 0.25])
    else:
        with pytest.raises(lim.Inconsistent):
            lim.decode_partition(L)


def test_eta_rejects_undecodable():
    comp = {(0, 1): (1.0, 0.0), (1, 2): (1.0, 0.0), (0, 2): (0.0, 1.0)}
    with pytest.raises(lim.Undecodable):
        lim.eta(LimitPoint(3, comp))


@pytest.mark.parametrize("comp", [
    # a 3-cycle, and a tie class broken by a dominance
    {(0, 1): (1.0, 0.0), (1, 2): (1.0, 0.0), (0, 2): (0.0, 1.0)},
    {(0, 1): (1.0, 1.0), (1, 2): (1.0, 1.0), (0, 2): (1.0, 0.0)},
])
def test_undecodable_names_the_same_pair_on_every_call(comp):
    L = LimitPoint(3, comp)
    want = "pair (0, 1) disagrees with the dominance order"
    for _ in range(2):
        with pytest.raises(lim.Undecodable) as exc:
            lim.eta(L)
        assert str(exc.value) == want
        with pytest.raises(lim.Inconsistent) as exc:
            lim.decode_partition(L)
        assert str(exc.value) == want


def test_limit_point_is_read_only_and_decoded_once():
    path = MonomialDiagonal([(1.0, 2), (-2.0, 1), (3.0, 1), (0.5, 0)])
    L = lim.psi_limit(path)
    with pytest.raises(TypeError):
        L.components[(0, 1)] = (0.0, 1.0)
    P = lim.decode_partition(L)
    assert lim.decode_partition(L) is P
    Q = lim.decode_partition(lim.psi_limit(path))
    assert P == Q and P is not Q
    assert P.blocks == [(0,), (1, 2), (3,)]
    assert lim.eta(L).dim == 6
    assert copy.deepcopy(L) == L and pickle.loads(pickle.dumps(L)) == L


@pytest.mark.parametrize("coeffs, ok", [
    ([1e-300, 1.0, 1e300], False),
    ([2.0 ** -901, 1.0, 1.0], False),
    ([1.0, -(2.0 ** -901), 1.0], False),
    ([2.0 ** -899, 1.0, 1.0], True),
    ([2.0 ** -850, 2.0 ** -400, 1.0], True),
])
def test_psi_limit_refuses_ties_it_cannot_represent(coeffs, ok):
    # A constant form ties every pair; rp1 would take a coefficient below
    # RP1_TINY times the other as zero, a dominance.
    path = MonomialDiagonal.constant(coeffs)
    if ok:
        P = lim.decode_partition(lim.psi_limit(path))
        assert P.blocks == [(0, 1, 2)]
    else:
        with pytest.raises(ValueError, match="too far apart"):
            lim.psi_limit(path)
    # untied exponents may have coefficients of any size
    far = MonomialDiagonal([(c, i) for i, c in enumerate(coeffs)])
    assert lim.decode_partition(lim.psi_limit(far)).blocks == [
        (2,), (1,), (0,)]


def _raw_pairs(P):
    """psi_limit's pairs before rp1, pair by pair with Fraction
    comparisons, and its refusal of ties too far apart."""
    comp = {}
    for i, j in itertools.combinations(range(P.n), 2):
        (ci, ei), (cj, ej) = P.entries[i], P.entries[j]
        if ei == ej:
            a, b = sorted((abs(ci), abs(cj)))
            if a / b < lim.RP1_TINY:
                raise ValueError(
                    "tied coefficients {!r} and {!r} of entries {} and {} "
                    "are too far apart to represent their ratio".format(
                        ci, cj, i, j))
            comp[(i, j)] = (ci, cj)
        else:
            comp[(i, j)] = (1.0, 0.0) if ei > ej else (0.0, 1.0)
    return comp


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_psi_limit_attaches_the_decoded_partition(n, data):
    # coefficients up to 2^1600 apart, so some ties are refused
    spread = data.draw(st.sampled_from([0, 60, 450, 800]))
    path = MonomialDiagonal([
        (data.draw(st.sampled_from([-1.5, -1.0, 0.75, 1.0, 1.25]))
         * 2.0 ** data.draw(st.integers(-spread, spread)),
         Fraction(data.draw(st.integers(-2, 2)),
                  data.draw(st.sampled_from([1, 2, 3]))))
        for _ in range(n)])
    try:
        raw = _raw_pairs(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            lim.psi_limit(path)
        assert str(got.value) == str(exc)
        return
    L = lim.psi_limit(path)
    assert L == LimitPoint(path.n, raw)
    assert list(L.components) == list(raw)
    attached = lim.decode_partition(L)
    decoded = lim.decode_partition(LimitPoint(L.n, dict(L.components)))
    assert repr(attached.blocks) == repr(decoded.blocks)
    assert repr(attached.block_points) == repr(decoded.block_points)


def test_equality_with_other_types_is_false():
    L = lim.psi_limit(MonomialDiagonal([(1, 1), (2, 0)]))
    P = lim.decode_partition(L)
    C = Cell([(0,), (1,)], [1, 1])
    for x in (L, P, C):
        assert x not in [None] and x in [None, x]
        assert x != 3 and not x == 3
    assert L != P and P != L and C != L and P != C


@pytest.mark.parametrize("u, v", [(math.inf, 1.0), (1.0, -math.inf),
                                  (math.inf, math.inf), (math.nan, 1.0),
                                  (0.0, math.nan), (math.inf, 0.0)])
def test_rp1_refuses_non_finite_coordinates(u, v):
    with pytest.raises(ValueError, match="not a projective point"):
        lim.rp1(u, v)
    comp = {(0, 1): (u, v), (0, 2): (1.0, 0.0), (1, 2): (1.0, 0.0)}
    with pytest.raises(ValueError, match="not a projective point"):
        LimitPoint(3, comp)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_ordered_partition_refuses_non_finite_points(x):
    with pytest.raises(ValueError, match="must be finite"):
        OrderedPartition([[0, 1]], [[1.0, x]])


@pytest.mark.parametrize("blocks, points, error", [
    ([[0, 1]], [[1.0]], "point size"), ([[0, 1]], [[1.0, 0.0]], "nonzero"),
    ([[0, 2]], [[1.0, 1.0]], "partition")])
def test_ordered_partition_refuses_malformed_points(blocks, points, error):
    with pytest.raises(ValueError, match=error):
        OrderedPartition(blocks, points)


@pytest.mark.parametrize("n", [1, -2, 0, True, 2.0, "3", None])
def test_limit_point_refuses_n_below_two_or_not_integer(n):
    with pytest.raises(ValueError, match="n must be an integer >= 2, got "
                       + re.escape(repr(n))):
        LimitPoint(n, {})


def test_limit_point_takes_numpy_integer_n():
    comp = {(0, 1): (1.0, 0.0), (0, 2): (1.0, 0.0), (1, 2): (1.0, 0.0)}
    assert LimitPoint(np.int64(3), comp) == LimitPoint(3, comp)
    del comp[(1, 2)]
    with pytest.raises(ValueError, match="missing component"):
        LimitPoint(3, comp)


def test_so_basis_preserves_form():
    J = np.array([2.0, -1.0, 3.0])
    sub = lim.so_basis(J)
    assert sub.dim == 3
    for M in sub.basis:
        assert np.abs(M.T @ np.diag(J) + np.diag(J) @ M).max() <= 1e-12


def _so_basis_reference(J):
    """so_basis(J) by its former construction: one n x n matrix per pair
    i < j, through the public constructor."""
    n = len(J)
    basis = []
    for i, j in itertools.combinations(range(n), 2):
        M = np.zeros((n, n))
        M[i, j] = J[j]
        M[j, i] = -J[i]
        basis.append(M)
    return LieSubspace(basis)


# Form entries of either sign, with magnitudes from 1e-150 to 1e150.
_form_entries = st.builds(
    lambda s, m, k: s * m * 10.0 ** k, st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1.0, max_value=10.0), st.integers(-150, 149))


@settings(deadline=None, max_examples=300, derandomize=True, database=None)
@given(st.lists(_form_entries, min_size=2, max_size=8))
@example([1e-150, -1e150, 1.0])
@example([-1e150, -1e150])
def test_so_basis_matches_the_per_pair_construction(J):
    sub, ref = lim.so_basis(J), _so_basis_reference(np.array(J))
    assert sub.n == ref.n and sub.dim == ref.dim == len(J) * (len(J) - 1) // 2
    for a, b in ((sub.basis, ref.basis), (sub.onb, ref.onb)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def test_eta_derives_onb_on_first_read():
    L = lim.psi_limit(MonomialDiagonal([(1.0, 2), (-2.0, 1), (3.0, 1)]))
    sub = lim.eta(L)
    assert "onb" not in sub.__dict__
    onb = sub.onb
    assert sub.__dict__["onb"] is onb and sub.onb is onb
    assert onb.shape == (9, 3)


# A form and a conjugator whose form path has a zero or a non-finite
# entry, with the error and message of the division on numpy floats it
# replaced: c^2 past the float range is inf or 0, and J_i / 0 is inf.
INF, NAN = math.inf, math.nan
ZERO_ENTRY = (lim.ZeroEigenvalue, "zero coefficient in diagonal path")
NOT_FINITE = (ValueError, "path coefficients must be finite")


@pytest.mark.parametrize("J, cs, error", [
    ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], ZERO_ENTRY),
    ([-0.0, 1.0, 1.0], [1.0, 1.0, 1.0], ZERO_ENTRY),
    ([INF, 1.0, 1.0], [1.0, 1.0, 1.0], NOT_FINITE),
    ([-INF, 1.0, 1.0], [1.0, 1.0, 1.0], NOT_FINITE),
    ([NAN, 1.0, 1.0], [1.0, 1.0, 1.0], NOT_FINITE),
    ([1.0, 1.0, 1.0], [1e200, 1.0, 1.0], ZERO_ENTRY),  # c^2 overflows
    ([1.0, 1.0, 1.0], [1e-200, 1.0, 1.0], NOT_FINITE),  # c^2 underflows
    ([-1.0, 1.0, 1.0], [1e-200, 1.0, 1.0], NOT_FINITE),
    ([1e308, 1.0, 1.0], [1e-4, 1.0, 1.0], NOT_FINITE),  # J / c^2 overflows
    ([5e-324, 1.0, 1.0], [1e10, 1.0, 1.0], ZERO_ENTRY),  # and underflows
    ([0.0, 1.0, 1.0], [1e-200, 1.0, 1.0], NOT_FINITE),  # 0 / 0
    ([INF, 1.0, 1.0], [1e200, 1.0, 1.0], NOT_FINITE),  # inf / inf
    ([INF, 1.0, 1.0], [1e-200, 1.0, 1.0], NOT_FINITE),
    ([NAN, 1.0, 1.0], [1e-200, 1.0, 1.0], NOT_FINITE),
    ([1.0, 0.0, 1.0], [1e-200, 1.0, 1.0], ZERO_ENTRY),  # a zero anywhere
    ([1.0, 1.0, 1.0], [1e-200, 1e200, 1.0], ZERO_ENTRY),
])
def test_form_path_past_the_float_range_is_refused_as_before(J, cs, error):
    C = MonomialDiagonal([(c, k) for k, c in enumerate(cs)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            lim.conjugacy_to_form_path(C, J)
    assert (type(info.value), str(info.value)) == error


def test_monomial_diagonal_keeps_its_fractions():
    exps = [Fraction(1, 3), Fraction(-7, 2), Fraction(10**20 + 1, 3)]
    P = MonomialDiagonal([(1.0, x) for x in exps] + [(2.0, 5)])
    assert all(e is x for (_, e), x in zip(P.entries, exps))
    assert P.entries[-1] == (2.0, Fraction(5))
    assert P._terms == [(c, float(e)) for c, e in P.entries]
    assert P.reversed()._terms == [(c, -float(e)) for c, e in P.entries]


def test_conjugacy_to_form_path():
    C = MonomialDiagonal([(1.0, 2), (1.0, 1), (1.0, 0)])
    path = lim.conjugacy_to_form_path(C, [1.0, 1.0, -1.0])
    assert path.entries == [(1.0, Fraction(-4)), (1.0, Fraction(-2)),
                            (-1.0, Fraction(0))]
    with pytest.raises(lim.DimensionMismatch):
        lim.conjugacy_to_form_path(C, [1.0, 1.0])


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_limit_subalgebras_are_closed_under_bracket(n, data):
    entries = [
        (data.draw(st.sampled_from([-2.0, -1.0, 1.0, 3.0])),
         Fraction(data.draw(st.integers(min_value=-3, max_value=3))))
        for _ in range(n)]
    path = MonomialDiagonal(entries)
    sub = lim.eta(lim.psi_limit(path))
    assert sub.dim == n * (n - 1) // 2
    assert sub.bracket_closure_residual() <= 1e-9


def test_numeric_vs_exact_limit():
    for _ in range(30):
        n = int(rng.integers(2, 6))
        entries = [(float(rng.choice([-2.0, -0.5, 1.0, 2.0])),
                    Fraction(int(rng.integers(-3, 4))))
                   for _ in range(n)]
        path = MonomialDiagonal(entries)
        exact = lim.eta(lim.psi_limit(path))
        numeric = lim.so_basis(path.evaluate(1e6))
        assert exact.principal_angle_distance(numeric) <= 1e-4


def test_subspaces_of_different_dimension_are_a_right_angle_apart():
    S = lim.so_basis([1.0, 2.0, 3.0])
    T = LieSubspace(S.basis[:2])
    assert S.principal_angle_distance(T) == math.pi / 2
    assert T.principal_angle_distance(S) == math.pi / 2


def test_flag_signature_normalization():
    F = FlagSignature([(1, 2), (0, 2), (1, 1)])
    assert F.pairs == [(1, 2), (2, 0), (1, 1)]
    assert F.n == 7
    assert F == FlagSignature([(1, 2), (2, 0), (1, 1)])
    # a tuple of pairs, equal and hashed as one
    assert F == ((1, 2), (2, 0), (1, 1)) and hash(F) == hash(tuple(F))
    assert F.first == (1, 2) and F.rest == [(2, 0), (1, 1)]
    with pytest.raises(ValueError):
        FlagSignature([(1, -1)])


def test_classify_3d_table():
    assert lim.classify_limit_group_3d(FlagSignature([(3, 0)])) == "O(3)"
    assert lim.classify_limit_group_3d(FlagSignature([(2, 1)])) == "O(2,1)"
    assert lim.classify_limit_group_3d(FlagSignature([(1, 2)])) == "O(2,1)"
    assert lim.classify_limit_group_3d(
        FlagSignature([(2, 0), (1, 0)])) == "Euc(2)^-T"
    assert lim.classify_limit_group_3d(
        FlagSignature([(1, 1), (1, 0)])) == "Mink^-T"
    assert lim.classify_limit_group_3d(
        FlagSignature([(1, 0), (2, 0)])) == "Euc(2)"
    assert lim.classify_limit_group_3d(
        FlagSignature([(1, 0), (1, 1)])) == "Mink"
    assert lim.classify_limit_group_3d(
        FlagSignature([(1, 0), (1, 0), (1, 0)])) == "Heis"
    for pairs in ([(2, 2)], [(0, 3)]):
        with pytest.raises(lim.UnknownSignature):
            lim.classify_limit_group_3d(FlagSignature(pairs))


def test_is_limit_of():
    assert lim.is_limit_of(FlagSignature([(1, 3)]), 1, 3)
    assert lim.is_limit_of(FlagSignature([(1, 1), (2, 0)]), 1, 3)
    assert not lim.is_limit_of(FlagSignature([(0, 1), (3, 0)]), 1, 3)
    # a later block may contribute with either orientation
    assert lim.is_limit_of(FlagSignature([(1, 0), (2, 0)]), 1, 2)
    assert lim.is_limit_of(FlagSignature([(1, 0), (2, 0)]), 3, 0)
    with pytest.raises(lim.DimensionMismatch):
        lim.is_limit_of(FlagSignature([(1, 1)]), 1, 3)


def test_limit_poset_small():
    nodes, edges = lim.limit_poset(2, 0)
    labels = {tuple(F.pairs) for F in nodes}
    assert labels == {((2, 0),), ((1, 0), (1, 0))}
    assert len(edges) == 1
    # edges always go from coarser to strictly finer signatures
    nodes, edges = lim.limit_poset(1, 2)
    for a, b in edges:
        assert len(b.pairs) == len(a.pairs) + 1
    with pytest.raises(ValueError, match="negative"):
        lim.limit_poset(1, -1)


@pytest.mark.parametrize("n", range(1, 11))
def test_limit_poset_matches_the_reference_search(n):
    for p in range(1, n + 1):
        nodes, edges = lim.limit_poset(p, n - p)
        assert (nodes, edges) == poset_reference.limit_poset(p, n - p)
        assert all(type(F) is FlagSignature for F in nodes)
        assert all(type(pair) is tuple for F in nodes for pair in F)
        assert all(type(e) is tuple and type(e[0]) is type(e[1])
                   is FlagSignature for e in edges)


def _compositions(total):
    if total == 0:
        yield []
        return
    for head in range(1, total + 1):
        for tail in _compositions(total - head):
            yield [head] + tail


def _swap_search(F, p, q):
    """is_limit_of by trying every orientation of the later blocks."""
    if F.first[0] < 1:
        return False
    for swaps in itertools.product((False, True), repeat=len(F.rest)):
        sp, sq = F.first
        for (a, b), s in zip(F.rest, swaps):
            sp, sq = (sp + b, sq + a) if s else (sp + a, sq + b)
        if (sp, sq) == (p, q):
            return True
    return False


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(1, 7)
                                  for p in range(1, n + 1)])
def test_limit_poset_matches_brute_force(p, q):
    # oracle: every composition of p + q into block sizes, with every count
    # of positives per block, kept when it is a limit signature
    candidates = {FlagSignature([(a, s - a) for a, s in zip(ps, sizes)])
                  for sizes in _compositions(p + q)
                  for ps in itertools.product(*(range(s + 1) for s in sizes))}
    for F in candidates:
        assert lim.is_limit_of(F, p, q) == _swap_search(F, p, q), F
    expected = {F for F in candidates if lim.is_limit_of(F, p, q)}
    nodes, edges = lim.limit_poset(p, q)
    assert len(nodes) == len(expected)
    assert set(nodes) == expected
    # edges are all single-block splits between nodes, each adding one block
    assert len(edges) == len(set(edges))
    assert set(edges) == {(F, G) for F in nodes
                          for G in lim._split_signatures(F) if G in expected}
    for a, b in edges:
        assert len(b.pairs) == len(a.pairs) + 1


def test_split_of_a_limit_is_a_limit_iff_its_first_pair_has_a_positive():
    # limit_poset keeps a one-block split G of a limit when G.first[0] >= 1
    # and makes no subset-sum test; check that against is_limit_of
    children = 0
    for n in range(1, 9):
        for p in range(1, n + 1):
            nodes, _ = lim.limit_poset(p, n - p)
            for F in nodes:
                for G in lim._split_signatures(F):
                    assert lim.is_limit_of(G, p, n - p) == (G.first[0] >= 1)
                    children += 1
    assert children == 25720


def _decode_by_tournament(L):
    """The former decode_partition, kept as the reference: tie classes by
    union-find, then a dominance tournament between the classes checked
    for a strict total order."""
    n = L.n
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (i, j), (x, y) in L.components.items():
        if x != 0 and y != 0:
            parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    blocks = [tuple(sorted(g)) for g in groups.values()]
    block_of = {i: bi for bi, b in enumerate(blocks) for i in b}
    for (i, j), (x, y) in L.components.items():
        if (block_of[i] == block_of[j]) != (x != 0 and y != 0):
            raise lim.Inconsistent("tie classes")
    dom = {}
    for (i, j), (x, y) in L.components.items():
        a, b = block_of[i], block_of[j]
        if a == b:
            continue
        d = y == 0
        if dom.get((a, b), d) != d or dom.get((b, a), not d) == d:
            raise lim.Inconsistent("contradictory dominance")
        dom[(a, b)] = d

    def beats(a, b):
        return dom[(a, b)] if (a, b) in dom else not dom[(b, a)]

    k = len(blocks)
    order = sorted(range(k), key=lambda a: sum(beats(a, b) for b in range(k)
                                               if b != a), reverse=True)
    if not all(beats(order[a], order[b])
               for a in range(k) for b in range(a + 1, k)):
        raise lim.Inconsistent("not a total order")
    blocks = [blocks[a] for a in order]
    points = []
    for b in blocks:
        vals = {b[0]: 1.0}
        for i in b[1:]:
            x, y = L.components[(b[0], i)]
            vals[i] = y / x
        for i, j in itertools.combinations(b, 2):
            (g0, g1), (w0, w1) = L.components[(i, j)], lim.rp1(vals[i],
                                                                vals[j])
            if not (abs(g0 - w0) <= 1e-12 + 1e-9 * abs(w0)
                    and abs(g1 - w1) <= 1e-12 + 1e-9 * abs(w1)):
                raise lim.Inconsistent("incoherent")
        points.append([vals[i] for i in b])
    return OrderedPartition(blocks, points)


PAIR_VALUES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (1.0, 0.5),
               (0.5, 1.0), (1.0, -0.5)]


@settings(deadline=None, max_examples=400)
@given(st.integers(min_value=2, max_value=7), st.data())
def test_decode_matches_the_tournament_decoder(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    if data.draw(st.booleans()):
        comp = {ij: data.draw(st.sampled_from(PAIR_VALUES)) for ij in pairs}
    else:
        # a psi-limit, which decodes, with one pair perturbed
        path = MonomialDiagonal([
            (data.draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0])),
             data.draw(st.integers(min_value=-2, max_value=2)))
            for _ in range(n)])
        comp = dict(lim.psi_limit(path).components)
        ij = data.draw(st.sampled_from(pairs))
        comp[ij] = data.draw(st.sampled_from(PAIR_VALUES + [comp[ij]]))
    L = LimitPoint(n, comp)
    try:
        want = _decode_by_tournament(L)
    except lim.Inconsistent:
        with pytest.raises(lim.Inconsistent):
            lim.decode_partition(L)
        return
    got = lim.decode_partition(L)
    assert got.blocks == want.blocks
    assert got.block_points == want.block_points


def _qr_projector(basis):
    """Orthogonal projector onto the span of the basis by the former
    construction: normalized columns, QR, and a rank cut on diag(R)."""
    cols = [b.ravel() / np.linalg.norm(b) for b in basis]
    q, r = np.linalg.qr(np.column_stack(cols))
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
    return q[:, keep] @ q[:, keep].T


@pytest.mark.parametrize("n", range(2, 9))
def test_onb_projector_matches_qr(n):
    for _ in range(5):
        entries = [(float(rng.choice([-2.0, -0.5, 1.0, 2.0])),
                    Fraction(int(rng.integers(-3, 4)))) for _ in range(n)]
        J = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        for sub in (lim.eta(lim.psi_limit(MonomialDiagonal(entries))),
                    lim.so_basis(J)):
            assert sub.dim == n * (n - 1) // 2
            err = np.abs(sub.onb @ sub.onb.T - _qr_projector(sub.basis))
            assert err.max() <= 1e-12


def test_lie_subspace_needs_an_orthogonal_basis():
    # also where the Gram matrix of the unscaled elements is inf or 0
    for k in (1.0, 1e160, 1e-170):
        with pytest.raises(ValueError, match="not pairwise orthogonal"):
            LieSubspace([k * e(0, 1), k * (e(0, 1) + e(1, 2))])
    # zero elements are left out of onb; orthogonal ones are kept
    assert LieSubspace([e(0, 1), np.zeros((3, 3)), 2 * e(1, 2)]).dim == 2


@pytest.mark.parametrize("J", [[1e-170, 1e-170, 1.0], [1e160, 1e160, 1.0],
                               [1e-170, -1e170, 3.0], [-1e170, 1e-170]])
def test_onb_keeps_every_element_at_the_ends_of_the_float_range(J):
    # the squares of these elements' entries leave the float range, so
    # norms taken off the raw Gram diagonal are 0 or inf
    for sub in (lim.so_basis(J), LieSubspace(lim.so_basis(J).basis)):
        assert sub.dim == sub.onb.shape[1] == len(J) * (len(J) - 1) // 2
        assert np.abs(np.linalg.norm(sub.onb, axis=0) - 1).max() <= 1e-15


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf, "3"])
def test_flag_signature_refuses_non_integer_entries(bad):
    with pytest.raises(ValueError, match="not an integer"):
        FlagSignature([(1, bad)])
    with pytest.raises(ValueError, match="not an integer"):
        FlagSignature([(1, 0), (bad, 1)])


def test_flag_signature_takes_integer_values():
    F = FlagSignature([(np.int64(1), 2.0), (np.int32(0), True)])
    assert F == ((1, 2), (1, 0))
    assert all(type(x) is int for pair in F for x in pair)


@pytest.mark.parametrize("J", [[], [1.0], [-2.0], [1.0, math.nan],
                               [math.inf, 1.0, 2.0], [[1.0, 2.0]], 3.0])
def test_so_basis_needs_two_finite_nonzero_entries(J):
    with pytest.raises(ValueError):
        lim.so_basis(J)


def test_so_basis_refuses_a_zero_entry():
    with pytest.raises(lim.ZeroEigenvalue):
        lim.so_basis([1, 0, 2])


@pytest.mark.parametrize("basis", [
    [], np.zeros((0, 3, 3)), [np.full((2, 2), np.nan)],
    [e(0, 1), np.full((3, 3), np.inf)], [np.zeros((2, 3))], [[1.0, 0.0]],
    [e(0, 1), np.zeros((2, 2))]])
def test_lie_subspace_needs_finite_square_matrices_of_one_size(basis):
    with pytest.raises(ValueError):
        LieSubspace(basis)


# Form paths n = 2..8 with few exponents, so blocks tie, and coefficients
# of either sign from 1e-8 to 1e8 in magnitude.
_coefficients = st.builds(
    lambda s, c: s * c, st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1e-8, max_value=1e8))
_tied_paths = st.lists(
    st.tuples(_coefficients, st.builds(
        Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))),
    min_size=2, max_size=8).map(MonomialDiagonal)


def _hex(points):
    return [[x.hex() for x in p] for p in points]


@settings(deadline=None, max_examples=300, derandomize=True, database=None)
@given(_tied_paths)
def test_limit_chain_private_constructors_match_the_public_ones(path):
    L = lim.psi_limit(path)
    # the partition psi_limit attaches, against the checked constructor
    # on its blocks of equal exponent and its unscaled points
    exps = sorted({e for _, e in path.entries}, reverse=True)
    blocks = [[i for i, (_, e) in enumerate(path.entries) if e == x]
              for x in exps]
    points = [[1.0] + [y / x for x, y in (L.components[(b[0], i)]
                                          for i in b[1:])] for b in blocks]
    want = OrderedPartition(blocks, points)
    P = L._partition
    assert type(P) is OrderedPartition
    assert P.blocks == want.blocks
    assert _hex(P.block_points) == _hex(want.block_points)
    assert all(type(p) is tuple for p in P.block_points)

    F = lim.flag_signature(P)
    assert type(F) is FlagSignature
    assert F == FlagSignature([(sum(v > 0 for v in p), sum(v < 0 for v in p))
                               for p in P.block_points])

    # onb's norms taken other than off the Gram diagonal differ in the
    # last bit on about 1% of such points
    sub = lim.eta(L)
    ref = LieSubspace(sub.basis)
    assert sub.n == ref.n == path.n
    for a, b in ((sub.basis, ref.basis), (sub.onb, ref.onb)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def _psi_reference(P):
    """The components and partition of psi_limit(P), pair by pair through
    rp1, exponents compared as Fractions; a tied pair that rp1 maps to a
    point with a zero coordinate is refused."""
    comp = {}
    for i, j in itertools.combinations(range(P.n), 2):
        (ci, ei), (cj, ej) = P.entries[i], P.entries[j]
        if ei != ej:
            comp[(i, j)] = (1.0, 0.0) if ei > ej else (0.0, 1.0)
            continue
        comp[(i, j)] = lim.rp1(ci, cj)
        if 0.0 in comp[(i, j)]:
            raise ValueError(
                "tied coefficients {!r} and {!r} of entries {} and {} are "
                "too far apart to represent their ratio".format(ci, cj, i, j))
    exps = sorted({e for _, e in P.entries}, reverse=True)
    blocks = [[i for i, (_, e) in enumerate(P.entries) if e == x]
              for x in exps]
    points = [[1.0] + [y / x for x, y in (comp[(b[0], i)] for i in b[1:])]
              for b in blocks]
    return comp, OrderedPartition(blocks, points)


def _assert_psi_limit_matches_the_reference(path):
    try:
        comp, want = _psi_reference(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            lim.psi_limit(path)
        assert str(got.value) == str(exc)
        return
    L = lim.psi_limit(path)
    assert list(L.components) == list(comp)
    assert _hex(L.components.values()) == _hex(comp.values())
    P = lim.decode_partition(L)
    assert P.blocks == want.blocks
    assert _hex(P.block_points) == _hex(want.block_points)


# Magnitudes at and on either side of RP1_TINY, over a power of two, so
# that the ratio of two tied coefficients falls exactly at, just inside or
# just past the refusal; and plain magnitudes of either order.
_TINY = lim.RP1_TINY
_near_tiny = st.builds(
    lambda s, k, c: s * math.ldexp(c, k), st.sampled_from([-1.0, 1.0]),
    st.integers(-3, 3), st.sampled_from([
        1.0, 1.5, _TINY, math.nextafter(_TINY, 0), math.nextafter(_TINY, 1),
        2.0 * _TINY, 0.5 * _TINY, 3.0 * _TINY]) | st.floats(0.5, 2.0))
_tied_tiny_paths = st.lists(
    st.tuples(_near_tiny, st.sampled_from(
        [Fraction(0), Fraction(1, 2), Fraction(1)])),
    min_size=2, max_size=7).map(MonomialDiagonal)


@settings(deadline=None, max_examples=400, derandomize=True, database=None)
@given(_tied_tiny_paths)
@example(MonomialDiagonal([(1.0, 0), (_TINY, 0)]))  # at RP1_TINY: kept
@example(MonomialDiagonal([(-1.0, 0), (-math.nextafter(_TINY, 0), 0)]))
@example(MonomialDiagonal([(2.0, 1), (-1.0, 0), (3.0, 1),
                           (-math.nextafter(_TINY, 0), 0)]))
@example(MonomialDiagonal([(-_TINY, 0), (1.0, 0), (0.5 * _TINY, 0)]))
def test_psi_limit_matches_rp1_pair_by_pair(path):
    _assert_psi_limit_matches_the_reference(path)


@pytest.mark.parametrize("exps", [
    [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30), Fraction(1, 3)],
    [Fraction(1, 10**40), Fraction(1, 10**40 + 1), Fraction(1, 10**40 - 1),
     Fraction(1, 10**40 + 1)],
    [Fraction(10**40 + 1, 10**40 + 3), Fraction(10**40, 10**40 + 2),
     Fraction(10**40 - 1, 10**40 + 1), Fraction(10**40 + 1, 10**40 + 3),
     Fraction(10**40, 10**40 + 2)],
    [-Fraction(7, 10**40 + 9), -Fraction(7, 10**40 + 7),
     -Fraction(7, 10**40 + 8)],
])
def test_psi_limit_ranks_exponents_exactly_where_floats_collide(exps):
    assert len({float(e) for e in exps}) == 1
    path = MonomialDiagonal([(1.0 + k, e) for k, e in enumerate(exps)])
    want = [tuple(i for i, e in enumerate(exps) if e == x)
            for x in sorted(set(exps), reverse=True)]
    assert lim.decode_partition(lim.psi_limit(path)).blocks == want
    _assert_psi_limit_matches_the_reference(path)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cell_signatures_match_the_public_constructor(n):
    from geomlim.cells import enumerate_cells
    for cell in enumerate_cells(n):
        F = cell.signature()
        assert type(F) is FlagSignature
        signs = [[cell.signs[i] for i in b] for b in cell.blocks]
        assert F == FlagSignature([(s.count(1), s.count(-1)) for s in signs])


def test_split_signatures_match_the_public_constructor():
    for n in range(1, 7):
        for p in range(1, n + 1):
            for F in lim.limit_poset(p, n - p)[0]:
                want = [FlagSignature([*F[:i], (a, b), (s - a, t - b),
                                       *F[i + 1:]])
                        for i, (s, t) in enumerate(F)
                        for a in range(s + 1) for b in range(t + 1)
                        if 0 < a + b < s + t]
                got = lim._split_signatures(F)
                assert got == want
                assert all(type(G) is FlagSignature
                           and all(type(pair) is tuple for pair in G)
                           for G in got)
