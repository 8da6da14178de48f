import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geomlim import limits as lim
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


def test_so_basis_preserves_form():
    J = np.array([2.0, -1.0, 3.0])
    sub = lim.so_basis(J)
    assert sub.dim == 3
    for M in sub.basis:
        assert np.abs(M.T @ np.diag(J) + np.diag(J) @ M).max() <= 1e-12


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


def test_flag_signature_normalization():
    F = FlagSignature([(1, 2), (0, 2), (1, 1)])
    assert F.pairs == [(1, 2), (2, 0), (1, 1)]
    assert F.n == 7
    assert F == FlagSignature([(1, 2), (2, 0), (1, 1)])


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
    with pytest.raises(lim.UnknownSignature):
        lim.classify_limit_group_3d(FlagSignature([(2, 2)]))


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
