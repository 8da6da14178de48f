from collections import Counter
from math import comb

import pytest

from geomlim import cells
from geomlim import limits as lim
from geomlim.cells import Cell

import lemmas


def test_simplex_counts_formula():
    assert lemmas.simplex_cell_counts(3) == [3, 6, 4]
    for n in range(2, 8):
        got = lemmas.simplex_cell_counts(n)
        assert got == [2 ** k * comb(n, k + 1) for k in range(n)]


def test_closure_counts():
    assert cells.closure_cell_counts(2) == [2, 2]
    assert cells.closure_cell_counts(3) == [6, 12, 4]
    assert cells.closure_cell_counts(4)[-1] == 8
    assert cells.closure_cell_counts(4) == [24, 72, 56, 8]
    # the cells cap: n = 7 is allowed, n = 8 is not
    assert sum(cells.closure_cell_counts(cells.MAX_CELLS_N)) == 202672
    assert sum(cells.closure_cell_counts(cells.MAX_CELLS_N + 1)) == 2951680
    # the closed form against the fiber recursion
    for n in range(1, 13):
        assert cells.closure_cell_counts(n) == lemmas.fiber_cell_counts(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_counts_match_enumeration(n):
    # dual route: the closed form versus a direct census of the cells
    census = Counter(c.dim for c in cells.enumerate_cells(n))
    assert [census[d] for d in range(n)] == cells.closure_cell_counts(n)


def test_euler_characteristic():
    assert lemmas.euler_characteristic(2) == 0
    assert lemmas.euler_characteristic(3) == -2


def test_cell_canonicalization():
    a = Cell([(0, 1), (2,)], {0: 1, 1: -1, 2: 1})
    b = Cell([(0, 1), (2,)], {0: -1, 1: 1, 2: -1})
    assert a == b
    assert a.signs[0] == 1
    assert a.dim == 1
    with pytest.raises(ValueError):
        Cell([(0,), (2,)], {0: 1, 2: 1})


def test_cell_signature():
    c = Cell([(0, 1, 2)], {0: 1, 1: -1, 2: 1})
    assert c.signature().pairs == [(2, 1)]
    c = Cell([(2,), (0, 1)], {0: 1, 1: -1, 2: 1})
    assert c.signature().pairs == [(1, 0), (1, 1)]


def test_degeneration_relation():
    top = Cell([(0, 1, 2)], {0: 1, 1: 1, 2: 1})
    edge = Cell([(0, 1), (2,)], {0: 1, 1: 1, 2: 1})
    vertex = Cell([(0,), (1,), (2,)], {0: 1, 1: 1, 2: 1})
    assert cells.degeneration_relation(top, top)
    assert cells.degeneration_relation(top, edge)
    assert cells.degeneration_relation(edge, vertex)
    assert cells.degeneration_relation(top, vertex)
    assert not cells.degeneration_relation(edge, top)
    # order of blocks matters: (2),(0,1) does not refine (0,1),(2)
    other = Cell([(2,), (0, 1)], {0: 1, 1: 1, 2: 1})
    assert not cells.degeneration_relation(edge, other)
    # sign classes must restrict: (+,-,+) is not a face of the all-+ cell
    mixed = Cell([(0, 1), (2,)], {0: 1, 1: -1, 2: 1})
    assert not cells.degeneration_relation(top, mixed)


def test_degeneration_is_transitive_on_small_n():
    all3 = cells.enumerate_cells(3)
    for a in all3:
        for b in all3:
            if not cells.degeneration_relation(a, b):
                continue
            for c in all3:
                if cells.degeneration_relation(b, c):
                    assert cells.degeneration_relation(a, c)


def test_top_cell_boundary_census():
    top = Cell([(0, 1, 2)], {0: 1, 1: 1, 2: 1})
    names = Counter()
    for c in cells.boundary_cells(top):
        names[lim.classify_limit_group_3d(c.signature())] += 1
    assert names == Counter({"Euc(2)^-T": 3, "Euc(2)": 3, "Heis": 6})


def test_boundary_sizes():
    top = Cell([(0, 1, 2)], {0: 1, 1: 1, 2: 1})
    bd = cells.boundary_cells(top)
    assert len(bd) == 12
    assert Counter(c.dim for c in bd) == Counter({1: 6, 0: 6})


@pytest.mark.parametrize("n", [3, 4])
def test_faces_match_degeneration_relation(n):
    all_cells = cells.enumerate_cells(n)
    for c in all_cells:
        got = list(cells.faces(c))
        assert len(got) == len(set(got))
        assert set(got) == {b for b in all_cells if b.dim == c.dim - 1
                            and cells.degeneration_relation(c, b)}


def test_boundary_cells_match_degeneration_relation():
    all3 = cells.enumerate_cells(3)
    for c in all3:
        got = cells.boundary_cells(c)
        assert len(got) == len(set(got))
        assert set(got) == {b for b in all3
                            if b != c and cells.degeneration_relation(c, b)}


# The complex that cells.faces builds against the known topology of the
# real toric variety of the permutohedron (Davis-Januszkiewicz, Duke
# Math. J. 1991).


@pytest.mark.parametrize("n, intervals", [(3, 24), (4, 576), (5, 11040)])
def test_faces_are_thin(n, intervals):
    # every codimension-2 face of a cell is reached through exactly two
    # faces (the diamond property of a regular CW complex's face poset)
    seen = 0
    for c in cells.enumerate_cells(n):
        through = Counter(g for f in cells.faces(c) for g in cells.faces(f))
        assert set(through.values()) <= {2}
        seen += len(through)
    assert seen == intervals


def _rank_gf2(rows):
    """Rank over GF(2) of rows given as int bitsets."""
    pivots = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def _betti_gf2(n):
    by_dim = [[] for _ in range(n)]
    for c in cells.enumerate_cells(n):
        by_dim[c.dim].append(c)
    index = [{c: i for i, c in enumerate(cs)} for cs in by_dim]
    # rank[d] is the rank of the boundary map from dimension d to d - 1
    rank = [0] * (n + 1)
    for d in range(1, n):
        rank[d] = _rank_gf2(
            sum(1 << index[d - 1][f] for f in cells.faces(c))
            for c in by_dim[d])
    return [len(by_dim[d]) - rank[d] - rank[d + 1] for d in range(n)]


@pytest.mark.parametrize("n, eulerian", [
    (2, [1, 1]), (3, [1, 4, 1]), (4, [1, 11, 11, 1]),
    (5, [1, 26, 66, 26, 1])])
def test_mod2_betti_numbers_are_eulerian(n, eulerian):
    # the mod-2 Betti numbers of a small cover are the h-vector of its
    # polytope, here the Eulerian numbers of the permutohedron
    betti = _betti_gf2(n)
    assert betti == eulerian
    assert sum((-1) ** d * b for d, b in enumerate(betti)) \
        == lemmas.euler_characteristic(n)


# (poset edges, face edges) at each (p, q) whose cells add face edges
EXTRA_FACE_EDGES = {(2, 2): (24, 27), (3, 1): (24, 25), (2, 3): (77, 81),
                    (3, 2): (85, 90), (4, 1): (77, 79)}


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(2, 6)
                                  for p in range(1, n + 1)])
def test_cell_order_contains_limit_poset(p, q):
    # the cells carry the projective order and limit_poset the oriented
    # one (see the cells module docstring), so the faces may add edges
    nodes, edges = lim.limit_poset(p, q)
    sig = {c: c.signature() for c in cells.enumerate_cells(p + q)}
    limits = {F for F in sig.values() if lim.is_limit_of(F, p, q)}
    assert limits == set(nodes)
    face_edges = {(sig[c], sig[f]) for c in sig for f in cells.faces(c)
                  if sig[c] in limits and sig[f] in limits}
    assert set(edges) <= face_edges
    if (p, q) in EXTRA_FACE_EDGES:
        assert (len(edges), len(face_edges)) == EXTRA_FACE_EDGES[p, q]
    else:
        assert set(edges) == face_edges


def _same_cell(c):
    """c against the public constructor's cell of its blocks and signs."""
    public = Cell(c.blocks, c.signs)
    assert type(c.blocks) is tuple and all(type(b) is tuple for b in c.blocks)
    assert type(c.signs) is tuple
    assert c.blocks == public.blocks and c.signs == public.signs
    assert c == public and hash(c) == hash(public)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_private_constructor_cells_are_the_public_ones(n):
    # enumerate_cells and faces build their cells without the
    # constructor's sort, cover and sign checks; each is the cell the
    # constructor makes of its blocks and signs, and each face is the
    # constructor's cell of the split blocks with the parent's signs
    for c in cells.enumerate_cells(n):
        _same_cell(c)
        for f in cells.faces(c):
            _same_cell(f)
            assert f == Cell(f.blocks, c.signs)
