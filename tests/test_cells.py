from collections import Counter
from math import comb

import pytest

from geomlim import cells
from geomlim import limits as lim
from geomlim.cells import Cell


def test_simplex_counts_formula():
    assert cells.simplex_cell_counts(3) == [3, 6, 4]
    for n in range(2, 8):
        got = cells.simplex_cell_counts(n)
        assert got == [2 ** k * comb(n, k + 1) for k in range(n)]


def test_closure_counts():
    assert cells.closure_cell_counts(2) == [2, 2]
    assert cells.closure_cell_counts(3) == [6, 12, 4]
    assert cells.closure_cell_counts(4)[-1] == 8
    assert cells.closure_cell_counts(4) == [24, 72, 56, 8]
    # the cells cap: n = 7 is allowed, n = 8 is not
    assert sum(cells.closure_cell_counts(cells.MAX_CELLS_N)) == 202672
    assert sum(cells.closure_cell_counts(cells.MAX_CELLS_N + 1)) == 2951680


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_counts_match_enumeration(n):
    # dual route: the recursion versus a direct census of the cells
    census = Counter(c.dim for c in cells.enumerate_cells(n))
    assert [census[d] for d in range(n)] == cells.closure_cell_counts(n)


def test_euler_characteristic():
    assert cells.euler_characteristic(2) == 0
    assert cells.euler_characteristic(3) == -2


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
