"""Cell combinatorics of the closure of the diagonal orthogonal groups.

Cells are indexed by ordered set partitions of the coordinates together
with a sign class (one sign per coordinate, modulo one global flip per
block; canonically the first index of every block is +)."""

import itertools
from math import comb

from .limits import OrderedPartition, _split_one_block, flag_signature


class Cell:
    """An ordered set partition of {0..n-1} plus a canonical sign class."""

    def __init__(self, blocks, signs):
        self.blocks = tuple(tuple(sorted(b)) for b in blocks)
        signs = dict(signs) if not isinstance(signs, dict) else dict(signs)
        canon = {}
        for b in self.blocks:
            flip = signs[b[0]] < 0
            for i in b:
                s = -signs[i] if flip else signs[i]
                if s not in (-1, 1):
                    raise ValueError("signs must be +-1")
                canon[i] = s
        self.signs = canon
        cover = sorted(i for b in self.blocks for i in b)
        if cover != list(range(len(cover))):
            raise ValueError("blocks must partition the index set")

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)

    @property
    def dim(self):
        return self.n - len(self.blocks)

    def key(self):
        return (self.blocks, tuple(sorted(self.signs.items())))

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Cell({}, {})".format(self.blocks, self.signs)

    def to_partition(self):
        """The matching ordered partition, sign vectors as block points."""
        pts = [[float(self.signs[i]) for i in b] for b in self.blocks]
        return OrderedPartition(self.blocks, pts)

    def signature(self):
        return flag_signature(self.to_partition())


def simplex_cell_counts(n):
    """Counts of the open simplices of the projectivized coordinate
    arrangement: 2^k * C(n, k+1) cells of dimension k, k = 0..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    return [2 ** k * comb(n, k + 1) for k in range(n)]


def closure_cell_counts(n):
    """Cell counts of the closure, by dimension, via the fiber recursion:
    each k-simplex of the base carries a copy of the (n-k-1)-closure."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return [1]
    table = {0: [1], 1: [1]}
    for m in range(2, n + 1):
        c = [0] * m
        simp = [2 ** k * comb(m, k + 1) for k in range(m)]
        for k in range(m):
            fiber = table[m - k - 1]
            for j, f in enumerate(fiber):
                c[k + j] += simp[k] * f
        table[m] = c
    return table[n]


def _split_block(block):
    for k in range(1, len(block)):
        for left in itertools.combinations(block, k):
            yield left, tuple(i for i in block if i not in left)


def _ordered_set_partitions(block):
    for left, rest in _split_block(block):
        for tail in _ordered_set_partitions(rest):
            yield [left] + tail
    yield [block]


def enumerate_cells(n):
    """All cells: one per (ordered set partition, sign class)."""
    if n < 2:
        raise ValueError("need n >= 2")
    cells = []
    for blocks in _ordered_set_partitions(tuple(range(n))):
        free = [i for b in blocks for i in b[1:]]
        for signs in itertools.product((1, -1), repeat=len(free)):
            assign = {i: 1 for b in blocks for i in b}
            for i, s in zip(free, signs):
                assign[i] = s
            cells.append(Cell(blocks, assign))
    return cells


def degeneration_relation(a, b):
    """True when b degenerates from a: b's blocks split a's blocks into
    consecutive runs (order respecting) and b's sign class restricts a's."""
    if a.n != b.n:
        raise ValueError("cells of different n")
    pos = 0
    for blk in a.blocks:
        target = set(blk)
        got = set()
        while got != target:
            if pos >= len(b.blocks) or not set(b.blocks[pos]) <= target:
                return False
            got |= set(b.blocks[pos])
            pos += 1
    if pos != len(b.blocks):
        return False
    # sign compatibility: b's canonical signs equal a's restricted signs,
    # re-canonicalized per b-block
    for blk in b.blocks:
        flip = a.signs[blk[0]] < 0
        for i in blk:
            s = -a.signs[i] if flip else a.signs[i]
            if s != b.signs[i]:
                return False
    return True


def euler_characteristic(n):
    """Alternating sum of the closure cell counts."""
    counts = closure_cell_counts(n)
    return sum((-1) ** d * c for d, c in enumerate(counts))


def faces(cell):
    """Yield the codimension-one faces of a cell: one block is split into
    a nonempty proper subset followed by the rest, and the sign class is
    restricted to the new blocks.  Blocks are taken in order, subsets in
    itertools.combinations order."""
    for blocks in _split_one_block(cell.blocks, _split_block):
        yield Cell(blocks, cell.signs)


def boundary_cells(cell):
    """All proper degenerations of the given cell: the faces, their faces
    and so on, by decreasing dimension."""
    found, level = [], [cell]
    while level:
        level = list(dict.fromkeys(f for c in level for f in faces(c)))
        found += level
    return found
