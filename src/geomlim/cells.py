"""Cell combinatorics of the closure of the diagonal orthogonal groups.

Cells are indexed by ordered set partitions of the coordinates together
with a sign class: one sign per coordinate, modulo one global flip per
block, stored as a tuple indexed by coordinate whose first index of
every block is +.  The closure is the real toric variety of the
permutohedron: the ordered partitions into k blocks are its faces of
dimension n - k, each carrying 2^(n-k) cells, so the counts by dimension
have a closed form.

A Cell takes every block modulo a sign flip, the first block included,
so the order of the cells and their faces is the projective degeneration
order.  FlagSignature keeps its first pair oriented, and limit_poset's
edges are the oriented ones.  The signatures of the cells that are
limits of (p, q) are exactly limit_poset(p, q)'s nodes, but the faces
add a few edges: the split (+,+,-)(+) -> (-)(+,+)(+) takes (2,1),(1,0)
to (1,0),(2,0),(1,0), which no oriented split of (2,1) reaches."""

import itertools
from math import comb

from .limits import flag_signature

# enumerate_cells' cap on n: n = 7 has 202,672 cells, n = 8 2,951,680
MAX_CELLS_N = 7


class Cell:
    """An ordered set partition of {0..n-1} plus its sign class ``signs``,
    a tuple of +-1 indexed by coordinate with + first in every block.
    Signs are given indexable by coordinate; a block whose first sign is
    - is flipped."""

    def __init__(self, blocks, signs):
        self.blocks = tuple(tuple(sorted(b)) for b in blocks)
        cover = sorted(i for b in self.blocks for i in b)
        if cover != list(range(len(cover))):
            raise ValueError("blocks must partition the index set")
        canon = [1] * len(cover)
        for b in self.blocks:
            flip = signs[b[0]] < 0
            for i in b:
                s = -signs[i] if flip else signs[i]
                if s not in (-1, 1):
                    raise ValueError("signs must be +-1")
                canon[i] = s
        self.signs = tuple(canon)

    @classmethod
    def _wrap(cls, blocks, signs):
        """The cell of blocks, a tuple of ascending tuples that partition
        0..n-1, and signs, a tuple of +-1 with + first in every block;
        neither is copied or checked."""
        c = cls.__new__(cls)
        c.blocks, c.signs = blocks, signs
        return c

    @property
    def n(self):
        return len(self.signs)

    @property
    def dim(self):
        return self.n - len(self.blocks)

    def sign_counts(self):
        """(positives, negatives) of each block's signs, for
        flag_signature: a block of size m and sign sum s has (m + s) / 2
        positives."""
        get, counts = self.signs.__getitem__, []
        for b in self.blocks:
            s = sum(map(get, b))
            counts.append(((len(b) + s) // 2, (len(b) - s) // 2))
        return counts

    def key(self):
        return (self.blocks, self.signs)

    def __eq__(self, other):
        if not isinstance(other, Cell):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Cell({}, {})".format(self.blocks, self.signs)

    def signature(self):
        """Positive and negative counts of each block's signs."""
        return flag_signature(self)


def closure_cell_counts(n):
    """Cell counts of the closure by dimension d = 0..n-1, in closed
    form: a cell of dimension d is an ordered partition into k = n - d
    blocks (a surjection onto k, counted by inclusion-exclusion) with one
    of 2^d sign classes (a sign for each index but a block's first)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [2 ** (n - k) * sum((-1) ** j * comb(k, j) * (k - j) ** n
                               for j in range(k + 1))
            for k in range(n, 0, -1)]


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
    if n > MAX_CELLS_N:
        raise ValueError("cells needs n <= {}".format(MAX_CELLS_N))
    # the blocks are ascending, and the first index of each keeps sign +
    cells, wrap = [], Cell._wrap
    for blocks in _ordered_set_partitions(tuple(range(n))):
        blocks = tuple(blocks)
        free = [i for b in blocks for i in b[1:]]
        for signs in itertools.product((1, -1), repeat=len(free)):
            assign = [1] * n
            for i, s in zip(free, signs):
                assign[i] = s
            cells.append(wrap(blocks, tuple(assign)))
    return cells


def degeneration_relation(a, b):
    """True when b degenerates from a: b's blocks split a's blocks into
    consecutive runs (order respecting) and b's sign class restricts a's,
    that is b is the cell of b's blocks with a's signs."""
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
    return Cell(b.blocks, a.signs) == b


def faces(cell):
    """Yield the codimension-one faces of a cell: one block is split into
    a nonempty proper subset followed by the rest, and the sign class is
    restricted to the new blocks.  Blocks are taken in order, subsets in
    itertools.combinations order."""
    signs, wrap, old = cell.signs, Cell._wrap, cell.blocks
    for i, block in enumerate(old):
        for left, right in _split_block(block):
            blocks = (*old[:i], left, right, *old[i + 1:])
            # the pieces of the split block are ascending, and only a
            # piece without the block's first index can start with sign
            # -: flip each block that does
            new = signs
            for piece in blocks:
                if new[piece[0]] < 0:
                    new = list(new)
                    for j in piece:
                        new[j] = -new[j]
                    new = tuple(new)
            yield wrap(blocks, new)


def boundary_cells(cell):
    """All proper degenerations of the given cell: the faces, their faces
    and so on, by decreasing dimension."""
    found, level = [], [cell]
    while level:
        level = list(dict.fromkeys(f for c in level for f in faces(c)))
        found += level
    return found
