"""Exact conjugacy limits of diagonal orthogonal Lie algebras.

A diagonal form path diag(c_i t^{e_i}) determines, as t -> +infinity, a
point of a torus of projective lines (one per coordinate pair) and an
ordered partition of the coordinates by exponent, largest first, with the
coefficients as block points.  psi_limit builds both in one pass over the
pairs i < j, ranking the exponents exactly as integers, and
encode_partition is psi_limit of the path scaling block k by t^-k.  Like
psi_limit, OrderedPartition and decode_partition refuse ratios past 2^900.
The limit Lie algebra has one element per coordinate pair, so its elements
are orthogonal: eta and so_basis build it without LieSubspace's pairwise
test, and eta_lists writes eta's basis as nested lists.  Likewise
psi_limit's partition and the flag signatures skip the checks of the
public constructors, which their construction already satisfies.

Paths, limit points, partitions, signatures and the poset are plain
Python.  numpy is imported by the functions that use it (``evaluate``,
``LieSubspace``, ``so_basis`` and ``eta``), so ``cells``,
``limit_poset`` and the ``limit`` command run without it.
"""

import functools
import itertools
import math
import numbers
import types
from fractions import Fraction


class ZeroEigenvalue(ValueError):
    pass


class Inconsistent(ValueError):
    pass


class Undecodable(Inconsistent):
    pass


class UnknownSignature(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class MonomialDiagonal:
    """A diagonal path t -> diag(c_i * t^(e_i)), float c_i and Fraction
    e_i (one given as a Fraction is kept); limits are at t -> +inf."""

    def __init__(self, entries):
        self.entries = [(float(c), e if type(e) is Fraction else Fraction(e))
                        for c, e in entries]
        if any(c == 0 for c, _ in self.entries):
            raise ZeroEigenvalue("zero coefficient in diagonal path")
        if not all(math.isfinite(c) for c, _ in self.entries):
            raise ValueError("path coefficients must be finite")
        if len(self.entries) < 2:
            raise ValueError("need at least two diagonal entries")

    @functools.cached_property
    def _terms(self):
        """evaluate's terms, each exponent a float by float(e)'s division."""
        return [(c, e.numerator / e.denominator) for c, e in self.entries]

    @property
    def n(self):
        return len(self.entries)

    def evaluate(self, t):
        """The diagonal at a finite t > 0; an entry that overflows or
        underflows the float range is an error, not inf or 0."""
        import numpy as np

        t = float(t)
        if not 0 < t < math.inf:
            raise ValueError(
                "t must be finite and positive, got {!r}".format(t))
        try:
            D = np.array([c * t ** e for c, e in self._terms])
            if np.all(np.isfinite(D) & (D != 0)):
                return D
        except OverflowError:
            pass
        raise ValueError("path leaves the float range at t = {!r}".format(t))

    def reversed(self):
        """The same path re-parameterized t -> 1/t (exponents negated)."""
        return MonomialDiagonal([(c, -e) for c, e in self.entries])

    @staticmethod
    def constant(values):
        return MonomialDiagonal([(v, 0) for v in values])


# A coordinate below RP1_TINY times the other is taken as zero.  Its sign
# picks the representative, and rescaling [u : v] can underflow it to 0
# and lose that sign; 2^-900 leaves room for factors down to 2^-100.
RP1_TINY = 2.0 ** -900


def rp1(u, v):
    """Canonical representative of [u : v]: max-magnitude coordinate has
    magnitude 1 and the first nonzero coordinate is positive.  [0:0] and
    a non-finite coordinate are a ValueError."""
    u, v = float(u), float(v)
    if u == 0 and v == 0:
        raise ValueError("[0:0] is not a projective point")
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(
            "[{!r}:{!r}] is not a projective point".format(u, v))
    m = max(abs(u), abs(v))
    u, v = u / m, v / m
    if abs(u) < RP1_TINY:
        u = 0.0
    if abs(v) < RP1_TINY:
        v = 0.0
    lead = u if u != 0 else v
    if lead < 0:
        u, v = -u, -v
    return (u + 0.0, v + 0.0)  # normalize -0.0


class LimitPoint:
    """One projective line per coordinate pair (i < j) of n >= 2
    coordinates, zero-indexed.

    ``components`` is a read-only mapping, so the point never changes and
    its partition is found once: psi_limit attaches it, or
    decode_partition stores it here on the first call; every later call
    returns that same object."""

    def __init__(self, n, components):
        if not (isinstance(n, numbers.Integral) and n >= 2):
            raise ValueError("n must be an integer >= 2, got {!r}".format(n))
        self.n = n
        comp = {}
        for i, j in itertools.combinations(range(n), 2):
            if (i, j) not in components:
                raise ValueError("missing component ({}, {})".format(i, j))
            comp[(i, j)] = rp1(*components[(i, j)])
        if len(components) != len(comp):
            raise ValueError("components must be the pairs i < j only")
        self.components = types.MappingProxyType(comp)
        self._partition = None

    @classmethod
    def _wrap(cls, n, comp, partition):
        """The point of canonical components comp, a fresh dict of every
        pair i < j in that order, with its ordered partition; neither is
        copied or checked."""
        L = cls.__new__(cls)
        L.n, L.components = n, types.MappingProxyType(comp)
        L._partition = partition
        return L

    def __reduce__(self):  # a mappingproxy does not pickle
        return LimitPoint, (self.n, dict(self.components))

    def __eq__(self, other):
        if not isinstance(other, LimitPoint):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    def __repr__(self):
        return "LimitPoint({}, {})".format(self.n, self.components)


def _scaled(p):
    """A block point, a list of nonzero floats, divided by its first
    entry of largest magnitude (x / 1.0 is x, so a top of 1 is kept)."""
    top = max(p, key=abs)
    return tuple(p) if top == 1.0 else tuple([x / top for x in p])


class OrderedPartition:
    """Ordered blocks of {0..n-1}, dominant first, each carrying a
    projective point, scaled so its max-magnitude entry is +1, with all
    entries at least RP1_TINY in magnitude (psi_limit's domain)."""

    def __init__(self, blocks, block_points):
        self.blocks = [tuple(sorted(b)) for b in blocks]
        if sum(map(len, self.blocks)) < 2:
            raise ValueError("need at least two indices")
        if not all(self.blocks):
            raise ValueError("blocks must be nonempty")
        self.block_points = []
        for b, p in zip(self.blocks, block_points, strict=True):
            p = [float(x) for x in p]
            if len(p) != len(b):
                raise ValueError("point size does not match block size")
            if not all(map(math.isfinite, p)):
                raise ValueError("block point entries must be finite")
            p = _scaled(p) if any(p) else p
            if min(map(abs, p)) < RP1_TINY:
                raise ValueError("block point entries must be nonzero and "
                                 "within a factor 2^900 of each other")
            self.block_points.append(p)
        cover = sorted(i for b in self.blocks for i in b)
        if cover != list(range(len(cover))):
            raise ValueError("blocks must partition the index set")

    @classmethod
    def _wrap(cls, blocks, block_points):
        """The partition of blocks, a list of ascending tuples that
        partition 0..n-1, and their points, tuples of nonzero floats
        already scaled by _scaled; neither is copied or checked."""
        P = cls.__new__(cls)
        P.blocks, P.block_points = blocks, block_points
        return P

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)

    def sign_counts(self):
        """(positives, negatives) of each block's point."""
        counts = []
        for pt in self.block_points:
            p = sum(map((0.0).__lt__, pt))  # the entries are floats
            counts.append((p, len(pt) - p))
        return counts

    def __eq__(self, other):
        if not isinstance(other, OrderedPartition):
            return NotImplemented
        return self.blocks == other.blocks \
            and self.block_points == other.block_points

    def __repr__(self):
        return "OrderedPartition({}, {})".format(self.blocks, self.block_points)


def _count(x):
    """x as an int; a value that is not an integer is a ValueError."""
    try:
        k = int(x)
    except (OverflowError, ValueError):  # inf, nan
        k = None
    if k is None or k != x:
        raise ValueError("signature entry {!r} is not an integer".format(x))
    return k


class FlagSignature(tuple):
    """Per-block sign counts, a tuple of (p, q) pairs: the first pair is
    kept ordered, later pairs are normalized to p >= q."""

    __slots__ = ()

    def __new__(cls, pairs):
        pairs = [tuple(_count(x) for x in p) for p in pairs]
        if any(p < 0 or q < 0 for p, q in pairs):
            raise ValueError("negative signature entry")
        return super().__new__(cls, pairs[:1] + [
            (max(p, q), min(p, q)) for p, q in pairs[1:]])

    @classmethod
    def _wrap(cls, pairs):
        """The signature of pairs already normalized: (p, q) tuples of
        non-negative ints, every pair after the first with p >= q; not
        copied or checked."""
        return tuple.__new__(cls, pairs)

    @property
    def pairs(self):
        return list(self)

    @property
    def first(self):
        return self[0]

    @property
    def rest(self):
        return list(self[1:])

    @property
    def n(self):
        return sum(p + q for p, q in self)

    def __repr__(self):
        return "FlagSignature({})".format(self.pairs)


def _scaled_rows(V):
    """V's rows, each times the power of two that brings its largest
    magnitude into [0.5, 1), their Gram matrix and norms.  Where V's own
    squares stay in range this is exact: the norms and directions are V's."""
    import numpy as np

    _, k = np.frexp(np.abs(V).max(axis=1, initial=0.0))
    S = np.ldexp(V, -k[:, None])
    gram = S @ S.T
    return S, gram, np.sqrt(gram.diagonal())


class LieSubspace:
    """A subspace of n x n matrices spanned by pairwise orthogonal basis
    elements (under the Frobenius product), such as elements supported
    on distinct coordinate pairs.  ``dim`` counts the nonzero elements;
    ``onb``, derived from ``basis`` on first read, holds them normalized
    as columns.  A basis that is empty, not finite square matrices of one
    size or not pairwise orthogonal is a ValueError."""

    def __init__(self, basis):
        import numpy as np

        self.basis = np.array(basis, dtype=float)
        if self.basis.ndim != 3 or not len(self.basis) \
                or self.basis.shape[1] != self.basis.shape[2]:
            raise ValueError(
                "need a nonempty basis of square matrices of one size")
        if not np.isfinite(self.basis).all():
            raise ValueError("basis entries must be finite")
        self.n = self.basis.shape[1]
        _, gram, norms = _scaled_rows(self.basis.reshape(len(self.basis), -1))
        np.fill_diagonal(gram, 0.0)
        if np.any(np.abs(gram) > 1e-12 * np.outer(norms, norms)):
            raise ValueError("basis elements are not pairwise orthogonal")
        self.dim = int(np.count_nonzero(norms))

    @classmethod
    def _pairs(cls, n, x, y):
        """The span of y_k e_ij - x_k e_ji, none zero, the k-th pair i < j
        in order: elements on distinct pairs are orthogonal, so none of
        the constructor's checks run."""
        import numpy as np

        ij, ji = _pair_positions(n)
        basis = np.zeros(len(x) * n * n)
        basis[ij] = y
        basis[ji] = -x
        S = cls.__new__(cls)
        S.basis, S.n, S.dim = basis.reshape(-1, n, n), n, len(x)
        return S

    @functools.cached_property
    def onb(self):
        """The nonzero elements over their norms, scaled by _scaled_rows."""
        S, _, norms = _scaled_rows(self.basis.reshape(len(self.basis), -1))
        keep = norms > 0
        return (S[keep] / norms[keep, None]).T

    def principal_angle_distance(self, other):
        """Largest principal angle to another subspace (sine-based, so it
        is accurate near zero)."""
        import numpy as np

        if self.onb.shape != other.onb.shape:
            return np.pi / 2
        resid = other.onb - self.onb @ (self.onb.T @ other.onb)
        s = np.linalg.svd(resid, compute_uv=False)
        return float(np.arcsin(min(1.0, s[0] if len(s) else 0.0)))

    def bracket_closure_residual(self):
        import numpy as np

        worst = 0.0
        for a, b in itertools.combinations(self.basis, 2):
            c = a @ b - b @ a
            v = c.ravel()
            r = v - self.onb @ (self.onb.T @ v)
            worst = max(worst, np.linalg.norm(r) / max(1.0, np.linalg.norm(v)))
        return worst


def so_basis(J):
    """Basis of the Lie algebra preserving the diagonal form J: one
    element J_j e_ij - J_i e_ji per pair i < j (``onb`` is derived on
    first read).  J needs at least two entries, finite and nonzero."""
    import numpy as np

    J = np.asarray(J, dtype=float)
    if np.any(J == 0):
        raise ZeroEigenvalue("form has a zero diagonal entry")
    if not np.isfinite(J).all():
        raise ValueError("form entries must be finite")
    if J.ndim != 1 or len(J) < 2:
        raise ValueError("need at least two diagonal entries")
    i, j = np.triu_indices(len(J), 1)
    return LieSubspace._pairs(len(J), J[i], J[j])


def conjugacy_to_form_path(C, J):
    """Replace conjugation of the orthogonal group by a diagonal path with
    a path of diagonal forms: D O(J) D^-1 = O(D^-T J D^-1) gives entries
    (J_i c_i^-2, -2 e_i), on Python floats.  An entry past the float range
    is inf or 0 (J_i / 0 is inf), which MonomialDiagonal rejects."""
    J = [float(x) for x in J]
    if len(J) != C.n:
        raise DimensionMismatch("form and path sizes differ")
    return MonomialDiagonal([
        (x / (c * c) if c * c else math.inf,
         Fraction(-2 * e.numerator, e.denominator))
        for x, (c, e) in zip(J, C.entries)])


def psi_limit(P):
    """Exact limit of the pairwise-ratio embedding along the path P:
    component (i,j) is [c_i : c_j] when the exponents tie, else [1:0] or
    [0:1] according to which exponent dominates.  Tied coefficients more
    than 1/RP1_TINY apart are a ValueError: rp1 would take the smaller as
    zero and turn the tie into a dominance.

    The point carries its ordered partition, the one decode_partition
    would find: the blocks are the classes of equal exponent, largest
    first, and a block's point is 1 at its first index i0, then y / x of
    each component (i0, i) = [x : y]."""
    n, cs = P.n, [c for c, _ in P.entries]
    # Over their common denominator the exponents are ints, which compare
    # and hash exactly and far faster than Fractions.
    ratios = [e.as_integer_ratio() for _, e in P.entries]
    d = math.lcm(*[q for _, q in ratios])
    keys = [p * (d // q) for p, q in ratios]
    rank_of = {k: r for r, k in enumerate(sorted(set(keys), reverse=True))}
    rank = [rank_of[k] for k in keys]
    blocks = [[] for _ in rank_of]
    points = [None] * len(rank_of)
    comp = {}
    for i, ri in enumerate(rank):
        ci, block, pt = cs[i], blocks[ri], None
        block.append(i)
        if len(block) == 1:  # i anchors its block
            points[ri] = pt = [1.0]
        for j, rj in enumerate(rank[i + 1:], i + 1):
            if ri < rj:
                comp[(i, j)] = (1.0, 0.0)
            elif ri > rj:
                comp[(i, j)] = (0.0, 1.0)
            else:
                # rp1(ci, cj), written out: both are nonzero and finite,
                # and past the refusal neither scaled entry is below
                # RP1_TINY, so the first is the positive |ci| / m
                cj = cs[j]
                a, b = abs(ci), abs(cj)
                m = max(a, b)
                if min(a, b) / m < RP1_TINY:  # the test rp1 makes
                    raise ValueError(
                        "tied coefficients {!r} and {!r} of entries {} and "
                        "{} are too far apart to represent their "
                        "ratio".format(ci, cj, i, j))
                x, y = a / m, (cj if ci > 0 else -cj) / m
                comp[(i, j)] = (x, y)
                if pt is not None:
                    pt.append(y / x)
    # Built in order, the blocks are ascending and partition 0..n-1, and
    # the refusal above keeps every point entry nonzero.
    return LimitPoint._wrap(n, comp, OrderedPartition._wrap(
        [tuple(b) for b in blocks], [_scaled(p) for p in points]))


@functools.lru_cache(maxsize=32)
def _pair_positions(n):
    """The read-only flat positions of (k, i, j) and (k, j, i) in an
    (n(n-1)/2, n, n) stack, for the k-th pair i < j in order."""
    import numpy as np

    i, j = np.triu_indices(n, 1)
    k = n * np.arange(len(i))
    pos = (n * (k + i) + j, n * (k + j) + i)
    for a in pos:
        a.flags.writeable = False
    return pos


def eta(L):
    """Rebuild the limit Lie subalgebra from a limit point: pair (i,j) =
    [x:y] contributes y e_ij - x e_ji, in i < j order.  The elements sit
    on distinct pairs and none is zero, so they span dimension n(n-1)/2
    without LieSubspace's pairwise test.  Raises Undecodable when the
    point does not decode."""
    try:
        decode_partition(L)
    except Inconsistent as exc:
        raise Undecodable(str(exc)) from None
    import numpy as np

    xy = np.fromiter(itertools.chain.from_iterable(L.components.values()),
                     float, 2 * len(L.components))
    return LieSubspace._pairs(L.n, xy[0::2], xy[1::2])


def eta_lists(L):
    """eta(L).basis.tolist() of a point that decodes, without numpy or
    the decode check: an n x n nested list of floats per pair i < j =
    [x : y], in order, with y at (i, j), -x at (j, i) and 0.0 elsewhere."""
    n, basis = L.n, []
    for (i, j), (x, y) in L.components.items():
        M = [[0.0] * n for _ in range(n)]
        M[i][j], M[j][i] = y, -x
        basis.append(M)
    return basis


def decode_partition(L):
    """Recover the ordered partition (blocks by vanishing rate, dominant
    first, plus per-block projective points) from a limit point built
    from components; one from psi_limit carries it, returned at once.

    Pair (i, j) = [x : y] says i dominates j when y = 0, j dominates i
    when x = 0, and ties them otherwise.  With w[i] the number of
    coordinates i dominates, the pairs form an ordered partition exactly
    when every pair agrees with w: sign(w[i] - w[j]) = (y == 0) -
    (x == 0).  The blocks are then the classes of equal w, largest
    first.  Raises Inconsistent, naming the first pair that disagrees or
    the first in-block ratio incoherent with its block's point.

    The partition is stored on the read-only point, so the point is
    decoded once: later calls return that same object, which callers
    share and must not change; a point that does not decode always raises."""
    if L._partition is not None:
        return L._partition
    n, comp = L.n, L.components
    w = [0] * n
    for (i, j), (x, y) in comp.items():
        if y == 0:
            w[i] += 1
        elif x == 0:
            w[j] += 1
    for (i, j), (x, y) in comp.items():
        if (w[i] > w[j]) - (w[i] < w[j]) != (y == 0) - (x == 0):
            raise Inconsistent(
                "pair ({}, {}) disagrees with the dominance order".format(
                    i, j))
    blocks = [tuple(b) for _, b in itertools.groupby(
        sorted(range(n), key=lambda i: -w[i]), key=w.__getitem__)]
    points = []
    for b in blocks:
        pt = [1.0] + [y / x for x, y in (comp[(b[0], i)] for i in b[1:])]
        # coherence of all in-block ratios with the anchored values
        for (i, u), (j, v) in itertools.combinations(zip(b, pt), 2):
            (g0, g1), (w0, w1) = comp[(i, j)], rp1(u, v)
            # rtol 1e-9, atol 1e-12 as np.allclose; a NaN or a zero w fails
            if not (w0 and w1 and abs(g0 - w0) <= 1e-12 + 1e-9 * abs(w0)
                    and abs(g1 - w1) <= 1e-12 + 1e-9 * abs(w1)):
                raise Inconsistent(
                    "in-block ratio ({}, {}) is incoherent".format(i, j))
        points.append(pt)
    L._partition = OrderedPartition(blocks, points)
    return L._partition


def encode_partition(P):
    """Inverse of decode_partition: psi_limit of the path whose entry i is
    (v, -k) for i in block k with point value v, so the point carries
    the partition that decode_partition returns."""
    entry = {i: (v, -k) for k, b in enumerate(P.blocks)
             for i, v in zip(b, P.block_points[k])}
    return psi_limit(MonomialDiagonal([entry[i] for i in range(P.n)]))


def flag_signature(P):
    """Sign counts (positives, negatives) of each block's canonical point,
    every pair after the first ordered as FlagSignature orders it.  P is
    an OrderedPartition or a cells.Cell, whose sign_counts() gives the
    counts."""
    pairs = []
    for p, q in P.sign_counts():
        pairs.append((p, q) if p >= q or not pairs else (q, p))
    return FlagSignature._wrap(pairs)


# The n = 3 limit groups by flag signature.
CLASS_3D = {
    ((3, 0),): "O(3)", ((2, 1),): "O(2,1)", ((1, 2),): "O(2,1)",
    ((2, 0), (1, 0)): "Euc(2)^-T", ((1, 1), (1, 0)): "Mink^-T",
    ((1, 0), (2, 0)): "Euc(2)", ((1, 0), (1, 1)): "Mink",
    ((1, 0), (1, 0), (1, 0)): "Heis", ((0, 1), (1, 0), (1, 0)): "Heis",
}


def classify_limit_group_3d(F):
    """Name the n = 3 limit group from its flag signature."""
    if F.n != 3:
        raise UnknownSignature("classification is for n = 3 only")
    if F not in CLASS_3D:
        raise UnknownSignature("no n = 3 class for {}".format(F.pairs))
    return CLASS_3D[F]


def is_limit_of(F, p, q):
    """Does the signature arise as a limit of the (p, q) orthogonal group:
    the first pair must have p0 >= 1 and some choice of swaps on the later
    blocks must make the block signatures sum to (p, q)."""
    if F.n != p + q:
        raise DimensionMismatch("signature size {} vs form size {}".format(
            F.n, p + q))
    p0, _ = F.first
    if p0 < 1:
        return False
    # positive totals over all orientations of the later blocks; F.n fixes q
    sums = {p0}
    for a, b in F.rest:
        sums = {s + a for s in sums} | {s + b for s in sums}
    return p in sums


@functools.lru_cache(maxsize=128)
def _pair_splits(pair):
    """The splits (left, right) of a block's pair (p, q) into nonempty
    pieces, as the first block (left as it is) and as a later block (left
    oriented p >= q, as FlagSignature orders it); right is oriented."""
    p, q = pair
    first, later = [], []
    for a in range(p + 1):
        for b in range(q + 1):
            if 0 < a + b < p + q:
                c, d = p - a, q - b
                right = (c, d) if c >= d else (d, c)
                first.append(((a, b), right))
                later.append(((a, b) if a >= b else (b, a), right))
    return tuple(first), tuple(later)  # shared by every caller


def _split_signatures(F):
    """All signatures obtained by splitting one block of F into two
    consecutive nonempty sub-blocks, block by block, each by _pair_splits
    (swaps permitted on non-initial pieces)."""
    wrap, out = FlagSignature._wrap, []
    for i, pair in enumerate(F):
        head, tail = F[:i], F[i + 1:]
        out += [wrap(head + lr + tail) for lr in _pair_splits(pair)[i > 0]]
    return out


MAX_POSET_N = 12  # limit_poset's cap on p + q; (6, 6) has 209k edges


def limit_poset(p, q):
    """Nodes and edges of the degeneration poset of limits of the (p, q)
    orthogonal group, level by level from [(p, q)].  An edge splits one
    block into two, so it adds one block and is a cover; merging a limit's
    last two blocks (oriented as its swaps are) gives a limit one level
    up, so every limit is reached.  A level's nodes have one length, so
    each level is sorted once: nodes come in the order (len(F), F) and
    edges in the order (len(F), F, G)."""
    if p < 1:
        raise ValueError("need p >= 1")
    if p + q > MAX_POSET_N:
        raise ValueError("poset needs p + q <= {}".format(MAX_POSET_N))
    root = FlagSignature([(p, q)])  # refuses a negative q
    nodes, edges, level = [root], [], [root]
    while level:
        # A split G of a limit F is a limit iff G.first[0] >= 1: orient
        # both pieces of the split block as that block was oriented (the
        # second piece of a split first block unswapped), and the block
        # sums still reach (p, q); is_limit_of asks nothing more.
        found = set()
        for F in level:
            kids = sorted({G for G in _split_signatures(F) if G[0][0] >= 1})
            edges += [(F, G) for G in kids]
            found.update(kids)
        level = sorted(found)
        nodes += level
    return nodes, edges
