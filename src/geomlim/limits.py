"""Exact conjugacy limits of diagonal orthogonal Lie algebras.

A diagonal form path diag(c_i t^{e_i}) determines, as t -> +infinity, a
point of a torus of projective lines (one per coordinate pair), which
decodes into an ordered partition of the coordinates by vanishing rate.
The limit Lie algebra is rebuilt line by line from that point.
"""

import itertools
from fractions import Fraction

import numpy as np


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
    """A diagonal path t -> diag(c_i * t^(e_i)); limits are at t -> +inf."""

    def __init__(self, entries):
        self.entries = [(float(c), Fraction(e)) for c, e in entries]
        if any(c == 0 for c, _ in self.entries):
            raise ZeroEigenvalue("zero coefficient in diagonal path")
        if not np.isfinite([c for c, _ in self.entries]).all():
            raise ValueError("path coefficients must be finite")
        if len(self.entries) < 2:
            raise ValueError("need at least two diagonal entries")

    @property
    def n(self):
        return len(self.entries)

    def evaluate(self, t):
        """The diagonal at a finite t > 0; an entry that overflows or
        underflows the float range is an error, not inf or 0."""
        t = float(t)
        if not 0 < t < np.inf:
            raise ValueError(
                "t must be finite and positive, got {!r}".format(t))
        try:
            D = np.array([c * t ** float(e) for c, e in self.entries])
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
    magnitude 1 and the first nonzero coordinate is positive."""
    u, v = float(u), float(v)
    if u == 0 and v == 0:
        raise ValueError("[0:0] is not a projective point")
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
    """One projective line per coordinate pair (i < j), zero-indexed."""

    def __init__(self, n, components):
        self.n = n
        self.components = {}
        for i, j in itertools.combinations(range(n), 2):
            if (i, j) not in components:
                raise ValueError("missing component ({}, {})".format(i, j))
            self.components[(i, j)] = rp1(*components[(i, j)])

    def __eq__(self, other):
        return self.n == other.n and self.components == other.components

    def __repr__(self):
        return "LimitPoint({}, {})".format(self.n, self.components)


class OrderedPartition:
    """Ordered blocks of {0..n-1}, dominant first, each carrying a
    projective point with all entries nonzero (canonical scaling: the
    max-magnitude entry is +1)."""

    def __init__(self, blocks, block_points):
        self.blocks = [tuple(sorted(b)) for b in blocks]
        self.block_points = []
        for b, p in zip(self.blocks, block_points, strict=True):
            p = [float(x) for x in p]
            if len(p) != len(b):
                raise ValueError("point size does not match block size")
            if any(x == 0 for x in p):
                raise ValueError("block point entries must be nonzero")
            k = int(np.argmax(np.abs(p)))
            self.block_points.append(tuple(x / p[k] for x in p))
        cover = sorted(i for b in self.blocks for i in b)
        if cover != list(range(len(cover))) or len(cover) != self.n:
            raise ValueError("blocks must partition the index set")

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)

    def __eq__(self, other):
        return self.blocks == other.blocks \
            and self.block_points == other.block_points

    def __repr__(self):
        return "OrderedPartition({}, {})".format(self.blocks, self.block_points)


class FlagSignature:
    """Per-block sign counts: the first pair is kept ordered, later
    pairs are normalized to p >= q."""

    def __init__(self, pairs):
        pairs = [tuple(int(x) for x in p) for p in pairs]
        if any(p < 0 or q < 0 for p, q in pairs):
            raise ValueError("negative signature entry")
        self.first = pairs[0]
        self.rest = [(max(p, q), min(p, q)) for p, q in pairs[1:]]

    @property
    def pairs(self):
        return [self.first] + self.rest

    @property
    def n(self):
        return sum(p + q for p, q in self.pairs)

    def __eq__(self, other):
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(tuple(self.pairs))

    def __repr__(self):
        return "FlagSignature({})".format(self.pairs)


class LieSubspace:
    """A subspace of n x n matrices with an orthonormalized basis."""

    def __init__(self, basis):
        self.basis = [np.array(b, dtype=float) for b in basis]
        self.n = self.basis[0].shape[0]
        cols = []
        for b in self.basis:
            v = b.ravel()
            nrm = np.linalg.norm(v)
            cols.append(v / nrm if nrm > 0 else v)
        M = np.column_stack(cols)
        q, r = np.linalg.qr(M)
        keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
        self.onb = q[:, keep]

    @property
    def dim(self):
        return self.onb.shape[1]

    def principal_angle_distance(self, other):
        """Largest principal angle to another subspace (sine-based, so it
        is accurate near zero)."""
        if self.onb.shape != other.onb.shape:
            return np.pi / 2
        resid = other.onb - self.onb @ (self.onb.T @ other.onb)
        s = np.linalg.svd(resid, compute_uv=False)
        return float(np.arcsin(min(1.0, s[0] if len(s) else 0.0)))

    def bracket_closure_residual(self):
        worst = 0.0
        for a, b in itertools.combinations(self.basis, 2):
            c = a @ b - b @ a
            v = c.ravel()
            r = v - self.onb @ (self.onb.T @ v)
            worst = max(worst, np.linalg.norm(r) / max(1.0, np.linalg.norm(v)))
        return worst


def so_basis(J):
    """Basis of the Lie algebra preserving the diagonal form J:
    one element J_j e_ij - J_i e_ji per pair i < j."""
    J = np.asarray(J, dtype=float)
    if np.any(J == 0):
        raise ZeroEigenvalue("form has a zero diagonal entry")
    n = len(J)
    basis = []
    for i, j in itertools.combinations(range(n), 2):
        M = np.zeros((n, n))
        M[i, j] = J[j]
        M[j, i] = -J[i]
        basis.append(M)
    return LieSubspace(basis)


def conjugacy_to_form_path(C, J):
    """Replace conjugation of the orthogonal group by a diagonal path with
    a path of diagonal forms: D O(J) D^-1 = O(D^-T J D^-1) gives entries
    (J_i c_i^-2, -2 e_i)."""
    J = np.asarray(J, dtype=float)
    if len(J) != C.n:
        raise DimensionMismatch("form and path sizes differ")
    # an entry past the float range is inf, which MonomialDiagonal rejects
    with np.errstate(over="ignore", divide="ignore"):
        return MonomialDiagonal(
            [(J[i] / (c * c), -2 * e) for i, (c, e) in enumerate(C.entries)])


def psi_limit(P):
    """Exact limit of the pairwise-ratio embedding along the path P:
    component (i,j) is [c_i : c_j] when the exponents tie, else [1:0] or
    [0:1] according to which exponent dominates."""
    comp = {}
    for i, j in itertools.combinations(range(P.n), 2):
        ci, ei = P.entries[i]
        cj, ej = P.entries[j]
        if ei == ej:
            comp[(i, j)] = (ci, cj)
        elif ei > ej:
            comp[(i, j)] = (1.0, 0.0)
        else:
            comp[(i, j)] = (0.0, 1.0)
    return LimitPoint(P.n, comp)


def eta(L):
    """Rebuild the limit Lie subalgebra from a limit point: pair (i,j)
    with ratio [x:y] contributes the line through y e_ij - x e_ji."""
    try:
        decode_partition(L)
    except Inconsistent as exc:
        raise Undecodable(str(exc)) from None
    basis = []
    n = L.n
    for (i, j), (x, y) in sorted(L.components.items()):
        M = np.zeros((n, n))
        M[i, j] = y
        M[j, i] = -x
        basis.append(M)
    return LieSubspace(basis)


def decode_partition(L):
    """Recover the ordered partition (blocks by vanishing rate, dominant
    first, plus per-block projective points) from a limit point.

    Raises Inconsistent when the pairwise data is not an equivalence with
    a strict total dominance order and coherent in-block ratios."""
    n = L.n
    # ties: both coordinates nonzero
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

    # the tie relation must hold on every in-block pair
    block_of = {}
    for bi, b in enumerate(blocks):
        for i in b:
            block_of[i] = bi
    for (i, j), (x, y) in L.components.items():
        same = block_of[i] == block_of[j]
        tied = x != 0 and y != 0
        if same != tied:
            raise Inconsistent(
                "pair ({}, {}) disagrees with the tie classes".format(i, j))

    # dominance between blocks: [1:0] means i's block dominates
    k = len(blocks)
    dom = {}
    for (i, j), (x, y) in L.components.items():
        a, b = block_of[i], block_of[j]
        if a == b:
            continue
        d = (y == 0)  # True: a dominates b
        key = (a, b)
        if key in dom and dom[key] != d:
            raise Inconsistent("contradictory dominance between blocks")
        if (b, a) in dom and dom[(b, a)] == d:
            raise Inconsistent("contradictory dominance between blocks")
        dom[key] = d

    def beats(a, b):
        if (a, b) in dom:
            return dom[(a, b)]
        return not dom[(b, a)]

    order = sorted(range(k), key=lambda a: sum(beats(a, b) for b in range(k)
                                               if b != a), reverse=True)
    # verify strict total order (transitivity of the tournament)
    for pos_a in range(k):
        for pos_b in range(pos_a + 1, k):
            if not beats(order[pos_a], order[pos_b]):
                raise Inconsistent("dominance is not a total order")

    blocks = [blocks[a] for a in order]
    points = []
    for b in blocks:
        anchor = b[0]
        vals = {anchor: 1.0}
        for i in b[1:]:
            x, y = L.components[(anchor, i)]
            vals[i] = y / x
        pt = [vals[i] for i in b]
        # coherence of all in-block ratios with the anchored values
        for i, j in itertools.combinations(b, 2):
            (g0, g1), (w0, w1) = L.components[(i, j)], rp1(vals[i], vals[j])
            # relative 1e-9, absolute 1e-12 (as np.allclose); a NaN fails
            if not (abs(g0 - w0) <= 1e-12 + 1e-9 * abs(w0)
                    and abs(g1 - w1) <= 1e-12 + 1e-9 * abs(w1)):
                raise Inconsistent(
                    "in-block ratio ({}, {}) is incoherent".format(i, j))
        points.append(pt)
    return OrderedPartition(blocks, points)


def encode_partition(P):
    """Inverse of decode_partition."""
    block_of = {}
    vals = {}
    for bi, (b, pt) in enumerate(zip(P.blocks, P.block_points)):
        for i, v in zip(b, pt):
            block_of[i] = bi
            vals[i] = v
    comp = {}
    for i, j in itertools.combinations(range(P.n), 2):
        a, b = block_of[i], block_of[j]
        if a == b:
            comp[(i, j)] = (vals[i], vals[j])
        elif a < b:
            comp[(i, j)] = (1.0, 0.0)
        else:
            comp[(i, j)] = (0.0, 1.0)
    return LimitPoint(P.n, comp)


def flag_signature(P):
    """Sign counts (positives, negatives) of each block's canonical point."""
    pairs = []
    for pt in P.block_points:
        p = sum(1 for v in pt if v > 0)
        q = sum(1 for v in pt if v < 0)
        pairs.append((p, q))
    return FlagSignature(pairs)


def classify_limit_group_3d(F):
    """Name the n = 3 limit group from its flag signature."""
    if F.n != 3:
        raise UnknownSignature("classification is for n = 3 only")
    pairs = F.pairs
    if pairs == [(3, 0)]:
        return "O(3)"
    if pairs in ([(2, 1)], [(1, 2)]):
        return "O(2,1)"
    if len(pairs) == 2:
        first, second = pairs
        if first == (2, 0) and second == (1, 0):
            return "Euc(2)^-T"
        if first == (1, 1) and second == (1, 0):
            return "Mink^-T"
        if first == (1, 0) and second == (2, 0):
            return "Euc(2)"
        if first == (1, 0) and second == (1, 1):
            return "Mink"
    if len(pairs) == 3 and all(p + q == 1 for p, q in pairs):
        return "Heis"
    raise UnknownSignature("no n = 3 class for {}".format(pairs))


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


def _split_one_block(blocks, splits):
    """Yield every block list made by replacing one block with the two
    consecutive blocks (left, right), for each pair splits(block) yields,
    block by block in order."""
    for i, block in enumerate(blocks):
        for left, right in splits(block):
            yield [*blocks[:i], left, right, *blocks[i + 1:]]


def _split_pair(pair):
    p, q = pair
    for a in range(p + 1):
        for b in range(q + 1):
            if 0 < a + b < p + q:
                yield (a, b), (p - a, q - b)


def _split_signatures(F):
    """All signatures obtained by splitting one block of F into two
    consecutive nonempty sub-blocks (swaps permitted on non-initial
    pieces via the FlagSignature normalization)."""
    return [FlagSignature(pairs)
            for pairs in _split_one_block(F.pairs, _split_pair)]


def limit_poset(p, q):
    """Nodes and edges of the degeneration poset of limits of the (p, q)
    orthogonal group, level by level from [(p, q)].  An edge splits one
    block into two, so it adds exactly one block and is a cover.  Every
    limit signature is reached: merging its last two blocks (oriented as
    its swaps are) gives a limit signature one level up."""
    if p < 1:
        raise ValueError("need p >= 1")
    root = FlagSignature([(p, q)])
    level, edges = {root}, set()
    while level:
        new = {(F, G) for F in level for G in _split_signatures(F)
               if is_limit_of(G, p, q)}
        edges |= new
        level = {G for _, G in new}
    nodes = {root} | {G for _, G in edges}
    return sorted(nodes, key=lambda f: (len(f.pairs), f.pairs)), sorted(
        edges, key=lambda e: (len(e[0].pairs), e[0].pairs, e[1].pairs))
