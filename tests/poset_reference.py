"""The degeneration poset as a set-based breadth-first search: the code
geomlim.limits.limit_poset's per-pair split table and level-by-level
sort replaced, with every split made from the block's counts and both
node and edge sets sorted once at the end.  Kept as the reference the
library must match, nodes, edges, order and types.  Test code, imported
by the suites as ``poset_reference``."""

from geomlim.limits import FlagSignature


def split_pair(pair):
    p, q = pair
    for a in range(p + 1):
        for b in range(q + 1):
            if 0 < a + b < p + q:
                yield (a, b), (p - a, q - b)


def split_signatures(F):
    wrap = FlagSignature._wrap
    return [wrap((pairs[0], *[(p, q) if p >= q else (q, p)
                              for p, q in pairs[1:]]))
            for i, block in enumerate(F)
            for left, right in split_pair(block)
            for pairs in [[*F[:i], left, right, *F[i + 1:]]]]


def limit_poset(p, q):
    root = FlagSignature([(p, q)])
    level, edges = {root}, set()
    while level:
        new = {(F, G) for F in level for G in split_signatures(F)
               if G.first[0] >= 1}
        edges |= new
        level = {G for _, G in new}
    nodes = {root} | {G for _, G in edges}
    return sorted(nodes, key=lambda F: (len(F), F)), sorted(
        edges, key=lambda e: (len(e[0]), *e))
