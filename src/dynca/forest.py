"""Rooted forests, the characteristic-ancestor contract, and the oracle.

Every engine in this package answers ca(x, y) = (a, a_x, a_y): a is the
nearest common ancestor of x and y, a_x is a itself exactly when a = x
and otherwise the ancestor of x whose parent is a, and symmetrically
for a_y. This module pins that contract down with a plain
parent-pointer forest plus a brute-force oracle, which every fast
engine is differentially tested against. Meets holds the checked ca,
nca and n that every fast engine answers through, so an engine keeps
only its unchecked _ca. The module also carries the rerooting
reduction that answers ca under a moved root z from three ordinary ca
queries in the stored rooting.

Depth differences stay O(1)-readable through a quick-find over trees:
every node names its tree's representative directly, and within one
tree two nodes' raw labels differ by their depth difference. add_root
labels the new root one less than the old one, in O(1), and a link
relabels only the smaller of the two trees: O(n log n) over any
sequence of links, plus a walk from x up to its root per link.

subtree, the package's one subtree walk, lists a subtree parents first
over first-child and next-sibling columns.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .errors import check_id


class CaTriple(NamedTuple):
    a: int
    ax: int
    ay: int


class Meets:
    """The checked ca, nca and n of every fast engine.

    A host provides piT, one entry per node id, stats, and _ca(x, y), the
    meet of two valid ids, None across trees.  ca counts each answered
    query once in the stats' queries, so a meet notes only its steps.
    """

    @property
    def n(self):
        return len(self.piT)

    def ca(self, x, y):
        """Characteristic ancestors of x and y, or None across trees."""
        n = len(self.piT)
        check_id(x, n)
        check_id(y, n)
        if (t := self._ca(x, y)) is not None:
            self.stats.queries += 1
        return t

    def nca(self, x, y):
        """Nearest common ancestor of x and y, or None across trees."""
        t = self.ca(x, y)
        return None if t is None else t.a


def subtree(fc, ns, r, skip=None):
    """Nodes of the subtree at r, parents before children.

    Breadth first, each node's children newest first, read off the
    first-child column fc and the next-sibling column ns, -1 marking
    none.  The subtree under skip, when given, is left out entirely.
    """
    order = [r]
    # the loop also walks the children it appends
    for v in order:
        w = fc[v]
        while w >= 0:
            if w != skip:
                order.append(w)
            w = ns[w]
    return order


class Forest:
    """Parent-pointer forest over dense integer node ids, never freed.

    A node's children run newest first from fc through ns, -1 for none.
    """

    __slots__ = ("parent", "fc", "ns", "_raw", "_uf", "_size")

    def __init__(self) -> None:
        self.parent: list[Optional[int]] = []
        self.fc: list[int] = []
        self.ns: list[int] = []
        # within one tree, _raw[v] - _raw[u] = depth(v) - depth(u)
        self._raw: list[int] = []
        self._uf: list[int] = []    # each node's tree representative
        self._size: list[int] = []  # tree size, read at representatives

    def __len__(self) -> int:
        return len(self.parent)

    def make_node(self) -> int:
        v = len(self.parent)
        self.parent.append(None)
        self.fc.append(-1)
        self.ns.append(-1)
        self._raw.append(0)
        self._uf.append(v)
        self._size.append(1)
        return v

    def is_singleton(self, v: int) -> bool:
        return self.parent[v] is None and self.fc[v] < 0

    def root_of(self, v: int) -> int:
        check_id(v, len(self.parent))
        while self.parent[v] is not None:
            v = self.parent[v]
        return v

    def add_leaf(self, x: int, y: int) -> None:
        """Attach the fresh singleton y as a new child of x."""
        check_id(x, len(self.parent))
        check_id(y, len(self.parent))
        if x == y or not self.is_singleton(y):
            raise ValueError(f"add_leaf target {y} is not a fresh node")
        self.parent[y] = x
        self.ns[y] = self.fc[x]
        self.fc[x] = y
        self._raw[y] = self._raw[x] + 1
        rep = self._uf[y] = self._uf[x]
        self._size[rep] += 1

    def add_root(self, y: int, old_root: int) -> None:
        """Make the fresh singleton y the new root above old_root's tree."""
        check_id(y, len(self.parent))
        check_id(old_root, len(self.parent))
        if y == old_root or not self.is_singleton(y):
            raise ValueError(f"add_root target {y} is not a fresh node")
        if self.parent[old_root] is not None:
            raise ValueError(f"{old_root} is not a root")
        rep = self._uf[old_root]
        self.parent[old_root] = y
        self.fc[y] = old_root
        self._size[rep] += 1
        self._uf[y] = rep
        self._raw[y] = self._raw[old_root] - 1

    def link(self, x: int, y: int) -> None:
        """Make the root y a child of x, merging y's tree into x's.

        The smaller tree is relabeled onto the larger one's
        representative, ties relabeling y's, so a node is relabeled at
        most log2 n times. When y's tree is the larger, x's tree is
        reached by walking from x up to its root, at most its size. A
        refused link raises before anything changes.
        """
        check_id(x, len(self.parent))
        check_id(y, len(self.parent))
        parent = self.parent
        if parent[y] is not None:
            raise ValueError(f"link target {y} is not a root")
        raw, uf, size, fc, ns = self._raw, self._uf, self._size, self.fc, self.ns
        rx = uf[x]
        ry = uf[y]
        if rx == ry:
            raise ValueError("link within one tree")
        # y sits one below x once linked: either y's raws move by delta
        # onto rx, or x's raws move by -delta onto ry
        delta = raw[x] + 1 - raw[y]
        if size[ry] > size[rx]:
            rep, delta, v = ry, -delta, x
            while parent[v] is not None:
                v = parent[v]
        else:
            rep, v = rx, y
        size[rep] = size[rx] + size[ry]
        for v in subtree(fc, ns, v):
            raw[v] += delta
            uf[v] = rep
        parent[y] = x
        ns[y] = fc[x]
        fc[x] = y


def oracle_ca(f: Forest, x: int, y: int) -> Optional[CaTriple]:
    """Characteristic ancestors by walking both root paths.

    Both ends share one representative, so their raw depths differ by
    their depth difference: the deeper end is lifted to the other's
    depth, then both climb until their parents meet. Returns None when
    x and y lie in different trees.
    """
    check_id(x, len(f.parent))
    check_id(y, len(f.parent))
    if x == y:
        return CaTriple(x, x, x)
    if f._uf[x] != f._uf[y]:
        return None
    parent = f.parent
    d = f._raw[x] - f._raw[y]
    if d > 0:
        for _ in range(d - 1):
            x = parent[x]
        if parent[x] == y:
            return CaTriple(y, x, y)
        x = parent[x]
    elif d < 0:
        for _ in range(-d - 1):
            y = parent[y]
        if parent[y] == x:
            return CaTriple(x, x, y)
        y = parent[y]
    while parent[x] != parent[y]:
        x = parent[x]
        y = parent[y]
    return CaTriple(parent[x], x, y)


def combine_rerooted(
    cxy: CaTriple,
    cxz: CaTriple,
    cyz: CaTriple,
    parent_of: Callable[[int], Optional[int]],
) -> CaTriple:
    """Combine ca(x,y), ca(x,z), ca(y,z) into ca(x,y) under root z.

    parent_of reads parents in the stored rooting. The growing engines
    answer rerooted queries from spine meets instead, with at most one
    stored query; the tests check them against this reduction.
    """
    if cxz.a == cyz.a:
        return cxy
    if cxz.a == cxy.a:
        a, ay, _ = cyz
        pa = parent_of(a)
        assert pa is not None
        return CaTriple(a, pa, ay)
    assert cyz.a == cxy.a
    a, ax, _ = cxz
    pa = parent_of(a)
    assert pa is not None
    return CaTriple(a, ax, pa)
