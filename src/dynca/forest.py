"""Rooted forests, the characteristic-ancestor contract, and the oracle.

Every engine in this package answers ca(x, y) = (a, a_x, a_y): a is the
nearest common ancestor of x and y, a_x is a itself exactly when a = x
and otherwise the ancestor of x whose parent is a, and symmetrically
for a_y. This module pins that contract down with a plain
parent-pointer forest plus a brute-force oracle, which every fast
engine is differentially tested against. It also carries the rerooting
reduction that answers ca under a moved root z from three ordinary ca
queries in the stored rooting.

Depths stay O(1)-readable through a union-find over trees with a
per-tree depth offset, so the oracle supports add_root in O(1) and
link in O(size of the linked tree).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .errors import check_id


class CaTriple(NamedTuple):
    a: int
    ax: int
    ay: int


class Forest:
    """Parent/children forest over dense integer node ids, never freed."""

    __slots__ = ("parent", "children", "_raw", "_uf", "_off")

    def __init__(self) -> None:
        self.parent: list[Optional[int]] = []
        self.children: list[list[int]] = []
        self._raw: list[int] = []  # depth(v) = _raw[v] + _off[_find(v)]
        self._uf: list[int] = []
        self._off: list[int] = []

    def __len__(self) -> int:
        return len(self.parent)

    def make_node(self) -> int:
        v = len(self.parent)
        self.parent.append(None)
        self.children.append([])
        self._raw.append(0)
        self._uf.append(v)
        self._off.append(0)
        return v

    def _find(self, v: int) -> int:
        uf = self._uf
        r = v
        while uf[r] != r:
            r = uf[r]
        while uf[v] != r:
            uf[v], v = r, uf[v]
        return r

    def same_tree(self, x: int, y: int) -> bool:
        return self._find(x) == self._find(y)

    def depth(self, v: int) -> int:
        check_id(v, len(self.parent))
        return self._raw[v] + self._off[self._find(v)]

    def is_singleton(self, v: int) -> bool:
        return self.parent[v] is None and not self.children[v]

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
        self.children[x].append(y)
        self._raw[y] = self._raw[x] + 1
        self._uf[y] = self._find(x)

    def add_root(self, y: int, old_root: int) -> None:
        """Make the fresh singleton y the new root above old_root's tree."""
        check_id(y, len(self.parent))
        check_id(old_root, len(self.parent))
        if y == old_root or not self.is_singleton(y):
            raise ValueError(f"add_root target {y} is not a fresh node")
        if self.parent[old_root] is not None:
            raise ValueError(f"{old_root} is not a root")
        rep = self._find(old_root)
        self.parent[old_root] = y
        self.children[y].append(old_root)
        self._off[rep] += 1
        self._uf[y] = rep
        self._raw[y] = -self._off[rep]

    def link(self, x: int, y: int) -> None:
        """Make the root y a child of x, merging y's tree into x's."""
        check_id(x, len(self.parent))
        check_id(y, len(self.parent))
        if self.parent[y] is not None:
            raise ValueError(f"link target {y} is not a root")
        rx = self._find(x)
        if rx == self._find(y):
            raise ValueError("link within one tree")
        self.parent[y] = x
        self.children[x].append(y)
        delta = self._raw[x] + 1 - self._raw[y]
        raw, uf, children = self._raw, self._uf, self.children
        stack = [y]
        while stack:
            v = stack.pop()
            raw[v] += delta
            uf[v] = rx
            stack.extend(children[v])


def oracle_ca(f: Forest, x: int, y: int) -> Optional[CaTriple]:
    """Characteristic ancestors by walking both root paths.

    Returns None when x and y lie in different trees.
    """
    check_id(x, len(f.parent))
    check_id(y, len(f.parent))
    if x == y:
        return CaTriple(x, x, x)
    if not f.same_tree(x, y):
        return None
    parent = f.parent
    dx = f.depth(x)
    dy = f.depth(y)
    cx: Optional[int] = None
    cy: Optional[int] = None
    while dx > dy:
        cx, x = x, parent[x]
        dx -= 1
    while dy > dx:
        cy, y = y, parent[y]
        dy -= 1
    while x != y:
        cx, x = x, parent[x]
        cy, y = y, parent[y]
    return CaTriple(x, cx if cx is not None else x, cy if cy is not None else y)


def combine_rerooted(
    cxy: CaTriple,
    cxz: CaTriple,
    cyz: CaTriple,
    parent_of: Callable[[int], Optional[int]],
) -> CaTriple:
    """Combine ca(x,y), ca(x,z), ca(y,z) into ca(x,y) under root z.

    parent_of reads parents in the stored rooting. The growing engines
    answer rerooted queries from spine meets instead, with at most one
    stored query; through rerooted_ca this reduction is the reference
    they are tested against.
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


def rerooted_ca(
    f: Forest,
    x: int,
    y: int,
    z: int,
    ca_fn: Callable[[int, int], Optional[CaTriple]],
) -> CaTriple:
    """ca(x, y) in f's tree rerooted at z, using exactly three ca_fn calls."""
    for v in (x, y, z):
        check_id(v, len(f.parent))
    if not (f.same_tree(x, y) and f.same_tree(x, z)):
        raise ValueError("rerooted_ca requires x, y, z in one tree")
    cxy = ca_fn(x, y)
    cxz = ca_fn(x, z)
    cyz = ca_fn(y, z)
    assert cxy is not None and cxz is not None and cyz is not None
    return combine_rerooted(cxy, cxz, cyz, lambda v: f.parent[v])


def reroot_physical(f: Forest, z: int) -> Forest:
    """Copy f with z's tree rerooted at z (parent edges reversed on z's root path)."""
    check_id(z, len(f.parent))
    g = Forest()
    for _ in range(len(f)):
        g.make_node()
    new_parent: list[Optional[int]] = list(f.parent)
    v: Optional[int] = z
    prev: Optional[int] = None
    while v is not None:
        nxt = f.parent[v]
        new_parent[v] = prev
        prev, v = v, nxt
    g.parent = new_parent
    for u, p in enumerate(new_parent):
        if p is not None:
            g.children[p].append(u)
    for u, p in enumerate(new_parent):
        if p is None:
            g._off[u] = 0
            stack = [(u, 0)]
            while stack:
                w, d = stack.pop()
                g._raw[w] = d
                g._uf[w] = u
                stack.extend((t, d + 1) for t in g.children[w])
    return g
