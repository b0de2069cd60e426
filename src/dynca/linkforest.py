"""Meet queries under link, with self-tuning inverse-Ackermann overhead.

Trees at the top level hold the real vertices.  Every level keeps its
tree shape in three flat id columns: a parent, a first child and a next
sibling per node, -1 marking none, in 32-bit int arrays while every id
fits one and in lists above that.  The tree sizes, the free lists of
retired ids and each subtree record's inverse id map are int columns of
the same kind, the sizes in 32-bit cells only while max_n itself fits
one.  No node holds a list of its own, and a node's children run newest
first.  A tree of fewer than four nodes is kept as that bare shape;
anything larger is partitioned into subtrees, and contracting every
subtree yields the tree one level down, where the same scheme repeats.
A subtree is built as one packed tree (PackedTree in microset.py) when
it has at most PackedTree.CAP nodes, and as a three-level incremental
tree of linear total growth (the linear_tree shape in multilevel.py)
when it is larger; a packed subtree that a later pour fills is copied
once into a three-level tree, and the pour goes on there.  Stages
classify tree sizes by a row of Ackermann's function, one row per level:
a level-k tree of size s is in stage bisect_right(floors[k], s),
floors[k] holding 2*A(k, j) for j = 1, 2, ..., so the stage is read off
the size and nothing is stored per node.  A link between trees of
unequal stages only re-adds the smaller side, links between equal stages
recurse one level down, and a tree that outgrows its stage is rebuilt
once as a single subtree of the next stage.
The level count is the inverse-Ackermann value of the operation counts:
the adaptive forest restages itself in place whenever that value
drifts, keeping the vertex level and building only its staging again.
That value is set by ceil(m/n) and by where n falls in one column of
Ackermann values, so the forest reads it again only when the ratio's
ceiling moves or the node count passes the column entry that held it; a
meet below the next multiple of the node count costs one compare, and a
link that counts new nodes a few integer operations.  A link checks each
id once and reads the two tree sizes once; hanging a fresh singleton
under a staged tree then costs one root walk, two bisections (a size
of 1 is stage 0 on every level) and one record add that checks no id
again.

A query whose ends share a vertex-level subtree record costs one query
of that record, with no walk to either root: trees only merge, so a
record never spans two trees.  Any other query walks both ends to their
roots, which tells trees apart, and then runs Leveled._c in levels.py,
the meet recursion the multilevel engine shares: each staged subtree is
a _Sub record exposing root, up and ca(x, y) in level ids, a stage-0
tree keeps None in sub, and _flat walks its bare parent column.

The forest holds its live trees, not its link history.  A rebuild drops
the subtrees of both merged trees, and a pour drops those of the side it
re-adds; the contracted tree one level down that those subtrees made is
retired with them, and so, level after level, is everything below it.
Retiring clears the sub and down entries that would keep the old records
alive and puts the contracted nodes on their level's free list, so the
levels below the vertex level reuse ids and hold rows only for live
nodes.
"""

from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache

from .errors import CapacityError, check_id
from .forest import CaTriple, Meets
from .levels import Leveled
from .microset import PackedTree
from .multilevel import MultilevelInc
from .stats import Stats


_CAP = 1 << 64     # alpha is tabulated up to here; larger n are refused


def _cells(max_n):
    """An empty int column for values from -1 up to max_n - 1.

    Ids run below max_n on every level, and -1 marks none: a signed
    32-bit array while that fits, a list above it.  A tree size can
    reach the node count itself, so the size columns take
    _cells(max_n + 1) and fall back to a list one capacity sooner.
    """
    return array("i") if max_n <= 1 << 31 else []


def _bits(n):
    """ceil(log2 n) for n >= 2."""
    return max(1, (n - 1).bit_length())


@lru_cache(maxsize=None)
def _acap(i, j, cap=_CAP + 1):
    """Row-i Ackermann value at j, clamped to cap; exact below cap.

    The stage floors and alpha's columns both read it at the default
    clamp, exact up to 2^64, so the cache holds one entry per (i, j)
    they reach, however many capacities the forests built have."""
    if j == 1:
        return min(2, cap)
    if i == 1:
        if j >= _bits(cap):
            return cap
        return 1 << j
    t = _acap(i, j - 1, cap)
    if t >= _bits(cap):
        return cap
    return _acap(i - 1, t, cap)


def _column(j):
    """A(1, j), A(2, j), ... through the first at or past _CAP."""
    col = [_acap(1, j)]
    while col[-1] < _CAP:
        col.append(_acap(len(col) + 1, j))
    return tuple(col)


# alpha's columns by j // 4, for j = 4, 8, ..., 60; from j = 64 on, row 1
# alone reaches every n up to _CAP
_COLUMNS = (None,) + tuple(_column(j) for j in range(4, 64, 4))


def alpha(m, n):
    """Least i whose Ackermann row reaches n at argument j = 4*ceil(m/n).

    That is one past the index of the first entry >= n in the
    precomputed column of j, found by bisection; from j = 64 on, row 1
    reaches every n up to _CAP.
    """
    if m < 1 or n < 1:
        raise ValueError("alpha needs positive operation and node counts")
    if n > _CAP:
        raise ValueError("alpha is tabulated for node counts up to 2^64")
    c = (m + n - 1) // n
    return bisect_left(_COLUMNS[c], n) + 1 if c < len(_COLUMNS) else 1


def _reach(c, n):
    """Largest node count whose alpha at ceil(m/n) = c is still n's.

    alpha's value is set by the first entry >= n in the column of j = 4c,
    so it holds while n grows up to that entry.
    """
    if c >= len(_COLUMNS):
        return _CAP
    col = _COLUMNS[c]
    return col[bisect_left(col, n)]


class _Sub:
    """One staged subtree: a packed or three-level tree plus its id maps.

    inc is a PackedTree while the subtree fits in one, and a MultilevelInc
    once it has been built or promoted past PackedTree.CAP nodes.

    lid is its level's id list, shared by every subtree there: a level
    node belongs to one live subtree, and lid gives its incremental id
    inside it.  rev inverts that for this subtree: an id column from
    _cells, whose values are only read and handed back, so no record
    keeps the fresh int that an array read makes.  up is the node
    this subtree contracts to one level down (None only for the single
    subtree of a bottom-level tree).  root and ca(x, y) speak level ids,
    as the meet recursion in levels.py expects.
    """

    __slots__ = ("inc", "lid", "rev", "up")

    def __init__(self, inc, lid, rev):
        self.inc = inc
        self.lid = lid
        self.rev = rev
        self.up = None

    @property
    def root(self):
        """The level node at the subtree's current root."""
        return self.rev[self.inc.varrho]

    def ca(self, x, y):
        """Characteristic ancestors of members x and y, in level ids."""
        lid = self.lid
        a, ax, ay = self.inc._ca(lid[x], lid[y])
        rev = self.rev
        return tuple.__new__(CaTriple, (rev[a], rev[ax], rev[ay]))


class LinkForest(Leveled, Meets):
    """Forest under make_node / link / ca at a fixed level count.

    Vertices live on level L; contractions run down to level 1.
    A level's shape is three id columns: pi (the parent), fc (the first
    child) and ns (the next sibling), each -1 where there is none; piT
    is the vertex level's pi, which the checked ca, nca and n of
    forest.Meets read.  A link puts the new child first, so a node's
    children run from fc through ns newest first.  Beside them each
    level keeps ts, its tree sizes, read at roots, and each level below
    L free, its retired ids; all five are int columns from _cells.  sub and lid, the record and
    the id inside it of each node, stay lists: a record keeps each lid
    it reads, and a list hands it an int that exists already.
    Tree stages on level k are classified by row k of Ackermann's
    function, read from _acap: floors[k] lists 2*A(k, j) for j = 1, 2, ...
    up to the first A(k, j) past max(4, max_n) or past 2^64, and a size
    past the last floor stays in the last stage, since no tree outgrows
    that row.
    """

    def __init__(self, level, max_n, stats=None):
        if max_n < 1:
            raise ValueError(f"capacity {max_n} is below 1")
        self.max_n = max_n
        self.stats = stats if stats is not None else Stats()
        self._stage(level, *(_cells(max_n) for _ in range(3)),
                    _cells(max_n + 1))

    def _stage(self, level, pi, fc, ns, ts):
        """Levels 1..level around the vertex level's pi, fc, ns and ts.

        pi, fc and ns are its three shape columns, children newest
        first, and ts its tree sizes, columns from _cells(max_n) and
        _cells(max_n + 1).  The level is checked before anything is
        touched.  Everything below the vertex level is built anew, with
        empty free lists: trees under four nodes stay bare in stage 0,
        and each larger one becomes a single subtree in the stage read
        off its size.
        """
        if level < 1:
            raise ValueError("need at least one level")
        m = self.max_n
        top = max(4, m)
        if level > _bits(top):
            raise ValueError(
                f"level {level} has no row in a table for {m} nodes")
        n = len(pi)
        rng = range(1, level + 1)
        self.L = level
        self.floors = {}
        lim = min(top, _CAP)    # no tree grows past 2^64 nodes
        for k in rng:
            fl = []
            while (v := _acap(k, len(fl) + 1)) <= lim:
                fl.append(2 * v)
            self.floors[k] = tuple(fl)
        self.pi = {k: _cells(m) for k in rng}
        self.fc = {k: _cells(m) for k in rng}
        self.ns = {k: _cells(m) for k in rng}
        self.ts = {k: _cells(m + 1) for k in rng}  # tree size, true at roots
        self.sub = {k: [] for k in rng}     # _Sub, or None in stage 0
        self.lid = {k: [] for k in rng}     # id inside sub[k][v]
        self.down = {k: [] for k in range(1, level)}
        self.free = {k: _cells(m) for k in range(1, level)}  # retired ids
        self.pi[level] = self.piT = pi
        self.fc[level] = fc
        self.ns[level] = ns
        self.ts[level] = ts
        self.sub[level] = [None] * n
        self.lid[level] = [0] * n
        fl = self.floors[level]
        for r in range(n):
            if pi[r] < 0 and bisect_right(fl, ts[r]):
                self._rebuild(r, level)

    def _new_node(self, k):
        """A fresh singleton on level k, reusing a retired id below L.

        Retiring already cleared a reused id's sub and down entries; its
        parent, child and sibling cells are cleared here.
        """
        free = self.free.get(k)
        if free:
            v = free.pop()
            self.pi[k][v] = self.fc[k][v] = self.ns[k][v] = -1
            self.ts[k][v] = 1
            return v
        v = len(self.pi[k])
        self.pi[k].append(-1)
        self.fc[k].append(-1)
        self.ns[k].append(-1)
        self.ts[k].append(1)
        self.sub[k].append(None)
        self.lid[k].append(0)
        if k < self.L:
            self.down[k].append(None)
        return v

    def make_node(self):
        """Create and return a fresh singleton vertex."""
        if len(self.piT) >= self.max_n:
            raise CapacityError(f"forest is at its declared capacity {self.max_n}")
        return self._new_node(self.L)

    def find_root(self, x):
        """Root of x's tree: one subtree hop per level, then back up."""
        check_id(x, len(self.piT))
        return self._find_root(x)

    def _find_root(self, x):
        """find_root without the id check."""
        k = self.L
        while True:
            S = self.sub[k][x]
            if S is None:
                pi = self.pi[k]
                t = x
                p = pi[t]
                while p >= 0:
                    t = p
                    p = pi[t]
            else:
                t = S.rev[S.inc.varrho]     # S.root, without the call
                if self.pi[k][t] >= 0:
                    x = S.up
                    k -= 1
                    continue
            while k < self.L:
                t = self.down[k][t].root
                k += 1
            return t

    def link(self, x, y):
        """Make the root y a child of x, merging y's tree into x's.

        Each id is checked once, here; a link whose y is no root, or
        whose x is in y's tree, raises before anything is counted or
        changed.  The two trees' sizes are read once and handed to _l.
        _count may restage the forest, which keeps the vertex level's
        columns and every tree's root, so r and both sizes still hold.
        """
        pi = self.piT
        n = len(pi)
        check_id(x, n)
        check_id(y, n)
        if pi[y] >= 0:
            raise ValueError(f"link target {y} is not a root")
        r = self._find_root(x)
        if r == y:
            raise ValueError("link within one tree")
        ts = self.ts[self.L]
        tx = ts[r]
        ty = ts[y]
        self._count((tx == 1) + (ty == 1))
        self._l(r, x, y, self.L, tx, ty)

    def _count(self, fresh):
        """Count a link that brings `fresh` singletons in: a fixed-level
        forest keeps no count."""

    def _l(self, r, x, y, k, tx, ty):
        """Merge, then re-add as little as the stage gap allows.

        r is the root of x's level-k tree and tx its size, y the root of
        the other one and ty its size.  Each stage is read off a tree
        size, the two roots' before the merge and r's after it; a size
        of 1 is stage 0 on every level.  The first matching case runs: a
        merged size whose stage exceeds both rebuilds the whole tree in
        that stage, which by the doubling law is one above the higher of
        the two; unequal stages pour the lower-stage side into the subtree
        at the junction; equal stages recurse on the contracted trees, or
        are trivially done below the staging threshold.  A pour of a fresh
        singleton, below x or above y's root, is one add to one record.
        """
        fl = self.floors[k]
        sx = bisect_right(fl, tx)
        sy = bisect_right(fl, ty) if ty > 1 else 0
        self.ts[k][r] = tx + ty
        self.pi[k][y] = x
        fc = self.fc[k]
        self.ns[k][y] = fc[x]
        fc[x] = y
        sub = self.sub[k]
        if bisect_right(fl, tx + ty) > (sx if sx >= sy else sy):
            self._retire(sub[r], k)
            self._retire(sub[y], k)
            self._rebuild(r, k)
        elif sx > sy:
            if ty == 1:     # a fresh singleton: one add_leaf
                self._seat(sub[x], y, x, k)
            else:
                self._retire(sub[y], k)
                self._fill(sub[x], y, None, k)
        elif sx < sy:
            self._retire(sub[r], k)
            S = sub[y]
            pi = self.pi[k]
            v = x
            while v >= 0:
                self._seat(S, v, -1, k)
                v = pi[v]
            if tx > 1:      # a fresh singleton x is one add_root
                self._fill(S, r, y, k)
        elif sx > 0:
            assert k > 1, "equal stages above 0 cannot meet at the bottom level"
            r = sub[r].up
            y = sub[y].up
            ts = self.ts[k - 1]
            self._l(r, sub[x].up, y, k - 1, ts[r], ts[y])
        # else: merged size under 4, the shape columns already say it all

    def _retire(self, S, k):
        """Retire the contracted trees below S, level after level.

        S is the root subtree of a level-k tree whose subtrees are being
        replaced, or None for a stage-0 tree; its up roots the level-(k-1)
        tree those subtrees contract to, and is None at the bottom level.
        Each node of that tree loses its sub and down entries and goes on
        the free list, and the walk repeats through its root subtree.
        """
        while S is not None and S.up is not None:
            z = S.up
            k -= 1
            sub = self.sub[k]
            down = self.down[k]
            S = sub[z]
            nodes = self.tree_nodes(z, k)
            for v in nodes:
                sub[v] = None
                down[v] = None
            self.free[k].extend(nodes)

    def _rebuild(self, r, k):
        """The whole level-k tree rooted at r becomes one fresh subtree.

        The tree's size picks the record kind: a packed tree when it fits,
        else a three-level tree.  A packed record that a later pour fills
        is promoted then, by _promote.
        """
        lid = self.lid[k]
        if self.ts[k][r] <= PackedTree.CAP:
            inc = PackedTree(self.stats)
        else:
            inc = MultilevelInc(self.max_n, stats=self.stats)
        S = _Sub(inc, lid, _cells(self.max_n))
        lid[r] = 0
        S.rev.append(r)
        self.sub[k][r] = S
        self._fill(S, r, None, k)
        if k > 1:
            z = self._new_node(k - 1)
            S.up = z
            self.down[k - 1][z] = S

    def _fill(self, S, top, skip, k):
        """Add top and the nodes below it that S lacks, parents first.

        The subtree under skip is left out entirely.
        """
        pi = self.pi[k]
        sub = self.sub[k]
        for v in self.tree_nodes(top, k, skip):
            if sub[v] is not S:
                self._seat(S, v, pi[v], k)

    def _seat(self, S, v, u, k):
        """Add level-k node v to subtree S, below member u or, when u is
        -1, above S's root.

        An add that a full packed record refuses promotes the record,
        and is made again on the three-level tree that replaces it.
        """
        lid = self.lid[k]
        try:
            i = S.inc.add_root() if u < 0 else S.inc._add_leaf(lid[u])
        except CapacityError:
            inc = self._promote(S)
            i = inc.add_root() if u < 0 else inc._add_leaf(lid[u])
        lid[v] = i
        S.rev.append(v)
        self.sub[k][v] = S

    def _promote(self, S):
        """Move the full packed record of S into a three-level tree.

        The nodes are added again in id order, each added root as a root,
        so every id, parent, spine meet and the root stay as they were and
        lid and rev need no change.  No vertex is added, so eta is left as
        it was; the work of the copy counts.
        """
        t = S.inc
        st = self.stats
        eta = st.eta
        inc = MultilevelInc(self.max_n, stats=st)
        sm = t.sm
        piT = t.piT
        for i in range(1, len(piT)):
            if sm[i] == i:
                inc.add_root()
            else:
                inc._add_leaf(piT[i])
        st.eta = eta
        S.inc = inc
        return inc

    def relevel(self, level):
        """Restage this forest in place for `level` levels.

        The vertex level's shape columns and size list stay as they are,
        so no vertex is made again; only the levels below and the
        subtree records are built anew.  A level past
        ceil(log2 max(4, max_n)) raises and leaves the forest as it was.
        """
        k = self.L
        self._stage(level, self.pi[k], self.fc[k], self.ns[k], self.ts[k])

    def _ca(self, x, y):
        """ca without the id checks, or None across trees.

        Ends that share a vertex-level subtree record cost one query of
        that record: trees only merge, so a record never spans two trees,
        and _c would take the same branch.  Any other pair walks both ends
        to their roots, then recurses through the levels.
        """
        if x == y:
            return tuple.__new__(CaTriple, (x, x, x))
        sub = self.sub[self.L]
        S = sub[x]
        if S is not None and S is sub[y]:
            return S.ca(x, y)
        if self._find_root(x) != self._find_root(y):
            return None
        return self._c(x, y, self.L)

    def _flat(self, x, y, k):
        """Meet inside a stage-0 tree: walk the bare parent column."""
        pi = self.pi[k]
        px = [x]
        v = pi[x]
        while v >= 0:
            px.append(v)
            v = pi[v]
        cy = None
        v = y
        while v not in px:
            cy = v
            v = pi[v]
        i = px.index(v)
        self.stats.note_steps(len(px) + 2)
        return tuple.__new__(CaTriple, (
            v, px[i - 1] if i else v, cy if cy is not None else v))

    def tree_nodes(self, r, k, skip=None):
        """Nodes of the level-k subtree at r, parents before children.

        Breadth first, each node's children newest first, read off the
        first-child and next-sibling columns.  The subtree under skip,
        when given, is left out entirely.
        """
        fc = self.fc[k]
        ns = self.ns[k]
        order = [r]
        # the loop also walks the children it appends
        for v in order:
            w = fc[v]
            while w >= 0:
                if w != skip:
                    order.append(w)
                w = ns[w]
        return order


class AdaptiveLinkForest(LinkForest):
    """Link forest that re-tunes its level count as the workload grows.

    Nodes join the counted population with their first link; links and
    meets both count as operations, meets only once linking has started.
    The target level alpha(m1, n1) is re-read after a counted operation
    that moved ceil(m1/n1), which a meet does only past mark, or took n1
    past reach, the column entry up to which alpha keeps its value; a
    leaf growth of 2^14 links reads it twice.  When it leaves {L-1, L}
    the forest restages itself in place (relevel): the vertex level
    stays as it is, and every tree of four or more nodes is re-seated as
    one incremental tree at its proper stage for the new level.  The
    forest opens at one level, which is what the first link reads.
    """

    def __init__(self, max_n, stats=None):
        super().__init__(1, max_n, stats)
        self.n1 = 0   # nodes that have been in a link
        self.m1 = 0   # links and meets since the first link; reorg_log's index
        self.c = 0     # ceil(m1/n1) as of the last count
        self.mark = 0  # n1 * c: the last m1 that keeps c while n1 stands
        self.reach = 0  # last n1 at which alpha keeps its last-read value

    @property
    def level(self):
        return self.L

    @property
    def reorg_log(self):
        return self.stats.reorg_log

    def _ca(self, x, y):
        """Count one meet in m1, then answer it as LinkForest._ca does.

        A meet below the mark is counted by one compare and an add; past
        it, _count reads alpha again and may restage the forest.  The
        shared ca has checked the ids before anything is counted.
        """
        if self.m1 < self.mark:
            self.m1 += 1
        elif self.n1:       # meets count only once linking has started
            self._count(0)
        return LinkForest._ca(self, x, y)

    def _count(self, fresh):
        """Count one operation that brings `fresh` nodes into the count.

        alpha is read again only when ceil(m1/n1) moved, which a meet
        can do only past the mark, or when n1 passed the reach; otherwise
        it still has the value last read, and the level that read left
        in place stands.  The reach comes from alpha's column, not from
        the value read.  A restaging is logged as (m1, old L, new L).
        """
        m1 = self.m1 = self.m1 + 1
        if fresh:
            self.n1 += fresh
        elif m1 <= self.mark:
            return
        n1 = self.n1
        c = (m1 + n1 - 1) // n1
        self.mark = n1 * c
        if c == self.c and n1 <= self.reach:
            return
        self.c = c
        self.reach = _reach(c, n1)
        lv = alpha(m1, n1)
        L = self.L
        if lv != L and lv != L - 1:
            self.relevel(lv)
            self.stats.reorg_log.append((m1, L, lv))
