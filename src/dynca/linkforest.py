"""Meet queries under link, with self-tuning inverse-Ackermann overhead.

Trees at the top level hold the real vertices.  A tree of fewer than four
nodes is kept as bare parent lists; anything larger is partitioned into
subtrees, and contracting every subtree yields the tree one level down,
where the same scheme repeats.  A subtree whose stage keeps it under 64
nodes is one packed tree (PackedTree in microset.py); any other is a
three-level incremental tree of linear total growth (the linear_tree
shape in multilevel.py).  Stages classify tree sizes by a row of
Ackermann's function, one row per level, so a link between trees of
unequal stages only re-adds the smaller side, links between equal stages
recurse one level down, and a tree that outgrows its stage is rebuilt
once as a single subtree of the next stage.
The level count is the inverse-Ackermann value of the operation counts,
tracked by a wrapper that restages the forest whenever that value
drifts: the vertex level stays, and only its staging is built again.
With the node count fixed, that value moves only when the operation
count passes a multiple of the node count, so the wrapper reads it again
only then or when a link counts a new node; any other operation costs
one compare.

Meets across subtrees run through Leveled._c in levels.py, the recursion
the multilevel engine shares: each staged subtree is a _Sub record
exposing root, up and ca(x, y) in level ids, a stage-0 tree keeps None
in sub, and _flat walks its bare parent lists.

The forest holds its live trees, not its link history.  A rebuild drops
the subtrees of both merged trees, and a pour drops those of the side it
re-adds; the contracted tree one level down that those subtrees made is
retired with them, and so, level after level, is everything below it.
Retiring clears the sub and down entries that would keep the old records
alive and puts the contracted nodes on their level's free list, so the
levels below the vertex level reuse ids and hold rows only for live
nodes.
"""

from functools import lru_cache

from .errors import CapacityError, check_id
from .forest import CaTriple
from .levels import Leveled
from .microset import PackedTree
from .multilevel import MultilevelInc
from .stats import Stats


_CAP = 1 << 64     # alpha's columns clamp here; larger n are refused


def _bits(n):
    """ceil(log2 n) for n >= 2."""
    return max(1, (n - 1).bit_length())


@lru_cache(maxsize=None)
def _acap(i, j, cap):
    """Row-i Ackermann value at j, clamped to cap; exact below cap."""
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


def a_inv(i, n):
    """Least j with the row-i Ackermann value at j reaching n."""
    if i < 1 or n < 1:
        raise ValueError("a_inv needs a positive row and target")
    j = 1
    while _acap(i, j, n) < n:
        j += 1
    return j


def _column(j):
    """A(1, j), A(2, j), ... clamped at _CAP, through the first clamped one."""
    col = [_acap(1, j, _CAP)]
    while col[-1] < _CAP:
        col.append(_acap(len(col) + 1, j, _CAP))
    return tuple(col)


# alpha's columns by j // 4, for j = 4, 8, ..., 60; from j = 64 on, row 1
# alone reaches every n up to _CAP
_COLUMNS = (None,) + tuple(_column(j) for j in range(4, 64, 4))


def alpha(m, n):
    """Least i whose Ackermann row reaches n at argument j = 4*ceil(m/n).

    Row 1 reaches n once j >= ceil(log2 n); below that, the rows are read
    from the precomputed column of j, so a call is a short lookup.
    """
    if m < 1 or n < 1:
        raise ValueError("alpha needs positive operation and node counts")
    if n > _CAP:
        raise ValueError("alpha is tabulated for node counts up to 2^64")
    j = 4 * ((m + n - 1) // n)
    if j >= (n - 1).bit_length():
        return 1
    col = _COLUMNS[j >> 2]      # col[0] = 2^j < n
    i = 2
    while col[i - 1] < n:
        i += 1
    return i


class AckermannTable:
    """Ackermann values A(i, j) for i, j in [1..ceil(log2 n)].

    Row 1 doubles, row i at j applies row i-1 to the value one step left.
    Entries come from _acap clamped at n + 1, so those that would exceed n
    are stored as None and compare as infinite, which is all the staging
    logic ever needs from them.
    """

    __slots__ = ("n", "size", "rows")

    def __init__(self, n):
        n = int(n)
        if n < 2:
            raise ValueError("table needs n >= 2")
        self.n = n
        k = _bits(n)
        self.size = k
        self.rows = [None] + [
            [None] + [v if (v := _acap(i, j, n + 1)) <= n else None
                      for j in range(1, k + 1)]
            for i in range(1, k + 1)]

    def value(self, i, j):
        """A(i, j), or None when it exceeds n.

        j past the tabulated range is None for every row; i must be a
        tabulated row.
        """
        if not 1 <= i <= self.size:
            raise ValueError(f"row {i} outside [1, {self.size}]")
        if j < 1:
            raise ValueError(f"column {j} below 1")
        if j > self.size:
            return None
        return self.rows[i][j]

    def check_identities(self):
        """Sweep the tabulated doubling, level-shift, and shift-robustness laws.

        Raises AssertionError on any violation; None entries stand for
        values past n and satisfy every lower bound vacuously.
        """
        k = self.size
        for i in range(1, k + 1):
            for j in range(1, k):
                a = self.rows[i][j]
                b = self.rows[i][j + 1]
                if a is not None and b is not None:
                    assert b >= 2 * a, (i, j)
        for i in range(1, k):
            for j in range(4, k + 1):
                hi = self.rows[i + 1][j]
                lo = self.rows[i][2 * j] if 2 * j <= k else None
                if lo is not None:
                    assert hi is None or hi >= lo, (i, j)
        ns = sorted({self.n, max(2, self.n // 2), max(2, self.n // 3)})
        ms = sorted({1, 2, 3, max(1, self.n // 2), self.n, 2 * self.n})
        for n in ns:
            for m in ms:
                base = alpha(m, n)
                for m2 in (m, 2 * m):
                    for n2 in (n, n + 1, 2 * n):
                        assert alpha(m2, n2) >= base - 1, (m, n, m2, n2)


class _Sub:
    """One staged subtree: a packed or three-level tree plus its id maps.

    lid is its level's id list, shared by every subtree there: a level
    node belongs to one live subtree, and lid gives its incremental id
    inside it.  rev inverts that for this subtree, and up is the node
    this subtree contracts to one level down (None only for the single
    subtree of a bottom-level tree).  root and ca(x, y) speak level ids,
    as the meet recursion in levels.py expects.
    """

    __slots__ = ("inc", "lid", "rev", "up")

    def __init__(self, inc, lid):
        self.inc = inc
        self.lid = lid
        self.rev = []
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


class LinkForest(Leveled):
    """Forest under make_node / link / ca at a fixed level count.

    Vertices live on level `level`; contractions run down to level 1.
    Tree stages on level k are classified by row k of an Ackermann table
    built for max_n nodes: no tree outgrows it, and a ceiling past max_n
    reads None, which the staging treats as infinite.
    """

    def __init__(self, level, max_n, stats=None):
        if level < 1:
            raise ValueError("need at least one level")
        ack = AckermannTable(max(4, max_n))
        if level > ack.size:
            raise ValueError(f"level {level} has no row in a table for {max_n} nodes")
        self.L = level
        self.ack = ack
        self.max_n = max_n
        self.stats = stats if stats is not None else Stats()
        rng = range(1, level + 1)
        self.pi = {k: [] for k in rng}
        self.ch = {k: [] for k in rng}
        self.stage = {k: [] for k in rng}
        self.ts = {k: [] for k in rng}      # tree size, authoritative at roots
        self.sub = {k: [] for k in rng}     # _Sub, or None in stage 0
        self.lid = {k: [] for k in rng}     # id inside sub[k][v]
        self.down = {k: [] for k in range(1, level)}
        self.free = {k: [] for k in range(1, level)}  # retired, reusable

    def _new_node(self, k):
        """A fresh singleton on level k, reusing a retired id below L.

        Retiring already cleared a reused id's sub and down entries.
        """
        free = self.free.get(k)
        if free:
            v = free.pop()
            self.pi[k][v] = None
            self.ch[k][v] = []
            self.stage[k][v] = 0
            self.ts[k][v] = 1
            return v
        v = len(self.pi[k])
        self.pi[k].append(None)
        self.ch[k].append([])
        self.stage[k].append(0)
        self.ts[k].append(1)
        self.sub[k].append(None)
        self.lid[k].append(0)
        if k < self.L:
            self.down[k].append(None)
        return v

    @property
    def n(self):
        return len(self.pi[self.L])

    def make_node(self):
        """Create and return a fresh singleton vertex."""
        if len(self.pi[self.L]) >= self.max_n:
            raise CapacityError(f"forest is at its declared capacity {self.max_n}")
        return self._new_node(self.L)

    def find_root(self, x):
        """Root of x's tree: one subtree hop per level, then back up."""
        check_id(x, len(self.pi[self.L]))
        return self._find_root(x)

    def _find_root(self, x):
        """find_root without the id check."""
        k = self.L
        while True:
            S = self.sub[k][x]
            if S is None:
                pi = self.pi[k]
                t = x
                while pi[t] is not None:
                    t = pi[t]
            else:
                t = S.root
                if self.pi[k][t] is not None:
                    x = S.up
                    k -= 1
                    continue
            while k < self.L:
                t = self.down[k][t].root
                k += 1
            return t

    def link(self, x, y):
        """Make the root y a child of x, merging y's tree into x's."""
        self._join(self._link_root(x, y), x, y)

    def _link_root(self, x, y):
        """Root of x's tree; raises unless y is a root of another tree."""
        n = len(self.pi[self.L])
        check_id(x, n)
        check_id(y, n)
        if self.pi[self.L][y] is not None:
            raise ValueError(f"link target {y} is not a root")
        r = self._find_root(x)
        if r == y:
            raise ValueError("link within one tree")
        return r

    def _join(self, r, x, y):
        """The merge behind a validated link; r is the root of x's tree."""
        self._l(r, x, y, self.L)

    def _l(self, r, x, y, k):
        """Merge, then re-add as little as the stage gap allows.

        r is the root of x's level-k tree, y the root of the other one.
        The first matching case runs: a merged size past its stage ceiling
        rebuilds the whole tree one stage up; unequal stages pour the
        lower-stage side into the subtree at the junction; equal stages
        recurse on the contracted trees, or are trivially done below the
        staging threshold.
        """
        pi = self.pi[k]
        stage = self.stage[k]
        ts = self.ts[k]
        sx = stage[r]
        sy = stage[y]
        ts[r] += ts[y]
        pi[y] = x
        self.ch[k][x].append(y)
        sg = sx if sx >= sy else sy
        lim = self.ack.value(k, sg + 1)
        sub = self.sub[k]
        if lim is not None and ts[r] >= 2 * lim:
            self._retire(sub[r], k)
            self._retire(sub[y], k)
            self._rebuild(r, k, sg + 1)
        elif sx > sy:
            self._retire(sub[y], k)
            self._fill(sub[x], y, (), None, k, sx)
        elif sx < sy:
            self._retire(sub[r], k)
            S = sub[y]
            lid = self.lid[k]
            path = []
            v = x
            while v is not None:
                path.append(v)
                v = pi[v]
            for v in path:
                lid[v] = S.inc.add_root()
                S.rev.append(v)
                sub[v] = S
                stage[v] = sy
            self._fill(S, r, set(path), y, k, sy)
        elif sg > 0:
            assert k > 1, "equal stages above 0 cannot meet at the bottom level"
            self._l(sub[r].up, sub[x].up, sub[y].up, k - 1)
        # else: merged size under 4, the parent lists already say it all

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
            self.free[k] += nodes

    def _rebuild(self, r, k, sg):
        """The whole level-k tree becomes one fresh subtree in stage sg."""
        lid = self.lid[k]
        lim = self.ack.value(k, sg + 1)
        if lim is not None and 2 * lim <= PackedTree.CAP + 1:
            # the stage keeps the tree, and so this subtree with any roots
            # a pour adds, under 2 * lim nodes
            inc = PackedTree(self.stats)
        else:
            inc = MultilevelInc(self.max_n, stats=self.stats)
        S = _Sub(inc, lid)
        lid[r] = 0
        S.rev.append(r)
        self.sub[k][r] = S
        self.stage[k][r] = sg
        self._fill(S, r, (r,), None, k, sg)
        if k > 1:
            z = self._new_node(k - 1)
            S.up = z
            self.down[k - 1][z] = S

    def _fill(self, S, top, have, skip, k, sg):
        """Add top and the nodes below it to subtree S, parents first.

        Members listed in have are walked through without being added
        again; the subtree under skip is left out entirely.
        """
        inc = S.inc
        lid = self.lid[k]
        rev = S.rev
        pi = self.pi[k]
        ch = self.ch[k]
        sub = self.sub[k]
        stage = self.stage[k]
        queue = [top]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            if v not in have:
                lid[v] = inc.add_leaf(lid[pi[v]])
                rev.append(v)
                sub[v] = S
                stage[v] = sg
            for w in ch[v]:
                if w != skip:
                    queue.append(w)

    def relevel(self, level):
        """This forest's trees on a new forest of `level` levels.

        The new forest takes over the vertex level's parent, child and
        size lists as they are, so no vertex is made again and this
        forest must not be used after; only the staging is built anew.
        Trees under four nodes stay bare, larger ones become a single
        subtree in the highest stage whose floor their size meets.
        """
        lf = LinkForest(level, self.max_n, self.stats)
        k = self.L
        n = len(self.pi[k])
        lf.pi[level] = pi = self.pi[k]
        lf.ch[level] = self.ch[k]
        lf.ts[level] = ts = self.ts[k]
        lf.stage[level] = [0] * n
        lf.sub[level] = [None] * n
        lf.lid[level] = [0] * n
        value = lf.ack.value
        for r in range(n):
            size = ts[r]
            if pi[r] is not None or size < 4:
                continue
            sg = 1
            while True:
                v = value(level, sg + 1)
                if v is None or 2 * v > size:
                    break
                sg += 1
            lf._rebuild(r, level, sg)
        return lf

    def ca(self, x, y):
        """Characteristic ancestors, or None across trees."""
        n = len(self.pi[self.L])
        check_id(x, n)
        check_id(y, n)
        return self._ca(x, y)

    def _ca(self, x, y):
        """ca without the id checks."""
        if x == y:
            self.stats.note_query(0)
            return tuple.__new__(CaTriple, (x, x, x))
        if self._find_root(x) != self._find_root(y):
            return None
        return self._c(x, y, self.L)

    def nca(self, x, y):
        t = self.ca(x, y)
        return None if t is None else t.a

    def _flat(self, x, y, k):
        """Meet inside a stage-0 tree: walk the bare parent lists."""
        pi = self.pi[k]
        px = [x]
        v = x
        while pi[v] is not None:
            v = pi[v]
            px.append(v)
        cy = None
        v = y
        while v not in px:
            cy = v
            v = pi[v]
        i = px.index(v)
        self.stats.note_query(len(px) + 2)
        return tuple.__new__(CaTriple, (
            v, px[i - 1] if i else v, cy if cy is not None else v))

    def tree_nodes(self, r, k):
        """Nodes of r's level-k tree, parents before children."""
        ch = self.ch[k]
        order = [r]
        qi = 0
        while qi < len(order):
            order.extend(ch[order[qi]])
            qi += 1
        return order


class AdaptiveLinkForest:
    """Link forest that re-tunes its level count as the workload grows.

    Nodes join the counted population with their first link; links and
    meets both count as operations, meets only once linking has started.
    The target level alpha(m1, n1) is re-read after a counted operation
    that moved n1 or took m1 past mark, the last count with the same
    ceil(m1/n1) and hence the same alpha.  When it leaves {level-1,
    level} the forest is restaged: the vertex level stays as it is, and
    every tree of four or more nodes is re-seated as one incremental tree
    at its proper stage for the new level.  The forest opens at one
    level, which is what the first link reads.
    """

    def __init__(self, max_n, stats=None):
        self.stats = stats if stats is not None else Stats()
        self.lf = LinkForest(1, max_n, self.stats)
        self.level = 1
        self.n1 = 0   # nodes that have been in a link
        self.m1 = 0   # links plus meet queries since the first link
        self.ops = 0  # counted operations, indexes the reorganization log
        self.mark = 0  # last m1 at which alpha keeps its last-read value

    @property
    def n(self):
        return self.lf.n

    @property
    def reorg_log(self):
        return self.stats.reorg_log

    def make_node(self):
        """Create and return a fresh singleton vertex."""
        return self.lf.make_node()

    def find_root(self, x):
        return self.lf.find_root(x)

    def link(self, x, y):
        """Make the root y a child of x, merging y's tree into x's.

        A rejected link raises before anything is counted or restaged.
        A node joins the count when its tree is still a singleton.  The
        root of x's tree found by the check survives a restaging, which
        keeps every tree under its own root.
        """
        lf = self.lf
        r = lf._link_root(x, y)
        ts = lf.ts[lf.L]
        self._count((ts[r] == 1) + (ts[y] == 1))
        self.lf._join(r, x, y)

    def ca(self, x, y):
        """Characteristic ancestors, or None across trees."""
        lf = self.lf
        n = len(lf.pi[lf.L])
        check_id(x, n)
        check_id(y, n)
        if self.n1:
            self._count(0)
        return self.lf._ca(x, y)

    def _count(self, fresh):
        """Count one operation that brings `fresh` nodes into the count.

        alpha is read again only when n1 moved or m1 passed the mark;
        otherwise it still has the value last read, and the level that
        read left in place stands.
        """
        self.ops += 1
        m1 = self.m1 = self.m1 + 1
        if fresh:
            self.n1 += fresh
        elif m1 <= self.mark:
            return
        n1 = self.n1
        self.mark = n1 * ((m1 + n1 - 1) // n1)
        lv = alpha(m1, n1)
        if lv != self.level and lv != self.level - 1:
            self._relevel(lv)

    def nca(self, x, y):
        t = self.ca(x, y)
        return None if t is None else t.a

    def _relevel(self, lv):
        """Restage the forest for lv levels, logging the reorganization."""
        self.stats.reorgs += 1
        self.stats.reorg_log.append((self.ops, self.level, lv))
        self.lf = self.lf.relevel(lv)
        self.level = lv
