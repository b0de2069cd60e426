"""Meet queries under link, with self-tuning inverse-Ackermann overhead.

Trees at the top level hold the real vertices.  A tree of fewer than four
nodes is kept as bare parent lists; anything larger is partitioned into
subtrees, each one three-level incremental tree of linear total growth
(the linear_tree shape in multilevel.py), and contracting every subtree
yields the tree one level down, where the same scheme repeats.  Stages
classify tree sizes by a row of Ackermann's function, one row per level,
so a link between trees of unequal stages only re-adds the smaller side,
links between equal stages recurse one level down, and a tree that
outgrows its stage is rebuilt once as a single subtree of the next stage.
The level count is the inverse-Ackermann value of the operation counts,
tracked by a wrapper that rebuilds the whole forest whenever that value
drifts.

Meets across subtrees run through Leveled._c in levels.py, the recursion
the multilevel engine shares: each staged subtree is a _Sub record
exposing root, up and ca(x, y) in level ids, a stage-0 tree keeps None
in sub, and _flat walks its bare parent lists.

Discarded structures are abandoned in place; reachability through the
current subtree references is what defines the live state.
"""

from functools import lru_cache

from .arena import Arena
from .errors import CapacityError, check_id
from .fat_preorder import DYNAMIC_PARAMS
from .forest import CaTriple
from .levels import Leveled
from .multilevel import MultilevelInc
from .stats import Stats


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


def alpha(m, n):
    """Least i whose Ackermann row reaches n at argument 4*ceil(m/n)."""
    if m < 1 or n < 1:
        raise ValueError("alpha needs positive operation and node counts")
    j = 4 * ((m + n - 1) // n)
    return _alpha_at(j, n)


@lru_cache(maxsize=65536)
def _alpha_at(j, n):
    if n <= 4 or j >= _bits(n):
        return 1
    i = 1
    while _acap(i, j, n) < n:
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
    """One staged subtree: a three-level incremental tree plus its id maps.

    ids maps level nodes to incremental ids, rev inverts it, and up is
    the node this subtree contracts to one level down (None only for the
    single subtree of a bottom-level tree).  root and ca(x, y) speak
    level ids, as the meet recursion in levels.py expects.
    """

    __slots__ = ("inc", "ids", "rev", "up")

    def __init__(self, inc):
        self.inc = inc
        self.ids = {}
        self.rev = []
        self.up = None

    @property
    def root(self):
        """The level node at the subtree's current root."""
        return self.rev[self.inc.varrho]

    def ca(self, x, y):
        """Characteristic ancestors of members x and y, in level ids."""
        a, ax, ay = self.inc._ca(self.ids[x], self.ids[y])
        rev = self.rev
        return tuple.__new__(CaTriple, (rev[a], rev[ax], rev[ay]))


class LinkForest(Leveled):
    """Forest under make_node / link / ca at a fixed level count.

    Vertices live on level `level`; contractions run down to level 1.
    Tree stages on level k are classified by row k of the Ackermann
    table, so the table must cover the intended node count.
    """

    def __init__(self, level, ack, max_n, params=DYNAMIC_PARAMS, stats=None, arena=None):
        if level < 1:
            raise ValueError("need at least one level")
        if level > ack.size:
            raise ValueError(f"level {level} has no row in the supplied table")
        self.L = level
        self.ack = ack
        self.max_n = max_n
        self.params = params
        self.stats = stats if stats is not None else Stats()
        self.arena = arena if arena is not None else Arena()
        rng = range(1, level + 1)
        self.pi = {k: [] for k in rng}
        self.ch = {k: [] for k in rng}
        self.stage = {k: [] for k in rng}
        self.ts = {k: [] for k in rng}      # tree size, authoritative at roots
        self.sub = {k: [] for k in rng}     # _Sub, or None in stage 0
        self.down = {k: [] for k in range(1, level)}
        self.roots = set()

    def _new_node(self, k):
        v = len(self.pi[k])
        self.pi[k].append(None)
        self.ch[k].append([])
        self.stage[k].append(0)
        self.ts[k].append(1)
        self.sub[k].append(None)
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
        v = self._new_node(self.L)
        self.roots.add(v)
        return v

    def parent(self, v):
        check_id(v, len(self.pi[self.L]))
        return self.pi[self.L][v]

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
        self.roots.discard(y)
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
        if lim is None and ts[r] > self.ack.n:
            # the tree outgrew the table's coverage, which a long period
            # allows; extend it (pure lookup growth, nothing stored moves)
            # so the stage ceiling test stays decidable
            self.ack = AckermannTable(2 * ts[r])
            lim = self.ack.value(k, sg + 1)
        if lim is not None and ts[r] >= 2 * lim:
            self._rebuild(r, k, sg + 1)
        elif sx > sy:
            self._fill(self.sub[k][x], y, (), None, k, sx)
        elif sx < sy:
            S = self.sub[k][y]
            sub = self.sub[k]
            path = []
            v = x
            while v is not None:
                path.append(v)
                v = pi[v]
            for v in path:
                iid = S.inc.add_root()
                S.ids[v] = iid
                S.rev.append(v)
                sub[v] = S
                stage[v] = sy
            self._fill(S, r, set(path), y, k, sy)
        elif sg > 0:
            assert k > 1, "equal stages above 0 cannot meet at the bottom level"
            sub = self.sub[k]
            self._l(sub[r].up, sub[x].up, sub[y].up, k - 1)
        # else: merged size under 4, the parent lists already say it all

    def _rebuild(self, r, k, sg):
        """The whole level-k tree becomes one fresh subtree in stage sg."""
        S = _Sub(MultilevelInc(self.max_n, levels=3, params=self.params,
                               stats=self.stats, arena=self.arena))
        S.ids[r] = 0
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
        ids = S.ids
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
                ids[v] = inc.add_leaf(ids[pi[v]])
                rev.append(v)
                sub[v] = S
                stage[v] = sg
            for w in ch[v]:
                if w != skip:
                    queue.append(w)

    def adopt_tree(self, order, parent):
        """Install a prebuilt tree at its proper stage.

        order lists the nodes parents-first starting at the root; parent
        gives stored parents.  Trees under four nodes stay bare, larger
        ones become a single subtree in the highest stage whose floor
        their size meets.  Used by reorganizations.
        """
        k = self.L
        pi = self.pi[k]
        ch = self.ch[k]
        r = order[0]
        for v in order[1:]:
            t = parent[v]
            pi[v] = t
            ch[t].append(v)
            self.roots.discard(v)
        self.ts[k][r] = len(order)
        if len(order) < 4:
            return
        if self.ack.n < len(order):
            self.ack = AckermannTable(2 * len(order))
        sg = 1
        while True:
            v = self.ack.value(k, sg + 1)
            if v is None or 2 * v > len(order):
                break
            sg += 1
        self._rebuild(r, k, sg)

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

    def tree_nodes(self, r, k=None):
        """Nodes of r's level-k tree, parents before children."""
        if k is None:
            k = self.L
        ch = self.ch[k]
        order = [r]
        qi = 0
        while qi < len(order):
            order.extend(ch[order[qi]])
            qi += 1
        return order

    def check_invariants(self):
        """Full sweep of staging and contraction consistency.

        Checks, for every live tree on every level: the recorded size,
        the stage against its size window, per-node stage and subtree
        agreement, the per-subtree size floor, the subtree-count ceiling,
        and that parent edges between subtree roots contract exactly to
        the tree one level down.
        """
        ack = self.ack
        for root in self.roots:
            k = self.L
            nodes = self.tree_nodes(root, k)
            while True:
                r = nodes[0]
                sz = len(nodes)
                st = self.stage[k][r]
                assert self.ts[k][r] == sz, (k, r)
                if sz < 4:
                    assert st == 0, (k, r)
                else:
                    assert st >= 1, (k, r)
                    lo = ack.value(k, st)
                    hi = ack.value(k, st + 1)
                    assert lo is not None and 2 * lo <= sz, (k, r)
                    assert hi is None or sz < 2 * hi, (k, r)
                if st == 0:
                    for v in nodes:
                        assert self.sub[k][v] is None and self.stage[k][v] == 0
                    break
                lo = ack.value(k, st)
                seen = {}
                total = 0
                for v in nodes:
                    S = self.sub[k][v]
                    assert S is not None and self.stage[k][v] == st, (k, v)
                    seen[id(S)] = S
                subs = list(seen.values())
                for S in subs:
                    assert len(S.rev) == S.inc.n
                    assert S.inc.n >= 2 * lo, (k, st)
                    total += S.inc.n
                assert total == sz
                assert len(subs) * 2 * lo <= sz, (k, st)
                if k == 1:
                    assert len(subs) == 1
                    break
                ups = set()
                kr = None
                for S in subs:
                    assert S.up is not None and self.down[k - 1][S.up] is S
                    ups.add(S.up)
                    t = S.root
                    pt = self.pi[k][t]
                    if pt is None:
                        kr = S.up
                        assert self.pi[k - 1][S.up] is None
                    else:
                        assert self.pi[k - 1][S.up] == self.sub[k][pt].up
                assert kr is not None
                nodes = self.tree_nodes(kr, k - 1)
                assert set(nodes) == ups
                k -= 1


class AdaptiveLinkForest:
    """Link forest that re-tunes its level count as the workload grows.

    Nodes join the counted population with their first link; links and
    meets both count as operations.  Before each counted operation the
    target level is re-read, and when it leaves {level-1, level} the
    whole forest is reorganized: fresh tables sized for twice the counted
    nodes, and every current tree re-seated as one incremental tree at
    its proper stage for the new level.  The first link opens the first
    period.
    """

    def __init__(self, max_n, params=DYNAMIC_PARAMS, stats=None, arena=None):
        self.max_n = max_n
        self.params = params
        self.stats = stats if stats is not None else Stats()
        self.arena = arena if arena is not None else Arena()
        self.lf = None
        self.level = 0
        self.counted = []
        self.n1 = 0   # nodes that have been in a link
        self.m1 = 0   # links plus meet queries since the first link
        self.ops = 0  # counted operations, indexes the reorganization log

    @property
    def n(self):
        return len(self.counted)

    @property
    def reorg_log(self):
        return self.stats.reorg_log

    def make_node(self):
        """Create and return a fresh singleton vertex."""
        if len(self.counted) >= self.max_n:
            raise CapacityError(f"forest is at its declared capacity {self.max_n}")
        v = len(self.counted)
        self.counted.append(False)
        if self.lf is not None:
            w = self.lf.make_node()
            assert w == v
        return v

    def find_root(self, x):
        check_id(x, len(self.counted))
        if self.lf is None:
            return x
        return self.lf.find_root(x)

    def link(self, x, y):
        """Make the root y a child of x, merging y's tree into x's.

        A rejected link raises before anything is counted or rebuilt.
        The root of x's tree found by that check survives a
        reorganization, which re-seats every tree under its own root.
        """
        if self.lf is not None:
            r = self.lf._link_root(x, y)
        else:
            n = len(self.counted)
            check_id(x, n)
            check_id(y, n)
            if x == y:
                raise ValueError("link within one tree")
            r = x  # nothing linked yet: every tree is a singleton
        self.ops += 1
        self.m1 += 1
        if not self.counted[x]:
            self.counted[x] = True
            self.n1 += 1
        if not self.counted[y]:
            self.counted[y] = True
            self.n1 += 1
        lv = alpha(self.m1, self.n1)
        if self.lf is None:
            self._open(lv)
        elif lv != self.level and lv != self.level - 1:
            self._reorganize(lv)
        self.lf._join(r, x, y)

    def ca(self, x, y):
        """Characteristic ancestors, or None across trees."""
        n = len(self.counted)
        check_id(x, n)
        check_id(y, n)
        if self.lf is None:
            # nothing linked yet: all singletons, nothing to count
            if x == y:
                self.stats.note_query(0)
                return tuple.__new__(CaTriple, (x, x, x))
            return None
        self.ops += 1
        self.m1 += 1
        lv = alpha(self.m1, self.n1)
        if lv != self.level and lv != self.level - 1:
            self._reorganize(lv)
        return self.lf._ca(x, y)

    def nca(self, x, y):
        t = self.ca(x, y)
        return None if t is None else t.a

    def _open(self, lv):
        ack = AckermannTable(max(4, 2 * self.n1))
        lf = LinkForest(lv, ack, self.max_n, self.params,
                        stats=self.stats, arena=self.arena)
        for _ in self.counted:
            lf.make_node()
        self.lf = lf
        self.level = lv

    def _reorganize(self, lv):
        """Re-seat every current tree for the new level count."""
        old = self.lf
        self.stats.reorgs += 1
        self.stats.reorg_log.append((self.ops, self.level, lv))
        ack = AckermannTable(max(4, 2 * self.n1))
        lf = LinkForest(lv, ack, self.max_n, self.params,
                        stats=self.stats, arena=self.arena)
        for _ in self.counted:
            lf.make_node()
        top = old.pi[old.L]
        for r in old.roots:
            order = old.tree_nodes(r)
            if len(order) > 1:
                lf.adopt_tree(order, top)
        self.lf = lf
        self.level = lv
