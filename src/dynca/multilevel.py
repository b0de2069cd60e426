"""Leveled incremental trees: microsets on top, one fat-numbered tree below.

Levels run L down to 1.  Level L holds the real vertices, partitioned
into subtrees of at most mu nodes each.  A subtree that reaches mu nodes
contracts to a node one level down, and the frontier invariant (nonfull
subtrees have no child subtrees) keeps every contracted level a single
tree.  Level 1 is one IncrementalTree that never fills.

A query recurses: the level below names the subtree holding the meet,
the two entry nodes into that subtree stand in for x and y, and a packed
microset query inside it finishes the job.  When a stand-in turns out to
be the meet itself, the answer component is patched back to the subtree
root it stands for.  That recursion is Leveled._c in levels.py, shared
with the link forest; here each microset is its own subtree record
(root, up, ca), sub[1] holds None for every level-1 node, and _flat asks
the level-1 tree.  Queries under a moved root combine three stored root
queries at the vertex level.

Two presets: two levels with mu = floor(log2 cap) gives O(log n) total
growth work per vertex below the packed layer; three levels with
mu = ceil(log2 cap) brings total growth work down to O(n).
"""

from math import ceil, log2

from .arena import Arena
from .errors import CapacityError, check_id
from .fat_preorder import DYNAMIC_PARAMS
from .forest import CaTriple, combine_rerooted
from .incremental import IncrementalTree
from .levels import Leveled
from .microset import Microset
from .stats import Stats


class MultilevelInc(Leveled):
    """Incremental tree with vertex ids 0..n-1, vertex 0 the first root."""

    def __init__(self, max_n, levels=3, mu=None, params=DYNAMIC_PARAMS, stats=None, arena=None):
        if levels < 2:
            raise ValueError("need at least two levels")
        self.L = levels
        self.max_n = max_n
        if mu is None:
            mu = max(2, min(63, ceil(log2(max(max_n, 4)))))
        if not 2 <= mu <= 63:
            raise ValueError(f"subtree capacity {mu} outside [2, 63]")
        self.mu = mu
        self.params = params
        self.stats = stats if stats is not None else Stats()
        self.arena = arena if arena is not None else Arena()
        # per-level node arrays, levels L..2; level 1 lives in the inc tree,
        # and sub[1] holds only None so the shared recursion stops there
        self.pi = {l: [] for l in range(2, levels + 1)}
        self.sub = {l: [] for l in range(1, levels + 1)}
        self.mid = {l: [] for l in range(2, levels + 1)}
        self.anc = {l: [] for l in range(2, levels + 1)}
        self.down = {l: [] for l in range(1, levels)}
        self.inc = None
        self._inc_cap = max(2, max_n // mu ** (levels - 1) + 1)
        self.varrho = 0
        self._register(levels)
        self.sub[levels][0] = self._singleton(0, levels)
        self.stats.eta += 1

    @property
    def n(self):
        return len(self.pi[self.L])

    @property
    def root(self):
        return self.varrho

    def _register(self, l):
        """Allocate the next node id on level l, parentless and unplaced."""
        y = len(self.pi[l])
        self.pi[l].append(None)
        self.sub[l].append(None)
        self.mid[l].append(0)
        self.anc[l].append(0)
        if l < self.L:
            self.down[l].append(None)
        return y

    def _singleton(self, y, l):
        return Microset(y, self.mu, self.mid[l], self.anc[l], self.arena, self.stats)

    def add_leaf(self, x):
        """Attach and return a new child vertex of x."""
        check_id(x, len(self.pi[self.L]))
        if len(self.pi[self.L]) >= self.max_n:
            raise CapacityError(f"tree is at its declared capacity {self.max_n}")
        y = self._attach(x, self.L)
        self.stats.eta += 1
        return y

    def add_root(self):
        """Attach and return a new root above the current one."""
        y = self.add_leaf(self.varrho)
        self.varrho = y
        return y

    def _attach(self, x, l):
        """Grow level l with a new node under x, contracting filled subtrees."""
        if l == 1:
            y = self.inc.add_leaf(x)
            self.down[1].append(None)
            self.sub[1].append(None)
            return y
        y = self._register(l)
        self.pi[l][y] = x
        P = self.sub[l][x]
        if P.full:
            self.sub[l][y] = self._singleton(y, l)
            return y
        ok = P.add(x, y)
        assert ok
        self.sub[l][y] = P
        if P.full:
            r = P.root
            w = self.pi[l][r]
            if w is None:
                # the whole level was this one subtree; seed the next level
                if l - 1 == 1:
                    self.inc = IncrementalTree(self._inc_cap, self.params,
                                               stats=self.stats, arena=self.arena)
                    z = 0
                    self.down[1].append(None)
                    self.sub[1].append(None)
                else:
                    z = self._register(l - 1)
                    self.sub[l - 1][z] = self._singleton(z, l - 1)
            else:
                W = self.sub[l][w]
                assert W.up is not None, "parent subtree at the frontier must be full"
                z = self._attach(W.up, l - 1)
            P.up = z
            self.down[l - 1][z] = P
        return y

    def _flat(self, x, y, k):
        return self.inc.ca(x, y)

    def ca(self, x, y):
        """Characteristic ancestors of vertices x and y under the current root."""
        n = len(self.pi[self.L])
        check_id(x, n)
        check_id(y, n)
        if x == y:
            self.stats.note_query(0)
            return CaTriple(x, x, x)
        z = self.varrho
        if z == 0:
            return self._c(x, y, self.L)
        cxy = self._c(x, y, self.L)
        cxz = CaTriple(x, x, x) if x == z else self._c(x, z, self.L)
        cyz = CaTriple(y, y, y) if y == z else self._c(y, z, self.L)
        return combine_rerooted(cxy, cxz, cyz, self.pi[self.L].__getitem__)

    def nca(self, x, y):
        return self.ca(x, y).a

    def parent(self, v):
        """Stored parent of vertex v (root handle not applied)."""
        check_id(v, len(self.pi[self.L]))
        return self.pi[self.L][v]


def edmonds_tree(max_n, stats=None, arena=None):
    """Two levels, packed sets of floor(log2 cap) nodes over one fat tree."""
    mu = max(2, min(63, int(log2(max(max_n, 4)))))
    return MultilevelInc(max_n, levels=2, mu=mu, stats=stats, arena=arena)


def linear_tree(max_n, stats=None, arena=None):
    """Three levels, packed sets of ceil(log2 cap) nodes, linear total growth."""
    mu = max(2, min(63, ceil(log2(max(max_n, 4)))))
    return MultilevelInc(max_n, levels=3, mu=mu, stats=stats, arena=arena)
