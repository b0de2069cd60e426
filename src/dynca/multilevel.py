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
the level-1 tree.  The checked add_leaf, the root handle and the
queries under a moved root come from Spine in incremental.py, shared
with IncrementalTree and PackedTree: the vertex level's spine meets
cost at most one stored query, which here is one run of that recursion
from level L.

Two presets, both at the one default microset size
mu = min(63, 3 ceil(log2 cap)): two levels (edmonds_tree) give O(log n)
total growth work per vertex below the packed layer, and three levels
(linear_tree) bring total growth work down to O(n).  The bounds need a
microset of at least log2 cap nodes, which 3 ceil(log2 cap) is for
every cap below 2^63, and of at most one word, which the cap at 63
bits keeps.  Larger microsets leave fewer contracted nodes, so fewer
queries recurse to level 1 and fewer growth ops reach the fat-numbered
tree.  Three is the largest multiple that keeps acceptance criterion
5's work/(m+n) flat within 25% over n = 2^10..2^14 for linear_tree
(seeded uniform trees): 1x reads 11.23 -> 12.29, 2x 12.38 -> 12.74,
3x 10.88 -> 12.88 (drift 1.18), 4x 10.41 -> 13.10 (drift 1.26) and a
flat 63 7.96 -> 12.98 (drift 1.63).
"""

from math import ceil, log2

from .arena import Arena
from .errors import CapacityError
# combine_rerooted stays in this namespace: bench/tracing.py wraps it here
from .forest import combine_rerooted  # noqa: F401
from .incremental import IncrementalTree, Spine
from .levels import Leveled
from .microset import Microset
from .stats import Stats


class MultilevelInc(Spine, Leveled):
    """Incremental tree with vertex ids 0..n-1, vertex 0 the first root."""

    # bound in the class body, where bench/tracing.py wraps them
    add_leaf = Spine.add_leaf
    add_root = Spine.add_root
    ca = Spine.ca

    def __init__(self, max_n, levels=3, mu=None, stats=None):
        if levels < 2:
            raise ValueError("need at least two levels")
        if max_n < 1:
            raise ValueError(f"capacity {max_n} is below 1")
        self.L = levels
        self.max_n = max_n
        if mu is None:
            mu = min(63, 3 * ceil(log2(max(max_n, 4))))
        if not 2 <= mu <= 63:
            raise ValueError(f"subtree capacity {mu} outside [2, 63]")
        self.mu = mu
        self.stats = stats if stats is not None else Stats()
        # holds the microsets' id maps, within 4 cells per live entry
        self.arena = Arena()
        # per-level node arrays, levels L..2; level 1 lives in the inc tree,
        # and sub[1] holds only None so the shared recursion stops there
        self.pi = {l: [] for l in range(2, levels + 1)}
        self.sub = {l: [] for l in range(1, levels + 1)}
        self.anc = {l: [] for l in range(2, levels + 1)}
        self.down = {l: [] for l in range(1, levels)}
        self.inc = None
        self._inc_cap = max(2, max_n // mu ** (levels - 1) + 1)
        self.piT = self.pi[levels]  # the vertex level, as Spine reads it
        self.sm = [0]
        self.varrho = 0
        self._register(levels)
        self.sub[levels][0] = self._singleton(0, levels)
        self.stats.eta += 1

    def _register(self, l):
        """Allocate the next node id on level l, parentless and unplaced."""
        y = len(self.pi[l])
        self.pi[l].append(None)
        self.sub[l].append(None)
        self.anc[l].append(0)
        if l < self.L:
            self.down[l].append(None)
        return y

    def _singleton(self, y, l):
        return Microset(y, self.mu, self.anc[l], self.arena, self.stats)

    def _add_leaf(self, x):
        """Spine.add_leaf without the id check, for a host that owns x's id."""
        if len(self.piT) >= self.max_n:
            raise CapacityError(f"tree is at its declared capacity {self.max_n}")
        y = self._attach(x, self.L)
        self.sm.append(self.sm[x])
        self.stats.eta += 1
        return y

    def _attach(self, x, l):
        """Grow level l with a new node under x, contracting filled subtrees."""
        if l == 1:
            y = self.inc._add(x)
            self.down[1].append(None)
            self.sub[1].append(None)
            return y
        y = self._register(l)
        self.pi[l][y] = x
        P = self.sub[l][x]
        if not P.add(x, y):     # P is full, so y starts a subtree of its own
            self.sub[l][y] = self._singleton(y, l)
            return y
        self.sub[l][y] = P
        if P.n == P.mu:     # P is now full
            r = P.root
            w = self.pi[l][r]
            if w is None:
                # the whole level was this one subtree; seed the next level
                if l - 1 == 1:
                    # built on a sink of its own, so its seed, a contracted
                    # subtree rather than a vertex, stays out of eta
                    self.inc = IncrementalTree(self._inc_cap)
                    self.inc.stats = self.stats
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
        return self.inc._ca_stored(x, y)

    def _stored(self, x, y):
        return self._c(x, y, self.L)


def edmonds_tree(max_n, stats=None):
    """Two levels: packed sets over one fat tree.

    The sets hold MultilevelInc's default mu = min(63, 3 ceil(log2 cap))
    nodes, as linear_tree's do: at least log2 cap and at most one word.
    The module docstring gives the criterion-5 ratios behind the
    multiple three.
    """
    return MultilevelInc(max_n, levels=2, stats=stats)


def linear_tree(max_n, stats=None):
    """Three levels of packed sets, linear total growth.

    That is MultilevelInc's default shape: sets of min(63, 3 ceil(log2
    cap)) nodes, at least log2 cap and at most one word.  The module
    docstring gives the criterion-5 ratios behind the multiple three.
    """
    return MultilevelInc(max_n, stats=stats)
