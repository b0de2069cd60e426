"""Word-packed trees with constant-time meets: microsets of at most 63 nodes
and packed trees of at most 255.

Nodes get ids in insertion order starting at 1, and id j owns bit j of a
word, so a node's ancestor set is one int.  The meet of x and y is the
highest bit of anc(x) & anc(y): ancestor ids grow along any root path, so
the deepest common ancestor carries the largest id.  The id-to-node map
is one growing array, one slot per id, in the arena of the MultilevelInc
that hosts the microset: the root's slot is written when the array is
made, and each add pushes one more.  The microset keeps the array's
offset off, which a push may move, and ids, the arena's backing list.

The host owns the anc array, indexed by its node ids, so one flat array
serves every microset on a level; a member's own id is the top bit of
its anc word.  A microset is also the subtree record that the meet
recursion in levels.py walks: root, up and ca(x, y) over the host's
node ids.

PackedTree is the same word trick hosting itself: a whole tree of at
most CAP = 255 nodes, its ids dense from 0 and node i owning bit i, so
its stored meet is Microset.ca over identity ids.  The link forest keeps
every subtree of at most CAP nodes in one; the checked add_leaf,
add_root and the queries under a moved root come from Spine.  Its words
outgrow a machine word, yet in CPython an add still costs a fraction of
a three-level tree's and a query about as much, as measured up to 2048
nodes; the cap is set by memory instead, the ancestor words holding
about n^2/2 bits in all.
"""

from array import array

from .errors import CapacityError
from .forest import CaTriple
from .incremental import Spine
from .stats import Stats


class Microset:
    """One packed subtree of capacity mu in [2, 63]: its n ids sit at
    offset off of ids, its arena's backing list."""

    __slots__ = ("mu", "n", "root", "up", "off", "ids", "anc", "arena",
                 "stats")

    def __init__(self, root, mu, anc, arena, stats):
        if not 2 <= mu <= 63:
            raise ValueError(f"microset capacity {mu} outside [2, 63]")
        self.mu = mu
        self.n = 1
        self.root = root
        self.up = None  # node one level down, set by the host when full
        self.anc = anc
        self.arena = arena
        self.stats = stats
        self.ids = arena.backing
        self.off = arena.new_array(root)
        anc[root] = 2

    def add(self, x, y):
        """Attach y below member x.  False when the set is already full."""
        n = self.n
        if n == self.mu:
            return False
        self.anc[y] = self.anc[x] | (2 << n)
        self.off = self.arena.push(self.off, n, y)
        self.n = n + 1
        self.stats.work += 1
        return True

    def ca(self, x, y):
        """Characteristic ancestors of members x and y."""
        if x == y:
            return tuple.__new__(CaTriple, (x, x, x))
        anc = self.anc
        vals = self.ids
        # bit j has bit_length j + 1, and id j sits in slot j - 1
        o = self.off - 2
        ax = anc[x]
        ay = anc[y]
        steps = 5
        a = vals[o + (ax & ay).bit_length()]
        if a == x:
            cx = x
        else:
            d = ax & ~ay
            cx = vals[o + (d & -d).bit_length()]
            steps += 3
        if a == y:
            cy = y
        else:
            d = ay & ~ax
            cy = vals[o + (d & -d).bit_length()]
            steps += 3
        self.stats.note_steps(steps)
        return tuple.__new__(CaTriple, (a, cx, cy))


class PackedTree(Spine):
    """A growing tree of at most CAP nodes, ids 0..n-1, 0 the first root.

    anc[i] is the set of i's stored ancestors, i included, as bits: a
    parent's id is below its child's, so the meet of x and y is the
    highest common bit and the child of the meet toward x is the lowest
    bit that x has and y has not.  An add past CAP raises CapacityError
    and changes nothing, so a host can promote the tree and retry.
    Every id is below CAP, so the spine meets sm sit in a byte array.
    piT stays a list: its root entry is None, as in every Spine host.
    The stored meet of distinct x, y is Microset.ca over identity ids.
    """

    CAP = 255
    # Microset.ca reads bit j's node at ids[off + j - 1], here j itself;
    # a tuple, since indexing a range costs several times as much
    ids = tuple(range(CAP))
    off = 1
    _stored = Microset.ca

    def __init__(self, stats=None):
        self.stats = stats if stats is not None else Stats()
        self.piT = [None]
        self.sm = array("B", (0,))
        self.anc = [1]
        self.varrho = 0
        self.stats.eta += 1

    def _add_leaf(self, x):
        """Spine.add_leaf without the id check, for a host that owns x's id."""
        y = len(self.piT)
        if y >= self.CAP:
            raise CapacityError(f"packed tree is at its capacity {self.CAP}")
        self.piT.append(x)
        self.sm.append(self.sm[x])
        self.anc.append(self.anc[x] | (1 << y))
        st = self.stats
        st.eta += 1
        st.work += 1
        return y
