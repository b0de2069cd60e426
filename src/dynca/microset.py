"""Word-packed trees of at most 63 nodes with constant-time meets.

Nodes get ids in insertion order starting at 1, and id j owns bit j of a
word, so a node's ancestor set is one int.  The meet of x and y is the
highest bit of anc(x) & anc(y): ancestor ids grow along any root path, so
the deepest common ancestor carries the largest id.  The id-to-node map
lives in the shared arena, one slot per id.

The host owns the anc array, indexed by its node ids, so one flat array
serves every microset on a level; a member's own id is the top bit of
its anc word.  A microset is also the subtree record that the meet
recursion in levels.py walks: root, up and ca(x, y) over the host's
node ids.
"""

from .forest import CaTriple


class Microset:
    """One packed subtree.  Capacity mu must be in [2, 63]."""

    __slots__ = ("mu", "n", "root", "up", "vh", "anc", "arena", "stats")

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
        self.vh = arena.new_array()
        arena.set(self.vh, 0, root)
        anc[root] = 2

    @property
    def full(self):
        return self.n == self.mu

    def add(self, x, y):
        """Attach y below member x.  False when the set is already full."""
        if self.n == self.mu:
            return False
        self.n += 1
        j = self.n
        self.anc[y] = self.anc[x] | (1 << j)
        self.arena.append_at(self.vh, j - 1, y)
        self.stats.work += 1
        return True

    def ca(self, x, y):
        """Characteristic ancestors of members x and y."""
        if x == y:
            self.stats.note_query(0)
            return tuple.__new__(CaTriple, (x, x, x))
        anc = self.anc
        arena = self.arena
        vals = arena.backing
        # bit j has bit_length j + 1, and id j sits in slot j - 1
        o = arena.off[self.vh] - 2
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
        self.stats.note_query(steps)
        return tuple.__new__(CaTriple, (a, cx, cy))

    def members(self):
        """Current members in insertion order."""
        return self.arena.read(self.vh, 0, self.n)
