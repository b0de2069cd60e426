"""Growing tree with O(1) meet queries under add_leaf and add_root.

The frozen construction tolerates drift: weights are only renumbered when
a subtree outgrows its recorded weight by the alpha factor, and then the
renumbering covers the shallowest such ancestor, so the recorded weights
keep their geometric growth along compressed root paths.  A new leaf is an
apex of its own, numbered from its compressed parent's packing cursor.
No apex flag is stored: a node is an apex exactly when its depth on its
heavy path, pos, is 0.

A renumbering lists the subtree breadth-first off the child lists and
hands it to assign_numbers, the one pass that also numbers a frozen
forest; a leaf added without drift goes through the same pass.  Rows are
machine-int arrays, 32-bit unless the capacity needs 64, and only the
stored root and apexes with children own one: every other node shares
its compressed parent's row.  A renumbering writes rows only for the
apexes with children among the nodes it covers, and a leaf added without
drift writes none.  The fat numbers p, q and Qbar stay below c * max_n^e,
so they take unsigned 64-bit cells up to max_n = 43,826 and lists above;
the other per-node fields are lists.  A leaf's ch is None until its first
child.

add_root does not touch the numbering at all.  The new node is stored as
a physical leaf under the previous logical root and only a root handle
moves.  The roots added so far form the spine, a stored path whose ids
grow toward the current root, and every node records its spine meet sm:
the deepest spine node on its stored root path.  Nodes with one spine
meet keep their stored meet under any root; otherwise the deeper spine
meet is the meet itself, so a rerooted query costs at most one stored
query.  Spine holds the checked add_leaf, that root handle and the
rerooted meet _ca once, for this tree, the leveled MultilevelInc and the
link forest's PackedTree; the checked ca is forest.Meets'.
"""

from .errors import CapacityError, check_id
from .fat_preorder import (DYNAMIC_PARAMS, FatQueryMixin, assign_numbers,
                           number_columns)
# combine_rerooted stays in this namespace: bench/tracing.py wraps it here
from .forest import CaTriple, Meets, combine_rerooted  # noqa: F401
from .stats import Stats


class Spine(Meets):
    """A root handle above a stored tree, and the queries under it.

    A host provides piT, the stored parents of its vertices; sm, their
    spine meets, and varrho, the current root; stats; _add_leaf(x), which
    adds a child of a valid x, refuses one past capacity and counts it in
    eta; and _stored(x, y), the meet of distinct vertices in the stored
    rooting.  add_leaf checks x once, and add_root adds through _add_leaf
    with no check, since the root is always a valid id.  The checked ca,
    nca and n come from Meets, which calls _ca here.
    """

    @property
    def root(self):
        return self.varrho

    def add_leaf(self, x):
        """Attach and return a new child of x."""
        check_id(x, len(self.piT))
        return self._add_leaf(x)

    def add_root(self):
        """Attach and return a new root above the current one."""
        y = self._add_leaf(self.varrho)
        self.sm[y] = y
        self.varrho = y
        return y

    def _ca(self, x, y):
        """ca without the id checks: the spine meets pick the case."""
        if x == y:
            return tuple.__new__(CaTriple, (x, x, x))
        sm = self.sm
        sx = sm[x]
        sy = sm[y]
        # one spine meet: the stored meet holds under any root; otherwise
        # the deeper spine meet is the meet, its stored parent on the way
        # to the other side
        if sx == sy:
            return self._stored(x, y)
        if sx < sy:
            return tuple.__new__(CaTriple, (
                sy, self.piT[sy], y if y == sy else self._stored(sy, y)[2]))
        return tuple.__new__(CaTriple, (
            sx, x if x == sx else self._stored(sx, x)[2], self.piT[sx]))


class IncrementalTree(Spine, FatQueryMixin):
    """Single tree over dense ids 0..n-1, id 0 created by the constructor."""

    params = DYNAMIC_PARAMS
    # bound in the class body, where bench/tracing.py wraps them
    add_leaf = Spine.add_leaf
    add_root = Spine.add_root
    ca = Spine.ca
    _stored = FatQueryMixin._ca_stored

    def __init__(self, max_n, stats=None):
        if max_n < 1:
            raise ValueError(f"capacity {max_n} is below 1")
        params = self.params
        self.max_n = max_n
        self.stats = stats if stats is not None else Stats()
        self._anum = params.alpha.num
        self._aden = params.alpha.den
        # node 0, the stored root; assign_numbers gives it its interval
        number_columns(self, params, max(max_n, 2), 1)
        self.piT = [None]
        self.s = [1]
        self.sigma = [1]
        self.renum = [0]
        self.ch = [None]  # a node's child list, None until its first child
        self.sm = [0]
        self.varrho = 0
        assign_numbers(self, (0,))
        self.stats.eta += 1

    def _add_leaf(self, x):
        """Spine.add_leaf without the id check, for a host that owns x's id."""
        y = self._add(x)
        self.stats.eta += 1
        return y

    def _add(self, x):
        """_add_leaf without the vertex count in eta.

        A leveled host grows its level-1 tree through here: those nodes
        stand for contracted subtrees, not for vertices.
        """
        if len(self.piT) >= self.max_n:
            raise CapacityError(f"tree is at its declared capacity {self.max_n}")
        piD = self.piD
        s = self.s
        sigma = self.sigma
        y = len(self.piT)
        self.piT.append(x)
        s.append(1)
        sigma.append(1)
        self.succ.append(None)
        self.pos.append(0)
        piD.append(piD[x] if self.pos[x] else x)
        self.p.append(0)
        self.q.append(0)
        self.Qbar.append(0)
        self.renum.append(0)
        self.ch.append(None)
        self.iq.append(0)
        self.tab.append(None)
        self.sm.append(self.sm[x])
        if self.ch[x] is None:
            self.ch[x] = []
        self.ch[x].append(y)

        # count the new descendant along the apex chain and find the
        # shallowest ancestor that outgrew its recorded weight
        anum = self._anum
        aden = self._aden
        viol = None
        walk = 1
        u = piD[y]
        while u is not None:
            s[u] += 1
            if aden * s[u] >= anum * sigma[u]:
                viol = u
            u = piD[u]
            walk += 1
        self.stats.work += walk
        if viol is not None:
            self._recompress(viol)
            return y

        # no drift: the leaf settles as a weight-1 apex under its
        # compressed parent, exactly as a renumbered leaf would, and
        # shares that parent's row.  The parent owns one: an apex leaf
        # has weight 1, so its first child brings its size to 2, past
        # the alpha slack, and the renumbering gives it its own row.
        self.stats.table_entries += assign_numbers(self, (y,))
        return y

    def _recompress(self, v):
        """Rebuild the compression and numbering of the physical subtree at v.

        Everything under v gets fresh weights, heavy paths, fat numbers and
        ancestor rows.  A breadth-first walk read straight off the child
        lists hands the subtree to assign_numbers.  v's new interval is
        carved from its compressed parent's packing zone, or restarts at
        zero when v is the stored root (the only event that changes the
        row width).
        """
        ch = self.ch
        s = self.s
        succ = self.succ
        renum = self.renum
        order = [v]
        # the loop also walks the children it appends
        for u in order:
            s[u] = 1
            succ[u] = None
            renum[u] += 1
            order += ch[u] or ()
        st = self.stats
        if v == 0:
            st.root_renumberings += 1
        written = assign_numbers(self, order)
        m = len(order)
        st.recompressions += 1
        st.recompression_nodes += m
        st.table_entries += written
        st.work += written + m
