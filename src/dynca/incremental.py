"""Growing tree with O(1) meet queries under add_leaf and add_root.

The frozen construction tolerates drift: weights are only renumbered when
a subtree outgrows its recorded weight by the alpha factor, and then the
renumbering covers the shallowest such ancestor, so the recorded weights
keep their geometric growth along compressed root paths.  A new leaf is an
apex of its own, numbered from its compressed parent's packing cursor.

A renumbering is one top-down pass over the subtree in breadth-first
order, which settles each node's compression, carves its interval from
its compressed parent's cursor and copies its ancestor row from that
parent's; a leaf added without drift takes the same step.  Breadth-first
order packs compressed siblings as assign_numbers does.  Rows are
machine-int arrays, 32-bit unless the capacity needs 64.

add_root does not touch the numbering at all.  The new node is stored as
a physical leaf under the previous logical root and only a root handle
moves.  The roots added so far form the spine, a stored path whose ids
grow toward the current root, and every node records its spine meet sm:
the deepest spine node on its stored root path.  Nodes with one spine
meet keep their stored meet under any root; otherwise the deeper spine
meet is the meet itself, so a rerooted query costs at most one stored
query.
"""

from array import array

from .arena import Arena
from .errors import CapacityError, check_id
from .fat_preorder import DYNAMIC_PARAMS, EPS, FatQueryMixin, shared_log_table
# bench/tracing.py wraps assign_numbers in this namespace; renumbering
# no longer calls it, so its span here stays empty
from .fat_preorder import assign_numbers  # noqa: F401
# combine_rerooted stays in this namespace: bench/tracing.py wraps it here
from .forest import CaTriple, combine_rerooted  # noqa: F401
from .stats import Stats


class IncrementalTree(FatQueryMixin):
    """Single tree over dense ids 0..n-1, id 0 created by the constructor."""

    def __init__(self, max_n, params=DYNAMIC_PARAMS, stats=None, arena=None):
        if params.alpha is None:
            from .errors import ConfigError

            raise ConfigError("a growing tree needs the alpha slack")
        params.validate()
        self.params = params
        self.max_n = max_n
        self.stats = stats if stats is not None else Stats()
        self.arena = arena if arena is not None else Arena()
        c = params.c
        e = params.e
        self._c = c
        self._e = e
        self._anum = params.alpha.num
        self._aden = params.alpha.den
        self._lt = shared_log_table(params.beta, c * max(max_n, 2) ** e)
        self._flb = self._lt.floor_log_beta
        # rows hold node ids below max_n and EPS, so 32-bit cells do
        # unless the capacity itself needs more
        self._tc = "i" if max_n < 2 ** 31 else "q"
        self._rungs = {}
        # node 0, a one-node heavy path filling its own interval
        self.piT = [None]
        self.s = [1]
        self.sigma = [1]
        self.apex = [True]
        self.succ = [None]
        self.pos = [0]
        self.piD = [None]
        self.pbar = [0]
        self.p = [1]
        self.q = [c - 1]
        self.qbar = [c]
        self.Qbar = [2]
        self.renum = [0]
        self.ch_h = [self.arena.new_array()]
        self.ch_n = [0]
        width = self._rung(1)[1]
        self._width = width
        self.iq = [width]
        self.tab = [array(self._tc, (EPS,)) * width]
        self.sm = [0]
        self.varrho = 0
        self.stats.eta += 1

    @property
    def n(self):
        return len(self.piT)

    @property
    def root(self):
        return self.varrho

    def _tree_root(self, x):
        return 0

    def add_leaf(self, x):
        """Attach and return a new child of x."""
        check_id(x, len(self.piT))
        y = self._add(x)
        self.stats.eta += 1
        return y

    def _add(self, x):
        """add_leaf without the id check or the vertex count in eta.

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
        self.apex.append(True)
        self.succ.append(None)
        self.pos.append(0)
        piD.append(x if self.apex[x] else piD[x])
        self.pbar.append(0)
        self.p.append(0)
        self.q.append(0)
        self.qbar.append(0)
        self.Qbar.append(0)
        self.renum.append(0)
        self.ch_h.append(self.arena.new_array())
        self.ch_n.append(0)
        self.iq.append(0)
        self.tab.append(None)
        self.sm.append(self.sm[x])
        self.arena.append_at(self.ch_h[x], self.ch_n[x], y)
        self.ch_n[x] += 1

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
        # compressed parent, exactly as a renumbered leaf would
        self._settle((y,))
        self.stats.table_entries += self._width
        return y

    def add_root(self):
        """Attach and return a new root above the current one."""
        y = self.add_leaf(self.varrho)
        self.sm[y] = y
        self.varrho = y
        return y

    def _rung(self, sg):
        """Keep and return (sg^e, first ancestor-row index weight sg fills).

        Weights repeat a lot, so callers look in _rungs first; a weight
        seen for the first time still goes through the checked floor log.
        """
        w = sg ** self._e
        r = self._rungs[sg] = (w, self._flb((self._c - 2) * w) + 1)
        return r

    def _recompress(self, v):
        """Rebuild the compression and numbering of the physical subtree at v.

        Everything under v gets fresh weights, heavy paths, fat numbers and
        ancestor rows.  A breadth-first walk read straight off the child
        arrays lists the subtree, subtree sizes go bottom-up into s and
        heavy children into succ, and one top-down pass (_settle) does the
        rest.  v's new interval is carved from its compressed parent's
        packing zone, or restarts at zero when v is the stored root (the
        only event that changes the row width).
        """
        backing = self.arena.backing
        off = self.arena.off
        ch_h = self.ch_h
        ch_n = self.ch_n
        piT = self.piT
        s = self.s
        succ = self.succ
        renum = self.renum
        order = [v]
        # the loop also walks the children it appends
        for u in order:
            s[u] = 1
            succ[u] = None
            renum[u] += 1
            cn = ch_n[u]
            if cn:
                o = off[ch_h[u]]
                order += backing[o:o + cn]
        rest = order[1:]
        for u in reversed(rest):
            s[piT[u]] += s[u]
        for u in rest:
            t = piT[u]
            if 2 * s[u] > s[t]:
                succ[t] = u
        if self.piD[v] is None:
            # v is the stored root: a fresh interval and a new row width
            sg = self.sigma[v] = s[v]
            w, width = self._rungs.get(sg) or self._rung(sg)
            c = self._c
            self._width = width
            self.stats.reorgs += 1
            self.pbar[v] = 0
            self.p[v] = w
            self.Qbar[v] = w + 1
            self.q[v] = (c - 1) * w
            self.qbar[v] = c * w
            self.tab[v] = array(self._tc, (EPS,)) * width
            self.iq[v] = width
            self._settle(rest)
        else:
            self._settle(order)
        m = len(order)
        width = self._width
        st = self.stats
        st.recompressions += 1
        st.recompression_nodes += m
        st.table_entries += width * m
        st.work += (width + 1) * m

    def _settle(self, nodes):
        """Compress, number and give a row to each of nodes, top-down.

        Each node's stored parent is settled already or comes earlier in
        nodes; s holds subtree sizes and succ heavy children.  A node
        takes the next c*sigma^e cells at its compressed parent d's
        cursor, and d's row with the entries [i_u, iq[d]) pointing at it:
        the thresholds it is narrow enough for and d is not.
        """
        piT = self.piT
        s = self.s
        succ = self.succ
        apex = self.apex
        pos = self.pos
        piD = self.piD
        sigma = self.sigma
        pbar = self.pbar
        p = self.p
        q = self.q
        qbar = self.qbar
        Qbar = self.Qbar
        tab = self.tab
        iq = self.iq
        c = self._c
        rungs = self._rungs
        one = array(self._tc, (0,))
        for u in nodes:
            t = piT[u]
            if succ[t] == u:
                apex[u] = False
                pos[u] = pos[t] + 1
                s[u] = sg = 1
            else:
                apex[u] = True
                pos[u] = 0
                sg = s[u]
            sigma[u] = sg
            d = t if apex[t] else piD[t]
            piD[u] = d
            w, i_u = rungs.get(sg) or self._rung(sg)
            lo = Qbar[d]
            hi = lo + c * w
            if hi > q[d]:
                raise AssertionError("packing cursor ran past the high guard")
            Qbar[d] = hi
            pbar[u] = lo
            p[u] = lo + w
            Qbar[u] = lo + w + 1
            q[u] = hi - w
            qbar[u] = hi
            top = iq[d]
            if i_u > top:
                raise AssertionError("weight order broke along the apex chain")
            row = tab[d][:]
            one[0] = u
            row[i_u:top] = one * (top - i_u)
            tab[u] = row
            iq[u] = i_u

    def ca(self, x, y):
        """Characteristic ancestors of x and y under the current root."""
        n = len(self.piT)
        check_id(x, n)
        check_id(y, n)
        if x == y:
            self.stats.note_query(0)
            return tuple.__new__(CaTriple, (x, x, x))
        sm = self.sm
        sx = sm[x]
        sy = sm[y]
        # one spine meet: the stored meet holds under any root; otherwise
        # the deeper spine meet is the meet, its stored parent on the way
        # to the other side
        if sx == sy:
            return self._ca_stored(x, y)
        if sx < sy:
            return tuple.__new__(CaTriple, (
                sy, self.piT[sy], y if y == sy else self._ca_stored(sy, y)[2]))
        return tuple.__new__(CaTriple, (
            sx, x if x == sx else self._ca_stored(sx, x)[2], self.piT[sx]))

    def nca(self, x, y):
        return self.ca(x, y).a

    def children(self, u):
        """Stored children of u, in attachment order."""
        check_id(u, len(self.piT))
        return self.arena.read(self.ch_h[u], 0, self.ch_n[u])
