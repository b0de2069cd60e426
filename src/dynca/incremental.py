"""Growing tree with O(1) meet queries under add_leaf and add_root.

The frozen construction tolerates drift: weights are only renumbered when
a subtree outgrows its recorded weight by the alpha factor, and then the
renumbering covers the shallowest such ancestor, so the recorded weights
keep their geometric growth along compressed root paths.  A new leaf is an
apex of its own, numbered from its compressed parent's packing cursor.

add_root does not touch the numbering at all.  The new node is stored as
a physical leaf under the previous logical root and only a root handle
moves.  The roots added so far form the spine, a stored path whose ids
grow toward the current root, and every node records its spine meet sm:
the deepest spine node on its stored root path.  Nodes with one spine
meet keep their stored meet under any root; otherwise the deeper spine
meet is the meet itself, so a rerooted query costs at most one stored
query.
"""

from .arena import Arena
from .errors import CapacityError, check_id
from .fat_preorder import DYNAMIC_PARAMS, EPS, FatQueryMixin, assign_numbers, shared_log_table
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
        width = self._flb(c - 2) + 1
        self._width = width
        self.iq = [width]
        self.tab = [[EPS] * width]
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

        # no drift: carve the leaf's interval out of its parent's packing zone
        c = self._c
        u0 = piD[y]
        lo = self.Qbar[u0]
        self.Qbar[u0] = lo + c
        if self.Qbar[u0] > self.q[u0]:
            raise AssertionError("packing cursor ran past the high guard")
        self.pbar[y] = lo
        self.p[y] = lo + 1
        self.qbar[y] = lo + c
        self.q[y] = lo + c - 1
        self.Qbar[y] = lo + 2
        i_y = self._flb(c - 2) + 1
        row = self.tab[u0][:]
        for i in range(i_y, self.iq[u0]):
            row[i] = y
        self.tab[y] = row
        self.iq[y] = i_y
        self.stats.table_entries += self._width
        return y

    def add_root(self):
        """Attach and return a new root above the current one."""
        y = self.add_leaf(self.varrho)
        self.sm[y] = y
        self.varrho = y
        return y

    def _recompress(self, v):
        """Rebuild the compression and numbering of the physical subtree at v.

        Everything under v gets fresh weights, heavy paths, fat numbers and
        ancestor tables.  The new interval is carved from the packing zone
        of v's compressed parent, or restarts at zero when v is the stored
        root (that is the only event that changes the table width).
        """
        arena = self.arena
        piT = self.piT
        ch_h = self.ch_h
        ch_n = self.ch_n
        order = [v]
        k = 0
        while k < len(order):
            u = order[k]
            k += 1
            cn = ch_n[u]
            if cn:
                order.extend(arena.read(ch_h[u], 0, cn))
        stt = dict.fromkeys(order, 1)
        for u in reversed(order):
            if u != v:
                stt[piT[u]] += stt[u]
        hv = {}
        for u in order:
            if u != v:
                t = piT[u]
                if 2 * stt[u] > stt[t]:
                    hv[t] = u
        apex = self.apex
        pos = self.pos
        piD = self.piD
        sigma = self.sigma
        s = self.s
        succ = self.succ
        for u in order:
            if u != v:
                t = piT[u]
                ap = hv.get(t) != u
                apex[u] = ap
                pos[u] = 0 if ap else pos[t] + 1
                piD[u] = t if apex[t] else piD[t]
            else:
                pos[u] = 0
            succ[u] = hv.get(u)
            if apex[u]:
                s[u] = sigma[u] = stt[u]
            else:
                # a path member is a leaf of the compressed tree
                s[u] = sigma[u] = 1
        dch = {u: [] for u in order}
        for u in order:
            if u != v:
                dch[piD[u]].append(u)
        c = self._c
        e = self._e
        flb = self._flb
        u0 = piD[v]
        if u0 is None:
            lo = 0
            self._width = flb((c - 2) * sigma[v] ** e) + 1
            self.stats.reorgs += 1
        else:
            lo = self.Qbar[u0]
            self.Qbar[u0] = lo + c * sigma[v] ** e
            if self.Qbar[u0] > self.q[u0]:
                raise AssertionError("packing cursor ran past the high guard")
        assign_numbers(v, lo, sigma, dch.__getitem__, c, e,
                       self.pbar, self.p, self.q, self.qbar, self.Qbar)
        width = self._width
        tab = self.tab
        iq = self.iq
        renum = self.renum
        cm2 = c - 2
        for u in order:
            i_u = flb(cm2 * sigma[u] ** e) + 1
            t = piD[u]
            if t is None:
                row = [EPS] * width
            else:
                row = tab[t][:]
                if i_u > iq[t]:
                    raise AssertionError("weight order broke along the apex chain")
                for i in range(i_u, iq[t]):
                    row[i] = u
            tab[u] = row
            iq[u] = i_u
            renum[u] += 1
        st = self.stats
        st.recompressions += 1
        st.recompression_nodes += len(order)
        st.table_entries += width * len(order)
        st.work += (width + 1) * len(order)

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
