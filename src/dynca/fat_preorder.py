"""Fat preorder numbering and O(1) meet queries on a frozen forest.

The construction has two halves.  First each tree is compressed: a node is
an apex if it is not the heavy child of its parent, and every node's
compressed parent is its nearest proper apex ancestor.  Apexes carry their
whole subtree weight, path members carry weight 1, so weights grow
geometrically along any compressed root path.  Second, the compressed tree
is numbered with fat intervals: a node of weight s owns c*s^e consecutive
integers, sits at depth s^e inside its own interval, and packs its
children left to right between guard zones of width s^e at either end.

A query compares the two fat numbers, takes one floor log of the gap, and
reads a per-node ancestor table to land on the deepest ancestor whose
interval is wide enough to decide containment.  Everything after that is a
constant number of pointer reads, so a query costs around ten word
operations regardless of tree size.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConfigError, check_id
from .forest import CaTriple
from .numeric import LogTable, Rational
from .stats import Stats

EPS = -1  # empty ancestor-table entry

_TABLES: dict = {}


def shared_log_table(beta, bound):
    """Process-wide LogTable cache.

    The bound is rounded up to a power of two so structures of similar
    capacity share one table.
    """
    if bound < 2:
        bound = 2
    bound = 1 << (bound - 1).bit_length()
    key = (beta.num, beta.den, bound)
    t = _TABLES.get(key)
    if t is None:
        t = LogTable(beta, bound)
        _TABLES[key] = t
    return t


@dataclass(frozen=True)
class FatParams:
    """Numbering parameters: growth slack alpha, weight ratio beta, c, e.

    alpha is None for a frozen structure (nothing ever grows), and the
    allowed size overshoot before renumbering otherwise.
    """

    alpha: Rational | None
    beta: Rational
    c: int
    e: int

    def validate(self):
        """Check feasibility of the parameters and return the exact values.

        Two constraints must hold.  Child intervals of a fresh compression
        must fit between the guards:

            2 / (beta^(e-1) - 1)  <=  c - 2  <=  beta^e

        and, when alpha is set, re-allocated child intervals must keep
        fitting while sizes drift up to the alpha slack:

            c * ((alpha - 1/2)^e + (1/2)^e) / (1 - alpha^-e)  <=  c - 2

        Returns a dict of exact Fractions so callers can reproduce the
        margins; raises ConfigError when a constraint fails.
        """
        return _validate(self)


@lru_cache(maxsize=None)
def _validate(params):
    beta = Fraction(params.beta.num, params.beta.den)
    if beta <= 1:
        raise ConfigError("beta must exceed 1")
    if params.e < 2 or params.c < 3:
        raise ConfigError("need e >= 2 and c >= 3")
    cm2 = Fraction(params.c - 2)
    lo = Fraction(2) / (beta ** (params.e - 1) - 1)
    hi = beta ** params.e
    if not lo <= cm2 <= hi:
        raise ConfigError(f"packing bound violated: {lo} <= {cm2} <= {hi}")
    out = {"eq_pack_lo": lo, "c_minus_2": cm2, "eq_pack_hi": hi, "eq_growth_lhs": None}
    if params.alpha is not None:
        alpha = Fraction(params.alpha.num, params.alpha.den)
        if alpha <= 1:
            raise ConfigError("alpha must exceed 1")
        half = Fraction(1, 2)
        lhs = params.c * ((alpha - half) ** params.e + half ** params.e)
        lhs /= 1 - alpha ** -params.e
        if lhs > cm2:
            raise ConfigError(f"growth bound violated: {lhs} > {cm2}")
        out["eq_growth_lhs"] = lhs
    return out


STATIC_PARAMS = FatParams(alpha=None, beta=Rational(2, 1), c=4, e=2)
DYNAMIC_PARAMS = FatParams(alpha=Rational(6, 5), beta=Rational(10, 7), c=5, e=4)


def assign_numbers(root, lo, sigma, dch, c, e, pbar, p, q, qbar, Qbar):
    """Number the compressed subtree under root into [lo, lo + c*sigma^e).

    dch maps a node to its compressed children.  Children are packed
    leftmost, starting right after the parent's low guard; Qbar is left at
    the first free cell so later arrivals continue where packing stopped.
    The parameter constraints make overflow impossible, so running past
    the high guard is a hard internal error.
    """
    stack = [(root, lo)]
    while stack:
        u, at = stack.pop()
        w = sigma[u] ** e
        pbar[u] = at
        p[u] = at + w
        qbar[u] = at + c * w
        q[u] = qbar[u] - w
        cur = p[u] + 1
        for v in dch(u):
            stack.append((v, cur))
            cur += c * sigma[v] ** e
        Qbar[u] = cur
        if cur > q[u]:
            raise AssertionError("child intervals ran past the high guard")


class FatQueryMixin:
    """Meet queries against the stored rooting.

    Host classes provide flat arrays indexed by node id: piT, piD, apex,
    succ, pos, sigma, p, q, tab, plus _flb and stats.  Weights must satisfy
    sigma(piD(v)) >= beta * sigma(v), which makes interval width monotone
    along compressed root paths; everything below leans on that.
    """

    def _ca_stored(self, x, y):
        """Characteristic ancestors of distinct x, y under the stored root."""
        p = self.p
        q = self.q
        piD = self.piD
        apex = self.apex
        px = p[x]
        py = p[y]
        steps = 1
        i = self._flb(px - py if px > py else py - px)

        # x side: v is x's last ancestor too narrow for the gap, w the
        # deepest at least as wide.  The meet is w or one of the next two
        # up, never further: already w's grandparent is wider than the gap
        # itself, and a common ancestor cannot be narrower.  Interval
        # tests on y's number pick the case; cx is the ancestor just
        # below the meet on this side, or x itself when x is the meet.
        v = self.tab[x][i]
        steps += 1
        if v == EPS:
            w = x
        else:
            w = piD[v]
            steps += 1
        if p[w] <= py < q[w]:
            fx = v == EPS
            cx = x if fx else v
        else:
            fx = False
            pw = piD[w]
            steps += 1
            cx = w if p[pw] <= py < q[pw] else pw

        # y side, against x's number
        v = self.tab[y][i]
        steps += 1
        if v == EPS:
            w = y
        else:
            w = piD[v]
            steps += 1
        if p[w] <= px < q[w]:
            fy = v == EPS
            cy = y if fy else v
        else:
            fy = False
            pw = piD[w]
            steps += 1
            cy = w if p[pw] <= px < q[pw] else pw

        # translate to the original tree: each side leaves the meet's
        # heavy path at a departure node, the true meet is the shallower
        # departure, and the answer components are either the compressed
        # child itself or the next node down the path
        piT = self.piT
        pos = self.pos
        if fx or not apex[cx]:
            bx = cx
        else:
            bx = piT[cx]
            steps += 1
        if fy or not apex[cy]:
            by = cy
        else:
            by = piT[cy]
            steps += 1
        if pos[bx] <= pos[by]:
            at = bx
        else:
            at = by
        if at == bx:
            ax = cx
        else:
            ax = self.succ[at]
            steps += 1
        if at == by:
            ay = cy
        else:
            ay = self.succ[at]
            steps += 1
        self.stats.note_query(steps)
        return CaTriple(at, ax, ay)

    def table_entry(self, x, i):
        """Ancestor table with its implicit tail.

        Stored rows stop at the root's own threshold; everything above it
        is the root.  Queries stay below the stored width because fat
        numbers of one tree differ by less than (c-2)*sigma(root)^e, so the
        tail exists for inspection, not for the hot path.
        """
        row = self.tab[x]
        if i < len(row):
            return row[i]
        return self._tree_root(x)


class StaticCa(FatQueryMixin):
    """Frozen forest with O(1) characteristic-ancestor queries.

    Builds the compression, the numbering, and the ancestor tables for
    every tree of the forest in one pass.  Queries across trees return
    None.  Mutating the forest afterwards does not affect this structure.
    """

    def __init__(self, forest, params=STATIC_PARAMS, stats=None):
        params.validate()
        self.params = params
        self.stats = stats if stats is not None else Stats()
        n = len(forest.parent)
        if n == 0:
            raise ConfigError("empty forest")
        c = params.c
        e = params.e
        piT = list(forest.parent)
        self.piT = piT
        self.tree = [0] * n
        self.s = [1] * n
        self.apex = [False] * n
        self.succ = [None] * n
        self.pos = [0] * n
        self.piD = [None] * n
        self.sigma = [1] * n
        self.pbar = [0] * n
        self.p = [0] * n
        self.q = [0] * n
        self.qbar = [0] * n
        self.Qbar = [0] * n
        self.tab = [None] * n
        self.iq = [0] * n
        self._roots = []
        self._lt = shared_log_table(params.beta, c * n ** e)
        self._flb = self._lt.floor_log_beta
        for r in range(n):
            if piT[r] is None:
                self._build_tree(forest, r, len(self._roots))
                self._roots.append(r)

    def _build_tree(self, forest, r, tid):
        c = self.params.c
        e = self.params.e
        piT = self.piT
        s = self.s
        apex = self.apex
        succ = self.succ
        pos = self.pos
        piD = self.piD
        sigma = self.sigma
        tree = self.tree
        children = forest.children
        order = [r]
        k = 0
        while k < len(order):
            u = order[k]
            k += 1
            order.extend(children[u])
        for u in order:
            tree[u] = tid
        for u in reversed(order):
            if u != r:
                s[piT[u]] += s[u]
        for u in order:
            if u != r:
                t = piT[u]
                if 2 * s[u] > s[t]:
                    succ[t] = u
        for u in order:
            apex[u] = u == r or succ[piT[u]] != u
        for u in order:
            if u != r:
                t = piT[u]
                pos[u] = 0 if apex[u] else pos[t] + 1
                piD[u] = t if apex[t] else piD[t]
            sigma[u] = s[u] if apex[u] else 1
        dch = {u: [] for u in order}
        for u in order:
            if u != r:
                dch[piD[u]].append(u)
        assign_numbers(r, 0, sigma, dch.__getitem__, c, e,
                       self.pbar, self.p, self.q, self.qbar, self.Qbar)
        flb = self._flb
        tab = self.tab
        iq = self.iq
        width = flb((c - 2) * sigma[r] ** e) + 1
        for u in order:
            i_u = flb((c - 2) * sigma[u] ** e) + 1
            t = piD[u]
            if t is None:
                row = [EPS] * width
            else:
                row = tab[t][:]
                for i in range(i_u, iq[t]):
                    row[i] = u
            tab[u] = row
            iq[u] = i_u
        self.stats.table_entries += width * len(order)
        self.stats.work += len(order)

    def __len__(self):
        return len(self.piT)

    def _tree_root(self, x):
        return self._roots[self.tree[x]]

    def ca(self, x, y):
        """Meet and its two approach children, or None across trees."""
        n = len(self.piT)
        check_id(x, n)
        check_id(y, n)
        if x == y:
            self.stats.note_query(0)
            return CaTriple(x, x, x)
        if self.tree[x] != self.tree[y]:
            return None
        return self._ca_stored(x, y)

    def nca(self, x, y):
        t = self.ca(x, y)
        return None if t is None else t.a
