"""Fat preorder numbering and O(1) meet queries on a frozen forest.

The construction has two halves.  First each tree is compressed: a node is
an apex if it is not the heavy child of its parent, and every node's
compressed parent is its nearest proper apex ancestor.  Apexes carry their
whole subtree weight, path members carry weight 1, so weights grow
geometrically along any compressed root path.  Second, the compressed tree
is numbered with fat intervals: a node of weight s owns c*s^e consecutive
integers, sits at depth s^e inside its own interval, and packs its
children left to right between guard zones of width s^e at either end.

Both halves are one pass, assign_numbers, over a subtree listed
breadth-first.  StaticCa runs it once per tree; IncrementalTree runs it on
every subtree it renumbers and on every leaf it adds without drift.  Both
set up the columns it fills through number_columns.

A query compares the two fat numbers, takes one floor log of the gap, and
reads a per-node ancestor table to land on the deepest ancestor whose
interval is wide enough to decide containment.  Everything after that is a
constant number of pointer reads, so a query costs around ten word
operations regardless of tree size.

A node's row is its compressed parent's row with one range pointing at
the node itself, so only nodes that are some node's compressed parent
store a row: the stored root and the apexes with children.  Every other
node shares its compressed parent's row, and the query restores the
missing range from the node's own threshold iq with one compare.
"""

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConfigError
from .forest import CaTriple, Meets, subtree
from .numeric import LogTable, Rational
from .stats import Stats

EPS = -1  # empty ancestor-table entry

_log_table = lru_cache(maxsize=None)(LogTable)


def shared_log_table(beta, bound):
    """Process-wide LogTable cache.

    The bound is rounded up to a power of two so structures of similar
    capacity share one table.
    """
    return _log_table(beta, 1 << (max(bound, 2) - 1).bit_length())


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

    @lru_cache(maxsize=None)
    def validate(self):
        """Check feasibility of the parameters and return the exact values.

        Four constraints must hold.  Child intervals of a fresh compression
        must fit between the guards:

            2 / (beta^(e-1) - 1)  <=  c - 2  <=  beta^e

        and, when alpha is set, re-allocated child intervals must keep
        fitting while sizes drift up to the alpha slack:

            c * ((alpha - 1/2)^e + (1/2)^e) / (1 - alpha^-e)  <=  c - 2

        Queries need compressed parents at least beta times as heavy as
        their children, which holds up to ratio 2 for a fresh compression
        and 1 / (alpha - 1/2) under drift, and meets at most one level
        above the deepest ancestor as wide as the gap (see FatQueryMixin):

            beta  <=  ratio,        beta * (c - 2)  <=  1 + beta^e

        Returns a dict of exact Fractions so callers can reproduce the
        margins; raises ConfigError when a constraint fails.
        """
        beta = Fraction(self.beta.num, self.beta.den)
        if beta <= 1:
            raise ConfigError("beta must exceed 1")
        if self.e < 2 or self.c < 3:
            raise ConfigError("need e >= 2 and c >= 3")
        cm2 = Fraction(self.c - 2)
        lo = Fraction(2) / (beta ** (self.e - 1) - 1)
        hi = beta ** self.e
        if not lo <= cm2 <= hi:
            raise ConfigError(f"packing bound violated: {lo} <= {cm2} <= {hi}")
        out = {"eq_pack_lo": lo, "c_minus_2": cm2, "eq_pack_hi": hi, "eq_growth_lhs": None}
        ratio = Fraction(2)
        if self.alpha is not None:
            alpha = Fraction(self.alpha.num, self.alpha.den)
            if alpha <= 1:
                raise ConfigError("alpha must exceed 1")
            half = Fraction(1, 2)
            lhs = self.c * ((alpha - half) ** self.e + half ** self.e)
            lhs /= 1 - alpha ** -self.e
            if lhs > cm2:
                raise ConfigError(f"growth bound violated: {lhs} > {cm2}")
            out["eq_growth_lhs"] = lhs
            ratio = 1 / (alpha - half)
        if beta > ratio:
            raise ConfigError(f"weight ratio {ratio} below beta {beta}")
        if beta * cm2 > 1 + hi:
            raise ConfigError(f"meet reach violated: {beta * cm2} > {1 + hi}")
        return out


STATIC_PARAMS = FatParams(alpha=None, beta=Rational(2, 1), c=4, e=2)
DYNAMIC_PARAMS = FatParams(alpha=Rational(6, 5), beta=Rational(10, 7), c=5, e=4)


def fat_cells(bound, n):
    """n zeros for fat numbers below bound: 64-bit cells while they fit.

    Unsigned: array('Q') stores skip the format parsing of array('q') ones.
    """
    return array("Q", (0,)) * n if bound <= 2 ** 64 else [0] * n


def number_columns(t, params, cap, n):
    """Give host t the constants and n blank columns assign_numbers uses.

    Fat numbers stay below c * cap^e; rows hold ids below cap and EPS.
    """
    t._c = c = params.c
    t._e = e = params.e
    top = c * cap ** e
    t._flb = shared_log_table(params.beta, top).floor_log_beta
    t._tc = "i" if cap < 2 ** 31 else "q"
    t._rungs = {}
    t.succ = [None] * n
    t.pos = [0] * n
    t.piD = [None] * n
    t.p = fat_cells(top, n)
    t.q = fat_cells(top, n)
    t.Qbar = fat_cells(top, n)
    t.tab = [None] * n
    t.iq = [0] * n


def assign_numbers(t, order):
    """Compress, number and give ancestor rows to a subtree of host t.

    order lists the subtree breadth-first from its top node, each member
    with s = 1 and succ = None.  Subtree sizes go bottom-up into s and
    heavy children into succ; then one top-down pass settles each node,
    giving it its depth on its heavy path in pos: 0 makes it an apex.
    A stored root takes a fresh interval at 0.  Any other node takes the
    next c*sigma^e cells at its compressed parent d's cursor Qbar[d].
    Breadth-first order packs compressed siblings left to right.
    (sigma^e, i_u, c*sigma^e) is kept per weight in t._rungs.  Only p, q
    and the cursor Qbar are stored: the guard ends are implied, p - sigma^e
    below and q + sigma^e above.

    Only a node that can be some node's d owns a row: the stored root,
    all EPS, and each apex of weight above 1, which has a child.  Its row
    is d's with the entries [i_u, iq[d]) pointing at it: the thresholds
    it is narrow enough for and d is not.  Every other node's tab entry
    is d's row itself, not a copy; FatQueryMixin restores its own
    entries from iq.  Sharing relies on rows never being written once
    stored: a renumbering replaces a row, and with it renumbers every
    node that shares it.  Returns the number of row entries written.
    """
    piT = t.piT
    s = t.s
    succ = t.succ
    pos = t.pos
    piD = t.piD
    sigma = t.sigma
    p = t.p
    q = t.q
    Qbar = t.Qbar
    tab = t.tab
    iq = t.iq
    c = t._c
    e = t._e
    flb = t._flb
    rungs = t._rungs
    rest = order[1:]
    for u in reversed(rest):
        s[piT[u]] += s[u]
    for u in rest:
        a = piT[u]
        if 2 * s[u] > s[a]:
            succ[a] = u
    written = 0
    one = array(t._tc, (0,))
    for u in order:
        a = piT[u]
        if a is not None and succ[a] == u:
            pos[u] = pos[a] + 1
            s[u] = sg = 1
        else:
            pos[u] = 0
            sg = s[u]
        sigma[u] = sg
        r = rungs.get(sg)
        if r is None:
            w = sg ** e
            r = rungs[sg] = (w, flb((c - 2) * w) + 1, c * w)
        w, i_u, cw = r
        if a is None:
            lo = 0
            hi = cw
            row = array(t._tc, (EPS,)) * i_u
            written += i_u
        else:
            d = piD[a] if pos[a] else a
            piD[u] = d
            lo = Qbar[d]
            hi = lo + cw
            top = iq[d]
            if hi > q[d]:
                raise AssertionError("packing cursor ran past the high guard")
            if i_u > top:
                raise AssertionError("weight order broke along the apex chain")
            Qbar[d] = hi
            row = tab[d]
            if sg > 1:
                row = row[:]
                one[0] = u
                row[i_u:top] = one * (top - i_u)
                written += len(row)
        p[u] = pu = lo + w
        Qbar[u] = pu + 1
        q[u] = hi - w
        tab[u] = row
        iq[u] = i_u
    return written


class FatQueryMixin:
    """Meet queries against the stored rooting.

    Host classes provide flat arrays indexed by node id: piT, piD, succ,
    pos, sigma, p, q, tab, iq, plus _flb and stats.  A node is an apex
    exactly when its pos, its depth on its heavy path, is 0.  Weights must
    satisfy sigma(piD(v)) >= beta * sigma(v), which makes interval width
    monotone along compressed root paths; everything below leans on that.

    tab[x][i] is x's shallowest compressed ancestor narrower than beta^i,
    or EPS when x itself is not.  A node that owns no row reads its
    compressed parent d's, whose EPS entries are exactly those below
    iq[d]; an EPS read at i >= iq[x] therefore stands for x itself.  In an
    owned row that test never fires, and the restored entry costs the
    same one counted read as a stored one.

    The meet lies at most one compressed level above w, x's deepest
    ancestor as wide as the gap D = |p[x] - p[y]|.  With i the floor
    log of D, D < beta^(i+1), and w wide at i means beta^i <= (c-2) *
    sigma(w)^e, so D < beta * (c-2) * sigma(w)^e.  Suppose p[y] also
    missed the interval of pw = piD[w].  No node's number lies in a
    guard, so p[y] lies at least sigma(pw)^e outside pw's interval, and
    p[x], inside w's interval, at least sigma(w)^e inside it.  Then
    D > sigma(w)^e + sigma(pw)^e >= (1 + beta^e) * sigma(w)^e, and
    FatParams.validate requires beta * (c-2) <= 1 + beta^e: the bounds
    clash.  So when w's interval misses p[y], pw is the meet and w the
    ancestor just below it on x's side.
    """

    def _ca_stored(self, x, y):
        """Characteristic ancestors of distinct x, y under the stored root."""
        p = self.p
        q = self.q
        piD = self.piD
        px = p[x]
        py = p[y]
        steps = 1
        i = self._flb(px - py if px > py else py - px)

        # x side: v is x's last ancestor too narrow for the gap, w the
        # deepest at least as wide.  The meet is w or its compressed
        # parent (see the class docstring), and one interval test on y's
        # number picks the case; cx is the ancestor just below the meet
        # on this side, or x itself when x is the meet.
        v = self.tab[x][i]
        steps += 1
        if v != EPS:
            w = piD[v]
            steps += 1
        elif i >= self.iq[x]:
            v = x
            w = piD[x]
            steps += 1
        else:
            w = x
        if p[w] <= py < q[w]:
            fx = v == EPS
            cx = x if fx else v
        else:
            fx = False
            cx = w

        # y side, against x's number
        v = self.tab[y][i]
        steps += 1
        if v != EPS:
            w = piD[v]
            steps += 1
        elif i >= self.iq[y]:
            v = y
            w = piD[y]
            steps += 1
        else:
            w = y
        if p[w] <= px < q[w]:
            fy = v == EPS
            cy = y if fy else v
        else:
            fy = False
            cy = w

        # translate to the original tree: each side leaves the meet's
        # heavy path at a departure node, the true meet is the shallower
        # departure, and the answer components are either the compressed
        # child itself or the next node down the path
        piT = self.piT
        pos = self.pos
        if fx or pos[cx]:
            bx = cx
        else:
            bx = piT[cx]
            steps += 1
        if fy or pos[cy]:
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
        self.stats.note_steps(steps)
        return tuple.__new__(CaTriple, (at, ax, ay))


class StaticCa(FatQueryMixin, Meets):
    """Frozen forest with O(1) characteristic-ancestor queries.

    Builds the compression, the numbering, and the ancestor tables for
    every tree of the forest in one pass.  Queries across trees return
    None; the checked ca and nca are forest.Meets'.  Mutating the forest
    afterwards does not affect this structure.  p, q and Qbar take 64-bit
    cells while c * n^e fits one (n up to 2^31 for STATIC_PARAMS), else
    lists.
    """

    def __init__(self, forest, params=STATIC_PARAMS, stats=None):
        params.validate()
        self.params = params
        self.stats = stats if stats is not None else Stats()
        n = len(forest.parent)
        if n == 0:
            raise ConfigError("empty forest")
        number_columns(self, params, n, n)
        piT = list(forest.parent)
        self.piT = piT
        tree = self.tree = [0] * n  # the root of each node's tree
        # nothing grows, so a node's weight is its subtree size once the
        # build has run, and one list serves as both
        self.s = self.sigma = [1] * n
        st = self.stats
        for r in range(n):
            if piT[r] is None:
                order = subtree(forest.fc, forest.ns, r)
                for u in order:
                    tree[u] = r
                st.table_entries += assign_numbers(self, order)
                st.work += len(order)

    def _ca(self, x, y):
        """Meet and its two approach children, or None across trees."""
        if x == y:
            return CaTriple(x, x, x)
        if self.tree[x] != self.tree[y]:
            return None
        return self._ca_stored(x, y)
