"""Shared invariant sweeps used across the test modules.

The numbering sweeps take a numbered structure (StaticCa or
IncrementalTree; both expose the same flat arrays) plus the node set of
one stored tree, and assert the numbering contract: interval shape, guard
emptiness, subtree containment, geometric weight growth, and laminarity
of live intervals.  check_link_invariants sweeps a LinkForest's staging
and contraction, against stages window_stage finds on AckermannTable,
the tests' own reference for linkforest._acap.
The references the engines are compared against live here too: ancestor
table entries by a path walk, and meets under a moved root by three
stored queries or by a physically rerooted copy of the forest.  arena_read and microset_members read a microset's stored ids back.
"""

from bisect import bisect_left, bisect_right

from dynca import Forest, alpha, combine_rerooted
from dynca.errors import check_id
from dynca.fat_preorder import EPS
from dynca.forest import subtree


def guards(obj, u):
    """(pbar, p, q, qbar): u's interval with its implied guard ends.

    The engines store p and q only; each guard is sigma^e wide.
    """
    w = obj.sigma[u] ** obj._e
    return obj.p[u] - w, obj.p[u], obj.q[u], obj.q[u] + w


def children(t, u):
    """Stored children of u in an IncrementalTree, in attachment order.

    The columns list them newest first, from fc[u] through ns, so the
    walk is read back reversed.
    """
    kids = []
    w = t.fc[u]
    while w >= 0:
        kids.append(w)
        w = t.ns[w]
    return kids[::-1]


def dchildren(obj, nodes):
    """Compressed-tree adjacency from the piD array."""
    ch = {u: [] for u in nodes}
    for u in nodes:
        t = obj.piD[u]
        if t is not None:
            ch[t].append(u)
    return ch


def check_fat_order(obj, nodes, root, params, incremental=False):
    """Assert interval properties, Eq-1 growth, and laminarity.

    Called after a build or a mutation; O(n log n) per call so it can run
    inside per-step sweeps.  The growth-slack bound applies only to
    structures that maintain live sizes (incremental=True); a static
    build has no slack, so its s equals sigma everywhere: the subtree
    size at an apex, 1 on a heavy path.
    """
    c = params.c
    e = params.e
    bn, bd = params.beta
    p = obj.p
    q = obj.q
    pbar = {}
    qbar = {}
    for u in nodes:
        pbar[u], _, _, qbar[u] = guards(obj, u)
    sigma = obj.sigma
    s = obj.s
    pos = obj.pos
    piD = obj.piD

    ch = dchildren(obj, nodes)
    ps = sorted(p[u] for u in nodes)
    assert len(set(ps)) == len(nodes), "duplicate fat numbers"

    for u in nodes:
        w = sigma[u] ** e
        # interval shape
        assert qbar[u] - pbar[u] == c * w
        assert p[u] - pbar[u] == w
        assert qbar[u] - q[u] == w
        assert pbar[u] <= p[u] < q[u] <= qbar[u]
        # guards hold no fat numbers (u's own p sits exactly at the
        # guard's right edge)
        lo = bisect_left(ps, pbar[u])
        hi = bisect_left(ps, p[u])
        assert lo == hi, f"number inside low guard of {u}"
        lo = bisect_left(ps, q[u])
        hi = bisect_left(ps, qbar[u])
        assert lo == hi, f"number inside high guard of {u}"
        # descendant count: the open interval holds exactly the subtree
        want = s[u] if pos[u] == 0 else 1
        got = bisect_left(ps, q[u]) - bisect_left(ps, p[u])
        assert got == want, f"node {u}: {got} numbers in interval, subtree {want}"
        # non-apex nodes are compressed leaves of weight one
        if pos[u] != 0:
            assert sigma[u] == 1
            assert not ch[u]
        # growth slack for growing structures
        if incremental:
            an, ad = params.alpha
            assert ad * s[u] < an * sigma[u], \
                f"node {u}: size {s[u]} outgrew weight {sigma[u]}"
        else:
            assert s[u] == sigma[u]

    for u in nodes:
        t = piD[u]
        if t is None:
            assert u == root
            continue
        assert pos[t] == 0, "compressed parent must be an apex"
        # Eq-1 geometric growth, exact rational compare
        assert sigma[t] * bd >= bn * sigma[u], \
            f"weight ratio violated at {u} under {t}"
        # nesting: child's whole span sits strictly inside the parent's
        # open interval, past the parent's own number
        assert p[t] < pbar[u] and qbar[u] <= q[t]
        if hasattr(obj, "Qbar"):
            assert qbar[u] <= obj.Qbar[t] <= q[t]

    # laminarity: sibling spans are pairwise disjoint
    for u in nodes:
        kids = sorted(ch[u], key=lambda v: pbar[v])
        for a, b in zip(kids, kids[1:]):
            assert qbar[a] <= pbar[b], f"siblings {a},{b} overlap under {u}"


def check_compression_exact(sca, forest, nodes, root):
    """Static builds must realize the strict heavy-child rule exactly."""
    size = {u: 1 for u in nodes}
    order = subtree(forest.fc, forest.ns, root)
    for u in reversed(order):
        if u != root:
            size[forest.parent[u]] += size[u]
    for u in nodes:
        heavy = u != root and 2 * size[u] > size[forest.parent[u]]
        assert (sca.pos[u] == 0) == (not heavy), f"apex wrong at {u}"
        if heavy:
            assert sca.succ[forest.parent[u]] == u
    for u in nodes:
        if u == root:
            assert sca.piD[u] is None
        else:
            a = forest.parent[u]
            while sca.pos[a] != 0:
                a = forest.parent[a]
            assert sca.piD[u] == a, f"piD({u}) is not the nearest apex ancestor"
        assert sca.sigma[u] == (size[u] if sca.pos[u] == 0 else 1)


def build_random_tree(rng, n, forest=None):
    """Uniform random attachment tree; returns (forest, root)."""
    f = forest if forest is not None else Forest()
    r = f.make_node()
    for _ in range(n - 1):
        x = rng.randrange(len(f.parent))
        y = f.make_node()
        f.add_leaf(x, y)
    return f, r


def tree_nodes_of(sca, root):
    return [u for u in range(len(sca.piT)) if sca.tree[u] == root]


def naive_table_entry(sca, x, i, beta, cm2, e):
    """Last qualifying node walking x's compressed path toward the root.

    Qualifying means the interval is narrower than beta^i; weights grow
    upward, so qualifiers form a prefix of the walk and the last one is
    the shallowest. EPS when even x is too wide.
    """
    bn, bd = beta
    lhs = cm2 * bd ** i
    rhs = bn ** i
    best = EPS
    u = x
    while u is not None:
        if lhs * sca.sigma[u] ** e < rhs:
            best = u
        u = sca.piD[u]
    return best


def table_entry(obj, x, i, root):
    """Ancestor table entry of x at index i, with its implicit tail.

    A node that owns no row shares its compressed parent d's, whose EPS
    entries are exactly those below iq[d]; x's own entries from iq[x] on
    read as x, the rule the query applies.  Stored rows stop at the
    root's own threshold; everything above it is the root.  Queries stay
    below the stored width because fat numbers of one tree differ by less
    than (c-2)*sigma(root)^e, so the tail exists for inspection, not for
    the hot path.
    """
    row = obj.tab[x]
    if i >= len(row):
        return root
    v = row[i]
    if v == EPS and i >= obj.iq[x]:
        return x
    return v


def shared_rows_ok(obj, nodes, root):
    """Rows are owned exactly where a compressed child reads them.

    The stored root and every apex with a child own a row of the tree's
    width; every other node's tab entry is its compressed parent's row
    object itself.
    """
    width = len(obj.tab[root])
    ch = dchildren(obj, nodes)
    owned = set()
    for u in nodes:
        row = obj.tab[u]
        if u == root or ch[u]:
            assert id(row) not in owned, f"{u} owns another node's row"
            owned.add(id(row))
            assert u == root or obj.pos[u] == 0, f"non-apex {u} has compressed children"
            assert len(row) == width, f"row of {u} is {len(row)} wide, not {width}"
            d = obj.piD[u]
            assert d is None or row is not obj.tab[d], f"{u} shares the row it must own"
        else:
            assert row is obj.tab[obj.piD[u]], f"{u} does not share its parent's row"


def arena_read(arena, off, n, start, stop):
    """Cells start..stop-1 of the n-value arena array at off; IndexError past n."""
    if not 0 <= start <= stop <= n:
        raise IndexError(f"range [{start}:{stop}] out of bounds for array at {off}")
    return arena.backing[off + start:off + stop]


def microset_members(m):
    """A microset's members in insertion order."""
    return arena_read(m.arena, m.off, m.n, 0, m.n)


def rerooted_ca(f, x, y, z, ca_fn):
    """ca(x, y) in f's tree rerooted at z, using exactly three ca_fn calls."""
    for v in (x, y, z):
        check_id(v, len(f.parent))
    if not (f._uf[x] == f._uf[y] == f._uf[z]):
        raise ValueError("rerooted_ca requires x, y, z in one tree")
    cxy = ca_fn(x, y)
    cxz = ca_fn(x, z)
    cyz = ca_fn(y, z)
    assert cxy is not None and cxz is not None and cyz is not None
    return combine_rerooted(cxy, cxz, cyz, lambda v: f.parent[v])


def reroot_physical(f, z):
    """Copy f with z's tree rerooted at z (parent edges reversed on z's root path)."""
    check_id(z, len(f.parent))
    g = Forest()
    for _ in range(len(f)):
        g.make_node()
    new_parent = list(f.parent)
    v = z
    prev = None
    while v is not None:
        nxt = f.parent[v]
        new_parent[v] = prev
        prev, v = v, nxt
    g.parent = new_parent
    for u, p in enumerate(new_parent):
        if p is not None:
            g.ns[u] = g.fc[p]
            g.fc[p] = u
    for u, p in enumerate(new_parent):
        if p is None:
            g._size[u] = 0
            for w in subtree(g.fc, g.ns, u):
                g._raw[w] = 0 if w == u else g._raw[new_parent[w]] + 1
                g._uf[w] = u
                g._size[u] += 1
    return g


class AckermannTable:
    """A(i, j) for i, j in [1..ceil(log2 n)], None past n, n >= 2, by its
    own recursion rather than linkforest._acap's, which tests check against
    it: row 1 doubles, A(i, 1) = 2 and A(i, j) = A(i-1, A(i, j-1)).  An
    argument past ceil(log2 n) is past n, since A(i, j) >= 2^j."""

    def __init__(self, n):
        self.n = n
        k = self.size = max(1, (n - 1).bit_length())
        row = [None] + [1 << j if 1 << j <= n else None
                        for j in range(1, k + 1)]
        self.rows = [None, row]
        for _ in range(2, k + 1):
            below, row = row, [None, 2]
            for _ in range(2, k + 1):
                t = row[-1]
                row.append(None if t is None or t > k else below[t])
            self.rows.append(row)

    def value(self, i, j):
        """A(i, j) for a tabulated row i and j >= 1, or None past n."""
        return self.rows[i][j] if j <= self.size else None

    def check_identities(self):
        """Assert the doubling, level-shift and shift-robustness laws; None
        entries stand for values past n and meet every lower bound."""
        k = self.size
        A = self.value
        for i in range(1, k + 1):
            for j in range(1, k):
                a, b = A(i, j), A(i, j + 1)
                assert a is None or b is None or b >= 2 * a, (i, j)
                if i < k and j >= 4 and (lo := A(i, 2 * j)) is not None:
                    hi = A(i + 1, j)
                    assert hi is None or hi >= lo, (i, j)
        for n in sorted({self.n, max(2, self.n // 2), max(2, self.n // 3)}):
            for m in sorted({1, 2, 3, max(1, self.n // 2), self.n, 2 * self.n}):
                base = alpha(m, n)
                for m2 in (m, 2 * m):
                    for n2 in (n, n + 1, 2 * n):
                        assert alpha(m2, n2) >= base - 1, (m, n, m2, n2)


def a_inv(i, n):
    """Least j with A(i, j) >= n, for a row i of AckermannTable(max(4, n))."""
    row = AckermannTable(max(4, n)).rows[i]
    return next(j for j in range(1, len(row)) if row[j] is None or row[j] >= n)


def window_stage(ack, k, size):
    """Stage of a level-k tree of `size` nodes, by a window search on ack.

    0 under four nodes; otherwise the st with 2*A(k, st) <= size <
    2*A(k, st+1), a ceiling past the table reading as infinite.
    """
    if size < 4:
        return 0
    st = 1
    while (hi := ack.value(k, st + 1)) is not None and 2 * hi <= size:
        st += 1
    return st


def tree_stage(lf, k, v):
    """Stage of v's level-k tree in LinkForest lf, from its node count."""
    pi = lf.pi[k]
    while pi[v] != -1:
        v = pi[v]
    return window_stage(AckermannTable(max(4, lf.max_n)), k,
                        len(subtree(lf.fc[k], lf.ns[k], v)))


def check_link_invariants(lf):
    """Full sweep of a LinkForest's staging and contraction consistency.

    Checks, for every live tree on every level: the recorded size, the
    stage the forest reads off it against an independent window search,
    the size window itself, subtree membership, the per-subtree size
    floor, the subtree-count ceiling, each member's id in its subtree,
    and that parent edges between subtree roots contract exactly to the
    tree one level down.  Then, per level, that every sub and down entry
    belongs to a walked tree and every other node is on the free list,
    so nothing a link replaced is still held.

    Every member of a subtree lies in the tree being walked.  The size
    sum implies it, but it is checked outright because LinkForest._ca
    rests on it: ends that share a vertex-level record are answered
    without a root walk, which is sound only if no record spans two
    trees.
    """
    ack = AckermannTable(max(4, lf.max_n))
    live = {k: set() for k in lf.pi}
    top = lf.pi[lf.L]
    for root in [v for v in range(len(top)) if top[v] == -1]:
        k = lf.L
        nodes = subtree(lf.fc[k], lf.ns[k], root)
        while True:
            live[k].update(nodes)
            r = nodes[0]
            sz = len(nodes)
            st = window_stage(ack, k, sz)
            assert lf.ts[k][r] == sz, (k, r)
            assert bisect_right(lf.floors[k], sz) == st, (k, r)
            if st == 0:
                for v in nodes:
                    assert lf.sub[k][v] is None, (k, v)
                break
            lo = ack.value(k, st)
            hi = ack.value(k, st + 1)
            assert lo is not None and 2 * lo <= sz, (k, r)
            assert hi is None or sz < 2 * hi, (k, r)
            members = set(nodes)
            seen = {}
            total = 0
            for v in nodes:
                S = lf.sub[k][v]
                assert S is not None, (k, v)
                seen[id(S)] = S
            subs = list(seen.values())
            lid = lf.lid[k]
            for S in subs:
                assert len(S.rev) == S.inc.n
                for i, v in enumerate(S.rev):
                    assert lf.sub[k][v] is S and lid[v] == i, (k, v)
                    assert v in members, (k, v, r)
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
                assert S.up is not None and lf.down[k - 1][S.up] is S
                ups.add(S.up)
                t = S.root
                pt = lf.pi[k][t]
                if pt == -1:
                    kr = S.up
                    assert lf.pi[k - 1][S.up] == -1
                else:
                    assert lf.pi[k - 1][S.up] == lf.sub[k][pt].up
            assert kr is not None
            nodes = subtree(lf.fc[k - 1], lf.ns[k - 1], kr)
            assert set(nodes) == ups
            k -= 1
    for k, nodes in live.items():
        free = lf.free.get(k, [])
        assert len(set(free)) == len(free) and not nodes.intersection(free), k
        assert len(lf.pi[k]) - len(free) == len(nodes), k
        for v, S in enumerate(lf.sub[k]):
            assert S is None or v in nodes, (k, v)
        for z, S in enumerate(lf.down.get(k, ())):
            assert S is None or z in nodes, (k, z)
