"""Shared invariant sweeps used across the test modules.

Every sweep takes a numbered structure (StaticCa or IncrementalTree; both
expose the same flat arrays) plus the node set of one stored tree, and
asserts the numbering contract: interval shape, guard emptiness, subtree
containment, geometric weight growth, and laminarity of live intervals.
"""

from bisect import bisect_left

from dynca import Forest
from dynca.fat_preorder import EPS


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
    build keeps whole-subtree sizes in s even at non-apex nodes.
    """
    c = params.c
    e = params.e
    bn, bd = params.beta
    p = obj.p
    q = obj.q
    pbar = obj.pbar
    qbar = obj.qbar
    sigma = obj.sigma
    s = obj.s
    apex = obj.apex
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
        want = s[u] if apex[u] else 1
        got = bisect_left(ps, q[u]) - bisect_left(ps, p[u])
        assert got == want, f"node {u}: {got} numbers in interval, subtree {want}"
        # non-apex nodes are compressed leaves of weight one
        if not apex[u]:
            assert sigma[u] == 1
            assert not ch[u]
        # growth slack for growing structures
        if incremental:
            an, ad = params.alpha
            assert ad * s[u] < an * sigma[u], \
                f"node {u}: size {s[u]} outgrew weight {sigma[u]}"
        elif apex[u]:
            assert s[u] == sigma[u]

    for u in nodes:
        t = piD[u]
        if t is None:
            assert u == root
            continue
        assert apex[t], "compressed parent must be an apex"
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
    order = [root]
    k = 0
    while k < len(order):
        u = order[k]
        k += 1
        order.extend(forest.children[u])
    for u in reversed(order):
        if u != root:
            size[forest.parent[u]] += size[u]
    for u in nodes:
        heavy = u != root and 2 * size[u] > size[forest.parent[u]]
        assert sca.apex[u] == (not heavy), f"apex flag wrong at {u}"
        if heavy:
            assert sca.succ[forest.parent[u]] == u
    for u in nodes:
        if u == root:
            assert sca.piD[u] is None
        else:
            a = forest.parent[u]
            while not sca.apex[a]:
                a = forest.parent[a]
            assert sca.piD[u] == a, f"piD({u}) is not the nearest apex ancestor"
        assert sca.sigma[u] == (size[u] if sca.apex[u] else 1)


def build_random_tree(rng, n, forest=None):
    """Uniform random attachment tree; returns (forest, root)."""
    f = forest if forest is not None else Forest()
    r = f.make_node()
    for _ in range(n - 1):
        x = rng.randrange(len(f.parent))
        y = f.make_node()
        f.add_leaf(x, y)
    return f, r


def tree_nodes_of(sca, tid):
    return [u for u in range(len(sca.piT)) if sca.tree[u] == tid]


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
