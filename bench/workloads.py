"""Seeded inputs for the benchmark's workloads.

The benchmark makes its own inputs rather than calling
dynca.traces.generate, so a later change to the program's generators
cannot change what is measured.  Nothing here imports dynca.

A World is one tree-building schedule with the queries asked along it.
Growth worlds list, per new vertex, its parent (or ROOT for add_root);
link worlds list (x, y) pairs, each making the root y a child of x.
Batches of structural ops alternate with batches of query pairs.
"""

import random

ROOT = -1  # growth op: the new vertex becomes the parent of the current root

N = 1 << 14          # vertices per world
STEPS = 16           # structural batches per round, each followed by a query batch
CHECK_N = 2000       # the check pass uses acceptance criterion 1's largest trace
CHECK_M = 20000


class World:
    """One schedule: the final forest, op batches and query batches.

    parent is the final forest (-1 at roots).  ops[k] is the k-th batch
    of structural ops and queries[k] the pairs asked right after it.
    same[k][i] says whether pair i shared a tree when it was asked; it
    is None for growth worlds, which hold one tree throughout.
    """

    def __init__(self, kind, parent, ops, queries, same=None):
        self.kind = kind      # "grow" or "link"
        self.parent = parent
        self.ops = ops
        self.queries = queries
        self.same = same

    @property
    def n(self):
        return len(self.parent)

    def link_ops(self):
        """Growth rewritten as links on n pre-made singletons.

        add_leaf under p becomes link(p, v); add_root becomes
        link(v, old root).  The forest every query sees is unchanged.
        """
        assert self.kind == "grow"
        out = []
        root = 0
        v = 1
        for batch in self.ops:
            links = []
            for p in batch:
                if p == ROOT:
                    links.append((v, root))
                    root = v
                else:
                    links.append((p, v))
                v += 1
            out.append(links)
        return out


def _split(total, parts):
    """Sizes of `parts` near-equal batches summing to total."""
    return [total * (k + 1) // parts - total * k // parts for k in range(parts)]


def random_growth(rng, n, root_share):
    """Parents of vertices 1..n-1: uniform over existing ones, or ROOT."""
    ops = []
    for v in range(1, n):
        if root_share and rng.random() < root_share:
            ops.append(ROOT)
        else:
            ops.append(rng.randrange(v))
    return ops


def breadth_first_growth(parent):
    """Growth ops that rebuild a one-tree forest in breadth-first order.

    Vertices are renumbered in visiting order, so the ops grow a tree of
    the same shape from vertex 0.
    """
    children = [[] for _ in parent]
    root = None
    for v, p in enumerate(parent):
        if p < 0:
            assert root is None, "breadth-first growth needs a single tree"
            root = v
        else:
            children[p].append(v)
    order = [root]
    for u in order:
        order.extend(children[u])
    new = [0] * len(parent)
    for i, u in enumerate(order):
        new[u] = i
    return [new[parent[u]] for u in order[1:]]


def grow_world(rng, growth, steps, m):
    """Batch growth ops and follow each batch with uniform queries.

    Query pairs are drawn over the vertices that exist at that point.
    """
    n = len(growth) + 1
    parent = [-1] * n
    root = 0
    ops = []
    queries = []
    v = 1
    at = 0
    for size, qsize in zip(_split(n - 1, steps), _split(m, steps)):
        batch = growth[at:at + size]
        at += size
        for p in batch:
            if p == ROOT:
                parent[root] = v
                root = v
            else:
                parent[v] = p
            v += 1
        ops.append(batch)
        queries.append([(rng.randrange(v), rng.randrange(v)) for _ in range(qsize)])
    return World("grow", parent, ops, queries)


def link_world(rng, n, steps, m):
    """n singletons joined by n-1 random links, with queries between batches.

    Each link makes the root of a random tree a child of a random vertex
    of another tree.  Every other query picks both ends in one tree (from
    trees of two or more vertices); the rest are uniform pairs.
    """
    parent = [-1] * n
    label = list(range(n))              # component label of each vertex
    members = [[v] for v in range(n)]   # members by label, merged small into large
    top = list(range(n))                # tree root by label
    alive = list(range(n))              # labels of the current trees
    ops = []
    queries = []
    same = []
    for size, qsize in zip(_split(n - 1, steps), _split(m, steps)):
        links = []
        for _ in range(size):
            i = rng.randrange(len(alive))
            ly = alive[i]
            alive[i] = alive[-1]
            alive.pop()
            j = rng.randrange(len(alive))
            lx = alive[j]
            y = top[ly]
            x = rng.choice(members[lx])
            parent[y] = x
            links.append((x, y))
            big, small = (lx, ly) if len(members[lx]) >= len(members[ly]) else (ly, lx)
            for v in members[small]:
                label[v] = big
            members[big].extend(members[small])
            members[small] = None
            top[big] = top[lx]
            alive[j] = big
        pairs = []
        flags = []
        for q in range(qsize):
            if q % 2 == 0:
                x = rng.randrange(n)
                while len(members[label[x]]) < 2:
                    x = rng.randrange(n)
                y = x
                while y == x:
                    y = rng.choice(members[label[x]])
            else:
                x = rng.randrange(n)
                y = rng.randrange(n)
            pairs.append((x, y))
            flags.append(label[x] == label[y])
        ops.append(links)
        queries.append(pairs)
        same.append(flags)
    return World("link", parent, ops, queries, same)


def _grow_leaf(rng, n, m):
    return [grow_world(rng, random_growth(rng, n, 0.0), STEPS, m)]


def _grow_rerooted(rng, n, m):
    return [grow_world(rng, random_growth(rng, n, 0.25), STEPS, m)]


def _link_mixed(rng, n, m):
    links = link_world(rng, n, STEPS, m)
    # the grown engines replay the final linked tree as leaf growth
    regrown = grow_world(rng, breadth_first_growth(links.parent), STEPS, m)
    return [links, regrown]


# name -> (builder, engines by world, engines the traced run follows)
WORKLOADS = {
    "grow-leaf": (_grow_leaf,
                  [("static", "inc", "inc-log2", "inc-linear", "link")],
                  ("static", "inc", "inc-log2", "inc-linear")),
    "grow-rerooted": (_grow_rerooted,
                      [("static", "inc", "inc-log2", "inc-linear", "link")],
                      ("static", "inc", "inc-log2", "inc-linear")),
    "link-mixed": (_link_mixed,
                   [("link",), ("static", "inc", "inc-log2", "inc-linear")],
                   ("link",)),
}


def make_worlds(workload, seed, n=N, m=None):
    """The worlds of one workload; the same seed gives the same inputs."""
    build = WORKLOADS[workload][0]
    rng = random.Random(f"{workload}:{seed}:{n}")
    return build(rng, n, n if m is None else m)
