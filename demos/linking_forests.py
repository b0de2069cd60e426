"""Link whole trees together and keep answering meet queries.

The fixed-level forest classifies each tree into a stage by an Ackermann
row, reading the stage off the tree's size; the adaptive forest re-tunes
its level count as the workload's link/query mix drifts, restaging itself
in place.

Run:  python3 demos/linking_forests.py
"""

import random
from bisect import bisect_right

from dynca import AdaptiveLinkForest, LinkForest, alpha

rng = random.Random(7)

# --- stages on a fixed level ---


def size_and_stage(lf, x):
    """Size of x's tree and its stage, read off the size as the forest does."""
    size = lf.ts[lf.L][lf.find_root(x)]
    return size, bisect_right(lf.floors[lf.L], size)


lf = LinkForest(level=1, max_n=64)
v = [lf.make_node() for _ in range(8)]
print("stage floors on level 1:", lf.floors[1])

lf.link(v[0], v[1])
lf.link(v[1], v[2])
print("size %d, stage %d (under 4: bare lists)" % size_and_stage(lf, v[0]))

lf.link(v[0], v[3])
print("size %d, stage %d (the whole tree moved into a packed subtree)"
      % size_and_stage(lf, v[0]))

for i in range(4, 8):
    lf.link(v[i - 1], v[i])
print("size %d, stage %d" % size_and_stage(lf, v[0]))
print("ca(v5, v2) =", tuple(lf.ca(v[5], v[2])))

# --- the adaptive forest counts from the first link ---

af = AdaptiveLinkForest(max_n=1 << 12)
nodes = [af.make_node() for _ in range(1 << 12)]

print("\nqueries before any link are free:",
      af.nca(nodes[0], nodes[1]), "(separate trees)")

af.link(nodes[0], nodes[1])
print("first link: counted ops m =", af.m1, " linked nodes n =", af.n1,
      " level =", af.level)

# pair up fresh singletons: n grows as fast as m, alpha climbs,
# and the forest restages itself in place the moment alpha leaves
# {level-1, level}
for i in range(1, 300):
    af.link(nodes[2 * i], nodes[2 * i + 1])
print("after 300 pair links, level =", af.level,
      " reorganizations =", af.reorg_log)

# flood queries: m races ahead of n, alpha falls back to 1, and that is
# still inside the tolerated window, so no reorganization happens
for _ in range(5000):
    af.nca(rng.choice(nodes[:600]), rng.choice(nodes[:600]))
print("after a 5000-query flood, alpha =", alpha(af.m1, af.n1),
      " level =", af.level, " reorganizations =", af.reorg_log)
