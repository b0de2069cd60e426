"""A fixed pure-Python loop that gauges how fast this process runs.

On a shared host the same code can run 50% slower in one
process than in another, even in CPU time, and the whole process is
slowed alike.  The benchmark times this loop between the engines'
batches, and scales every time a worker reports by NOMINAL_MS over the
loop's own time in that worker.  A figure therefore reads what it would
in a process where one slice of the loop takes NOMINAL_MS.  The loop
imports nothing from dynca, so a change to dynca can move it only
through what it leaves in the caches.
"""

import random
from time import process_time

# one slice's CPU time: the median over processes on a shared 2-core
# Xeon VM at 2.0 GHz under CPython 3.11.7
NOMINAL_MS = 1.75


class Reference:
    """Parent walks over a random tree, answers kept as tuples."""

    def __init__(self):
        rng = random.Random("reference")
        n = 20000
        self.parent = [-1] + [rng.randrange(v) for v in range(1, n)]
        self.pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
        self.secs = 0.0
        self.slices = 0

    def slice(self):
        """Run and time one slice of the loop."""
        parent = self.parent
        out = []
        t0 = process_time()
        for x, y in self.pairs:
            d = 0
            v = x
            while parent[v] >= 0:
                v = parent[v]
                d += 1
            out.append((x, y, d))
        self.secs += process_time() - t0
        self.slices += 1

    def scale(self):
        """Factor that brings this process's times to the nominal speed."""
        return NOMINAL_MS / (self.secs / self.slices * 1e3)
