"""Instrumentation counters shared by the engines.

Every structure takes an optional Stats sink.  Counters are plain ints so
hot paths pay one attribute add; `work` is the catch-all unit count used by
the scaling checks (nodes touched during rebuilds, steps during queries).
"""

from dataclasses import dataclass, field


@dataclass
class Stats:
    # node additions, first nodes included: a grown tree's vertices, and a
    # link forest's record nodes on every level, rebuilds in, promotion copies out
    eta: int = 0
    recompressions: int = 0
    recompression_nodes: int = 0  # nodes renumbered across all recompressions
    table_entries: int = 0        # ancestor table entries written
    root_renumberings: int = 0    # recompressions from the stored root (its interval restarts)
    queries: int = 0              # answered top-level ca/nca calls, counted by Meets.ca
    max_query_steps: int = 0      # most steps of one meet; a composed query runs several
    work: int = 0
    # adaptive link-forest restagings, one (op_index, old_level, new_level)
    # entry each: their count is len(reorg_log)
    reorg_log: list = field(default_factory=list)

    def note_steps(self, steps):
        """Add one meet's steps to work; keep the largest as max_query_steps."""
        if steps > self.max_query_steps:
            self.max_query_steps = steps
        self.work += steps
