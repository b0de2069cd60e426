"""Instrumentation counters shared by the engines.

Every structure takes an optional Stats sink.  Counters are plain ints so
hot paths pay one attribute add; `work` is the catch-all unit count used by
the scaling checks (nodes touched during rebuilds, steps during queries).
"""

from dataclasses import dataclass, field


@dataclass
class Stats:
    eta: int = 0                 # vertex additions, first vertices included; inner levels add none
    recompressions: int = 0
    recompression_nodes: int = 0  # nodes renumbered across all recompressions
    table_entries: int = 0        # ancestor table entries written
    root_renumberings: int = 0    # recompressions from the stored root (its interval restarts)
    queries: int = 0
    max_query_steps: int = 0
    work: int = 0
    # adaptive link-forest restagings, one (op_index, old_level, new_level)
    # entry each: their count is len(reorg_log)
    reorg_log: list = field(default_factory=list)

    def note_query(self, steps):
        self.queries += 1
        if steps > self.max_query_steps:
            self.max_query_steps = steps
        self.work += steps
