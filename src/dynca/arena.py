"""Doubling storage manager for the microset id maps of one MultilevelInc.

Each microset's id-to-node map is a growing array, and one leveled
tree packs all of its maps into one backing store.  The accounting
target: at any instant the backing store holds at most 4 cells per live
logical entry, even though relocated regions are never reclaimed.
Every array starts with capacity 2 and its first value in the first
cell; when a push finds it full, it relocates to a fresh region of twice
its capacity at the end of the store, copying its cells.  Only cells
that hold a value count as live.  Handles are stable across
relocations.
"""

from __future__ import annotations


class Arena:
    __slots__ = ("backing", "off", "cap", "n", "total_live", "cells_copied")

    def __init__(self) -> None:
        self.backing: list = []
        self.off: list[int] = []
        self.cap: list[int] = []
        self.n: list[int] = []
        self.total_live = 0
        self.cells_copied = 0

    @property
    def used(self) -> int:
        return len(self.backing)

    def new_array(self, v) -> int:
        """Allocate an array of capacity 2 holding v; returns its handle."""
        h = len(self.off)
        self.off.append(len(self.backing))
        self.backing.extend((v, 0))
        self.cap.append(2)
        self.n.append(1)
        self.total_live += 1
        assert len(self.backing) <= 4 * self.total_live
        return h

    def push(self, h: int, v) -> int:
        """Append v; returns the index it landed at."""
        n = self.n[h]
        if n == self.cap[h]:
            self._relocate(h)
        self.backing[self.off[h] + n] = v
        self.n[h] = n + 1
        self.total_live += 1
        # len(), not the used property: this runs on every microset add
        assert len(self.backing) <= 4 * self.total_live
        return n

    def _relocate(self, h: int) -> None:
        n = self.n[h]
        newcap = 2 * self.cap[h]
        old = self.off[h]
        self.off[h] = len(self.backing)
        self.backing.extend(self.backing[old:old + n])
        self.backing.extend([0] * (newcap - n))
        self.cap[h] = newcap
        self.cells_copied += n
