"""Doubling storage manager for the microset id maps of one MultilevelInc.

Each microset's id-to-node map is a growing array, and one leveled
tree packs all of its maps into one backing store.  The accounting
target: at any instant the backing store holds at most 4 cells per live
logical entry, even though relocated regions are never reclaimed.
Every array starts with capacity 2 and its first value in the first
cell; when a push finds it full, it relocates to a fresh region of twice
its capacity at the end of the store, copying its cells.  Only cells
that hold a value count as live.  An array is named by its offset, which
its owner keeps with its length.
"""

from __future__ import annotations


class Arena:
    __slots__ = ("backing", "total_live", "cells_copied")

    def __init__(self) -> None:
        self.backing: list = []
        self.total_live = 0
        self.cells_copied = 0

    @property
    def used(self) -> int:
        return len(self.backing)

    def new_array(self, v) -> int:
        """Allocate an array of capacity 2 holding v; returns its offset."""
        off = len(self.backing)
        self.backing.extend((v, 0))
        self.total_live += 1
        assert len(self.backing) <= 4 * self.total_live
        return off

    def push(self, off: int, n: int, v) -> int:
        """Append v to the n-value array at off; returns the array's offset.

        Capacities are powers of two, so the array is full, and moves,
        exactly when n is a power of two of at least 2.
        """
        backing = self.backing
        if n > 1 and not n & (n - 1):
            backing += backing[off:off + n] + [0] * n
            off = len(backing) - 2 * n
            self.cells_copied += n
        backing[off + n] = v
        self.total_live += 1
        # len(), not the used property: this runs on every microset add
        assert len(backing) <= 4 * self.total_live
        return off
