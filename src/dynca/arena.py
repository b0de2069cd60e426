"""Doubling storage manager for the microset id maps of one MultilevelInc.

Each microset's id-to-node map is a growing array, and one leveled
tree packs all of its maps into one backing store.  The accounting
target: at any instant the backing store holds at most 4 cells per live
logical entry, even though relocated regions are never reclaimed.
Every array starts with two granted slots (capacity 2) and, when a push
finds it full, relocates to a fresh region of twice its capacity at the
end of the store, copying its cells.  Handles are stable across
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

    def new_array(self) -> int:
        """Allocate an array with two granted slots; returns its handle."""
        h = len(self.off)
        self.off.append(len(self.backing))
        self.backing.extend((0, 0))
        self.cap.append(2)
        self.n.append(2)
        self.total_live += 2
        assert self.used <= 4 * self.total_live
        return h

    def push(self, h: int, v) -> int:
        """Append v; returns the index it landed at."""
        n = self.n[h]
        if n == self.cap[h]:
            self._relocate(h)
        self.backing[self.off[h] + n] = v
        self.n[h] = n + 1
        self.total_live += 1
        assert self.used <= 4 * self.total_live
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

    def set(self, h: int, idx: int, v) -> None:
        if not 0 <= idx < self.n[h]:
            raise IndexError(f"index {idx} out of range for array {h}")
        self.backing[self.off[h] + idx] = v

    def append_at(self, h: int, idx: int, v) -> None:
        """Write v at idx, pushing if idx is one past the stored length.

        Storage length never shrinks and may exceed the caller's own
        element count (two slots are granted at creation), so callers
        track their logical lengths themselves.
        """
        if idx < self.n[h]:
            self.backing[self.off[h] + idx] = v
        elif idx == self.n[h]:
            self.push(h, v)
        else:
            raise IndexError(f"index {idx} skips past stored length {self.n[h]}")
