"""Doubling storage manager packing every growing array into one backing store.

The accounting target: at any instant the backing store holds at most
4 cells per live logical entry, even though relocated regions are never
reclaimed. Every array starts with two granted slots (s=1, capacity 2)
and, when a push finds n == 2s, relocates to a fresh region of size 4s
at the end of the store, copying its n cells and doubling s. Handles
are stable across relocations; the only reclamation primitive is a
whole-arena reset.
"""

from __future__ import annotations


class Arena:
    __slots__ = (
        "backing", "off", "cap", "n", "s",
        "total_live", "cells_copied", "pushes", "arrays_created",
    )

    def __init__(self) -> None:
        self.backing: list = []
        self.off: list[int] = []
        self.cap: list[int] = []
        self.n: list[int] = []
        self.s: list[int] = []
        self.total_live = 0
        self.cells_copied = 0
        self.pushes = 0
        self.arrays_created = 0

    @property
    def used(self) -> int:
        return len(self.backing)

    def __len__(self) -> int:
        return len(self.off)

    def new_array(self) -> int:
        """Allocate an array with two granted slots; returns its handle."""
        h = len(self.off)
        self.off.append(len(self.backing))
        self.backing.extend((0, 0))
        self.cap.append(2)
        self.n.append(2)
        self.s.append(1)
        self.total_live += 2
        self.arrays_created += 1
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
        self.pushes += 1
        assert self.used <= 4 * self.total_live
        return n

    def _relocate(self, h: int) -> None:
        n = self.n[h]
        s = self.s[h]
        newcap = 4 * s
        old = self.off[h]
        self.off[h] = len(self.backing)
        self.backing.extend(self.backing[old:old + n])
        self.backing.extend([0] * (newcap - n))
        self.cap[h] = newcap
        self.s[h] = 2 * s
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

    def read(self, h: int, start: int, stop: int) -> list:
        if not 0 <= start <= stop <= self.n[h]:
            raise IndexError(f"range [{start}:{stop}] out of bounds for array {h}")
        o = self.off[h]
        return self.backing[o + start:o + stop]

    def reset(self) -> None:
        self.backing.clear()
        self.off.clear()
        self.cap.clear()
        self.n.clear()
        self.s.clear()
        self.total_live = 0
