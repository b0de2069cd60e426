"""Arithmetic kernel: exact rationals and floor-log tables.

Preorder numbers ("ordinals") stay below c * cap**e for a capacity cap.
The fat-preorder engines keep them in unsigned 64-bit array('Q') cells
while that bound fits one, and in lists of Python ints above it: with
the dynamic parameter set (c=5, e=4) the cells hold up to a capacity of
43,826, about (2**64 / 5) ** (1/4); see fat_preorder.fat_cells.

All base/ratio comparisons are exact: a rational is a (num, den) pair
of ints with den > 0, and every threshold is an integer ceiling of an
exact rational power. No floats anywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple


class Rational(NamedTuple):
    num: int
    den: int


class LogTable:
    """Floor-log machinery for a fixed rational base beta > 1.

    The least integer at or above beta**i (an exact ceiling of the exact
    rational power) is the threshold for exponent i, so floor_log_beta
    reduces to a binary search over an int array. Bases close to 1 give
    several exponents the same ceiling; ties keep only the largest
    exponent, which leaves thresholds strictly increasing and resolves
    an equal-threshold lookup to the right answer. For beta == 2 the
    answer is r.bit_length() - 1 directly.
    """

    def __init__(self, beta: Rational, max_r: int):
        bn, bd = beta
        if bd <= 0 or bn <= bd:
            raise ValueError("beta must be a rational greater than 1")
        if max_r < 1:
            raise ValueError("max_r must be at least 1")
        self.max_r = max_r
        self._beta_is_two = bn == 2 * bd
        thresholds = [1]
        expos = [0]
        num, den = bn, bd
        i = 1
        while True:
            t = -(-num // den)
            if t == thresholds[-1]:
                expos[-1] = i
            else:
                thresholds.append(t)
                expos.append(i)
            if t > max_r:
                break
            num *= bn
            den *= bd
            i += 1
        self.thresholds = thresholds
        self.expos = expos

    def floor_log_beta(self, r: int) -> int:
        """Largest i with beta**i <= r, for 1 <= r <= max_r."""
        if r < 1:
            raise ValueError("floor_log_beta requires r >= 1")
        if r > self.max_r:
            raise ValueError(f"r={r} exceeds the table range {self.max_r}")
        if self._beta_is_two:
            return r.bit_length() - 1
        return self.expos[bisect_right(self.thresholds, r) - 1]
