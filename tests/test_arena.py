import pytest
from hypothesis import given, settings, strategies as st

from dynca import Arena

from _checks import arena_read


def test_new_array_grants_two_cells():
    ar = Arena()
    off = ar.new_array(7)
    assert off == 0
    assert ar.used == 2
    assert ar.total_live == 1
    assert ar.used <= 4 * ar.total_live
    assert arena_read(ar, off, 1, 0, 1) == [7]


def test_two_arrays_usage_four():
    ar = Arena()
    assert ar.new_array(0) == 0
    assert ar.new_array(1) == 2
    assert ar.used == 4


def test_thousand_arrays_usage():
    ar = Arena()
    for i in range(1000):
        ar.new_array(i)
    assert ar.used == 2000
    assert ar.used <= 4 * ar.total_live == 4 * 1000


def test_push_relocates_preserving_contents():
    ar = Arena()
    off = ar.new_array("a")
    before = ar.used
    off = ar.push(off, 1, "b")  # the second granted cell: no relocation
    assert off == 0
    assert ar.used == before
    assert ar.cells_copied == 0
    assert arena_read(ar, off, 2, 0, 2) == ["a", "b"]
    off = ar.push(off, 2, "c")  # full at capacity 2: relocate to 4
    assert off == before
    assert arena_read(ar, off, 3, 0, 3) == ["a", "b", "c"]
    assert ar.used == before + 4
    assert ar.cells_copied == 2
    off = ar.push(off, 3, "d")  # room left: no relocation
    assert off == before
    assert ar.used == before + 4
    assert arena_read(ar, off, 4, 0, 4) == ["a", "b", "c", "d"]
    off = ar.push(off, 4, "e")  # full at capacity 4: relocate to 8
    assert off == before + 4
    assert ar.used == before + 4 + 8
    assert ar.cells_copied == 2 + 4
    assert arena_read(ar, off, 5, 0, 5) == ["a", "b", "c", "d", "e"]


def test_hundred_thousand_pushes_bounds():
    ar = Arena()
    off = ar.new_array(-1)
    k = 10 ** 5
    for i in range(k):
        off = ar.push(off, i + 1, i)
    assert arena_read(ar, off, k + 1, 0, k + 1) == [-1] + list(range(k))
    assert ar.cells_copied <= 2 * k
    assert ar.used <= 4 * ar.total_live
    assert ar.used <= 4 * (k + 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=200))
def test_arena_invariants_under_interleaving(script):
    """Random interleaving of creates and pushes keeps every account exact."""
    ar = Arena()
    shadow = []
    offs = []
    pushes = 0
    for cmd in script:
        if cmd == 0 or not shadow:
            h = len(shadow)
            end = ar.used
            offs.append(ar.new_array((h, 0)))
            assert offs[h] == end  # a new array starts at the end of the store
            shadow.append([(h, 0)])
        else:
            h = cmd % len(shadow)
            n = len(shadow[h])
            end = ar.used
            off = ar.push(offs[h], n, (h, n))
            # a full array, n a power of two >= 2, moves to the end
            assert off == (end if n > 1 and n & (n - 1) == 0 else offs[h])
            offs[h] = off
            shadow[h].append((h, n))
            pushes += 1
        assert ar.total_live == sum(map(len, shadow))
        assert ar.used <= 4 * ar.total_live
        assert ar.cells_copied <= 2 * pushes + 2 * len(shadow)
    for h, vals in enumerate(shadow):
        assert arena_read(ar, offs[h], len(vals), 0, len(vals)) == vals
        with pytest.raises(IndexError):  # nothing stored past the live cells
            arena_read(ar, offs[h], len(vals), 0, len(vals) + 1)
