import pytest
from hypothesis import given, settings, strategies as st

from dynca import Arena

from _checks import arena_read


def test_new_array_grants_two_cells():
    ar = Arena()
    h = ar.new_array(7)
    assert ar.used == 2
    assert ar.total_live == 1
    assert ar.used <= 4 * ar.total_live
    assert arena_read(ar, h, 0, 1) == [7]


def test_two_arrays_usage_four():
    ar = Arena()
    ar.new_array(0)
    ar.new_array(1)
    assert ar.used == 4


def test_thousand_arrays_usage():
    ar = Arena()
    for i in range(1000):
        ar.new_array(i)
    assert ar.used == 2000
    assert ar.used <= 4 * ar.total_live == 4 * 1000


def test_push_relocates_preserving_contents():
    ar = Arena()
    h = ar.new_array("a")
    before = ar.used
    idx = ar.push(h, "b")  # the second granted cell: no relocation
    assert idx == 1
    assert ar.used == before
    assert ar.cells_copied == 0
    assert arena_read(ar, h, 0, 2) == ["a", "b"]
    idx = ar.push(h, "c")  # full at capacity 2: relocate to 4
    assert idx == 2
    assert arena_read(ar, h, 0, 3) == ["a", "b", "c"]
    assert ar.used == before + 4
    assert ar.cells_copied == 2
    idx = ar.push(h, "d")  # room left: no relocation
    assert idx == 3
    assert ar.used == before + 4
    assert arena_read(ar, h, 0, 4) == ["a", "b", "c", "d"]
    idx = ar.push(h, "e")  # full at capacity 4: relocate to 8
    assert idx == 4
    assert ar.used == before + 4 + 8
    assert ar.cells_copied == 2 + 4
    assert arena_read(ar, h, 0, 5) == ["a", "b", "c", "d", "e"]


def test_hundred_thousand_pushes_bounds():
    ar = Arena()
    h = ar.new_array(-1)
    k = 10 ** 5
    for i in range(k):
        ar.push(h, i)
    assert arena_read(ar, h, 0, k + 1) == [-1] + list(range(k))
    assert ar.cells_copied <= 2 * k
    assert ar.used <= 4 * ar.total_live
    assert ar.used <= 4 * (k + 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=200))
def test_arena_invariants_under_interleaving(script):
    """Random interleaving of creates and pushes keeps every account exact."""
    ar = Arena()
    shadow = []
    pushes = 0
    for cmd in script:
        if cmd == 0 or not shadow:
            h = len(shadow)
            assert ar.new_array((h, 0)) == h
            shadow.append([(h, 0)])
        else:
            h = cmd % len(shadow)
            idx = ar.push(h, (h, len(shadow[h])))
            assert idx == len(shadow[h])
            shadow[h].append((h, idx))
            pushes += 1
        assert ar.total_live == sum(map(len, shadow))
        assert ar.used <= 4 * ar.total_live
        assert ar.cells_copied <= 2 * pushes + 2 * len(shadow)
    for h, vals in enumerate(shadow):
        assert arena_read(ar, h, 0, len(vals)) == vals
        with pytest.raises(IndexError):  # nothing stored past the live cells
            arena_read(ar, h, 0, len(vals) + 1)
