import pytest
from hypothesis import given, settings, strategies as st

from dynca import Arena

from _checks import arena_read


def test_new_array_grants_two_cells():
    ar = Arena()
    h = ar.new_array()
    assert ar.used == 2
    assert ar.used <= 4 * ar.total_live
    ar.set(h, 0, 7)
    ar.set(h, 1, 8)
    assert arena_read(ar, h, 0, 2) == [7, 8]


def test_two_arrays_usage_four():
    ar = Arena()
    ar.new_array()
    ar.new_array()
    assert ar.used == 4


def test_thousand_arrays_usage():
    ar = Arena()
    for _ in range(1000):
        ar.new_array()
    assert ar.used == 2000
    assert ar.used <= 4 * ar.total_live == 4 * 2000


def test_push_relocates_preserving_contents():
    ar = Arena()
    h = ar.new_array()
    ar.set(h, 0, "a")
    ar.set(h, 1, "b")
    before = ar.used
    idx = ar.push(h, "c")  # full at capacity 2: relocate to 4
    assert idx == 2
    assert arena_read(ar, h, 0, 3) == ["a", "b", "c"]
    assert ar.used == before + 4
    idx = ar.push(h, "d")  # room left: no relocation
    assert idx == 3
    assert ar.used == before + 4
    assert arena_read(ar, h, 0, 4) == ["a", "b", "c", "d"]


def test_hundred_thousand_pushes_bounds():
    ar = Arena()
    h = ar.new_array()
    k = 10 ** 5
    for i in range(k):
        ar.push(h, i)
    assert arena_read(ar, h, 2, k + 2) == list(range(k))
    assert ar.cells_copied <= 2 * k
    assert ar.used <= 4 * ar.total_live
    assert ar.used <= 4 * (k + 2)


def test_append_at_contract():
    ar = Arena()
    h = ar.new_array()
    ar.append_at(h, 0, 1)
    ar.append_at(h, 1, 2)
    ar.append_at(h, 2, 3)  # one past stored length: push
    with pytest.raises(IndexError):
        ar.append_at(h, 5, 9)
    with pytest.raises(IndexError):
        arena_read(ar, h, 3, 4)
    assert arena_read(ar, h, 0, 3) == [1, 2, 3]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=200))
def test_arena_invariants_under_interleaving(script):
    """Random interleaving of creates and pushes keeps every account exact."""
    ar = Arena()
    shadow = []
    pushes = 0
    for step, cmd in enumerate(script):
        if cmd == 0 or not shadow:
            h = ar.new_array()
            assert h == len(shadow)
            shadow.append([0, 0])
            ar.set(h, 0, (h, 0))
            ar.set(h, 1, (h, 1))
            shadow[h] = [(h, 0), (h, 1)]
        else:
            h = cmd % len(shadow)
            idx = ar.push(h, (h, len(shadow[h])))
            assert idx == len(shadow[h])
            shadow[h].append((h, idx))
            pushes += 1
        assert ar.used <= 4 * ar.total_live
        assert ar.cells_copied <= 2 * pushes + 2 * len(shadow)
    for h, vals in enumerate(shadow):
        assert arena_read(ar, h, 0, len(vals)) == vals
