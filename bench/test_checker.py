"""The benchmark's answer checker must reject corrupted answers.

    python3 -m pytest bench/test_checker.py
"""

import random

from checker import Checker
from workloads import link_world


def _brute(parent, x, y):
    """ca(x, y) by walking root paths, or None across trees."""
    px = [x]
    while parent[px[-1]] >= 0:
        px.append(parent[px[-1]])
    py = [y]
    while parent[py[-1]] >= 0:
        py.append(parent[py[-1]])
    if px[-1] != py[-1]:
        return None
    i, j = len(px) - 1, len(py) - 1
    while i > 0 and j > 0 and px[i - 1] == py[j - 1]:
        i -= 1
        j -= 1
    a = px[i]
    return (a, px[i - 1] if i else a, py[j - 1] if j else a)


def _forest(seed, n=300):
    """A random forest of a few trees, each grown under uniform parents."""
    rng = random.Random(seed)
    parent = [-1] * n
    for v in range(1, n):
        if rng.random() > 0.02:
            parent[v] = rng.randrange(v)
    return parent


def _pairs(parent, seed, count=3000):
    rng = random.Random(seed)
    n = len(parent)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def test_accepts_true_answers():
    parent = _forest(1)
    chk = Checker(parent)
    for x, y in _pairs(parent, 2):
        ans = _brute(parent, x, y)
        assert chk.ok(x, y, ans, ans is not None), (x, y, ans)


def test_rejects_swapped_sides():
    parent = _forest(3)
    chk = Checker(parent)
    tried = 0
    for x, y in _pairs(parent, 4):
        ans = _brute(parent, x, y)
        if ans is None or ans[1] == ans[2]:
            continue
        tried += 1
        assert not chk.ok(x, y, (ans[0], ans[2], ans[1]), True), (x, y, ans)
    assert tried > 100


def test_rejects_the_meets_parent():
    parent = _forest(5)
    chk = Checker(parent)
    tried = 0
    for x, y in _pairs(parent, 6):
        ans = _brute(parent, x, y)
        if ans is None or parent[ans[0]] < 0:
            continue
        tried += 1
        up = parent[ans[0]]
        assert not chk.ok(x, y, (up, ans[1], ans[2]), True), (x, y, ans)
        # the meet's parent with consistent sides is still not the meet
        assert not chk.ok(x, y, (up, ans[0], ans[0]), True), (x, y, ans)
    assert tried > 100


def test_rejects_none_inside_one_tree():
    parent = _forest(7)
    chk = Checker(parent)
    tried = 0
    for x, y in _pairs(parent, 8):
        ans = _brute(parent, x, y)
        if ans is None:
            assert not chk.ok(x, y, (x, x, x), False)
            continue
        tried += 1
        assert not chk.ok(x, y, None, True), (x, y)
    assert tried > 100


def test_link_world_same_flags_match_the_forest_at_query_time():
    """The generator's union-find agrees with a replay of its own links."""
    world = link_world(random.Random(9), 400, 8, 800)
    parent = [-1] * world.n
    for links, pairs, flags in zip(world.ops, world.queries, world.same):
        for x, y in links:
            assert parent[y] < 0
            parent[y] = x
        for (x, y), same in zip(pairs, flags):
            assert (_brute(parent, x, y) is not None) == same
        assert sum(flags) >= len(flags) // 2
    assert parent == world.parent
