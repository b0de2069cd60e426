"""Answer checker for characteristic-ancestor queries, independent of dynca.

It reads ancestry off depth-first intervals of the final forest.  Under
add_leaf, add_root and link, ancestry among vertices that already exist
never changes, so the final forest decides every answer given at any
earlier time.  Whether two vertices shared a tree at query time comes
from the generator's own union-find, not from the forest.
"""


class Checker:
    """Checks ca triples against a parent array (-1 at roots)."""

    def __init__(self, parent):
        n = len(parent)
        children = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if p >= 0:
                children[p].append(v)
        tin = [0] * n
        tout = [0] * n
        clock = 0
        for r in range(n):
            if parent[r] >= 0:
                continue
            stack = [(r, False)]
            while stack:
                v, done = stack.pop()
                if done:
                    tout[v] = clock
                    continue
                tin[v] = clock
                clock += 1
                stack.append((v, True))
                stack.extend((c, False) for c in children[v])
        self.parent = parent
        self.tin = tin
        self.tout = tout

    def is_ancestor(self, a, v):
        """a is v or an ancestor of v."""
        return self.tin[a] <= self.tin[v] < self.tout[a]

    def ok(self, x, y, ans, same):
        """Whether ans is ca(x, y): None exactly when x, y were in different trees.

        A triple (a, ax, ay) is right when a is an ancestor-or-self of both
        ends; ax is x when a is x, and otherwise a child of a on x's side;
        the same for y; and the two sides differ when neither end is a.
        """
        if not same:
            return ans is None
        if not isinstance(ans, tuple) or len(ans) != 3:
            return False
        n = len(self.parent)
        for v in ans:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                return False
        a, ax, ay = ans
        if not (self.is_ancestor(a, x) and self.is_ancestor(a, y)):
            return False
        if not self._side(a, x, ax) or not self._side(a, y, ay):
            return False
        return a == x or a == y or ax != ay

    def _side(self, a, v, av):
        if a == v:
            return av == v
        return self.parent[av] == a and self.is_ancestor(av, v)
