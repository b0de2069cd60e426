"""The meet recursion shared by the leveled engines.

Both MultilevelInc and LinkForest keep one tree per level: level k's
subtrees each contract to a single node on level k-1.  A host exposes,
per level k, the stored parents pi[k], the subtree record of every node
sub[k] (None where the level keeps no subtrees), and down[k], which maps
a node back to the level-(k+1) subtree it contracts.  Its hook
_flat(x, y, k) answers the meet where sub[k] holds None.

A subtree record exposes root (its level node nearest the tree root),
up (the node it contracts to one level down, None while it has none)
and ca(x, y) over its own members, in level ids.
"""

from .forest import CaTriple


class Leveled:
    """Base for hosts with per-level pi, sub and down maps and _flat."""

    def _c(self, x, y, k):
        """Characteristic ancestors of distinct k-nodes x, y in one level-k tree."""
        sub = self.sub[k]
        Px = sub[x]
        if Px is None:
            return self._flat(x, y, k)
        Py = sub[y]
        if Px is Py:
            return Px.ca(x, y)
        # stand-ins for nodes of uncontracted subtrees: the parent of the
        # subtree root, which the host keeps in a contracted one
        pi = self.pi[k]
        rx = ry = None
        if Px.up is None:
            rx = Px.root
            x = pi[rx]
            Px = sub[x]
        if Py.up is None:
            ry = Py.root
            y = pi[ry]
            Py = sub[y]
        x2 = x
        y2 = y
        if Px is Py:
            b, bx, by = Px.ca(x, y)
        else:
            # ask the contracted tree, re-enter the subtree holding the
            # meet, and patch a component back to a subtree root when its
            # side only reached the entry point
            down = self.down[k - 1]
            A, AX, AY = self._c(Px.up, Py.up, k - 1)
            if AX != A:
                x = pi[down[AX].root]
            if AY != A:
                y = pi[down[AY].root]
            b, bx, by = down[A].ca(x, y)
            if bx == b and AX != A:
                bx = down[AX].root
            if by == b and AY != A:
                by = down[AY].root
        # a stand-in that turns out to be the meet reports the subtree
        # root it stood for; when the inner replacement fired instead,
        # the meet lies in another subtree and this comparison is false
        if rx is not None and b == x2:
            bx = rx
        if ry is not None and b == y2:
            by = ry
        return CaTriple(b, bx, by)
