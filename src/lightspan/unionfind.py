"""Union-Find, with pointer-based resolution for virtual vertices.

The one union-find of the package.  Kruskal sweeps (the MST, the contracted
tree of each level) use it over plain ids with no virtual vertices; the
hierarchy uses it over the extended vertex set of the subdivided MST.

Only original vertices live in the parent/rank forest.  A virtual vertex x
(created by MST subdivision) resolves through a pointer p(x) to an original
vertex of its cluster whenever the cluster contains one; clusters made of
virtual vertices only are kept as concatenable member lists and resolve to
the list head.
"""

from __future__ import annotations


class UnionFind:
    def __init__(self, n_original: int, extended_count: int):
        if extended_count < n_original:
            raise ValueError("extended_count must cover the originals")
        self.n_original = n_original
        self.extended_count = extended_count
        self.parent = list(range(n_original))
        self.rank = [0] * n_original
        # virtual vertex -> original vertex in the same cluster, or None
        self.pointer: list[int | None] = [None] * (extended_count - n_original)
        # pure-virtual clusters: member -> list head, head -> member list
        self.vhead: dict[int, int] = {}
        self.vlist: dict[int, list[int]] = {}

    def set_pointer(self, x: int, original: int) -> None:
        """Attach virtual x to the cluster of an original vertex."""
        self._check_virtual(x)
        self.pointer[x - self.n_original] = original

    def make_virtual_cluster(self, members: list[int]) -> int:
        """Group virtual vertices into one pure-virtual cluster; returns its head."""
        head = members[0]
        self.vlist[head] = list(members)
        for x in members:
            self._check_virtual(x)
            self.vhead[x] = head
        return head

    def _check_virtual(self, x: int) -> None:
        if not (self.n_original <= x < self.extended_count):
            raise ValueError(f"vertex {x} is not virtual")

    def _root(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def find(self, x: int) -> int:
        """Representative of x's cluster: an original root, or a virtual list head."""
        if x < self.n_original:
            return self._root(x)
        p = self.pointer[x - self.n_original]
        if p is not None:
            return self._root(p)
        # an unregistered virtual is its own singleton cluster
        return self.vhead.get(x, x)

    def union(self, a: int, b: int) -> bool:
        """Merge the clusters of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        for r in (ra, rb):
            if r >= self.n_original and r not in self.vlist:
                self.vhead[r] = r
                self.vlist[r] = [r]
        a_orig = ra < self.n_original
        b_orig = rb < self.n_original
        if a_orig and b_orig:
            if self.rank[ra] < self.rank[rb]:
                ra, rb = rb, ra
            self.parent[rb] = ra
            if self.rank[ra] == self.rank[rb]:
                self.rank[ra] += 1
        elif a_orig != b_orig:
            # a pure-virtual cluster gains an original: point every member at it
            orig_root = ra if a_orig else rb
            head = rb if a_orig else ra
            for x in self.vlist.pop(head):
                self.pointer[x - self.n_original] = orig_root
                del self.vhead[x]
        else:
            # two pure-virtual clusters: weighted list concatenation
            la, lb = self.vlist[ra], self.vlist[rb]
            if len(la) < len(lb):
                ra, rb, la, lb = rb, ra, lb, la
            for x in lb:
                self.vhead[x] = ra
            la.extend(lb)
            del self.vlist[rb]
        return True
