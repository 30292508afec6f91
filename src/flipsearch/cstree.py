"""The connected-subgraph tree.

Every connected subset of variables corresponds to exactly one path from a
node to the root, the labels along the path (read root-to-node) forming the
canonical sequence of the subset: the lexicographically smallest ordering in
which each variable is adjacent to a predecessor. Nodes are created lazily,
level by level, in length-lexicographic order of their sequences.
"""

from __future__ import annotations

from .model import FactorGraph

__all__ = [
    "CSTree",
    "csr_extendable",
    "enumerate_connected_subsets",
]

NONE = -1


def csr_extendable(graph: FactorGraph, path, v: int) -> bool:
    """May `v` be appended to the canonical sequence `path`?

    Yes iff (i) v is not in path, (ii) v is adjacent to some path element,
    (iii) v exceeds the first element, and (iv) if i >= 1 is the first
    position with v adjacent to path[i-1], every element from path[i] on is
    smaller than v.
    """
    if v <= path[0] or v in path:
        return False
    adjacency = graph.adjacency
    if not any(v in adjacency[p] for p in path):
        return False
    for i in range(1, len(path)):
        if v in adjacency[path[i - 1]]:
            return all(p < v for p in path[i:])
    return True


class CSTree:
    """Growable tree of canonical sequences, stored in flat parallel arrays.

    Per node: label, parent index and level-order successor index, plus the
    label of the last-born child (children are created in strictly increasing
    label order, so this high-water mark is all growSubset needs to skip
    existing children).
    """

    def __init__(self, graph: FactorGraph):
        self.graph = graph
        self.labels = [NONE]  # root carries no variable
        self.parents = [NONE]
        self.next_same_level = [NONE]
        self.last_child_label = [NONE]
        self.levels = [0]
        self.level_heads = [0]  # level 0 is the root alone
        self.level_tails = [0]
        # highest level known to be fully built (root level always is)
        self.complete_level = 0

    @property
    def node_count(self) -> int:
        """Number of non-root nodes, i.e. connected subsets enumerated so far."""
        return len(self.labels) - 1

    def sequence_of(self, p: int) -> tuple[int, ...]:
        """Labels on the path root->p: the node's canonical sequence."""
        if p == 0:
            raise ValueError("root represents no subset")
        rev = []
        while p != 0:
            rev.append(self.labels[p])
            p = self.parents[p]
        return tuple(reversed(rev))

    def subset_of(self, p: int) -> frozenset[int]:
        return frozenset(self.sequence_of(p))

    def _append(self, parent: int, label: int) -> int:
        q = len(self.labels)
        level = self.levels[parent] + 1
        self.labels.append(label)
        self.parents.append(parent)
        self.next_same_level.append(NONE)
        self.last_child_label.append(NONE)
        self.levels.append(level)
        self.last_child_label[parent] = label
        if level == len(self.level_heads):
            self.level_heads.append(q)
            self.level_tails.append(q)
        else:
            self.next_same_level[self.level_tails[level]] = q
            self.level_tails[level] = q
        return q

    def grow_subset(self, p: int) -> int | None:
        """Append to `p` the smallest-label child not yet present.

        The child label is the smallest variable extending p's sequence to a
        valid canonical sequence; returns the new node, or None if no such
        variable exists.
        """
        g = self.graph
        floor = self.last_child_label[p]
        if p == 0:
            # children of the root are the singletons, in index order
            label = floor + 1
            if label >= g.variable_count:
                return None
            return self._append(p, label)
        path = self.sequence_of(p)
        candidates = set()
        for u in path:
            candidates.update(g.adjacency[u])
        for v in sorted(candidates):
            if v <= floor:
                continue
            if csr_extendable(g, path, v):
                return self._append(p, v)
        return None

    def first_subset_of_size(self, n: int) -> int | None:
        """Create and return the first level-n node, or None if level n is empty.

        Requires all smaller levels to be fully built.
        """
        if n < 1:
            raise ValueError(f"subset size must be >= 1, got {n}")
        if self.complete_level < n - 1:
            raise ValueError(
                f"level {n - 1} is not complete; cannot start level {n}"
            )
        if n < len(self.level_heads):
            raise ValueError(f"level {n} was already started")
        if n - 1 >= len(self.level_heads):
            # previous level is empty, so this one is too
            self.complete_level = max(self.complete_level, n)
            return None
        p = self.level_heads[n - 1]
        while p != NONE:
            q = self.grow_subset(p)
            if q is not None:
                return q
            p = self.next_same_level[p]
        self.complete_level = max(self.complete_level, n)
        return None

    def next_subset_of_same_size(self, p: int) -> int | None:
        """The length-lexicographic successor of node `p` on its level.

        `p` must be the most recently created node of its level. Grows the
        tree via grow_subset, resuming at p's parent; returns None (and marks
        the level complete) when the level is exhausted.
        """
        parent = self.parents[p]
        while parent != NONE:
            q = self.grow_subset(parent)
            if q is not None:
                return q
            parent = self.next_same_level[parent]
        self.complete_level = max(self.complete_level, self.levels[p])
        return None

    def next_in_level_order(self, p: int) -> int | None:
        """Successor of `p` in level order over already-built nodes only."""
        q = self.next_same_level[p]
        if q != NONE:
            return q
        nxt = self.levels[p] + 1
        if nxt < len(self.level_heads):
            return self.level_heads[nxt]
        return None

    def dump(self) -> str:
        """One line per node: "node_id parent_id label level"."""
        lines = []
        for i in range(len(self.labels)):
            lines.append(
                f"{i} {self.parents[i]} {self.labels[i]} {self.levels[i]}"
            )
        return "\n".join(lines) + "\n"


def enumerate_connected_subsets(graph: FactorGraph, max_size: int | None = None):
    """Fully enumerate connected subsets via a CS-tree, ordered by size.

    Yields (size, frozenset) pairs; stops after max_size, or when some level
    turns out empty.
    """
    tree = CSTree(graph)
    n = 1
    while max_size is None or n <= max_size:
        p = tree.first_subset_of_size(n)
        if p is None:
            return
        while p is not None:
            yield n, tree.subset_of(p)
            p = tree.next_subset_of_same_size(p)
        n += 1
