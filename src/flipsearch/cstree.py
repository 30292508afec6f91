"""The connected-subgraph tree.

Every connected subset of variables corresponds to exactly one path from a
node to the root, the labels along the path (read root-to-node) forming the
canonical sequence of the subset: the lexicographically smallest ordering in
which each variable is adjacent to a predecessor. Nodes are created lazily,
level by level, in length-lexicographic order of their sequences.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain

import numpy as np

from .model import FactorGraph

__all__ = [
    "CSTree",
    "csr_extendable",
    "enumerate_connected_subsets",
]

# Parent rows are taken into one growth step until their (row, neighbour)
# candidate pairs reach this many, so transient arrays stay small.
GROWTH_CANDIDATES = 4096


def csr_extendable(graph: FactorGraph, path, v: int) -> bool:
    """May `v` be appended to the canonical sequence `path`?

    Yes iff (i) v is not in path, (ii) v is adjacent to some path element,
    (iii) v exceeds the first element, and (iv) if i >= 1 is the first
    position with v adjacent to path[i-1], every element from path[i] on is
    smaller than v. `CSTree` applies this rule to whole levels at once.
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
    """Growable tree of canonical sequences, stored level by level.

    Level n is an `(N_n, n)` int32 array of its nodes' canonical sequences
    in length-lexicographic order, plus an int32 array with each node's
    parent row in level n-1. Node ids run consecutively level by level with
    the root as 0, so level order is id order and `sequence_of` is a row
    lookup. Level n is grown from the complete level n-1 a few thousand
    (row, neighbour) candidates at a time, whenever `next_subset_of_same_size`
    runs past the rows built so far. A node is created when one of those two
    methods hands it out; rows built ahead of that are not yet in the tree.
    """

    def __init__(self, graph: FactorGraph):
        self.graph = graph
        # per level, the root being level 0: id of its first node, its rows
        # and their parent rows
        self._first = [0]
        self._rows = [np.zeros((1, 0), dtype=np.int32)]
        self._parent = [np.full(1, -1, dtype=np.int32)]
        # the top level's rows and parent rows are views into this array,
        # whose capacity doubles as the level grows
        self._buffer = np.zeros((1, 1), dtype=np.int32)
        # rows of level n-1 that the top level n has been grown from
        self._grown_from = 1
        # non-root nodes handed out so far: ids 1..node_count make up the tree
        self.node_count = 0
        # neighbour lists as CSR arrays, built when level 2 is first grown
        self._offsets = self._neighbors = None
        # highest level known to be fully built (root level always is)
        self.complete_level = 0

    @property
    def level_count(self) -> int:
        """Number of non-empty levels started so far."""
        return len(self._first) - 1

    def level(self, n: int) -> tuple[int, np.ndarray]:
        """The id of level n's first node and the rows of its created nodes."""
        if not 1 <= n <= self.level_count:
            raise ValueError(f"level {n} has not been started")
        first = self._first[n]
        return first, self._rows[n][: self.node_count - first + 1]

    def _level_of(self, p: int) -> int:
        if not 0 < p <= self.node_count:
            raise ValueError("root represents no subset" if p == 0 else f"no node {p}")
        return bisect_right(self._first, p) - 1

    def sequence_of(self, p: int) -> tuple[int, ...]:
        """The canonical sequence of node p: its labels read from the root."""
        n = self._level_of(p)
        return tuple(self._rows[n][p - self._first[n]].tolist())

    def subset_of(self, p: int) -> frozenset[int]:
        return frozenset(self.sequence_of(p))

    def _children(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The canonical one-variable extensions of the sequences `rows`,
        sorted by (row, appended variable), and the row each one extends."""
        k, n = rows.shape
        start = self._offsets[rows.ravel()]
        degree = self._offsets[rows.ravel() + 1] - start
        # candidate i appends v[i], a neighbour of the variable in the flat
        # cell cell[i] = row * n + position; candidates come in cell order
        cell = np.repeat(np.arange(k * n), degree)
        offset = np.repeat(start - np.cumsum(degree) + degree, degree)
        v = self._neighbors[offset + np.arange(len(cell))]
        larger = v > rows[cell // n, 0]
        cell, v = cell[larger], v[larger]
        # unique keeps each (row, v) from its first position adjacent to v
        m = self.graph.variable_count
        pair, first = np.unique(cell // n * m + v, return_index=True)
        row, v = np.divmod(pair, m)
        seq = rows[row]
        # v must not be in the row and must exceed every element after that
        # first position
        after = np.arange(n) > (cell[first] % n)[:, None]
        keep = ~((seq == v[:, None]) | ((seq > v[:, None]) & after)).any(axis=1)
        return np.column_stack((seq[keep], v[keep])), row[keep]

    def _grow(self, n: int) -> bool:
        """Build more rows of the top level n; False once level n-1 is used up."""
        parents = self._rows[n - 1]
        while self._grown_from < len(parents):
            if self._offsets is None:
                adjacency = self.graph.adjacency
                self._offsets = np.cumsum([0, *map(len, adjacency)])
                self._neighbors = np.fromiter(
                    chain.from_iterable(adjacency), np.int32, self._offsets[-1]
                )
            lo = self._grown_from
            window = parents[lo : lo + GROWTH_CANDIDATES]
            degree = self._offsets[window + 1] - self._offsets[window]
            work = np.cumsum(degree.sum(axis=1))
            self._grown_from += max(1, int(np.searchsorted(work, GROWTH_CANDIDATES)))
            rows, parent = self._children(parents[lo : self._grown_from])
            if len(rows):
                self._append(n, rows, parent + lo)
                return True
        return False

    def _append(self, n: int, rows: np.ndarray, parent) -> None:
        built = len(self._rows[n])
        need = built + len(rows)
        if need > len(self._buffer):
            # np.resize keeps the rows built so far in place
            self._buffer = np.resize(self._buffer, (2 * need, n + 1))
        self._buffer[built:need, :n] = rows
        self._buffer[built:need, n] = parent
        self._rows[n] = self._buffer[:need, :n]
        self._parent[n] = self._buffer[:need, n]

    def first_subset_of_size(self, n: int) -> int | None:
        """Create and return the first level-n node, or None if level n is empty.

        Requires all smaller levels to be fully built.
        """
        if n < 1:
            raise ValueError(f"subset size must be >= 1, got {n}")
        if self.complete_level < n - 1:
            raise ValueError(f"level {n - 1} is not complete; cannot start level {n}")
        if n <= self.level_count:
            raise ValueError(f"level {n} was already started")
        if n - 1 > self.level_count:
            # previous level is empty, so this one is too
            self.complete_level = max(self.complete_level, n)
            return None
        self._first.append(self._first[-1] + len(self._rows[-1]))
        self._buffer = np.zeros((0, n + 1), dtype=np.int32)
        self._rows.append(self._buffer[:, :n])
        self._parent.append(self._buffer[:, n])
        self._grown_from = 0
        if n == 1:
            # the root's children are all the variables
            self._append(1, np.arange(self.graph.variable_count)[:, None], 0)
            self._grown_from = 1
        if not len(self._rows[n]) and not self._grow(n):
            del self._first[n], self._rows[n], self._parent[n]
            self.complete_level = max(self.complete_level, n)
            return None
        self.node_count = self._first[n]
        return self.node_count

    def next_subset_of_same_size(self, p: int) -> int | None:
        """The length-lexicographic successor of node `p` on its level.

        Grows the level when p is its last row built so far; returns None
        (and marks the level complete) when the level is exhausted.
        """
        n = self._level_of(p)
        q = p + 1
        if q - self._first[n] == len(self._rows[n]) and (
            n < self.level_count or not self._grow(n)
        ):
            self.complete_level = max(self.complete_level, n)
            return None
        if q > self.node_count:
            self.node_count = q
        return q

    def dump(self) -> str:
        """One line per node: "node_id parent_id label level"."""
        lines = ["0 -1 -1 0"]
        for n in range(1, self.level_count + 1):
            first, rows = self.level(n)
            parents = (self._parent[n][: len(rows)] + self._first[n - 1]).tolist()
            for i, (parent, label) in enumerate(zip(parents, rows[:, -1].tolist())):
                lines.append(f"{first + i} {parent} {label} {n}")
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
