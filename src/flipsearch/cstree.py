"""The connected-subgraph tree.

Every connected subset of variables corresponds to exactly one path from a
node to the root, the labels along the path (read root-to-node) forming the
canonical sequence of the subset: the lexicographically smallest ordering in
which each variable is adjacent to a predecessor. The tree is built a whole
level at a time, each level in length-lexicographic order of its sequences.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable

import numpy as np

from .model import FactorGraph

__all__ = [
    "CSTree",
    "enumerate_connected_subsets",
]

# A growth step takes parent rows with about this many (row, neighbour)
# candidate pairs, so transient arrays stay small.
GROWTH_CANDIDATES = 4096


class CSTree:
    """Tree of canonical sequences, built one whole level at a time.

    Level n holds, for each of its nodes in length-lexicographic order, the
    row of its parent on level n-1 and its label, the variable it appends to
    its parent's sequence: two 1-D int32 arrays, 8 bytes per node. Node ids
    run consecutively level by level with the root as 0, so level order is
    id order. A node's canonical sequence is rebuilt by n gathers up the
    parent chain, for a whole block of rows at once. `first_subset_of_size`
    grows level n's arrays in place from the complete level n-1, a few
    thousand (row, neighbour) candidates at a time over the graph's
    adjacency arrays, and asks `expired` before each step: a build it stops
    raises TimeoutError and leaves the tree as it was.
    """

    def __init__(self, graph: FactorGraph, expired: Callable[[], bool] = lambda: False):
        self.graph = graph
        self.expired = expired
        # per level, the root being level 0: id of its first node, and the
        # parent rows and the labels of its nodes
        self._first = [0]
        self._links = [(np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32))]
        # non-root nodes built: ids 1..node_count make up the tree
        self.node_count = 0

    @property
    def level_count(self) -> int:
        """Number of non-empty levels built so far."""
        return len(self._first) - 1

    def links(self, n: int) -> tuple[int, np.ndarray, np.ndarray]:
        """The id of level n's first node, and the parent rows on level n-1
        and the labels of its nodes."""
        if not 1 <= n <= self.level_count:
            raise ValueError(f"level {n} has not been built")
        return self._first[n], *self._links[n]

    def level(self, n: int) -> tuple[int, np.ndarray]:
        """The id of level n's first node and the rows of its nodes."""
        first, _, _ = self.links(n)
        return first, self.rows(n, slice(None))

    def rows(self, n: int, rows) -> np.ndarray:
        """The canonical sequences of level n's rows `rows`, an index array
        or a slice, as a `(len(rows), n)` int32 array: labels read up the
        parent chain."""
        _, parent, label = self.links(n)
        parent, label = parent[rows], label[rows]
        out = np.empty((len(label), n), dtype=np.int32)
        out[:, n - 1] = label
        for k in range(n - 1, 0, -1):
            out[:, k - 1] = self._links[k][1].take(parent)
            if k > 1:
                parent = self._links[k][0].take(parent)
        return out

    def _level_of(self, p: int) -> int:
        if not 0 < p <= self.node_count:
            raise ValueError("root represents no subset" if p == 0 else f"no node {p}")
        return bisect_right(self._first, p) - 1

    def sequence_of(self, p: int) -> tuple[int, ...]:
        """The canonical sequence of node p: its labels read from the root."""
        n = self._level_of(p)
        return tuple(self.rows(n, [p - self._first[n]])[0].tolist())

    def _children(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The canonical one-variable extensions of the sequences `rows`,
        sorted by (row, appended variable): the index in `rows` of each
        one's parent, and the variable it appends."""
        k, n = rows.shape
        adjacent, adjacent_start = self.graph.adjacent, self.graph.adjacent_start
        start = adjacent_start[rows.ravel()]
        degree = adjacent_start[rows.ravel() + 1] - start
        # candidate i appends v[i], a neighbour of the variable in the flat
        # cell cell[i] = row * n + position; candidates come in cell order
        cell = np.repeat(np.arange(k * n), degree)
        offset = np.repeat(start - np.cumsum(degree) + degree, degree)
        v = adjacent[offset + np.arange(len(cell))]
        larger = v > rows[cell // n, 0]
        cell, v = cell[larger], v[larger]
        # keep each (row, v) once, from its first position adjacent to v: a
        # stable sort of the keys, then the first of each run (np.unique
        # would do the same, but its first call imports numpy.ma mid-solve)
        m = self.graph.variable_count
        key = cell // n * m + v
        order = np.argsort(key, kind="stable")
        key = key[order]
        fresh = np.diff(key, prepend=-1) != 0
        pair, first = key[fresh], order[fresh]
        row, v = np.divmod(pair, m)
        seq = rows[row]
        # v must not be in the row and must exceed every element after that
        # first position
        after = np.arange(n) > (cell[first] % n)[:, None]
        keep = ~((seq == v[:, None]) | ((seq > v[:, None]) & after)).any(axis=1)
        return row[keep], v[keep]

    def _build(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The parent rows and labels of level n, grown in place from the
        complete level n-1 in steps of about GROWTH_CANDIDATES candidates."""
        if n == 1:
            # the root's children are all the variables
            m = self.graph.variable_count
            return np.zeros(m, dtype=np.int32), np.arange(m, dtype=np.int32)
        # the (row, neighbour) candidates of each row of level n-1, the summed
        # degree of its variables, by the parent-chain recurrence
        # work_k = work_{k-1}[parent_k] + degree[label_k]; then their sum up
        # to each row
        degree = np.diff(self.graph.adjacent_start)
        reach = np.zeros(1, dtype=np.int64)
        for parent, label in self._links[1:n]:
            reach = reach[parent]
            reach += degree[label]
        np.cumsum(reach, out=reach)
        # step j ends after the rows whose candidates, with those of all rows
        # before them, number at most j * GROWTH_CANDIDATES, so a step has at
        # most that many plus one row's; the counts are let go before the
        # level grows
        step = GROWTH_CANDIDATES
        ends = np.searchsorted(reach, np.arange(step, reach[-1] + step, step), side="right")
        ends = ends.tolist()
        del reach
        parent, label = np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)
        lo = 0
        for hi in ends:
            if hi == lo:
                continue
            if self.expired():
                raise TimeoutError(f"the time limit passed while level {n} was built")
            row, v = self._children(self.rows(n - 1, slice(lo, hi)))
            built = len(label)
            parent.resize(built + len(v), refcheck=False)
            label.resize(built + len(v), refcheck=False)
            parent[built:] = lo + row
            label[built:] = v
            lo = hi
        return parent, label

    def first_subset_of_size(self, n: int) -> int | None:
        """Build level n and return its first node, or None if it is empty.

        Levels start in order, each once: level n needs level n-1 built.
        """
        if n < 1:
            raise ValueError(f"subset size must be >= 1, got {n}")
        if n <= self.level_count:
            raise ValueError(f"level {n} was already built")
        if n > self.level_count + 1:
            raise ValueError(f"levels start in order: level {n - 1} has not been built")
        parent, label = self._build(n)
        if not len(label):
            return None
        self._first.append(self.node_count + 1)
        self._links.append((parent, label))
        self.node_count += len(label)
        return self._first[n]

    def next_subset_of_same_size(self, p: int) -> int | None:
        """The length-lexicographic successor of node `p` on its level, or
        None at the level's end."""
        n = self._level_of(p)
        q = p + 1
        return q if q < self._first[n] + len(self._links[n][1]) else None


def enumerate_connected_subsets(graph: FactorGraph, max_size: int | None = None):
    """Fully enumerate connected subsets via a CS-tree, ordered by size.

    Yields (size, frozenset) pairs, a level at a time; stops after max_size,
    or when some level turns out empty.
    """
    tree = CSTree(graph)
    n = 1
    while (max_size is None or n <= max_size) and tree.first_subset_of_size(n):
        for row in tree.level(n)[1].tolist():
            yield n, frozenset(row)
        n += 1
