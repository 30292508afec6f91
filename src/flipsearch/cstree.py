"""The connected-subgraph tree.

Every connected subset of variables corresponds to exactly one path from a
node to the root, the labels along the path (read root-to-node) forming the
canonical sequence of the subset: the lexicographically smallest ordering in
which each variable is adjacent to a predecessor. Nodes are created lazily,
level by level, in length-lexicographic order of their sequences.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .model import FactorGraph

__all__ = [
    "CSTree",
    "enumerate_connected_subsets",
]

# Parent rows are taken into one growth step until their (row, neighbour)
# candidate pairs reach this many, so transient arrays stay small.
GROWTH_CANDIDATES = 4096


class CSTree:
    """Growable tree of canonical sequences, stored level by level.

    Level n holds, for each of its nodes in length-lexicographic order, the
    row of its parent on level n-1 and its label, the variable it appends to
    its parent's sequence: a `(2, N_n)` int32 array, 8 bytes per node. Node
    ids run consecutively level by level with the root as 0, so level order
    is id order. A node's canonical sequence is rebuilt by n gathers up the
    parent chain, for a whole block of rows at once. Level n is grown from
    the complete level n-1 a few thousand (row, neighbour) candidates at a
    time, over the graph's adjacency arrays, whenever
    `next_subset_of_same_size` runs past the rows built so far; once level
    n+1 is started, level n is cut to its exact size. A node is created
    when one of those two methods hands it out, or when `create_through`
    reaches it; rows built ahead of that are not yet in the tree.
    """

    def __init__(self, graph: FactorGraph):
        self.graph = graph
        # per level, the root being level 0: id of its first node and the
        # (parent row, label) pairs of its built nodes
        self._first = [0]
        self._links = [np.zeros((2, 1), dtype=np.int32)]
        # the top level's links are a view into this array, whose capacity
        # doubles as the level grows
        self._buffer = self._links[0]
        # rows of level n-1 that the top level n has been grown from, and
        # how many parent rows the next growth step rebuilds first
        self._grown_from = 1
        self._window = 1
        # non-root nodes handed out so far: ids 1..node_count make up the tree
        self.node_count = 0
        # highest level known to be fully built (root level always is)
        self.complete_level = 0

    @property
    def level_count(self) -> int:
        """Number of non-empty levels started so far."""
        return len(self._first) - 1

    def _built(self, n: int) -> int:
        return self._links[n].shape[1]

    def links(self, n: int) -> tuple[int, np.ndarray, np.ndarray]:
        """The id of level n's first node, and the parent rows on level n-1
        and the labels of its created nodes."""
        if not 1 <= n <= self.level_count:
            raise ValueError(f"level {n} has not been started")
        first = self._first[n]
        parent, label = self._links[n][:, : self.node_count - first + 1]
        return first, parent, label

    def level(self, n: int) -> tuple[int, np.ndarray]:
        """The id of level n's first node and the rows of its created nodes."""
        first, _, label = self.links(n)
        return first, self._sequences(n, np.arange(len(label)))

    def _sequences(self, n: int, rows: np.ndarray) -> np.ndarray:
        """The canonical sequences of the level-n rows `rows`, as a
        `(len(rows), n)` int32 array: labels read up the parent chain."""
        out = np.empty((len(rows), n), dtype=np.int32)
        for k in range(n, 0, -1):
            parent, label = self._links[k]
            out[:, k - 1] = label.take(rows)
            if k > 1:
                rows = parent.take(rows)
        return out

    def _level_of(self, p: int) -> int:
        if not 0 < p <= self.node_count:
            raise ValueError("root represents no subset" if p == 0 else f"no node {p}")
        return bisect_right(self._first, p) - 1

    def sequence_of(self, p: int) -> tuple[int, ...]:
        """The canonical sequence of node p: its labels read from the root."""
        n = self._level_of(p)
        return tuple(self._sequences(n, [p - self._first[n]])[0].tolist())

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """The canonical sequences of the ascending node ids `ids`, up to the
        first id past the rows built on the level of ids[0]. Rows built ahead
        of the nodes handed out are included; reading them creates no node."""
        n = self._level_of(int(ids[0]))
        first = self._first[n]
        return self._sequences(n, ids[ids < first + self._built(n)] - first)

    def subset_of(self, p: int) -> frozenset[int]:
        return frozenset(self.sequence_of(p))

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

    def _grow(self, n: int) -> bool:
        """Build more rows of the top level n; False once level n-1 is used up."""
        size = self._built(n - 1)
        adjacent_start = self.graph.adjacent_start
        while self._grown_from < size:
            lo = self._grown_from
            # a step takes the parent rows from lo on until their candidate
            # pairs reach GROWTH_CANDIDATES, looking at most that many rows
            # ahead; the rows are rebuilt in a window twice as long as the
            # last step took, doubled until it holds the step
            span = min(GROWTH_CANDIDATES, size - lo)
            window = min(span, self._window)
            while True:
                rows = self._sequences(n - 1, np.arange(lo, lo + window))
                degree = adjacent_start[rows + 1] - adjacent_start[rows]
                work = np.cumsum(degree.sum(axis=1))
                if work[-1] >= GROWTH_CANDIDATES or window == span:
                    break
                window = min(span, 2 * window)
            take = max(1, int(np.searchsorted(work, GROWTH_CANDIDATES)))
            self._window = 2 * take
            self._grown_from += take
            row, label = self._children(rows[:take])
            if len(label):
                self._append(n, lo + row, label)
                return True
        return False

    def _append(self, n: int, parent: np.ndarray, label: np.ndarray) -> None:
        built = self._built(n)
        need = built + len(label)
        if need > self._buffer.shape[1]:
            # the slack is never written, so it takes no memory until rows
            # are appended there
            buffer = np.empty((2, 2 * need), dtype=np.int32)
            buffer[:, :built] = self._links[n]
            self._buffer = buffer
        self._buffer[:, built:need] = parent, label
        self._links[n] = self._buffer[:, :need]

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
        # level n-1 is complete: cut it to its exact size
        self._links[-1] = self._links[-1].copy()
        self._first.append(self._first[-1] + self._built(n - 1))
        self._buffer = np.zeros((2, 0), dtype=np.int32)
        self._links.append(self._buffer)
        self._grown_from = 0
        if n == 1:
            # the root's children are all the variables
            m = self.graph.variable_count
            self._append(1, np.zeros(m, dtype=np.int32), np.arange(m))
            self._grown_from = 1
        if not self._built(n) and not self._grow(n):
            del self._first[n], self._links[n]
            self.complete_level = max(self.complete_level, n)
            return None
        self.node_count = self._first[n]
        return self.node_count

    def create_through(self, p: int) -> None:
        """Create every built node with an id up to p, for a caller that
        reads the built rows as a block and examines node p of them."""
        if p > self.node_count:
            if p >= self._first[-1] + self._built(-1):
                raise ValueError(f"no node {p} has been built")
            self.node_count = p

    def next_subset_of_same_size(self, p: int) -> int | None:
        """The length-lexicographic successor of node `p` on its level.

        Grows the level when p is its last row built so far; returns None
        (and marks the level complete) when the level is exhausted.
        """
        n = self._level_of(p)
        q = p + 1
        if q - self._first[n] == self._built(n) and (
            n < self.level_count or not self._grow(n)
        ):
            self.complete_level = max(self.complete_level, n)
            return None
        if q > self.node_count:
            self.node_count = q
        return q


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
