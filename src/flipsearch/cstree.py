"""The connected-subgraph tree.

Every connected subset of variables corresponds to exactly one path from a
node to the root, the labels along the path (read root-to-node) forming the
canonical sequence of the subset: the lexicographically smallest ordering in
which each variable is adjacent to a predecessor. The tree is built a whole
level at a time, each level in length-lexicographic order of its sequences.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

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
    """Tree of canonical sequences, built one whole level at a time.

    Level n holds, for each of its nodes in length-lexicographic order, the
    row of its parent on level n-1 and its label, the variable it appends to
    its parent's sequence: a `(2, N_n)` int32 array, 8 bytes per node. Node
    ids run consecutively level by level with the root as 0, so level order
    is id order. A node's canonical sequence is rebuilt by n gathers up the
    parent chain, for a whole block of rows at once. `first_subset_of_size`
    builds level n from the complete level n-1 a few thousand (row,
    neighbour) candidates at a time, over the graph's adjacency arrays, and
    cuts it to its exact size before it returns.
    """

    def __init__(self, graph: FactorGraph):
        self.graph = graph
        # per level, the root being level 0: id of its first node and the
        # (parent row, label) pairs of its nodes
        self._first = [0]
        self._links = [np.zeros((2, 1), dtype=np.int32)]
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
        parent, label = self._links[n]
        return self._first[n], parent, label

    def level(self, n: int) -> tuple[int, np.ndarray]:
        """The id of level n's first node and the rows of its nodes."""
        first, _, _ = self.links(n)
        return first, self._sequences(n, slice(None))

    def _sequences(self, n: int, rows) -> np.ndarray:
        """The canonical sequences of the level-n rows `rows`, an index array
        or a slice, as a `(len(rows), n)` int32 array: labels read up the
        parent chain."""
        parent, label = self._links[n]
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
        return tuple(self._sequences(n, [p - self._first[n]])[0].tolist())

    def rows_of(self, ids) -> np.ndarray:
        """The canonical sequences of the ascending node ids `ids`, a range or
        an array, up to the first id past the level of ids[0]."""
        n = self._level_of(int(ids[0]))
        first = self._first[n]
        end = first + self._links[n].shape[1]
        if ids[-1] >= end:
            ids = ids[: bisect_left(ids, end)]
        if isinstance(ids, range):
            return self._sequences(n, slice(ids.start - first, ids.stop - first))
        return self._sequences(n, ids - first)

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

    def _build(self, n: int) -> np.ndarray:
        """The links of level n, grown from the complete level n-1 in steps
        and cut to their exact size."""
        if n == 1:
            # the root's children are all the variables
            m = self.graph.variable_count
            return np.stack((np.zeros(m, dtype=np.int32), np.arange(m, dtype=np.int32)))
        size = self._links[n - 1].shape[1]
        adjacent_start = self.graph.adjacent_start
        # the children go into a buffer whose capacity doubles; its slack is
        # never written, so it takes no memory
        buffer, built = np.empty((2, 0), dtype=np.int32), 0
        lo, window = 0, 1
        while lo < size:
            # a step takes the parent rows from lo on until their candidate
            # pairs reach GROWTH_CANDIDATES, looking at most that many rows
            # ahead; the rows are rebuilt in a window twice as long as the
            # last step took, doubled until it holds the step
            span = min(GROWTH_CANDIDATES, size - lo)
            window = min(span, window)
            while True:
                rows = self._sequences(n - 1, slice(lo, lo + window))
                degree = adjacent_start[rows + 1] - adjacent_start[rows]
                work = np.cumsum(degree.sum(axis=1))
                if work[-1] >= GROWTH_CANDIDATES or window == span:
                    break
                window = min(span, 2 * window)
            take = max(1, int(np.searchsorted(work, GROWTH_CANDIDATES)))
            row, label = self._children(rows[:take])
            need = built + len(label)
            if need > buffer.shape[1]:
                grown = np.empty((2, 2 * need), dtype=np.int32)
                grown[:, :built] = buffer[:, :built]
                buffer = grown
            buffer[:, built:need] = lo + row, label
            built = need
            lo += take
            window = 2 * take
        return buffer[:, :built].copy()

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
        links = self._build(n)
        if not links.shape[1]:
            return None
        self._first.append(self.node_count + 1)
        self._links.append(links)
        self.node_count += links.shape[1]
        return self._first[n]

    def next_subset_of_same_size(self, p: int) -> int | None:
        """The length-lexicographic successor of node `p` on its level, or
        None at the level's end."""
        n = self._level_of(p)
        q = p + 1
        return q if q < self._first[n] + self._links[n].shape[1] else None


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
