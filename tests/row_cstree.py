"""The row-storage CS-tree, kept as an independent reference.

Each level is an `(N_n, n)` int32 array of its nodes' canonical sequences,
grown in a doubling buffer. This is the layout the package's parent-row
and label tree replaced; the tests drive both through the same calls and
require the same rows, node counts and revisit selections.
"""

from bisect import bisect_right

import numpy as np

from flipsearch.model import FactorGraph

# Parent rows are taken into one growth step until their (row, neighbour)
# candidate pairs reach this many, so transient arrays stay small.
GROWTH_CANDIDATES = 4096


class CSTree:
    """Growable tree of canonical sequences, stored level by level.

    Level n is an `(N_n, n)` int32 array of its nodes' canonical sequences
    in length-lexicographic order. Node ids run consecutively level by level
    with the root as 0, so level order is id order and `sequence_of` is a
    row lookup. Level n is grown from the complete level n-1 a few thousand
    (row, neighbour) candidates at a time, over the graph's adjacency
    arrays, whenever `next_subset_of_same_size` runs past the rows built so
    far. A node is created when one of those two methods hands it out, or
    when `create_through` reaches it; rows built ahead of that are not yet
    in the tree.
    """

    def __init__(self, graph: FactorGraph):
        self.graph = graph
        # per level, the root being level 0: id of its first node and its rows
        self._first = [0]
        self._rows = [np.zeros((1, 0), dtype=np.int32)]
        # the top level's rows are a view into this array, whose capacity
        # doubles as the level grows
        self._buffer = np.zeros((1, 0), dtype=np.int32)
        # rows of level n-1 that the top level n has been grown from
        self._grown_from = 1
        # non-root nodes handed out so far: ids 1..node_count make up the tree
        self.node_count = 0
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

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """The canonical sequences of the ascending node ids `ids`, up to the
        first id past the rows built on the level of ids[0]. Rows built ahead
        of the nodes handed out are included; reading them creates no node."""
        n = self._level_of(int(ids[0]))
        first, rows = self._first[n], self._rows[n]
        return rows[ids[ids < first + len(rows)] - first]

    def _children(self, rows: np.ndarray) -> np.ndarray:
        """The canonical one-variable extensions of the sequences `rows`,
        sorted by (row, appended variable)."""
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
        return np.column_stack((seq[keep], v[keep]))

    def _grow(self, n: int) -> bool:
        """Build more rows of the top level n; False once level n-1 is used up."""
        parents = self._rows[n - 1]
        adjacent_start = self.graph.adjacent_start
        while self._grown_from < len(parents):
            lo = self._grown_from
            window = parents[lo : lo + GROWTH_CANDIDATES]
            degree = adjacent_start[window + 1] - adjacent_start[window]
            work = np.cumsum(degree.sum(axis=1))
            self._grown_from += max(1, int(np.searchsorted(work, GROWTH_CANDIDATES)))
            rows = self._children(parents[lo : self._grown_from])
            if len(rows):
                self._append(n, rows)
                return True
        return False

    def _append(self, n: int, rows: np.ndarray) -> None:
        built = len(self._rows[n])
        need = built + len(rows)
        if need > len(self._buffer):
            # np.resize keeps the rows built so far in place
            self._buffer = np.resize(self._buffer, (2 * need, n))
        self._buffer[built:need] = rows
        self._rows[n] = self._buffer[:need]

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
        self._buffer = np.zeros((0, n), dtype=np.int32)
        self._rows.append(self._buffer)
        self._grown_from = 0
        if n == 1:
            # the root's children are all the variables
            self._append(1, np.arange(self.graph.variable_count)[:, None])
            self._grown_from = 1
        if not len(self._rows[n]) and not self._grow(n):
            del self._first[n], self._rows[n]
            self.complete_level = max(self.complete_level, n)
            return None
        self.node_count = self._first[n]
        return self.node_count

    def create_through(self, p: int) -> None:
        """Create every built node with an id up to p, for a caller that
        reads the built rows as a block and examines node p of them."""
        if p > self.node_count:
            if p >= self._first[-1] + len(self._rows[-1]):
                raise ValueError(f"no node {p} has been built")
            self.node_count = p

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
