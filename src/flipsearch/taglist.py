"""Tag lists: marking variables affected by recent flips."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .cstree import CSTree
from .model import FactorGraph

__all__ = ["TagList"]


class TagList:
    """A flag per variable plus an explicit list of tagged indices, so
    clearing costs O(#tagged) rather than O(m).

    The traversal methods drive the revisiting sweeps over the created part
    of the CS-tree and never grow it: a sweep visits, in level order, every
    node whose subset holds a tagged variable. The nodes are selected one
    level at a time as `flags[rows].any(axis=1)`, and the selection is kept
    until a tag changes or the tree grows.
    """

    def __init__(self, variable_count: int):
        self.flags = np.zeros(variable_count, dtype=bool)
        self.tagged: list[int] = []
        self.flag_writes = 0  # diagnostic, counts individual flag mutations
        # the selected node ids, and the (tree, node count) they were made for
        self._selection: list[int] = []
        self._selected_in = None

    def tag(self, x: int) -> None:
        if not 0 <= x < self.flags.shape[0]:
            raise IndexError(f"variable {x} out of range")
        if not self.flags[x]:
            self.flags[x] = True
            self.flag_writes += 1
            self.tagged.append(x)
            self._selected_in = None

    def untag_all(self) -> None:
        for x in self.tagged:
            self.flags[x] = False
            self.flag_writes += 1
        self.tagged.clear()
        self._selected_in = None

    def tag_connected_variables(self, tree: CSTree, graph: FactorGraph, s: int) -> None:
        """Tag the variables of node s's subset and all their graph neighbors."""
        for v in tree.sequence_of(s):
            self.tag(v)
            for u in graph.adjacency[v]:
                self.tag(u)

    def _selected(self, tree: CSTree) -> list[int]:
        """Ids of the created nodes whose subset holds a tagged variable."""
        if self._selected_in != (tree, tree.node_count):
            self._selected_in = (tree, tree.node_count)
            self._selection = []
            for n in range(1, tree.level_count + 1) if self.tagged else ():
                first, rows = tree.level(n)
                hit = np.flatnonzero(self.flags[rows].any(axis=1))
                self._selection += (first + hit).tolist()
        return self._selection

    def selected_from(self, tree: CSTree, s: int, count: int) -> np.ndarray:
        """Ids of the first `count` selected nodes from s on, in level order."""
        selection = self._selected(tree)
        i = bisect_left(selection, s)
        return np.array(selection[i : i + count])

    def first_tagged_subset(self, tree: CSTree) -> int | None:
        """First created node, in level order, whose subset holds a tagged variable."""
        selection = self._selected(tree)
        return selection[0] if selection else None

    def next_tagged_subset(self, tree: CSTree, s: int) -> int | None:
        """Next created node after s, in level order and across levels, whose
        subset holds a tagged variable."""
        selection = self._selected(tree)
        i = bisect_right(selection, s)
        return selection[i] if i < len(selection) else None
