"""Tag lists: marking variables affected by recent flips."""

from __future__ import annotations

import numpy as np

from .cstree import CSTree

__all__ = ["TagList"]


class TagList:
    """A flag per variable plus an explicit list of tagged indices, so
    clearing costs O(#tagged) rather than O(m).

    `selection` drives the revisiting rounds over the levels the CS-tree
    has built and never grows it: a round visits, in level order, every
    node whose subset holds a tagged variable. The nodes are selected one
    level at a time from the CS-tree's parent rows and labels, by the
    recurrence `mask_n = mask_{n-1}[parent_n] | flags[label_n]` (`mask_0`
    is False, for the root), into one ascending int64 array of node ids
    that is kept until a tag changes or the tree grows.
    """

    def __init__(self, variable_count: int):
        self._raw = bytearray(variable_count)
        # the same bytes as a numpy array, for the level masks; Python code
        # reads and writes them through `_raw`, which is faster per item
        self.flags = np.frombuffer(self._raw, dtype=bool)
        self.tagged: list[int] = []
        # the selected node ids and the (tree, node count) they were made for
        self._selection = None
        self._selected_in = None

    def tag(self, x: int) -> None:
        self.tag_connected_variables((x,))

    def untag_all(self) -> None:
        self.flags[self.tagged] = False
        self.tagged.clear()
        self._selected_in = None

    def tag_connected_variables(self, variables) -> None:
        """Tag `variables`, distinct variable ids: in a solve, once per
        block with flips, the flipped sets and their graph neighbours, which
        the scratch's `stale` set holds at the block's end."""
        if variables and not (0 <= min(variables) and max(variables) < len(self._raw)):
            raise IndexError(f"variables {sorted(variables)} out of range")
        raw = self._raw
        new = [v for v in variables if not raw[v]]
        if new:
            for v in new:
                raw[v] = 1
            self.tagged += new
            self._selected_in = None

    def selection(self, tree: CSTree) -> np.ndarray:
        """Ids of the nodes whose subset holds a tagged variable."""
        if self._selected_in != (tree, tree.node_count):
            # the old selection is let go before the new one is made
            self._selection = None
            self._selected_in = (tree, tree.node_count)
            hits = [np.zeros(0, dtype=np.int64)]
            # a node's subset holds a tagged variable iff its parent's does
            # or its label is tagged; the root's holds none
            mask = np.zeros(1, dtype=bool)
            for n in range(1, tree.level_count + 1) if self.tagged else ():
                first, parent, label = tree.links(n)
                mask = mask.take(parent) | self.flags.take(label)
                hits.append(first + np.flatnonzero(mask))
            self._selection = np.concatenate(hits)
        return self._selection

    def first_tagged_subset(self, tree: CSTree) -> int | None:
        """First node, in level order, whose subset holds a tagged variable."""
        selection = self.selection(tree)
        return selection.item(0) if len(selection) else None

    def next_tagged_subset(self, tree: CSTree, s: int) -> int | None:
        """Next node after s, in level order and across levels, whose
        subset holds a tagged variable."""
        selection = self.selection(tree)
        i = int(np.searchsorted(selection, s, side="right"))
        return selection.item(i) if i < len(selection) else None
