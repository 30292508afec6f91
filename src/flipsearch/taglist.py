"""Tag lists: marking variables affected by recent flips."""

from __future__ import annotations

import numpy as np

from .cstree import CSTree

__all__ = ["TagList"]


class TagList:
    """A flag per variable: set for the variables near recent flips.

    `selection` drives the revisiting rounds over the levels the CS-tree
    has built and never grows it: a round visits, level by level, every
    node whose subset holds a tagged variable. Each level's rows are
    selected from the CS-tree's parent rows and labels by the recurrence
    `mask_n = mask_{n-1}[parent_n] | flags[label_n]` (`mask_0` is False,
    for the root), when the walk reaches the level.
    """

    def __init__(self, variable_count: int):
        self.flags = np.zeros(variable_count, dtype=bool)

    def untag_all(self) -> None:
        self.flags.fill(False)

    def tag_connected_variables(self, variables) -> None:
        """Tag `variables`, distinct variable ids: in a solve, once per
        block with flips, the flipped sets and their graph neighbours, which
        the scratch's `stale` set holds at the block's end."""
        if variables and not (0 <= min(variables) and max(variables) < len(self.flags)):
            raise IndexError(f"variables {sorted(variables)} out of range")
        self.flags[list(variables)] = True

    def selection(self, tree: CSTree):
        """(n, rows) per level n the tree has built: the ascending rows of
        level n whose subset holds a variable tagged at this call."""
        return _selected(tree, self.flags.copy())

    def first_tagged_subset(self, tree: CSTree) -> int | None:
        """First node, in level order, whose subset holds a tagged variable:
        level 1 holds every variable in id order, so the smallest tagged
        variable's."""
        if not tree.level_count:
            return None
        v = int(self.flags.argmax())
        return 1 + v if self.flags[v] else None

    def next_tagged_subset(self, tree: CSTree, s: int) -> int | None:
        """Next node after s, in level order and across levels, whose
        subset holds a tagged variable."""
        for n, rows in self.selection(tree):
            first, _, _ = tree.links(n)
            i = int(np.searchsorted(rows, s - first, side="right"))
            if i < len(rows):
                return first + int(rows[i])
        return None


def _selected(tree: CSTree, flags: np.ndarray):
    # a node's subset holds a flagged variable iff its parent's does or its
    # label is flagged; the root's holds none. Plain indexing by the int32
    # links makes no intp copy of them, as `take` would.
    mask = np.zeros(1, dtype=bool)
    for n in range(1, tree.level_count + 1):
        _, parent, label = tree.links(n)
        mask = mask[parent]
        mask |= flags[label]
        yield n, np.flatnonzero(mask)
