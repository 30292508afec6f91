import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsearch import SubgraphGridSpec, TagList, generate_subgraph_grid
from flipsearch.cstree import enumerate_connected_subsets
from flipsearch.model import _FlipScratch

from conftest import build_levels, higher_order_models, node_for, random_graph


def naive_selection(tree, tags, after=0):
    """Nodes after `after` whose subset holds a tagged variable."""
    tagged = set(tags.tagged)
    return [
        p
        for p in range(after + 1, tree.node_count + 1)
        if tagged & set(tree.sequence_of(p))
    ]


def swept(tree, tags):
    got = []
    p = tags.first_tagged_subset(tree)
    while p is not None:
        got.append(p)
        p = tags.next_tagged_subset(tree, p)
    return got


class TestTagUntag:
    def test_tag_is_idempotent(self):
        tags = TagList(6)
        tags.tag_connected_variables((3,))
        tags.tag_connected_variables((3,))
        assert tags.tagged == [3]
        assert tags.flags.tolist() == [False, False, False, True, False, False]

    def test_untag_all_touches_only_tagged(self):
        tags = TagList(100)
        tags.tag_connected_variables((1,))
        tags.tag_connected_variables((5,))
        tags.flags[7] = True  # set behind the list's back: not cleared
        tags.untag_all()
        assert np.flatnonzero(tags.flags).tolist() == [7]
        assert tags.tagged == []

    def test_untag_all_on_empty_is_free(self):
        tags = TagList(10)
        tags.flags[3] = True
        tags.untag_all()
        assert np.flatnonzero(tags.flags).tolist() == [3]
        assert tags.tagged == []

    def test_retag_after_clear(self):
        tags = TagList(4)
        tags.tag_connected_variables((2,))
        tags.untag_all()
        tags.tag_connected_variables((0,))
        assert tags.tagged == [0]

    def test_range_check(self):
        tags = TagList(3)
        with pytest.raises(IndexError):
            tags.tag_connected_variables((3,))
        with pytest.raises(IndexError):
            tags.tag_connected_variables((-1,))


def flipped(graph, subset):
    """The flipped set and its neighbours, as a fresh scratch holds them in
    `stale` after the flip."""
    scratch = _FlipScratch(graph)
    scratch.flipped(subset)
    return scratch.stale


class TestTagConnectedVariables:
    def test_singleton(self, grid):
        tags = TagList(6)
        tags.tag_connected_variables(flipped(grid, (0,)))
        assert sorted(tags.tagged) == [0, 1, 3]

    def test_pair(self, grid):
        tags = TagList(6)
        tags.tag_connected_variables(flipped(grid, (0, 1)))
        assert sorted(tags.tagged) == [0, 1, 2, 3, 4]

    def test_isolated_variable(self):
        from flipsearch import Factor, build_factor_graph

        g = build_factor_graph(2, [Factor((0,), (0.1, 0.9))])
        tags = TagList(2)
        tags.tag_connected_variables(flipped(g, (1,)))
        assert tags.tagged == [1]

    def test_out_of_range_rejected(self, grid):
        tags = TagList(6)
        for bad in ({6}, {-1, 0}):
            with pytest.raises(IndexError):
                tags.tag_connected_variables(bad)
        assert tags.tagged == []


class TestTaggedTraversal:
    def test_first_tagged_subset(self, grid):
        tree = build_levels(grid, 1)
        tags = TagList(6)
        tags.tag_connected_variables((3,))
        p = tags.first_tagged_subset(tree)
        assert tree.sequence_of(p) == (3,)

    def test_first_tagged_none_when_empty(self, grid):
        tree = build_levels(grid, 1)
        assert TagList(6).first_tagged_subset(tree) is None

    def test_first_tagged_all_tagged(self, grid):
        tree = build_levels(grid, 1)
        tags = TagList(6)
        for v in range(6):
            tags.tag_connected_variables((v,))
        assert tree.sequence_of(tags.first_tagged_subset(tree)) == (0,)

    def test_next_tagged_crosses_levels(self, grid):
        tree = build_levels(grid, 2)
        tags = TagList(6)
        tags.tag_connected_variables((4,))
        s = node_for(tree, (4,))
        t = tags.next_tagged_subset(tree, s)
        # first size-2 node (level order) whose sequence contains 4
        assert tree.sequence_of(t) == (1, 4)

    def test_next_tagged_none_without_tags(self, grid):
        tree = build_levels(grid, 2)
        tags = TagList(6)
        assert tags.next_tagged_subset(tree, node_for(tree, (0,))) is None

    def test_traversal_never_grows_tree(self, grid):
        tree = build_levels(grid, 2)
        tags = TagList(6)
        for v in range(6):
            tags.tag_connected_variables((v,))
        before = tree.node_count
        p = tags.first_tagged_subset(tree)
        visited = 0
        while p is not None:
            visited += 1
            p = tags.next_tagged_subset(tree, p)
        assert tree.node_count == before
        assert visited == 13  # 6 singletons + 7 pairs, all touched


def test_traversal_matches_naive_scan_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(25):
        m = int(rng.integers(2, 13))
        g = random_graph(rng, m)
        depth = int(rng.integers(1, 4))
        tree = build_levels(g, depth)
        tags = TagList(m)
        for v in rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False):
            tags.tag_connected_variables((int(v),))
        tagged = set(tags.tagged)
        assert swept(tree, tags) == naive_selection(tree, tags)


def test_enumerate_helper_agrees_with_manual_build(grid):
    tree = build_levels(grid, 6)
    manual = {tree.subset_of(p) for p in range(1, tree.node_count + 1)}
    helper = {s for _, s in enumerate_connected_subsets(grid)}
    assert manual == helper


@settings(max_examples=100, deadline=None)
@given(graph=higher_order_models(), data=st.data())
def test_selection_follows_tag_changes_between_calls(graph, data):
    m = graph.variable_count
    tree = build_levels(graph, data.draw(st.integers(1, 4)))
    tags = TagList(m)
    variables = st.integers(0, max(m - 1, 0))
    nodes = st.integers(1, max(tree.node_count, 1))
    for _ in range(data.draw(st.integers(1, 4))):
        if m:
            for v in data.draw(st.lists(variables, max_size=3)):
                tags.tag_connected_variables((v,))
        assert swept(tree, tags) == naive_selection(tree, tags)
        if tree.node_count:
            s = data.draw(nodes)
            expected = naive_selection(tree, tags, after=s)
            assert tags.next_tagged_subset(tree, s) == (expected[0] if expected else None)
        if data.draw(st.booleans()):
            tags.untag_all()
            assert tags.first_tagged_subset(tree) is None


def test_selection_sees_nodes_created_after_it(grid):
    tree = build_levels(grid, 1)
    tags = TagList(6)
    tags.tag_connected_variables((5,))
    assert swept(tree, tags) == [6]
    p = tree.first_subset_of_size(2)
    while p is not None:
        p = tree.next_subset_of_same_size(p)
    assert [tree.sequence_of(p) for p in swept(tree, tags)] == [(5,), (2, 5), (4, 5)]


def test_walking_a_selection_holds_no_intp_copy_of_a_level():
    """A round's selection, walked level by level, holds a few bytes per
    node of the level it reaches and 8 per selected row: no intp copy of a
    level's links (8 bytes per node) and no id array spanning all levels."""
    graph = generate_subgraph_grid(SubgraphGridSpec(40, 40, 0))
    tree = build_levels(graph, 5)
    tags = TagList(graph.variable_count)
    for v in (5, 77, 300):
        tags.tag_connected_variables((v,))
    largest = len(tree.links(5)[2])
    tracemalloc.start()
    try:
        for n, rows in tags.selection(tree):
            peak = tracemalloc.get_traced_memory()[1]
            assert peak <= 3 * len(tree.links(n)[2]) + 8 * len(rows) + 2**16, n
    finally:
        tracemalloc.stop()
    assert largest == 533412
