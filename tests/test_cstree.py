import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsearch import (
    CSTree,
    build_factor_graph,
    Factor,
    enumerate_connected_subsets,
    cstree,
    enumerate_connected_subsets_recursive,
    generate_subgraph_grid,
    neighbors,
    SubgraphGridSpec,
)
from flipsearch.oracle import csr_extendable
from conftest import (
    build_levels,
    grid_graph,
    higher_order_models,
    node_for,
    random_graph,
)

# size-2 canonical sequences of the 2x3 grid, in length-lexicographic order
GRID_PAIRS = [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]


def is_connected(graph, subset):
    subset = set(subset)
    start = next(iter(subset))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in neighbors(graph, v):
            if u in subset and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen == subset


class TestCsrExtendable:
    def test_adjacent_larger_vertex(self, grid):
        assert csr_extendable(grid, (0,), 1)

    def test_smaller_than_first_fails(self, grid):
        assert not csr_extendable(grid, (1,), 0)

    def test_earlier_insertion_rule(self, grid):
        # 1 is adjacent to 0, so appending it after (0, 3) would skip the
        # earlier position; {0, 1, 3} is represented only by (0, 1, 3)
        assert not csr_extendable(grid, (0, 3), 1)
        assert csr_extendable(grid, (0, 1), 3)

    def test_duplicate_fails(self, grid):
        assert not csr_extendable(grid, (0, 1), 0)

    def test_disconnected_fails(self, grid):
        assert not csr_extendable(grid, (0,), 5)


class TestGrowth:
    def test_root_children_are_all_singletons(self, grid):
        tree = build_levels(grid, 1)
        first, rows = tree.level(1)
        assert first == 1
        assert rows.tolist() == [[0], [1], [2], [3], [4], [5]]

    def test_growth_under_singleton(self, grid):
        tree = build_levels(grid, 2)
        _, rows = tree.level(2)
        # neighbors of 0 greater than 0
        assert [r[1] for r in rows.tolist() if r[0] == 0] == [1, 3]

    def test_growth_under_second_singleton(self, grid):
        tree = build_levels(grid, 2)
        _, rows = tree.level(2)
        # 0 fails the first-element rule, 2 and 4 qualify
        assert [r[1] for r in rows.tolist() if r[0] == 1] == [2, 4]

    def test_level_ids_are_consecutive(self, grid):
        tree = build_levels(grid, 3)
        ids = 1
        for n in range(1, 4):
            first, rows = tree.level(n)
            assert first == ids
            assert rows.shape[1] == n
            ids += len(rows)
        assert tree.node_count == ids - 1

    def test_a_level_is_built_whole_when_it_starts(self, grid):
        tree = build_levels(grid, 1)
        p = tree.first_subset_of_size(2)
        # one call builds all seven pairs, and each is a node of the tree
        assert p == 7 and tree.node_count == 6 + 7
        assert [tuple(r) for r in tree.level(2)[1].tolist()] == GRID_PAIRS
        assert tree.rows(2, np.arange(7)).tolist() == tree.level(2)[1].tolist()


class TestLevelIteration:
    def test_first_subset_of_size_one(self, grid):
        tree = CSTree(grid)
        p = tree.first_subset_of_size(1)
        assert tree.sequence_of(p) == (0,)

    def test_first_pair(self, grid):
        tree = CSTree(grid)
        p = tree.first_subset_of_size(1)
        while p is not None:
            p = tree.next_subset_of_same_size(p)
        q = tree.first_subset_of_size(2)
        assert tree.sequence_of(q) == (0, 1)

    def test_single_variable_model_has_no_pairs(self):
        g = build_factor_graph(1, [Factor((0,), (0.3, 0.7))])
        tree = CSTree(g)
        p = tree.first_subset_of_size(1)
        while p is not None:
            p = tree.next_subset_of_same_size(p)
        assert tree.first_subset_of_size(2) is None

    def test_levels_start_in_order(self, grid):
        tree = CSTree(grid)
        with pytest.raises(ValueError, match="in order"):
            tree.first_subset_of_size(2)
        assert tree.first_subset_of_size(1) == 1
        with pytest.raises(ValueError, match="already built"):
            tree.first_subset_of_size(1)
        with pytest.raises(ValueError, match="in order"):
            tree.first_subset_of_size(3)
        assert tree.first_subset_of_size(2) == 7
        assert tree.node_count == 6 + 7

    def test_pair_enumeration_order(self, grid):
        tree = CSTree(grid)
        p = tree.first_subset_of_size(1)
        while p is not None:
            p = tree.next_subset_of_same_size(p)
        sequences = []
        p = tree.first_subset_of_size(2)
        while p is not None:
            sequences.append(tree.sequence_of(p))
            p = tree.next_subset_of_same_size(p)
        assert sequences == GRID_PAIRS

    def test_grid_total_is_forty(self, grid):
        assert len(list(enumerate_connected_subsets(grid))) == 40


class TestSequenceOf:
    def test_singleton(self, grid):
        tree = CSTree(grid)
        p = tree.first_subset_of_size(1)
        for _ in range(3):
            p = tree.next_subset_of_same_size(p)
        assert tree.sequence_of(p) == (3,)

    def test_path_readout(self, grid):
        tree = build_levels(grid, 3)
        _, rows = tree.level(3)
        # children of (0, 1) in label order
        assert [r for r in rows.tolist() if r[:2] == [0, 1]] == [
            [0, 1, 2], [0, 1, 3], [0, 1, 4]
        ]
        q = node_for(tree, (0, 1, 4))
        assert tree.sequence_of(q) == (0, 1, 4)

    def test_root_rejected(self, grid):
        tree = CSTree(grid)
        with pytest.raises(ValueError):
            tree.sequence_of(0)

    def test_all_enumerated_subsets_are_connected(self, grid):
        for _, subset in enumerate_connected_subsets(grid):
            assert is_connected(grid, subset)


def test_uniqueness_completeness_and_order_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = int(rng.integers(2, 13))
        g = random_graph(rng, m)
        subsets = []
        sequences_by_level = {}
        tree = CSTree(g)
        n = 1
        while True:
            p = tree.first_subset_of_size(n)
            if p is None:
                break
            while p is not None:
                subsets.append(frozenset(tree.sequence_of(p)))
                sequences_by_level.setdefault(n, []).append(tree.sequence_of(p))
                p = tree.next_subset_of_same_size(p)
            n += 1
        assert len(subsets) == len(set(subsets))  # no duplicates
        report = enumerate_connected_subsets_recursive(g, include_listing=True)
        assert set(subsets) == set(report.subsets)
        for seqs in sequences_by_level.values():
            assert seqs == sorted(seqs)  # lexicographic within a level
        assert tree.node_count == len(subsets)


def test_fig_grid_per_size_counts(grid):
    counts = Counter(n for n, _ in enumerate_connected_subsets(grid))
    assert counts[1] == 6
    assert counts[2] == 7
    assert sum(counts.values()) == 40


@pytest.mark.parametrize("max_size,counts", [(0, {}), (1, {1: 6}), (2, {1: 6, 2: 7})])
def test_max_size_cutoff(grid, max_size, counts):
    found = Counter(n for n, _ in enumerate_connected_subsets(grid, max_size=max_size))
    assert dict(found) == counts
    # the recursive enumerator agrees at every cutoff
    assert enumerate_connected_subsets_recursive(grid, max_size=max_size).counts == counts


def test_level_one_holds_the_singletons_after_the_root():
    g = grid_graph()
    tree = CSTree(g)
    p = tree.first_subset_of_size(1)
    while p is not None:
        p = tree.next_subset_of_same_size(p)
    assert tree.level_count == 1
    assert tree.node_count == 6  # six singletons below the root
    first, rows = tree.level(1)
    assert first == 1
    for node_id in range(1, 7):
        assert tree.sequence_of(node_id) == (node_id - 1,)
    assert rows.tolist() == [[v] for v in range(6)]


def test_prefixes_and_labels_at_level_two(grid):
    tree = build_levels(grid, 2)
    assert tree.node_count == 6 + 7
    assert tree.level(2)[0] == 7
    # node 8 is (0, 3): its prefix (0,) is node 1 and its label is 3
    assert tree.sequence_of(8) == (0, 3)
    assert node_for(tree, tree.sequence_of(8)[:-1]) == 1
    # node 9 is (1, 2): its prefix (1,) is node 2
    assert tree.sequence_of(9) == (1, 2)
    assert node_for(tree, tree.sequence_of(9)[:-1]) == 2


def scalar_levels(graph):
    """Level n+1 from level n by the scalar rule, parents in order and each
    parent's children in label order."""
    levels = [[(v,) for v in range(graph.variable_count)]]
    while levels[-1]:
        levels.append(
            [
                seq + (v,)
                for seq in levels[-1]
                for v in range(graph.variable_count)
                if csr_extendable(graph, seq, v)
            ]
        )
    return levels[:-1]


@settings(max_examples=150, deadline=None)
@given(graph=higher_order_models())
def test_level_rows_match_scalar_construction(graph):
    expected = scalar_levels(graph)
    tree = build_levels(graph, len(expected) + 1)
    assert tree.level_count == len(expected)
    listed = set()
    for n, seqs in enumerate(expected, start=1):
        first, rows = tree.level(n)
        assert [tuple(r) for r in rows.tolist()] == seqs
        assert [tree.sequence_of(first + i) for i in range(len(seqs))] == seqs
        listed.update(frozenset(s) for s in seqs)
    assert tree.node_count == sum(map(len, expected))
    report = enumerate_connected_subsets_recursive(graph, include_listing=True)
    assert listed == set(report.subsets)


@settings(max_examples=40, deadline=None)
@given(graph=higher_order_models())
def test_growth_in_small_steps_keeps_the_order(graph):
    expected = scalar_levels(graph)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cstree, "GROWTH_CANDIDATES", 1)
        tree = build_levels(graph, len(expected) + 1)
    for n, seqs in enumerate(expected, start=1):
        assert [tuple(r) for r in tree.level(n)[1].tolist()] == seqs


def test_an_expired_build_raises_and_leaves_the_tree_as_it_was(grid):
    """The tree asks `expired` before each growth step; the third answer
    stops level 2's build, which then adds nothing, and a later call builds
    the level whole."""
    asked = []

    def expired():
        asked.append(True)
        return len(asked) == 3

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cstree, "GROWTH_CANDIDATES", 1)
        tree = CSTree(grid, expired)
        assert tree.first_subset_of_size(1) == 1
        with pytest.raises(TimeoutError):
            tree.first_subset_of_size(2)
        assert (len(asked), tree.level_count, tree.node_count) == (3, 1, 6)
        assert tree.first_subset_of_size(2) == 7
    assert [tuple(r) for r in tree.level(2)[1].tolist()] == GRID_PAIRS


def test_a_level_build_peaks_at_its_links_plus_bounded_transients():
    """Building level n holds its final links, 8 bytes per node, plus one
    growth step's arrays: the candidate counts of the rows of level n-1 are
    let go before the level grows."""
    tree = CSTree(generate_subgraph_grid(SubgraphGridSpec(40, 40, 0)))
    tracemalloc.start()
    try:
        for n in range(1, 6):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            tree.first_subset_of_size(n)
            peak = tracemalloc.get_traced_memory()[1] - before
            size = len(tree.links(n)[2])
            assert peak <= 8 * size + 128 * cstree.GROWTH_CANDIDATES, n
    finally:
        tracemalloc.stop()
    assert size == 533412
