from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsearch import (
    CSTree,
    build_factor_graph,
    Factor,
    csr_extendable,
    enumerate_connected_subsets,
    cstree,
    enumerate_connected_subsets_recursive,
)
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
        for u in graph.adjacency[v]:
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

    def test_rows_built_ahead_are_not_yet_nodes(self, grid):
        tree = build_levels(grid, 1)
        p = tree.first_subset_of_size(2)
        # one growth step built all seven pairs, but only one is handed out
        assert tree.node_count == p == 7
        assert tree.level(2)[1].tolist() == [[0, 1]]
        assert len(tree.dump().splitlines()) == 8

    def test_csr_built_only_beyond_level_one(self, grid):
        tree = build_levels(grid, 1)
        assert tree._offsets is None
        tree.first_subset_of_size(2)
        assert tree._offsets is not None


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

    def test_incomplete_level_precondition(self, grid):
        tree = CSTree(grid)
        tree.first_subset_of_size(1)
        with pytest.raises(ValueError):
            tree.first_subset_of_size(2)

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


class TestSubsetOf:
    def test_singleton(self, grid):
        tree = CSTree(grid)
        p = tree.first_subset_of_size(1)
        for _ in range(3):
            p = tree.next_subset_of_same_size(p)
        assert tree.subset_of(p) == frozenset({3})

    def test_path_readout(self, grid):
        tree = build_levels(grid, 3)
        _, rows = tree.level(3)
        # children of (0, 1) in label order
        assert [r for r in rows.tolist() if r[:2] == [0, 1]] == [
            [0, 1, 2], [0, 1, 3], [0, 1, 4]
        ]
        q = node_for(tree, (0, 1, 4))
        assert tree.sequence_of(q) == (0, 1, 4)
        assert tree.subset_of(q) == frozenset({0, 1, 4})

    def test_root_rejected(self, grid):
        tree = CSTree(grid)
        with pytest.raises(ValueError):
            tree.subset_of(0)

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
                subsets.append(tree.subset_of(p))
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


def test_max_size_cutoff(grid):
    counts = Counter(n for n, _ in enumerate_connected_subsets(grid, max_size=2))
    assert dict(counts) == {1: 6, 2: 7}


def test_dump_format():
    g = grid_graph()
    tree = CSTree(g)
    p = tree.first_subset_of_size(1)
    while p is not None:
        p = tree.next_subset_of_same_size(p)
    lines = tree.dump().splitlines()
    assert lines[0] == "0 -1 -1 0"  # root
    assert lines[1] == "1 0 0 1"
    assert len(lines) == 7  # root plus six singletons
    for node_id, line in enumerate(lines):
        fields = line.split()
        assert len(fields) == 4
        assert int(fields[0]) == node_id


def test_dump_parents_and_labels_at_level_two(grid):
    tree = build_levels(grid, 2)
    lines = tree.dump().splitlines()
    assert len(lines) == 1 + 6 + 7
    # node 8 is (0, 3): child of node 1 = (0), label 3
    assert lines[8] == "8 1 3 2"
    # node 9 is (1, 2): child of node 2 = (1)
    assert lines[9] == "9 2 2 2"


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
