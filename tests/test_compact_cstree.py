"""The parent-row and label CS-tree against the row-storage reference.

Both trees are built on random graphs with hubs, isolated variables and
several components, to levels 1-5: the package's tree a whole level per
`first_subset_of_size` call, the reference by walking the level node by
node. Once the reference has walked a level, the two must agree on its
rows, every sequence, every block read, every successor and the node
count; at the end they must agree on the revisit selection, which the
reference makes as `flags[rows].any(axis=1)`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsearch import Factor, TagList, build_factor_graph, cstree

import row_cstree
from conftest import build_levels


@st.composite
def hub_models(draw):
    """Components, each a hub sharing a pair factor with every other
    variable of it plus a few random factors inside it, and isolated
    variables, some with a unary factor; variable ids are shuffled."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    isolated = draw(st.integers(0, 3))
    m = sum(sizes) + isolated
    ids = draw(st.permutations(range(m)))
    scopes = []
    start = 0
    for k in sizes:
        component = list(ids[start : start + k])
        start += k
        hub = component[0]
        scopes += [(hub, v) for v in component[1:]]
        scopes += draw(
            st.lists(
                st.lists(
                    st.sampled_from(component), min_size=1, max_size=min(4, k), unique=True
                ),
                max_size=3,
            )
        )
    lone = ids[start:]
    scopes += [(v,) for v in lone[: draw(st.integers(0, len(lone)))]]
    factors = [Factor(tuple(s), (0.0,) * 2 ** len(s)) for s in scopes]
    return build_factor_graph(m, factors)


def reference_selection(ref, flags):
    """Nodes of the reference tree whose subset holds a flagged variable,
    selected level by level from the rows."""
    hits = [np.zeros(0, dtype=np.int64)]
    for n in range(1, ref.level_count + 1):
        first, rows = ref.level(n)
        hits.append(first + np.flatnonzero(flags[rows].any(axis=1)))
    return np.concatenate(hits)


def walk_level(ref, n):
    """Walk the reference's level n to its end; its first node, or None."""
    first = p = ref.first_subset_of_size(n)
    while p is not None:
        p = ref.next_subset_of_same_size(p)
    return first


def assert_same_level(tree, ref, n, data):
    assert (tree.node_count, tree.level_count) == (ref.node_count, ref.level_count)
    first, rows = tree.level(n)
    ref_first, ref_rows = ref.level(n)
    assert first == ref_first
    assert rows.dtype == ref_rows.dtype and np.array_equal(rows, ref_rows)
    # the level is two int32 arrays of its exact size: 8 bytes per node
    assert_exact_links(tree, n, len(rows))
    for p in range(first, first + len(rows)):
        assert tree.sequence_of(p) == ref.sequence_of(p)
        assert tree.next_subset_of_same_size(p) == ref.next_subset_of_same_size(p)
    # rows of the level from one on, read by an ascending index array as a
    # revisit reads them and by a slice, which may reach past the level's
    # end, as the first pass does
    i = data.draw(st.integers(0, len(rows) - 1))
    steps = data.draw(st.lists(st.integers(1, 3), min_size=0, max_size=12))
    index = i + np.cumsum([0] + steps)
    index = index[index < len(rows)]
    got, expected = tree.rows(n, index), ref.rows_of(first + index)
    assert got.shape == expected.shape and np.array_equal(got, expected)
    stop = i + data.draw(st.integers(1, 40))
    got = tree.rows(n, slice(i, stop))
    expected = ref.rows_of(np.arange(first + i, first + stop))
    assert got.shape == expected.shape and np.array_equal(got, expected)


def assert_exact_links(tree, n, size):
    _, parent, label = tree.links(n)
    for links in (parent, label):
        assert links.dtype == np.int32 and links.shape == (size,)
        assert links.base is None and links.nbytes == 4 * size


def assert_same_selection(tree, ref, data):
    m = tree.graph.variable_count
    tags = TagList(m)
    for v in data.draw(st.lists(st.integers(0, m - 1), max_size=4)) if m else ():
        tags.tag_connected_variables((v,))
    selection = tags.selection(tree)
    ids = [p for n, rows in selection for p in (tree.links(n)[0] + rows).tolist()]
    assert ids == reference_selection(ref, tags.flags).tolist()


@settings(max_examples=200, deadline=None)
@given(graph=hub_models(), data=st.data())
def test_compact_tree_matches_row_reference(graph, data):
    candidates = data.draw(st.sampled_from([1, 2, 7, cstree.GROWTH_CANDIDATES]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cstree, "GROWTH_CANDIDATES", candidates)
        mp.setattr(row_cstree, "GROWTH_CANDIDATES", candidates)
        tree, ref = cstree.CSTree(graph), row_cstree.CSTree(graph)
        for n in range(1, data.draw(st.integers(1, 5)) + 1):
            p = tree.first_subset_of_size(n)
            assert p == walk_level(ref, n)
            if p is None:
                break
            assert_same_level(tree, ref, n, data)
        assert_same_selection(tree, ref, data)


def test_every_level_holds_eight_bytes_per_node():
    # a path, grown in place in steps of one or two rows
    m = 64
    g = build_factor_graph(m, [Factor((v, v + 1), (0.0,) * 4) for v in range(m - 1)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cstree, "GROWTH_CANDIDATES", 2)
        tree = build_levels(g, 3)
    for n, size in ((1, m), (2, m - 1), (3, m - 2)):
        assert_exact_links(tree, n, size)
