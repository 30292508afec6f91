import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsearch import Factor, SolveParams, build_factor_graph, energy, kernels
from flipsearch import flip_search, make_configuration, neighbors, solver
from flipsearch.model import _FlipScratch, graph_from_arrays, table_indices

import scope_walk
from conftest import build_levels, random_graph
from scope_walk import scalar_delta
from test_solver import _Clock


def energy_from_scratch(graph, bits):
    """Sum of table entries in factor order from +0.0, each index read from
    the scope's bit string."""
    total = 0.0
    for f in graph.factors:
        total += f.table[int("".join(str(bits[v]) for v in f.scope), 2)]
    return total


def test_total_energy_matches_recompute():
    """`energy` is the plain sum, bit for bit."""
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = int(rng.integers(1, 15))
        g = random_graph(rng, m, max_arity=6)
        bits = rng.integers(0, 2, size=m).tolist()
        assert energy(g, bits).hex() == energy_from_scratch(g, bits).hex()


def test_flip_delta_matches_recompute_and_restores_scratch():
    """The scope-walk reference kernel."""
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = int(rng.integers(1, 15))
        g = random_graph(rng, m, max_arity=6)
        bits = rng.integers(0, 2, size=m).tolist()
        view = scope_walk.scalar_view(g)
        in_subset = bytearray(m)
        touched = [0] * len(g.factors)
        for stamp in (1, 2, 3):
            size = int(rng.integers(1, m + 1))
            subset = [int(v) for v in rng.choice(m, size=size, replace=False)]
            delta, evals = scope_walk.flip_delta(
                bits, subset, view, in_subset, touched, stamp
            )
            flipped = [b ^ (v in subset) for v, b in enumerate(bits)]
            expected = energy_from_scratch(g, flipped) - energy_from_scratch(g, bits)
            assert delta == pytest.approx(expected, rel=1e-9, abs=1e-12)
            incident = {
                fi for fi, f in enumerate(g.factors) if set(f.scope) & set(subset)
            }
            assert evals == 2 * len(incident)
            assert in_subset == bytearray(m)  # restored for the next call
            assert {fi for fi, t in enumerate(touched) if t == stamp} == incident


def test_index_flip_delta_matches_recompute_and_the_scope_walk():
    """The package's scalar kernel, reading each factor's index."""
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = int(rng.integers(1, 15))
        g = random_graph(rng, m, max_arity=6)
        bits = rng.integers(0, 2, size=m).astype(np.uint8)
        scratch = _FlipScratch(g)
        scratch.track(table_indices(g, bits))
        for _ in range(3):
            size = int(rng.integers(1, m + 1))
            subset = [int(v) for v in rng.choice(m, size=size, replace=False)]
            before = scratch.evaluations
            delta = scratch.delta(subset)
            evals = scratch.evaluations - before
            flipped = [b ^ (v in subset) for v, b in enumerate(bits.tolist())]
            expected = energy_from_scratch(g, flipped) - energy_from_scratch(g, bits)
            assert delta == pytest.approx(expected, rel=1e-9, abs=1e-12)
            incident = {
                fi for fi, f in enumerate(g.factors) if set(f.scope) & set(subset)
            }
            assert evals == 2 * len(incident)
            assert (delta.hex(), evals) == scalar_delta(g, bits, subset)


@st.composite
def weighted_models(draw):
    """A random model and a generator for its bits. m may be 0, scopes of
    arity 1-10 may repeat, variables may be isolated and the factors may all
    be unary; tables hold exact ties, signed zeros and magnitudes far apart."""
    m = draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    max_arity = 1 if draw(st.booleans()) else max(1, m)
    scopes = []
    if m:
        scope = st.integers(1, max_arity).flatmap(
            lambda k: st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True)
        )
        scopes = draw(st.lists(scope, max_size=10))
        scopes += draw(st.lists(st.sampled_from(scopes), max_size=3)) if scopes else []
    factors = []
    for s in scopes:
        size = 2 ** len(s)
        table = rng.integers(-2, 3, size) * 10.0 ** rng.integers(-8, 9, size)
        table[rng.random(size) < 0.2] = -0.0
        factors.append(Factor(tuple(s), tuple(table)))
    return build_factor_graph(m, factors), rng


@settings(max_examples=80, deadline=None)
@given(
    model=weighted_models(),
    depth=st.integers(1, 4),
    cells=st.sampled_from([1, 64, None]),
)
def test_block_deltas_equal_scalar_deltas_bit_for_bit(model, depth, cells):
    """Whole levels and short runs of rows; small `BLOCK_CELLS` values make
    the kernel split blocks."""
    graph, rng = model
    bits = rng.integers(0, 2, graph.variable_count).astype(np.uint8)
    index = table_indices(graph, bits)
    no_rows = np.zeros((0, 1), dtype=np.int32)
    deltas, lookups = kernels.flip_deltas(index, no_rows, graph, np.zeros)
    assert len(deltas) == lookups == 0
    tree = build_levels(graph, depth)
    # one scratch's work matrix for every block, whatever its shape
    terms = _FlipScratch(graph)._terms
    saved = kernels.BLOCK_CELLS
    kernels.BLOCK_CELLS = cells or saved
    try:
        for n in range(1, tree.level_count + 1):
            rows = tree.level(n)[1]
            lo = int(rng.integers(0, len(rows)))
            for block in (rows, rows[lo : lo + int(rng.integers(1, 5))]):
                deltas, lookups = kernels.flip_deltas(index, block, graph, terms)
                expected = [scalar_delta(graph, bits, row) for row in block.tolist()]
                assert [d.hex() for d in deltas.tolist()] == [d for d, _ in expected]
                # the block's lookups are the sum of its rows' scalar lookups
                assert lookups == sum(k for _, k in expected)
    finally:
        kernels.BLOCK_CELLS = saved


@st.composite
def hub_models(draw):
    """`weighted_models`, where variable 0 may also be in up to 60 pair
    factors, so that its one-variable row alone exceeds a small
    `BLOCK_CELLS`."""
    graph, rng = draw(weighted_models())
    m = graph.variable_count
    if m < 2 or not draw(st.booleans()):
        return graph, rng
    factors = list(graph.factors)
    for _ in range(draw(st.integers(1, 60))):
        w = int(rng.integers(1, m))
        table = rng.integers(-2, 3, 4) * 10.0 ** rng.integers(-8, 9, 4)
        factors.append(Factor((0, w) if rng.random() < 0.5 else (w, 0), tuple(table)))
    return build_factor_graph(m, factors), rng


def scalar_kernel(graph, index, subset):
    """`kernels.flip_delta` of `subset` at `index`, read as `_FlipScratch`
    reads the graph."""
    arrays = (graph.incident, graph.incident_start, graph.incident_weights)
    arrays += (graph.table_start, graph.tables)
    return kernels.flip_delta(memoryview(index), subset, *map(memoryview, arrays))


@settings(max_examples=100, deadline=None)
@given(model=hub_models(), cells=st.sampled_from([1, 8, None]))
def test_one_variable_deltas_equal_the_scope_walk_bit_for_bit(model, cells):
    """A one-variable row skips the scope comparison in the block kernel and
    the mask dict in the scalar one. Both must still give the scope-walk
    kernel's delta and lookups for every variable: isolated, in no model
    factor at all, only in unary factors, in repeated scopes, or a hub whose
    row alone exceeds `BLOCK_CELLS`."""
    graph, rng = model
    m = graph.variable_count
    bits = rng.integers(0, 2, m).astype(np.uint8)
    index = table_indices(graph, bits)
    expected = [scalar_delta(graph, bits, [v]) for v in range(m)]
    scalar = [scalar_kernel(graph, index, [v]) for v in range(m)]
    assert [(d.hex(), k) for d, k in scalar] == expected
    rows = np.arange(m, dtype=np.int32).reshape(m, 1)
    terms = _FlipScratch(graph)._terms
    saved = kernels.BLOCK_CELLS
    kernels.BLOCK_CELLS = cells or saved
    try:
        lo = int(rng.integers(0, m + 1))
        for block in (rows, rows[lo : lo + int(rng.integers(1, 5))], rows[::-1]):
            deltas, lookups = kernels.flip_deltas(index, block, graph, terms)
            want = [expected[v] for v in block.ravel().tolist()]
            assert [d.hex() for d in deltas.tolist()] == [d for d, _ in want]
            assert lookups == sum(k for _, k in want)
    finally:
        kernels.BLOCK_CELLS = saved


def test_a_hub_row_past_block_cells_is_split_off_and_exact(monkeypatch):
    """Variable 0 is in more pair factors than half of `BLOCK_CELLS`, so a
    block of its row and three leaves' rows is halved until the hub's row
    stands alone, and every delta is still the scope-walk kernel's."""
    leaves = kernels.BLOCK_CELLS // 2 + 1
    m = leaves + 1
    rng = np.random.default_rng(19)
    flat = np.stack([np.zeros(leaves, np.int64), np.arange(1, m)], axis=1).ravel()
    values = rng.integers(-2, 3, 4 * leaves) * 10.0 ** rng.integers(-8, 9, 4 * leaves)
    graph = graph_from_arrays(m, np.full(leaves, 2), flat, np.full(leaves, 4), values)
    bits = rng.integers(0, 2, m).astype(np.uint8)
    index = table_indices(graph, bits)
    view = scope_walk.scalar_view(graph)
    in_subset, touched = bytearray(m), [0] * leaves
    rows = np.array([[0], [1], [2], [3]], dtype=np.int32)
    expected = [
        scope_walk.flip_delta(bits.tolist(), [v], view, in_subset, touched, v + 1)
        for v in rows.ravel().tolist()
    ]
    blocks = []
    split = kernels.flip_deltas

    def recorded(index, rows, graph, terms):
        blocks.append(rows.ravel().tolist())
        return split(index, rows, graph, terms)

    monkeypatch.setattr(kernels, "flip_deltas", recorded)
    deltas, lookups = kernels.flip_deltas(index, rows, graph, np.zeros)
    assert [0] in blocks
    assert [d.hex() for d in deltas.tolist()] == [d.hex() for d, _ in expected]
    assert lookups == sum(k for _, k in expected) == 2 * (leaves + 3)
    for v, (d, k) in enumerate(expected):
        got, lookups = scalar_kernel(graph, index, [v])
        assert (got.hex(), lookups) == (d.hex(), k)


@settings(max_examples=80, deadline=None)
@given(
    model=weighted_models(),
    depth=st.integers(1, 4),
    flip_rate=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_cached_deltas_follow_flips_between_evaluations(model, depth, flip_rate):
    """Each level is one block of the scratch's cache; flips in between make
    later entries stale, and the scratch must return the scalar value of
    the bits as they are at each call. The block's lookups are counted at
    its first call, as the sum of its rows' scalar lookups."""
    graph, rng = model
    bits = rng.integers(0, 2, graph.variable_count).astype(np.uint8)
    tree = build_levels(graph, depth)
    scratch = _FlipScratch(graph)
    scratch.track(table_indices(graph, bits))
    for n in range(1, tree.level_count + 1):
        rows = tree.level(n)[1]
        scratch.load_block(rows)
        before = scratch.evaluations
        lookups = sum(scalar_delta(graph, bits, r)[1] for r in rows.tolist())
        for slot, row in enumerate(rows.tolist()):
            d = scratch.delta(row, slot)
            assert d.hex() == scalar_delta(graph, bits, row)[0]
            assert scratch.evaluations - before == lookups
            if rng.random() < flip_rate:
                bits[row] ^= 1
                stale = set(scratch.stale)
                scratch.flipped(row)
                assert np.array_equal(scratch.index, table_indices(graph, bits))
                near = set(row).union(*(neighbors(graph, v) for v in row))
                assert scratch.stale == stale | near


@settings(max_examples=80, deadline=None)
@given(
    model=weighted_models(),
    depth=st.integers(1, 4),
    ticks=st.sampled_from([None, 3, 17, 60]),
)
def test_index_stays_exact_through_solves(model, depth, ticks):
    """In whole and time-cut solves, the scratch's index equals the one
    recomputed from the bits after every flip, and every delta equals the
    scope-walk kernel's on the bits of the moment. A started block is
    evaluated in full, so the scratch counts the sum of the scope-walk
    kernel's lookups, in cut runs too."""
    graph, rng = model
    config = make_configuration(graph, rng.integers(0, 2, graph.variable_count))
    delta, flipped = _FlipScratch.delta, _FlipScratch.flipped
    calls = []
    scratches = set()

    def checked_delta(scratch, subset, slot=None):
        d = delta(scratch, subset, slot)
        expected, lookups = scalar_delta(graph, config.bits, subset)
        assert d.hex() == expected
        calls.append(lookups)
        scratches.add(scratch)
        return d

    def checked_flipped(scratch, subset):
        flipped(scratch, subset)
        recomputed = kernels.table_index(np.append(config.bits, 0).take(graph.scopes))
        assert np.array_equal(scratch.index, recomputed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_FlipScratch, "delta", checked_delta)
        mp.setattr(_FlipScratch, "flipped", checked_flipped)
        if ticks is not None:
            mp.setattr(solver, "time", _Clock())
        result = flip_search(
            graph,
            config,
            SolveParams(max_depth=depth, time_limit=ticks and ticks + 0.5),
        )
    assert len(calls) == result.subsets_evaluated
    assert [s.evaluations for s in scratches] == ([sum(calls)] if calls else [])
