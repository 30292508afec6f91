import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsearch import (
    Configuration,
    Factor,
    IsingSpec,
    SolveParams,
    SubgraphGridSpec,
    build_factor_graph,
    energy,
    energy_after_flip,
    flip,
    flip_search,
    generate_ising,
    generate_subgraph_grid,
    kernels,
    make_configuration,
    neighbors,
    parse_model,
    write_model,
)
from flipsearch.model import (
    ModelError,
    _FlipScratch,
    graph_from_arrays,
    indexed_energy,
    table_indices,
)

from conftest import random_graph
from scope_walk import scalar_delta


def test_single_variable_graph():
    g = build_factor_graph(1, [Factor((0,), (0.3, 0.7))])
    assert neighbors(g, 0) == ()
    assert g.incident.tolist() == [0]
    assert g.incident_start.tolist() == [0, 1]


def test_grid_degrees(grid):
    degrees = [len(neighbors(grid, v)) for v in range(6)]
    # corners have 2 neighbors, mid-edge variables 3
    assert degrees == [2, 3, 2, 2, 3, 2]


@pytest.mark.parametrize(
    "factors",
    [
        [Factor((0, 0), (1.0, 2.0, 3.0, 4.0))],
        [Factor((0, 2), (1.0, 2.0, 3.0, 4.0))],
        [Factor((0,), (1.0, 2.0, 3.0))],
        [Factor((0,), (1.0, float("nan")))],
        [Factor((0,), (1.0, float("inf")))],
        [Factor((2**31,), (1.0, 2.0))],
        [Factor((0,), (1.0, 2.0)), Factor((-(2**70),), (1.0, 2.0))],
    ],
)
def test_build_rejects_invalid_factors(factors):
    with pytest.raises(ModelError):
        build_factor_graph(2, factors)


def test_build_rejects_variable_counts_outside_int32():
    with pytest.raises(ModelError, match="exceeds"):
        build_factor_graph(2**31, [])
    with pytest.raises(ModelError, match="non-negative"):
        build_factor_graph(-1, [])


def first_fault(m, factors):
    """The error of the first factor at fault, checked one factor at a time:
    (message, factor, part), or None."""
    for fi, f in enumerate(factors):
        if f.arity < 1:
            return f"factor {fi}: empty scope", fi, "scope"
        if len(set(f.scope)) != f.arity:
            return f"factor {fi}: duplicate variable in scope {f.scope}", fi, "scope"
        for v in f.scope:
            if not 0 <= v < m:
                return f"factor {fi}: variable {v} out of range [0, {m})", fi, "scope"
        if len(f.table) != 2**f.arity:
            message = f"factor {fi}: table has {len(f.table)} entries, expected {2 ** f.arity}"
            return message, fi, "table"
        for x in f.table:
            if not np.isfinite(x):
                return f"factor {fi}: non-finite table value {x}", fi, "table"
    return None


@st.composite
def faulty_factors(draw):
    """Factor lists over m variables in which each factor may carry one
    fault, or none, so several factors may be at fault."""
    m = draw(st.integers(1, 6))
    factors = []
    for _ in range(draw(st.integers(0, 6))):
        fault = draw(st.sampled_from([None] * 5 + ["scope", "repeat", "range", "size", "value"]))
        scope = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4, unique=True))
        if fault == "scope":
            scope = []
        elif fault == "repeat":
            scope.insert(draw(st.integers(0, len(scope))), draw(st.sampled_from(scope)))
        elif fault == "range":
            scope[draw(st.integers(0, len(scope) - 1))] = draw(st.sampled_from([-1, m, 2**40]))
        size = 2 ** len(scope) + (draw(st.sampled_from([-1, 1])) if fault == "size" else 0)
        table = [draw(st.sampled_from([0.0, -0.0, -1.5, 2.0])) for _ in range(size)]
        if fault == "value":
            table[draw(st.integers(0, size - 1))] = draw(
                st.sampled_from([float("nan"), float("inf"), -float("inf")])
            )
        factors.append(Factor(tuple(scope), tuple(table)))
    return m, factors


@settings(max_examples=300, deadline=None)
@given(case=faulty_factors())
def test_bulk_checks_report_what_a_factor_by_factor_check_reports(case):
    m, factors = case
    expected = first_fault(m, factors)
    if expected is None:
        assert build_factor_graph(m, factors).factors == tuple(factors)
        return
    with pytest.raises(ModelError) as exc_info:
        build_factor_graph(m, factors)
    assert (str(exc_info.value), exc_info.value.factor, exc_info.value.part) == expected


def test_build_rejects_empty_scope():
    with pytest.raises(ModelError):
        build_factor_graph(1, [Factor((), (1.0,))])


def test_energy_single_unary():
    g = build_factor_graph(1, [Factor((0,), (0.3, 0.7))])
    assert energy(g, [0]) == 0.3
    assert energy(g, [1]) == 0.7


def test_energy_trap_model(trap):
    assert energy(trap, [0, 0]) == 2.0
    assert energy(trap, [1, 1]) == 1.0


def test_energy_length_mismatch(trap):
    with pytest.raises(ModelError):
        energy(trap, [0, 0, 0])


def test_energy_after_flip_trap(trap):
    c = make_configuration(trap, [0, 0])
    assert c.energy == 2.0
    assert energy_after_flip(trap, c, {0}) == 2.5
    assert energy_after_flip(trap, c, {0, 1}) == 1.0
    assert c.bits.tolist() == [0, 0]  # unmodified


def test_energy_after_flip_involution(trap):
    c = make_configuration(trap, [0, 1])
    e1 = energy_after_flip(trap, c, {0, 1})
    flip(c, {0, 1}, e1)
    e2 = energy_after_flip(trap, c, {0, 1})
    flip(c, {0, 1}, e2)
    assert c.bits.tolist() == [0, 1]
    assert e2 == pytest.approx(2.5, rel=1e-12)


def test_energy_after_flip_rejects_bad_subset(trap):
    c = make_configuration(trap, [0, 0])
    with pytest.raises(ModelError):
        energy_after_flip(trap, c, {2})
    with pytest.raises(ModelError):
        energy_after_flip(trap, c, set())


def test_flip_examples():
    c = make_configuration(build_factor_graph(3, [Factor((0,), (0.0, 0.0))]), [1, 0, 1])
    flip(c, {1}, 0.0)
    assert c.bits.tolist() == [1, 1, 1]
    flip(c, {1}, 0.0)
    assert c.bits.tolist() == [1, 0, 1]


def test_flip_sets_energy(trap):
    c = make_configuration(trap, [0, 0])
    e = energy_after_flip(trap, c, {0, 1})
    flip(c, {0, 1}, e)
    assert c.bits.tolist() == [1, 1]
    assert c.energy == 1.0


def test_neighbors_isolated_variable():
    g = build_factor_graph(2, [Factor((0,), (0.1, 0.2))])
    assert neighbors(g, 0) == ()
    assert neighbors(g, 1) == ()


def test_neighbors_out_of_range(trap):
    with pytest.raises(ModelError):
        neighbors(trap, 2)


def test_four_ary_factor_is_a_clique():
    g = build_factor_graph(4, [Factor((0, 1, 2, 3), tuple(range(16)))])
    for v in range(4):
        assert neighbors(g, v) == tuple(u for u in range(4) if u != v)


def test_adjacency_symmetry_and_incidence_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 13)))
        for j in range(g.variable_count):
            for k in neighbors(g, j):
                assert j in neighbors(g, k)
                assert j != k
        # incidence against a naive rebuild
        for j in range(g.variable_count):
            expected = [fi for fi, f in enumerate(g.factors) if j in f.scope]
            start, end = g.incident_start[j : j + 2]
            assert g.incident[start:end].tolist() == expected


def test_adjacency_matches_a_unique_of_all_scope_pairs():
    """The sort-based deduplication of the (variable, neighbour) keys gives
    the arrays that `np.unique` of the same keys gives."""
    rng = np.random.default_rng(23)
    graphs = [build_factor_graph(0, []), build_factor_graph(3, [Factor((1,), (0.0, 1.0))])]
    for _ in range(40):
        m = int(rng.integers(1, 25))
        graphs.append(random_graph(rng, m, max_arity=5, with_unaries=bool(rng.integers(2))))
    for g in graphs:
        m = g.variable_count
        keys = [a * m + b for f in g.factors for a in f.scope for b in f.scope if a != b]
        variable, neighbor = np.divmod(np.unique(np.array(keys, dtype=np.int64)), max(m, 1))
        assert g.adjacent.dtype == np.int32
        assert np.array_equal(g.adjacent, neighbor)
        assert np.array_equal(g.adjacent_start, np.searchsorted(variable, np.arange(m + 1)))


def test_evaluation_counter_counts_incident_factors(trap):
    scratch = _FlipScratch(trap)
    scratch.track(table_indices(trap, np.zeros(2, np.uint8)))
    scratch.load_block(np.array([[0]], np.int32))
    scratch.delta([0], 0)
    assert scratch.evaluations == 2 * 2  # unary 0 and the pair factor
    scratch.load_block(np.array([[0, 1]], np.int32))
    scratch.delta([0, 1], 0)
    assert scratch.evaluations == 4 + 2 * 3  # each incident factor once


def test_energy_after_flip_follows_the_bits():
    """Calls with other flips made in between: each result is exact for
    the bits of the moment."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = int(rng.integers(1, 12))
        g = random_graph(rng, m, max_arity=5)
        c = make_configuration(g, rng.integers(0, 2, m))
        for _ in range(10):
            subset = sorted(rng.choice(m, int(rng.integers(1, m + 1)), replace=False))
            got = energy_after_flip(g, c, subset)
            delta = float.fromhex(scalar_delta(g, c.bits, subset)[0])
            assert got.hex() == (c.energy + delta).hex()
            flipped = c.bits.copy()
            flipped[subset] ^= 1
            assert got == pytest.approx(energy(g, flipped), rel=1e-9, abs=1e-12)
            moved = rng.choice(m, int(rng.integers(1, m + 1)), replace=False)
            flipped = c.bits.copy()
            flipped[moved] ^= 1
            flip(c, moved.tolist(), energy(g, flipped))


def test_incident_weights_are_built_once_per_graph(monkeypatch, tmp_path):
    calls = []
    build = kernels.incident_weights
    monkeypatch.setattr(kernels, "incident_weights", lambda g: calls.append(g) or build(g))
    g = random_graph(np.random.default_rng(5), 8)
    write_model(g, tmp_path / "g.bfg")
    assert "incident_weights" not in vars(parse_model(tmp_path / "g.bfg"))
    assert "incident_weights" not in vars(g)
    a, b = _FlipScratch(g), _FlipScratch(g)
    assert a._walk[2].obj is b._walk[2].obj is g.incident_weights
    c = make_configuration(g, np.zeros(8, dtype=np.uint8))
    for v in range(8):
        energy_after_flip(g, c, {v})
    assert calls == [g]
    assert not g.incident_weights.flags.writeable
    assert np.array_equal(g.incident_weights, build(g))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_flip_delta_matches_full_recompute(seed, data):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 21))
    g = random_graph(rng, m, max_arity=4)
    bits = rng.integers(0, 2, size=m).astype(np.uint8)
    c = make_configuration(g, bits)
    size = data.draw(st.integers(1, m))
    subset = set(int(x) for x in rng.choice(m, size=size, replace=False))
    flipped = bits.copy()
    for v in subset:
        flipped[v] ^= 1
    expected = energy(g, flipped)
    got = energy_after_flip(g, c, subset)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("bits", [[0, 2], [1, -1], [0.5, 0], [0, 256]])
def test_bits_outside_zero_one_are_rejected(bits):
    g = build_factor_graph(2, [Factor((0, 1), (0.0, 1.0, 5.0, 7.0))])
    with pytest.raises(ModelError, match="0 or 1"):
        energy(g, bits)
    with pytest.raises(ModelError, match="0 or 1"):
        make_configuration(g, bits)
    config = Configuration(np.array(bits), 0.0)
    with pytest.raises(ModelError, match="0 or 1"):
        flip_search(g, config, SolveParams(max_depth=2))


def test_flip_search_takes_a_list_of_valid_bits():
    g = build_factor_graph(2, [Factor((0, 1), (0.0, 1.0, 5.0, 7.0))])
    config = Configuration([1, 1], energy(g, [1, 1]))
    result = flip_search(g, config, SolveParams(max_depth=2))
    assert result.configuration.bits.dtype == np.uint8
    assert result.energy == 0.0


@pytest.mark.parametrize("given_energy", [100.0, 7.0 + 1e-6, float("nan"), float("inf")])
def test_flip_search_rejects_an_energy_that_is_not_the_bits_energy(given_energy):
    g = build_factor_graph(2, [Factor((0, 1), (0.0, 1.0, 5.0, 7.0))])
    config = Configuration(np.array([1, 1], np.uint8), given_energy)
    with pytest.raises(ModelError, match="not the energy of its bits"):
        flip_search(g, config, SolveParams(max_depth=2))


def test_flip_search_accepts_an_energy_within_tolerance():
    g = build_factor_graph(2, [Factor((0, 1), (0.0, 1.0, 5.0, 7.0))])
    config = Configuration(np.array([1, 1], np.uint8), 7.0 + 1e-9)
    result = flip_search(g, config, SolveParams(max_depth=2))
    assert result.energy == pytest.approx(1e-9, abs=1e-15)


@pytest.mark.parametrize(
    "bits", [np.array([0, 2], np.uint8), np.array([0, 1, 0], np.uint8), [0, 2]]
)
def test_energy_after_flip_rejects_bad_bits(bits):
    g = build_factor_graph(2, [Factor((0, 1), (0.0, 1.0, 5.0, 7.0))])
    with pytest.raises(ModelError):
        energy_after_flip(g, Configuration(bits, 0.0), {0})


def test_energy_after_flip_takes_a_list_of_valid_bits():
    g = build_factor_graph(2, [Factor((0, 1), (0.0, 1.0, 5.0, 7.0))])
    assert energy_after_flip(g, Configuration([0, 1], 1.0), {0}) == 7.0


def graph_inputs(g):
    """`graph_from_arrays`'s inputs for the factors of `g`, each array new."""
    real = g.scopes < g.variable_count
    arity = np.count_nonzero(real, axis=0).astype(np.int64)
    flat = g.scopes.T[real.T].astype(np.int64)
    sizes = np.diff(np.append(g.table_start, len(g.tables)))
    return g.variable_count, arity, flat, sizes, g.tables.copy()


def traced_peak(fn, *args):
    """`fn(*args)` and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_keeps_the_values_it_was_given_as_its_tables():
    g = generate_ising(IsingSpec(6, 6, 0.5, 0))
    m, arity, flat, sizes, values = graph_inputs(g)
    built = graph_from_arrays(m, arity, flat, sizes, values)
    assert np.shares_memory(built.tables, values)
    assert not built.tables.flags.writeable
    assert values.flags.writeable
    assert built == g


# The bounds below hold the build and `incident_weights` of a 100x100 Ising
# grid to their measured peaks with about 25% to spare. Under tracemalloc
# with numpy 2.4 the build peaked at 1.59 times its index arrays, against
# 2.75 when it copied the table values and kept per-arity scope copies; and
# `incident_weights` at 20.0 bytes per incidence entry, against 28.0 when
# it gathered a (width, incidence) comparison and shifted in int64.
BUILD_PEAK_PER_INDEX_BYTE = 2.0
WEIGHTS_PEAK_PER_ENTRY = 24


def test_build_peak_memory_is_bounded():
    inputs = graph_inputs(generate_ising(IsingSpec(100, 100, 0.5, 0)))
    g, peak = traced_peak(graph_from_arrays, *inputs)
    index = (g.scopes, g.table_start, g.incident, g.incident_start, g.adjacent, g.adjacent_start)
    assert peak < BUILD_PEAK_PER_INDEX_BYTE * sum(a.nbytes for a in index)


def test_incident_weights_peak_memory_is_bounded():
    g = generate_ising(IsingSpec(100, 100, 0.5, 0))
    weights, peak = traced_peak(kernels.incident_weights, g)
    assert peak < WEIGHTS_PEAK_PER_ENTRY * len(g.incident)
    assert weights.dtype == np.int32


# `incident_weights` indexes each slot row with the int32 incidence, which
# numpy converts to intp piecewise. On the 200x200 Ising grid it peaked at
# 3.25 times the weights it returns under tracemalloc with numpy 2.4,
# against 5.0 when `take` converted the whole incidence to intp per slot.
WEIGHTS_PEAK_PER_WEIGHT_BYTE = 3.5


def test_incident_weights_peak_is_bounded_by_the_weights():
    g = generate_ising(IsingSpec(200, 200, 0.5, 0))
    weights, peak = traced_peak(kernels.incident_weights, g)
    assert peak <= WEIGHTS_PEAK_PER_WEIGHT_BYTE * weights.nbytes


# `energy` gathers the scopes one slot at a time, by indexing, and lays the
# table positions in its terms array. It peaked at 16.0 bytes per factor on
# these models under tracemalloc with numpy 2.4, against 17.3 and 17.7 when
# each slot was gathered with `take`, which converts the int32 slot to an
# intp copy first, and 24.0 and 36.7 when it gathered every slot at once
# and added the table starts into a separate array.
ENERGY_PEAK_PER_FACTOR = 16.5


@pytest.mark.parametrize(
    "graph",
    [
        generate_ising(IsingSpec(200, 200, 0.5, 0)),
        generate_subgraph_grid(SubgraphGridSpec(100, 100, 0)),
    ],
    ids=["ising", "subgraph"],
)
def test_energy_peak_memory_is_bounded(graph):
    bits = np.random.default_rng(0).integers(0, 2, graph.variable_count, dtype=np.uint8)
    # the index and sum of every slot gathered at once, as a reference
    gathered = np.append(bits, 0).take(graph.scopes)
    index = kernels.table_index(gathered, len(graph.table_start))
    kept = index.copy()
    expected = indexed_energy(graph, index)
    assert np.array_equal(index, kept)
    assert np.array_equal(table_indices(graph, bits), index)
    e, peak = traced_peak(energy, graph, bits)
    assert e.hex() == expected.hex()
    assert peak <= ENERGY_PEAK_PER_FACTOR * len(graph.table_start)


@pytest.mark.parametrize("bad", [True, False, np.True_, 1.0, 1.5, "1", None])
def test_variable_ids_must_be_integers(trap, bad):
    c = make_configuration(trap, [0, 0])
    with pytest.raises(ModelError, match="must be an int"):
        energy_after_flip(trap, c, [bad])
    with pytest.raises(ModelError, match="must be an int"):
        neighbors(trap, bad)


def test_numpy_integers_are_variable_ids(trap):
    c = make_configuration(trap, [0, 0])
    one = np.int64(1)
    assert energy_after_flip(trap, c, [np.uint8(0), one]) == energy_after_flip(trap, c, {0, 1})
    assert neighbors(trap, one) == neighbors(trap, 1) == (0,)
