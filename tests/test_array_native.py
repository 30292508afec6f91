"""The array-native generators, writer and brute-force minimizer against the
Factor-loop reference.

Generated graphs must be equal by every array, tables compared by bytes so
that -0.0 and subnormals count; written files must be equal as text; and
`brute_force_minimize` must return the same bits and `energy.hex()`.
"""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipsearch import (
    Factor,
    FactorGraph,
    IsingSpec,
    SubgraphGridSpec,
    build_factor_graph,
    generate_ising,
    generate_subgraph_grid,
    write_model,
)
from flipsearch.oracle import brute_force_minimize

import factor_loops

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308)


def assert_same_graph(a: FactorGraph, b: FactorGraph) -> None:
    assert type(a.variable_count) is int
    assert a.variable_count == b.variable_count
    for field in dataclasses.fields(FactorGraph)[1:]:
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), field.name
        assert x.tobytes() == y.tobytes(), field.name


def written(write, graph: FactorGraph) -> str:
    out = io.StringIO()
    write(graph, out)
    return out.getvalue()


alphas = st.one_of(st.sampled_from(SPECIAL[:3] + (1e308,)), st.floats(0.0, 1e308))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), alphas, st.integers(0, 2**64 - 1))
@example(1, 1, 0.0, 0)
@example(1, 7, -0.0, 1)
@example(7, 1, 5e-324, 2)
@example(3, 4, 1e308, 3)
def test_ising_matches_the_factor_loop(height, width, alpha, seed):
    spec = IsingSpec(height, width, alpha, seed)
    assert_same_graph(generate_ising(spec), factor_loops.generate_ising(spec))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 2**64 - 1))
@example(2, 2, 0)
def test_subgraph_grid_matches_the_factor_loop(cell_height, cell_width, seed):
    spec = SubgraphGridSpec(cell_height, cell_width, seed)
    assert_same_graph(generate_subgraph_grid(spec), factor_loops.generate_subgraph_grid(spec))


@pytest.mark.parametrize(
    "spec",
    [IsingSpec(30, 30, 0.5, seed) for seed in range(6)]
    + [SubgraphGridSpec(100, 100, 0), IsingSpec(200, 200, 0.5, 0)],
    ids=repr,
)
def test_workload_models_and_files_match_the_factor_loop(spec):
    if isinstance(spec, IsingSpec):
        graph, expected = generate_ising(spec), factor_loops.generate_ising(spec)
    else:
        graph, expected = generate_subgraph_grid(spec), factor_loops.generate_subgraph_grid(spec)
    assert_same_graph(graph, expected)
    assert written(write_model, graph) == written(factor_loops.write_model, expected)


@st.composite
def models(draw, max_variables: int):
    """Random models of arities 1-8: m may be 0, variables may be isolated,
    and table values include signed zeros, subnormals and +-1e308."""
    m = draw(st.integers(0, max_variables))
    scopes = []
    if m:
        scopes = draw(
            st.lists(
                st.lists(st.integers(0, m - 1), min_size=1, max_size=min(8, m), unique=True),
                max_size=6,
            )
        )
    values = st.one_of(
        st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False)
    )
    # a short table list repeats to fill a wide table, keeping examples small
    factors = [
        Factor(scope, (draw(st.lists(values, min_size=1, max_size=16)) * 256)[: 1 << len(scope)])
        for scope in scopes
    ]
    return build_factor_graph(m, factors)


@settings(max_examples=100, deadline=None)
@given(models(max_variables=10))
def test_writer_matches_the_factor_loop(graph):
    assert written(write_model, graph) == written(factor_loops.write_model, graph)


@pytest.mark.filterwarnings("ignore:overflow encountered in add")
@settings(max_examples=100, deadline=None)
@given(models(max_variables=12))
def test_brute_force_matches_the_factor_loop(graph):
    config, best = brute_force_minimize(graph)
    expected, expected_best = factor_loops.brute_force_minimize(graph)
    assert np.array_equal(config.bits, expected.bits)
    assert best.hex() == expected_best.hex()
    assert config.energy.hex() == expected.energy.hex()
