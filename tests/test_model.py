import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsearch import (
    Configuration,
    Factor,
    SolveParams,
    build_factor_graph,
    energy,
    energy_after_flip,
    flip,
    flip_search,
    make_configuration,
    neighbors,
)
from flipsearch.model import ModelError, _FlipScratch

from conftest import random_graph


def test_single_variable_graph():
    g = build_factor_graph(1, [Factor((0,), (0.3, 0.7))])
    assert g.adjacency == ((),)
    assert g.incidence == ((0,),)


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
    ],
)
def test_build_rejects_invalid_factors(factors):
    with pytest.raises(ModelError):
        build_factor_graph(2, factors)


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
            for k in g.adjacency[j]:
                assert j in g.adjacency[k]
                assert j != k
        # incidence against a naive rebuild
        for j in range(g.variable_count):
            expected = tuple(
                fi for fi, f in enumerate(g.factors) if j in f.scope
            )
            assert g.incidence[j] == expected


def test_evaluation_counter_counts_incident_factors(trap):
    c = make_configuration(trap, [0, 0])
    scratch = _FlipScratch(trap)
    energy_after_flip(trap, c, {0}, scratch)
    assert scratch.evaluations == 2 * 2  # unary 0 and the pair factor
    energy_after_flip(trap, c, {0, 1}, scratch)
    assert scratch.evaluations == 4 + 2 * 3  # each incident factor once


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
