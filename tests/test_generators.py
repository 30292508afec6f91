import itertools

import numpy as np
import pytest

from flipsearch import (
    IsingSpec,
    SubgraphGridSpec,
    energy,
    generate_ising,
    generate_subgraph_grid,
    junction_potential,
    neighbors,
)


class TestIsing:
    def test_variable_and_factor_counts(self):
        g = generate_ising(IsingSpec(50, 50, alpha=0.5, seed=7))
        assert g.variable_count == 2500
        pair_factors = [f for f in g.factors if f.arity == 2]
        assert len(pair_factors) == 4900  # 2 * 50 * 49 grid edges
        assert len(g.factors) == 2500 + 4900

    def test_unaries_are_complementary(self):
        g = generate_ising(IsingSpec(10, 10, alpha=0.3, seed=1))
        for f in g.factors:
            if f.arity == 1:
                assert f.table[0] + f.table[1] == 1.0
                assert 0.0 <= f.table[0] < 1.0

    def test_pair_tables(self):
        alpha = 0.7
        g = generate_ising(IsingSpec(3, 3, alpha=alpha, seed=0))
        for f in g.factors:
            if f.arity == 2:
                assert f.table == (0.0, alpha, alpha, 0.0)

    def test_seed_determinism(self):
        a = generate_ising(IsingSpec(8, 9, alpha=0.4, seed=123))
        b = generate_ising(IsingSpec(8, 9, alpha=0.4, seed=123))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_ising(IsingSpec(4, 4, alpha=0.4, seed=1))
        b = generate_ising(IsingSpec(4, 4, alpha=0.4, seed=2))
        assert a != b

    def test_grid_adjacency(self):
        g = generate_ising(IsingSpec(2, 3, alpha=0.1, seed=0))
        assert neighbors(g, 0) == (1, 3)  # corner
        assert neighbors(g, 1) == (0, 2, 4)  # mid-edge

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            IsingSpec(0, 5, alpha=0.1, seed=0)
        with pytest.raises(ValueError):
            IsingSpec(5, 5, alpha=-0.1, seed=0)


class TestJunctionPotential:
    def test_values(self):
        assert [junction_potential(s) for s in range(5)] == [
            0.0,
            100.0,
            0.6,
            1.2,
            2.4,
        ]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            junction_potential(5)
        with pytest.raises(ValueError):
            junction_potential(-1)


class TestSubgraphGrid:
    def test_paper_scale_counts(self):
        g = generate_subgraph_grid(SubgraphGridSpec(100, 100, seed=0))
        assert g.variable_count == 19800
        assert sum(1 for f in g.factors if f.arity == 4) == 9801
        assert sum(1 for f in g.factors if f.arity == 1) == 19800

    def test_minimal_grid(self):
        g = generate_subgraph_grid(SubgraphGridSpec(2, 2, seed=3))
        assert g.variable_count == 4
        junctions = [f for f in g.factors if f.arity == 4]
        assert len(junctions) == 1
        assert sorted(junctions[0].scope) == [0, 1, 2, 3]

    def test_junction_tables_match_edge_count(self):
        g = generate_subgraph_grid(SubgraphGridSpec(3, 3, seed=5))
        for f in g.factors:
            if f.arity == 4:
                for bits in itertools.product((0, 1), repeat=4):
                    idx = bits[0] * 8 + bits[1] * 4 + bits[2] * 2 + bits[3]
                    assert f.table[idx] == junction_potential(sum(bits))

    def test_junction_tables_are_permutation_symmetric(self):
        g = generate_subgraph_grid(SubgraphGridSpec(3, 4, seed=5))
        for f in g.factors:
            if f.arity == 4:
                for bits in itertools.product((0, 1), repeat=4):
                    idx = bits[0] * 8 + bits[1] * 4 + bits[2] * 2 + bits[3]
                    for perm in itertools.permutations(bits):
                        pidx = (
                            perm[0] * 8 + perm[1] * 4 + perm[2] * 2 + perm[3]
                        )
                        assert f.table[idx] == f.table[pidx]

    def test_all_zero_has_no_junction_energy(self):
        g = generate_subgraph_grid(SubgraphGridSpec(3, 3, seed=9))
        unary_sum = sum(f.table[0] for f in g.factors if f.arity == 1)
        assert energy(g, np.zeros(g.variable_count, dtype=np.uint8)) == pytest.approx(
            unary_sum, rel=1e-12
        )

    def test_seed_determinism(self):
        a = generate_subgraph_grid(SubgraphGridSpec(4, 5, seed=11))
        b = generate_subgraph_grid(SubgraphGridSpec(4, 5, seed=11))
        assert a == b

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SubgraphGridSpec(1, 5, seed=0)
