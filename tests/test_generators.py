import itertools
import math

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

    @pytest.mark.parametrize(
        "fields, name",
        [
            ((2.5, 3, 0.5, 0), "height"),
            ((True, 3, 0.5, 0), "height"),
            ((np.float64(3), 3, 0.5, 0), "height"),
            ((3, 0, 0.5, 0), "width"),
            ((3, "3", 0.5, 0), "width"),
            ((3, 3, math.nan, 0), "alpha"),
            ((3, 3, math.inf, 0), "alpha"),
            ((3, 3, -1e-300, 0), "alpha"),
            ((3, 3, 10**400, 0), "alpha"),
            ((3, 3, "0.5", 0), "alpha"),
            ((3, 3, 0.5, -1), "seed"),
            ((3, 3, 0.5, 1.0), "seed"),
            ((3, 3, 0.5, np.True_), "seed"),
        ],
    )
    def test_spec_field_errors_name_the_field(self, fields, name):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            IsingSpec(*fields)

    def test_spec_takes_numpy_numbers_as_plain_ones(self):
        spec = IsingSpec(np.int32(3), np.uint8(4), np.float32(0.25), np.int64(9))
        assert spec == IsingSpec(3, 4, 0.25, 9)
        fields = (spec.height, spec.width, spec.alpha, spec.seed)
        assert list(map(type, fields)) == [int, int, float, int]
        assert generate_ising(spec) == generate_ising(IsingSpec(3, 4, 0.25, 9))


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

    @pytest.mark.parametrize(
        "fields, name",
        [
            ((2.5, 3, 0), "cell_height"),
            ((False, 3, 0), "cell_height"),
            ((3, 1, 0), "cell_width"),
            ((3, None, 0), "cell_width"),
            ((3, 3, -1), "seed"),
            ((3, 3, 0.0), "seed"),
        ],
    )
    def test_spec_field_errors_name_the_field(self, fields, name):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            SubgraphGridSpec(*fields)

    def test_spec_takes_numpy_integers(self):
        spec = SubgraphGridSpec(np.int16(3), np.uint32(4), np.int64(5))
        assert [type(x) for x in (spec.cell_height, spec.cell_width, spec.seed)] == [int] * 3
        assert generate_subgraph_grid(spec) == generate_subgraph_grid(SubgraphGridSpec(3, 4, 5))
