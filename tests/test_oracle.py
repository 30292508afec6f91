import numpy as np
import pytest

from flipsearch import (
    Factor,
    IsingSpec,
    brute_force_minimize,
    build_factor_graph,
    count_connected_sequences,
    enumerate_connected_subsets_recursive,
    generate_ising,
    initial_configuration,
    make_configuration,
    verify_hamming_bound,
)
from flipsearch import oracle


class TestBruteForce:
    def test_trap_model(self, trap):
        config, best = brute_force_minimize(trap)
        assert config.bits.tolist() == [1, 1]
        assert best == 1.0

    def test_single_unary(self):
        g = build_factor_graph(1, [Factor((0,), (0.3, 0.7))])
        config, best = brute_force_minimize(g)
        assert config.bits.tolist() == [0]
        assert best == 0.3

    def test_decoupled_ising_equals_unary_min(self):
        g = generate_ising(IsingSpec(3, 4, alpha=0.0, seed=8))
        config, _ = brute_force_minimize(g)
        assert config.bits.tolist() == initial_configuration(
            g, "unary_min"
        ).bits.tolist()

    def test_lexicographic_tie_break(self):
        g = build_factor_graph(2, [Factor((0, 1), (1.0, 1.0, 1.0, 1.0))])
        config, _ = brute_force_minimize(g)
        assert config.bits.tolist() == [0, 0]

    def test_guard(self):
        g = build_factor_graph(
            5, [Factor((v,), (0.0, 1.0)) for v in range(5)]
        )
        with pytest.raises(ValueError):
            brute_force_minimize(g, max_variables=4)


class TestRecursiveEnumeration:
    def test_grid_total(self, grid):
        report = enumerate_connected_subsets_recursive(grid)
        assert report.total == 40
        assert report.counts[1] == 6
        assert report.counts[2] == 7

    def test_path_graph(self):
        g = build_factor_graph(
            3,
            [
                Factor((0, 1), (0.0, 1.0, 1.0, 0.0)),
                Factor((1, 2), (0.0, 1.0, 1.0, 0.0)),
            ],
        )
        report = enumerate_connected_subsets_recursive(g)
        assert report.counts == {1: 3, 2: 2, 3: 1}
        assert report.total == 6

    @pytest.mark.parametrize("max_size,counts", [(0, {}), (1, {1: 6}), (2, {1: 6, 2: 7})])
    def test_max_size(self, grid, max_size, counts):
        report = enumerate_connected_subsets_recursive(grid, max_size=max_size)
        assert report.counts == counts
        assert report.total == sum(counts.values())

    def test_guard(self):
        """21 variables are refused unless the size bound is at most 20."""
        pair = (0.0, 1.0, 1.0, 0.0)
        chain = build_factor_graph(21, [Factor((v, v + 1), pair) for v in range(20)])
        for max_size in (None, 21):
            with pytest.raises(ValueError, match="21 variables exceed the enumeration guard 20"):
                enumerate_connected_subsets_recursive(chain, max_size=max_size)
        assert enumerate_connected_subsets_recursive(chain, max_size=20).total == 231 - 1

    def test_listing(self, grid):
        report = enumerate_connected_subsets_recursive(grid, include_listing=True)
        assert len(report.subsets) == report.total
        assert frozenset(range(6)) in report.subsets


class TestConnectedSequences:
    def test_grid_redundancy(self, grid):
        assert count_connected_sequences(grid, range(6)) == 208

    def test_single_variable(self, grid):
        assert count_connected_sequences(grid, [2]) == 1

    def test_adjacent_pair(self, grid):
        assert count_connected_sequences(grid, [0, 1]) == 2

    def test_disconnected_pair(self, grid):
        assert count_connected_sequences(grid, [0, 5]) == 0

    def test_guard(self, grid):
        with pytest.raises(ValueError):
            count_connected_sequences(grid, range(6), max_size=5)


class TestHammingBound:
    def test_zero_radius_always_holds(self, trap):
        c = make_configuration(trap, [0, 0])
        assert verify_hamming_bound(trap, c, 0)

    def test_trap_model(self, trap):
        c = make_configuration(trap, [0, 0])
        assert verify_hamming_bound(trap, c, 1)
        assert not verify_hamming_bound(trap, c, 2)

    def test_brute_force_optimum_at_full_radius(self):
        rng = np.random.default_rng(4)
        from conftest import random_graph

        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 10)))
            config, _ = brute_force_minimize(g)
            assert verify_hamming_bound(g, config, g.variable_count)

    @pytest.mark.parametrize("n", [-3, -1, True, False, 2.5, 1.0, "1", None])
    def test_radius_must_be_a_non_negative_int(self, n):
        """Flipping variable 0 lowers the energy, so a radius taken as 0 or
        less would certify it vacuously."""
        g = build_factor_graph(1, [Factor((0,), (1.0, 0.0))])
        c = make_configuration(g, [0])
        assert not verify_hamming_bound(g, c, 1)
        with pytest.raises(ValueError, match="non-negative int"):
            verify_hamming_bound(g, c, n)

    @pytest.mark.parametrize("n", [np.True_, np.float64(1.0), np.int64(-1)])
    def test_numpy_non_radii_are_refused(self, n):
        g = build_factor_graph(1, [Factor((0,), (1.0, 0.0))])
        with pytest.raises(ValueError, match="non-negative int"):
            verify_hamming_bound(g, make_configuration(g, [0]), n)

    def test_numpy_integer_radius(self):
        g = build_factor_graph(1, [Factor((0,), (1.0, 0.0))])
        assert verify_hamming_bound(g, make_configuration(g, [0]), np.int64(0))
        assert not verify_hamming_bound(g, make_configuration(g, [0]), np.int64(1))
        assert verify_hamming_bound(g, make_configuration(g, [1]), np.uint8(1))

    def test_budget(self, grid, monkeypatch):
        """6 + 15 = 21 flips at radius 2 fit a budget of 21, not one of 20."""
        c = make_configuration(grid, [0] * 6)
        monkeypatch.setattr(oracle, "HAMMING_MAX_CHECKS", 21)
        assert verify_hamming_bound(grid, c, 2)  # all zeros is optimal
        monkeypatch.setattr(oracle, "HAMMING_MAX_CHECKS", 20)
        with pytest.raises(ValueError, match="21 flip checks exceed the budget 20"):
            verify_hamming_bound(grid, c, 2)
