import numpy as np
import pytest

from flipsearch import (
    Factor,
    IsingSpec,
    SolveParams,
    brute_force_minimize,
    build_factor_graph,
    energy,
    energy_after_flip,
    flip_search,
    generate_ising,
    icm,
    initial_configuration,
    make_configuration,
    verify_hamming_bound,
)

from conftest import random_graph


class TestInitialConfiguration:
    def test_unary_min_picks_smaller_entry(self):
        g = build_factor_graph(1, [Factor((0,), (0.3, 0.7))])
        assert initial_configuration(g, "unary_min").bits.tolist() == [0]

    def test_tie_goes_to_zero(self):
        g = build_factor_graph(1, [Factor((0,), (0.5, 0.5))])
        assert initial_configuration(g, "unary_min").bits.tolist() == [0]

    def test_multiple_unaries_are_summed(self):
        g = build_factor_graph(
            1, [Factor((0,), (0.9, 0.1)), Factor((0,), (0.3, 0.2))]
        )
        assert initial_configuration(g, "unary_min").bits.tolist() == [1]

    def test_no_unary_defaults_to_zero(self):
        g = build_factor_graph(2, [Factor((0, 1), (1.0, 0.0, 0.0, 1.0))])
        assert initial_configuration(g, "unary_min").bits.tolist() == [0, 0]

    def test_all_zero(self, trap):
        c = initial_configuration(trap, "all_zero")
        assert c.bits.tolist() == [0, 0]
        assert c.energy == 2.0

    def test_given_validates_length(self, trap):
        with pytest.raises(Exception):
            initial_configuration(trap, "given", given=[0, 1, 0])
        c = initial_configuration(trap, "given", given=[1, 0])
        assert c.bits.tolist() == [1, 0]


class TestFlipSearch:
    def test_trap_depth_one_is_stuck(self, trap):
        c = initial_configuration(trap, "unary_min")
        assert c.bits.tolist() == [0, 0]
        result = flip_search(trap, c, SolveParams(max_depth=1))
        assert result.configuration.bits.tolist() == [0, 0]
        assert result.energy == 2.0
        assert result.flips_accepted == 0

    def test_trap_depth_two_escapes(self, trap):
        c = initial_configuration(trap, "unary_min")
        result = flip_search(trap, c, SolveParams(max_depth=2))
        assert result.configuration.bits.tolist() == [1, 1]
        assert result.energy == 1.0
        _, best = brute_force_minimize(trap)
        assert result.energy == best

    def test_single_variable(self):
        g = build_factor_graph(1, [Factor((0,), (1.0, 0.0))])
        c = make_configuration(g, [0])
        result = flip_search(g, c, SolveParams(max_depth=3))
        assert result.configuration.bits.tolist() == [1]
        assert result.energy == 0.0

    def test_decoupled_ising_needs_no_flips(self):
        g = generate_ising(IsingSpec(4, 4, alpha=0.0, seed=5))
        c = initial_configuration(g, "unary_min")
        result = flip_search(g, c, SolveParams(max_depth=1))
        assert result.flips_accepted == 0
        _, best = brute_force_minimize(g)
        assert result.recomputed_energy == pytest.approx(best, rel=1e-12)

    def test_full_depth_matches_brute_force_on_ising(self):
        g = generate_ising(IsingSpec(4, 4, alpha=0.5, seed=42))
        c = initial_configuration(g, "unary_min")
        result = flip_search(g, c, SolveParams(max_depth=16))
        _, best = brute_force_minimize(g)
        assert result.recomputed_energy == pytest.approx(best, rel=1e-12)

    def test_trace_is_monotone(self):
        g = generate_ising(IsingSpec(6, 6, alpha=0.7, seed=9))
        c = initial_configuration(g, "unary_min")
        result = flip_search(g, c, SolveParams(max_depth=3))
        energies = [r.best_energy for r in result.trace]
        times = [r.elapsed_seconds for r in result.trace]
        assert energies == sorted(energies, reverse=True)
        assert times == sorted(times)
        for a, b in zip(result.trace, result.trace[1:]):
            assert b.flips_accepted >= a.flips_accepted
            assert b.subsets_evaluated >= a.subsets_evaluated
            assert b.cstree_nodes >= a.cstree_nodes

    def test_accumulated_energy_close_to_recomputed(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(4, 13)))
            c = initial_configuration(g, "unary_min")
            result = flip_search(g, c, SolveParams(max_depth=3))
            assert result.energy == pytest.approx(
                result.recomputed_energy, rel=1e-6
            )

    def test_depth_fields(self, trap):
        c = initial_configuration(trap, "unary_min")
        result = flip_search(trap, c, SolveParams(max_depth=2))
        assert result.completed_depth == 2
        assert result.reached_depth == 2
        # depth capped by the largest connected subset: levels beyond 2 are
        # empty, counted as trivially finished
        c = initial_configuration(trap, "unary_min")
        result = flip_search(trap, c, SolveParams(max_depth=5))
        assert result.completed_depth == result.reached_depth == 5
        assert verify_hamming_bound(trap, result.configuration, 5)
        # with no variables even level 1 is empty
        empty = build_factor_graph(0, [])
        c = initial_configuration(empty, "unary_min")
        result = flip_search(empty, c, SolveParams(max_depth=3))
        assert result.completed_depth == result.reached_depth == 3

    def test_hamming_certificate_small_depths(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 12)))
            for depth in (1, 2):
                c = initial_configuration(g, "all_zero")
                result = flip_search(g, c, SolveParams(max_depth=depth))
                assert verify_hamming_bound(
                    g, result.configuration, result.completed_depth
                )

    def test_depth_dominance(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            g = generate_ising(IsingSpec(8, 8, alpha=0.7, seed=seed))
            finals = []
            for depth in (1, 2, 3, 4):
                c = initial_configuration(g, "unary_min")
                finals.append(
                    flip_search(g, c, SolveParams(max_depth=depth)).recomputed_energy
                )
            for a, b in zip(finals, finals[1:]):
                assert b <= a + 1e-12

    @pytest.mark.parametrize("arity", [9, 10])
    def test_wide_factor_matches_brute_force(self, arity):
        # table indices reach 2^arity - 1 > 255; the optimum is all ones
        g = build_factor_graph(
            arity, [Factor(tuple(range(arity)), tuple(range(2**arity - 1, -1, -1)))]
        )
        best_config, best = brute_force_minimize(g)
        assert best_config.bits.tolist() == [1] * arity
        assert energy(g, best_config.bits) == best
        start = initial_configuration(g, "all_zero")
        assert start.energy == 2**arity - 1
        assert energy_after_flip(g, start, range(arity)) == best
        result = flip_search(g, start, SolveParams(max_depth=arity))
        assert result.configuration.bits.tolist() == [1] * arity
        assert result.energy == result.recomputed_energy == best

    def test_time_limit_stops_early(self):
        g = generate_ising(IsingSpec(40, 40, alpha=0.5, seed=1))
        c = initial_configuration(g, "unary_min")
        result = flip_search(
            g, c, SolveParams(max_depth=6, time_limit=0.05)
        )
        assert result.time_limit_hit
        assert result.completed_depth < 6
        # the returned configuration is still internally consistent
        assert result.energy == pytest.approx(result.recomputed_energy, rel=1e-6)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SolveParams(max_depth=0)
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolveParams(max_depth=1, time_limit=bad)


class TestIcm:
    def test_equals_depth_one_on_random_models(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 13)))
            bits = rng.integers(0, 2, size=g.variable_count).astype(np.uint8)
            a = icm(g, make_configuration(g, bits.copy()))
            b = flip_search(
                g, make_configuration(g, bits.copy()), SolveParams(max_depth=1)
            )
            assert a.configuration.bits.tolist() == b.configuration.bits.tolist()
            assert a.flips_accepted == b.flips_accepted
            assert a.subsets_evaluated == b.subsets_evaluated
            assert a.cstree_nodes == b.cstree_nodes

    def test_trap_model(self, trap):
        result = icm(trap, initial_configuration(trap, "unary_min"))
        assert result.configuration.bits.tolist() == [0, 0]
        assert result.energy == 2.0

    def test_decoupled_ising_global(self):
        g = generate_ising(IsingSpec(3, 3, alpha=0.0, seed=2))
        result = icm(g, initial_configuration(g, "unary_min"))
        _, best = brute_force_minimize(g)
        assert result.recomputed_energy == pytest.approx(best, rel=1e-12)
