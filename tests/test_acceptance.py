"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success (visible with pytest -s or
-rP); the shared model suite is built once per session.
"""

import io
import itertools
import statistics
import time
from collections import Counter

import numpy as np
import pytest

import flipsearch as fs

from conftest import grid_graph, random_graph

ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)


@pytest.fixture(scope="session")
def model_suite():
    """50+ seeded models: 4x4 grid models across coupling strengths, plus
    random models with third/fourth-order factors, m <= 14."""
    suite = []
    for alpha in ALPHAS:
        for seed in range(5):
            suite.append(fs.generate_ising(fs.IsingSpec(4, 4, alpha=alpha, seed=seed)))
    rng = np.random.default_rng(2024)
    for _ in range(30):
        m = int(rng.integers(6, 15))
        suite.append(random_graph(rng, m, max_arity=4))
    assert len(suite) >= 50
    return suite


def test_criterion_01_grid_enumeration_counts():
    start = time.perf_counter()
    grid = grid_graph()
    tree_counts = Counter(n for n, _ in fs.enumerate_connected_subsets(grid))
    report = fs.enumerate_connected_subsets_recursive(grid)
    assert sum(tree_counts.values()) == 40
    assert report.total == 40
    assert dict(tree_counts) == report.counts
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"PASS criterion 1: 40 connected subsets of 64, per-size counts agree "
        f"({elapsed:.3f}s)"
    )


def test_criterion_02_sequence_redundancy():
    start = time.perf_counter()
    grid = grid_graph()
    count = fs.count_connected_sequences(grid, range(6))
    assert count == 208
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 2: 208 of 720 orderings are connected ({elapsed:.3f}s)")


def test_criterion_03_junction_table():
    assert [fs.junction_potential(s) for s in range(5)] == [0.0, 100.0, 0.6, 1.2, 2.4]
    g = fs.generate_subgraph_grid(fs.SubgraphGridSpec(4, 4, seed=6))
    checked = 0
    for f in g.factors:
        if f.arity != 4:
            continue
        for bits in itertools.product((0, 1), repeat=4):
            idx = bits[0] * 8 + bits[1] * 4 + bits[2] * 2 + bits[3]
            assert f.table[idx] == fs.junction_potential(sum(bits))
            for perm in itertools.permutations(bits):
                pidx = perm[0] * 8 + perm[1] * 4 + perm[2] * 2 + perm[3]
                assert f.table[idx] == f.table[pidx]
        checked += 1
    assert checked == 9
    print("PASS criterion 3: junction potentials exact and permutation-symmetric")


def test_criterion_04_global_optimality_at_full_depth(model_suite):
    for i, g in enumerate(model_suite):
        c = fs.initial_configuration(g, "unary_min")
        result = fs.flip_search(g, c, fs.SolveParams(max_depth=g.variable_count))
        _, best = fs.brute_force_minimize(g)
        assert result.recomputed_energy == pytest.approx(best, rel=1e-9), f"model {i}"
        assert result.energy == pytest.approx(
            result.recomputed_energy, rel=1e-9
        ), f"model {i}: accumulated energy drifted"
    print(
        f"PASS criterion 4: full-depth search matches brute force on "
        f"{len(model_suite)} models"
    )


def test_criterion_05_hamming_certificates(model_suite):
    cases = 0
    for g in model_suite:
        for depth in (1, 2, 3):
            c = fs.initial_configuration(g, "unary_min")
            result = fs.flip_search(g, c, fs.SolveParams(max_depth=depth))
            assert fs.verify_hamming_bound(
                g, result.configuration, result.completed_depth
            )
            cases += 1
    print(f"PASS criterion 5: Hamming certificate holds in all {cases} cases")


def test_criterion_06_icm_equivalence(model_suite):
    count = 0
    for g in model_suite[:50]:
        bits = fs.initial_configuration(g, "unary_min").bits
        a = fs.icm(g, fs.make_configuration(g, bits.copy()))
        b = fs.flip_search(
            g, fs.make_configuration(g, bits.copy()), fs.SolveParams(max_depth=1)
        )
        assert np.array_equal(a.configuration.bits, b.configuration.bits)
        assert (a.flips_accepted, a.subsets_evaluated, a.cstree_nodes) == (
            b.flips_accepted,
            b.subsets_evaluated,
            b.cstree_nodes,
        )
        count += 1
    print(f"PASS criterion 6: single-variable search is bit-identical on {count} models")


def test_criterion_07_depth_dominance():
    strict_improvements = Counter()
    instances = Counter()
    for alpha in ALPHAS:
        for seed in range(10):
            g = fs.generate_ising(fs.IsingSpec(15, 15, alpha=alpha, seed=seed))
            finals = []
            for depth in (1, 2, 3, 4):
                c = fs.initial_configuration(g, "unary_min")
                finals.append(
                    fs.flip_search(
                        g, c, fs.SolveParams(max_depth=depth)
                    ).recomputed_energy
                )
            for a, b in zip(finals, finals[1:]):
                assert b <= a + 1e-12, f"alpha={alpha} seed={seed}: {finals}"
            instances[alpha] += 1
            if finals[3] < finals[0] - 1e-12:
                strict_improvements[alpha] += 1
    for alpha in (0.5, 0.7, 0.9):
        assert strict_improvements[alpha] * 2 > instances[alpha], (
            f"alpha={alpha}: strict improvement in only "
            f"{strict_improvements[alpha]}/{instances[alpha]} instances"
        )
    print(
        "PASS criterion 7: energy non-increasing in depth; strict gains in the "
        f"majority at high coupling ({dict(strict_improvements)})"
    )


def test_criterion_08_near_linear_scaling():
    # one untimed solve first, so one-time costs stay out of the smallest grid
    warm = fs.generate_ising(fs.IsingSpec(5, 5, alpha=0.25, seed=0))
    fs.flip_search(
        warm, fs.initial_configuration(warm, "unary_min"), fs.SolveParams(max_depth=3)
    )
    per_variable = {}
    for hw in (20, 40, 80):
        times = []
        for alpha in (0.25, 0.75):
            for seed in range(5):
                g = fs.generate_ising(fs.IsingSpec(hw, hw, alpha=alpha, seed=seed))
                c = fs.initial_configuration(g, "unary_min")
                t0 = time.perf_counter()
                fs.flip_search(
                    g, c, fs.SolveParams(max_depth=3)
                )
                times.append((time.perf_counter() - t0) / g.variable_count)
        per_variable[hw] = statistics.median(times)
    ratio = max(per_variable.values()) / min(per_variable.values())
    assert ratio <= 3.0, f"per-variable runtimes {per_variable} vary by {ratio:.2f}x"
    print(
        f"PASS criterion 8: median runtime/variable varies by {ratio:.2f}x "
        f"across 20x20..80x80 (limit 3x)"
    )


def test_criterion_09_instance_sizes():
    sg = fs.generate_subgraph_grid(fs.SubgraphGridSpec(100, 100, seed=0))
    assert sg.variable_count == 19800
    assert sum(1 for f in sg.factors if f.arity == 4) == 9801
    ising = fs.generate_ising(fs.IsingSpec(50, 50, alpha=0.5, seed=0))
    assert ising.variable_count == 2500
    assert sum(1 for f in ising.factors if f.arity == 2) == 4900
    print("PASS criterion 9: 19800/9801 and 2500/4900 instance sizes reproduced")


def test_criterion_10_format_roundtrip():
    rng = np.random.default_rng(555)
    has_arity_4 = 0
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(1, 15)), max_arity=4)
        buf = io.StringIO()
        fs.write_model(g, buf)
        buf.seek(0)
        assert fs.parse_model(buf) == g
        if any(f.arity == 4 for f in g.factors):
            has_arity_4 += 1
    assert has_arity_4 > 0
    print(
        f"PASS criterion 10: 100 models round-trip value-exactly "
        f"({has_arity_4} with arity-4 factors)"
    )


def test_criterion_11_substitute_scope():
    # Paper-scale ensembles (10^4-second message-passing comparisons and the
    # real-image datasets) are out of scope by design: no baseline solvers
    # and no source data ship with this package. Criteria 4-8 substitute.
    import flipsearch

    assert not hasattr(flipsearch, "belief_propagation")
    assert not hasattr(flipsearch, "dual_decomposition")
    print("PASS criterion 11: paper-scale baselines intentionally absent")
