import numpy as np
import pytest

from flipsearch import kernels

from conftest import random_graph


def energy_from_scratch(graph, bits):
    """Sum of table entries, each index read from the scope's bit string."""
    return sum(
        f.table[int("".join(str(bits[v]) for v in f.scope), 2)]
        for f in graph.factors
    )


def test_total_energy_matches_recompute():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = int(rng.integers(1, 15))
        g = random_graph(rng, m, max_arity=6)
        bits = rng.integers(0, 2, size=m).tolist()
        assert kernels.total_energy(bits, g.factors) == pytest.approx(
            energy_from_scratch(g, bits), rel=1e-12, abs=1e-12
        )


def test_flip_delta_matches_recompute_and_restores_scratch():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = int(rng.integers(1, 15))
        g = random_graph(rng, m, max_arity=6)
        bits = rng.integers(0, 2, size=m).tolist()
        in_subset = bytearray(m)
        touched = [0] * len(g.factors)
        for stamp in (1, 2, 3):
            size = int(rng.integers(1, m + 1))
            subset = [int(v) for v in rng.choice(m, size=size, replace=False)]
            delta, evals = kernels.flip_delta(
                bits, subset, g.factors, g.incidence, in_subset, touched, stamp
            )
            flipped = [b ^ (v in subset) for v, b in enumerate(bits)]
            expected = energy_from_scratch(g, flipped) - energy_from_scratch(g, bits)
            assert delta == pytest.approx(expected, rel=1e-9, abs=1e-12)
            incident = {fi for v in subset for fi in g.incidence[v]}
            assert evals == 2 * len(incident)
            assert in_subset == bytearray(m)  # restored for the next call
            assert {fi for fi, t in enumerate(touched) if t == stamp} == incident
