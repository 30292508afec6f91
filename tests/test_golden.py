"""Exactness golden table: counters, final energy bits and final bits of
seeded solves. Any change to the CS-tree order, the revisit selection or the
delta summation order shows up here as a changed entry."""

import numpy as np
import pytest

import flipsearch as fs

from conftest import random_graph

# name: (subsets_evaluated, cstree_nodes, flips_accepted, energy.hex(), bits)
GOLDEN = {
    "ising-10x10-d1": (195, 100, 30, "0x1.9e6ba8aabd5b6p+5", "1111111111111111111111111111001111000100111100011111110000111111000011001100011100000011110000001111"),
    "ising-10x10-d2": (578, 280, 42, "0x1.7a56130f9d21fp+5", "1111111111111111111111111111111111111111111110011111111001111110000111000000011100000001110000000111"),
    "ising-10x10-d3": (1062, 764, 42, "0x1.7a56130f9d21fp+5", "1111111111111111111111111111111111111111111110011111111001111110000111000000011100000001110000000111"),
    "ising-10x10-d4": (3359, 2137, 44, "0x1.77c27d49dc116p+5", "1111111111111111111111111111111111111111111111111111111111111111111111000000011100000001110000000111"),
    "subgraph-6x6-d2": (311, 210, 13, "0x1.0e17925080736p+5", "101001001110011110100010101100101000100100000110010101010000"),
    "random-arity4-d3": (1298, 569, 24, "-0x1.dde4d44cbcce4p+1", "0111011001011011011001000000000110110100"),
}


def model(name):
    if name.startswith("ising"):
        depth = int(name[-1])
        return fs.generate_ising(fs.IsingSpec(10, 10, 0.5, 4)), depth
    if name.startswith("subgraph"):
        return fs.generate_subgraph_grid(fs.SubgraphGridSpec(6, 6, 5)), 2
    return random_graph(np.random.default_rng(11), 40, max_arity=4), 3


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_solve(name):
    graph, depth = model(name)
    config = fs.initial_configuration(graph, "unary_min")
    r = fs.flip_search(graph, config, fs.SolveParams(max_depth=depth, record_trace=False))
    bits = "".join(str(int(b)) for b in r.configuration.bits)
    got = (r.subsets_evaluated, r.cstree_nodes, r.flips_accepted, r.energy.hex(), bits)
    assert got == GOLDEN[name]
    assert r.completed_depth == depth
