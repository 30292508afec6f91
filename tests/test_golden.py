"""Exactness golden tables: counters, final energy bits and final bits of
seeded solves, and every trace record of two of them. Any change to the
CS-tree order, the revisit selection, the delta summation order or the node
count at a flip shows up here as a changed entry."""

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

# name: every trace record of the solve, as (depth, flips_accepted,
# subsets_evaluated, cstree_nodes, best_energy.hex())
GOLDEN_TRACE = {
    "ising-10x10-d4": [
        (1, 0, 0, 0, "0x1.1a548035b8540p+6"),
        (1, 1, 4, 4, "0x1.17aef2da4090ep+6"),
        (1, 2, 6, 6, "0x1.16abe774464d0p+6"),
        (1, 3, 8, 8, "0x1.1346789d51a75p+6"),
        (1, 4, 12, 12, "0x1.0f7542bf712b5p+6"),
        (1, 5, 13, 13, "0x1.08039ab721fd2p+6"),
        (1, 6, 16, 16, "0x1.050e67eb428ccp+6"),
        (1, 7, 19, 19, "0x1.03a27dd41dd5bp+6"),
        (1, 8, 24, 24, "0x1.02914c08e51cep+6"),
        (1, 9, 26, 26, "0x1.fd3cba2892401p+5"),
        (1, 10, 36, 36, "0x1.fc1d1596e231cp+5"),
        (1, 11, 43, 43, "0x1.f90f9d5779958p+5"),
        (1, 12, 44, 44, "0x1.f1b3cc72df003p+5"),
        (1, 13, 51, 51, "0x1.f188ae5817839p+5"),
        (1, 14, 52, 52, "0x1.f0dcc7aae4c7bp+5"),
        (1, 15, 55, 55, "0x1.edfc98ccc5ebdp+5"),
        (1, 16, 60, 60, "0x1.eb1d8779445dfp+5"),
        (1, 17, 64, 64, "0x1.e4cb90eed211fp+5"),
        (1, 18, 66, 66, "0x1.e1b53c0792238p+5"),
        (1, 19, 72, 72, "0x1.e072cbf81277ap+5"),
        (1, 20, 76, 76, "0x1.d88aef6e58f38p+5"),
        (1, 21, 82, 82, "0x1.d2dc18fd29b99p+5"),
        (1, 22, 86, 86, "0x1.cd0150e702728p+5"),
        (1, 23, 89, 89, "0x1.cbfdb68da1bd2p+5"),
        (1, 24, 90, 90, "0x1.c46388794cbddp+5"),
        (1, 25, 95, 95, "0x1.bb11fa5db93b0p+5"),
        (1, 26, 122, 100, "0x1.b31ab659d0e40p+5"),
        (1, 27, 137, 100, "0x1.b0fcd8512055ep+5"),
        (1, 28, 138, 100, "0x1.a927f66be7d28p+5"),
        (1, 29, 146, 100, "0x1.a529389b3daf8p+5"),
        (1, 30, 155, 100, "0x1.9e6ba8aabd5b6p+5"),
        (1, 30, 195, 100, "0x1.9e6ba8aabd5b6p+5"),
        (2, 31, 251, 156, "0x1.993475bb3d5ecp+5"),
        (2, 32, 252, 157, "0x1.922724a114460p+5"),
        (2, 33, 261, 166, "0x1.8efdbd8883100p+5"),
        (2, 34, 266, 171, "0x1.8b94fa29c2b2ap+5"),
        (2, 35, 280, 185, "0x1.8b0fac623b745p+5"),
        (2, 36, 282, 187, "0x1.8955a39ceaf80p+5"),
        (2, 37, 300, 205, "0x1.874ae257b3620p+5"),
        (2, 38, 306, 211, "0x1.8372e42b6b9e5p+5"),
        (2, 39, 333, 238, "0x1.820039e030296p+5"),
        (2, 40, 361, 266, "0x1.7f192c61d4641p+5"),
        (2, 41, 406, 280, "0x1.7c041c852ad5fp+5"),
        (2, 42, 538, 280, "0x1.7a56130f9d21fp+5"),
        (2, 42, 578, 280, "0x1.7a56130f9d21fp+5"),
        (3, 42, 1062, 764, "0x1.7a56130f9d21fp+5"),
        (4, 43, 1804, 1506, "0x1.79a14331a0ae6p+5"),
        (4, 44, 2085, 1787, "0x1.77c27d49dc116p+5"),
        (4, 44, 3359, 2137, "0x1.77c27d49dc116p+5"),
    ],
    "subgraph-6x6-d2": [
        (1, 0, 0, 0, "0x1.0a27ef3099144p+9"),
        (1, 1, 2, 2, "0x1.09dd2acc24807p+9"),
        (1, 2, 6, 6, "0x1.b08fa644d80c3p+8"),
        (1, 3, 9, 9, "0x1.4ea9e2b2c13eep+8"),
        (1, 4, 17, 17, "0x1.d8285944a86dap+7"),
        (1, 5, 21, 21, "0x1.0f2e1441b5108p+7"),
        (1, 6, 25, 25, "0x1.0eb25c6ba35c3p+7"),
        (1, 7, 27, 27, "0x1.2d8cbf54fe624p+5"),
        (1, 8, 42, 42, "0x1.23eecdb52ab25p+5"),
        (1, 9, 45, 45, "0x1.1f218294e36ecp+5"),
        (1, 10, 57, 57, "0x1.166df0c63e222p+5"),
        (1, 11, 59, 59, "0x1.10b13424b9937p+5"),
        (1, 11, 106, 60, "0x1.10b13424b9937p+5"),
        (2, 12, 207, 161, "0x1.0ef25bcf48bfdp+5"),
        (2, 13, 229, 183, "0x1.0e17925080736p+5"),
        (2, 13, 311, 210, "0x1.0e17925080736p+5"),
    ],
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
    r = fs.flip_search(graph, config, fs.SolveParams(max_depth=depth))
    bits = "".join(str(int(b)) for b in r.configuration.bits)
    got = (r.subsets_evaluated, r.cstree_nodes, r.flips_accepted, r.energy.hex(), bits)
    assert got == GOLDEN[name]
    assert r.completed_depth == depth


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE))
def test_golden_trace(name):
    graph, depth = model(name)
    config = fs.initial_configuration(graph, "unary_min")
    r = fs.flip_search(graph, config, fs.SolveParams(max_depth=depth))
    got = [
        (t.depth, t.flips_accepted, t.subsets_evaluated, t.cstree_nodes, t.best_energy.hex())
        for t in r.trace
    ]
    assert got == GOLDEN_TRACE[name]
