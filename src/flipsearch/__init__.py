"""Energy minimization over binary factor graphs by depth-limited greedy
search over connected variable subsets, with brute-force oracles and seeded
model generators for verification at small scale."""

from .cstree import CSTree, enumerate_connected_subsets
from .fileformat import parse_model, write_model
from .generators import (
    IsingSpec,
    SubgraphGridSpec,
    generate_ising,
    generate_subgraph_grid,
    junction_potential,
)
from .model import (
    Configuration,
    Factor,
    FactorGraph,
    build_factor_graph,
    energy,
    energy_after_flip,
    flip,
    make_configuration,
    neighbors,
)
from .oracle import (
    brute_force_minimize,
    count_connected_sequences,
    csr_extendable,
    enumerate_connected_subsets_recursive,
    verify_hamming_bound,
)
from .solver import (
    SolveParams,
    SolveResult,
    TraceRecord,
    flip_search,
    initial_configuration,
)
from .taglist import TagList

__all__ = [
    "CSTree",
    "Configuration",
    "Factor",
    "FactorGraph",
    "IsingSpec",
    "SolveParams",
    "SolveResult",
    "SubgraphGridSpec",
    "TagList",
    "TraceRecord",
    "brute_force_minimize",
    "build_factor_graph",
    "count_connected_sequences",
    "csr_extendable",
    "energy",
    "energy_after_flip",
    "enumerate_connected_subsets",
    "enumerate_connected_subsets_recursive",
    "flip",
    "flip_search",
    "generate_ising",
    "generate_subgraph_grid",
    "initial_configuration",
    "junction_potential",
    "make_configuration",
    "neighbors",
    "parse_model",
    "verify_hamming_bound",
    "write_model",
]
