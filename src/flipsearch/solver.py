"""Depth-limited greedy flip search over connected variable subsets.

Starting from an initial configuration, the solver flips connected subsets
of variables whenever a flip strictly lowers the energy, working through
subset sizes 1, 2, ... up to max_depth. For each size it first explores all
previously unseen subsets of that size (growing the CS-tree), then
repeatedly revisits every built subset touched by recent flips until no
further flip helps. A run that finishes size n is optimal within Hamming
distance n: no flip of n or fewer variables can lower the energy. At
max_depth = 1 this is exactly Iterated Conditional Modes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cstree import CSTree
from .model import (
    Configuration,
    FactorGraph,
    _FlipScratch,
    _check_bits,
    energy,
    flip,
    make_configuration,
)
from .taglist import TagList

__all__ = [
    "SolveParams",
    "SolveResult",
    "TraceRecord",
    "initial_configuration",
    "flip_search",
    "icm",
]


@dataclass
class SolveParams:
    max_depth: int
    time_limit: float | None = None
    record_trace: bool = True

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.time_limit is not None and not (
            math.isfinite(self.time_limit) and self.time_limit > 0
        ):
            raise ValueError(
                f"time_limit must be positive and finite, got {self.time_limit}"
            )


@dataclass
class TraceRecord:
    elapsed_seconds: float
    best_energy: float
    depth: int
    flips_accepted: int
    subsets_evaluated: int
    cstree_nodes: int


@dataclass
class SolveResult:
    configuration: Configuration
    reached_depth: int
    completed_depth: int
    flips_accepted: int
    subsets_evaluated: int
    cstree_nodes: int
    recomputed_energy: float
    time_limit_hit: bool
    trace: list[TraceRecord] = field(default_factory=list)

    @property
    def energy(self) -> float:
        return self.configuration.energy


def initial_configuration(
    graph: FactorGraph, policy: str = "unary_min", given=None
) -> Configuration:
    """Starting point for a solve.

    unary_min sets each variable to whichever value minimizes the summed
    arity-1 tables touching it (ties and unary-free variables go to 0);
    all_zero is all zeros; given validates a user-supplied bit vector.
    """
    m = graph.variable_count
    if policy == "all_zero":
        return make_configuration(graph, np.zeros(m, dtype=np.uint8))
    if policy == "unary_min":
        sum0 = np.zeros(m)
        sum1 = np.zeros(m)
        for f in graph.factors:
            if f.arity == 1:
                sum0[f.scope[0]] += f.table[0]
                sum1[f.scope[0]] += f.table[1]
        bits = (sum1 < sum0).astype(np.uint8)
        return make_configuration(graph, bits)
    if policy == "given":
        if given is None:
            raise ValueError("init policy 'given' needs a configuration")
        return make_configuration(graph, given)
    raise ValueError(f"unknown init policy {policy!r}")


class _TimeUp(Exception):
    pass


class _Run:
    """Mutable state of one solve."""

    def __init__(self, graph: FactorGraph, config: Configuration, params: SolveParams):
        self.graph = graph
        self.config = config
        self.params = params
        self.tree = CSTree(graph)
        self.scratch = _FlipScratch(graph)
        self.flips_accepted = 0
        self.subsets_evaluated = 0
        self.depth = 1
        self.t0 = time.perf_counter()
        self.trace: list[TraceRecord] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def record(self) -> None:
        if self.params.record_trace:
            self.trace.append(
                TraceRecord(
                    elapsed_seconds=self.elapsed(),
                    best_energy=self.config.energy,
                    depth=self.depth,
                    flips_accepted=self.flips_accepted,
                    subsets_evaluated=self.subsets_evaluated,
                    cstree_nodes=self.tree.node_count,
                )
            )

    def try_flip(self, node: int, sink: TagList) -> None:
        """Evaluate flipping node's subset; accept iff strictly improving."""
        subset = self.tree.sequence_of(node)
        delta = self.scratch.delta(self.graph, self.config.bits, subset)
        self.subsets_evaluated += 1
        if delta < 0.0:
            flip(self.config, subset, self.config.energy + delta)
            self.flips_accepted += 1
            sink.tag_connected_variables(self.tree, self.graph, node)
            self.record()
        if (
            self.params.time_limit is not None
            and self.elapsed() > self.params.time_limit
        ):
            raise _TimeUp


def flip_search(
    graph: FactorGraph, config: Configuration, params: SolveParams
) -> SolveResult:
    """Run the depth-limited flip search from `config` (modified in place).

    Bits that are not a uint8 array are replaced by a checked uint8 copy.
    """
    config.bits = _check_bits(graph, config.bits)
    run = _Run(graph, config, params)
    tags_a = TagList(graph.variable_count)
    tags_b = TagList(graph.variable_count)
    completed = 0
    time_up = False
    run.record()
    try:
        n = 1
        while True:
            run.depth = n
            s = run.tree.first_subset_of_size(n)
            if s is None:
                # no connected subset of this size exists, hence none of any
                # larger size; every depth up to max_depth is finished
                # because disconnected flips decompose into smaller connected
                # ones with additive deltas
                run.depth = completed = params.max_depth
                break
            while s is not None:
                run.try_flip(s, tags_a)
                s = run.tree.next_subset_of_same_size(s)
            while True:
                s2 = tags_a.first_tagged_subset(run.tree)
                if s2 is None:
                    break
                while s2 is not None:
                    run.try_flip(s2, tags_b)
                    s2 = tags_a.next_tagged_subset(run.tree, s2)
                tags_a.untag_all()
                tags_a, tags_b = tags_b, tags_a
            completed = n
            if n == params.max_depth:
                break
            n += 1
            run.record()
    except _TimeUp:
        time_up = True
    run.record()
    recomputed = energy(graph, run.config.bits)
    return SolveResult(
        configuration=run.config,
        reached_depth=run.depth,
        completed_depth=completed,
        flips_accepted=run.flips_accepted,
        subsets_evaluated=run.subsets_evaluated,
        cstree_nodes=run.tree.node_count,
        recomputed_energy=recomputed,
        time_limit_hit=time_up,
        trace=run.trace,
    )


def icm(graph: FactorGraph, config: Configuration, **kwargs) -> SolveResult:
    """Iterated Conditional Modes: flip search restricted to single variables."""
    return flip_search(graph, config, SolveParams(max_depth=1, **kwargs))
