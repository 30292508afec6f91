"""Depth-limited greedy flip search over connected variable subsets.

Starting from an initial configuration, the solver flips connected subsets
of variables whenever a flip strictly lowers the energy, working through
subset sizes 1, 2, ... up to max_depth. For each size it builds that level
of the CS-tree and first explores all of its subsets, then repeatedly
revisits every built subset touched by recent flips until no further flip
helps. A run that finishes size n is optimal within Hamming distance n: no
flip of n or fewer variables can lower the energy. At max_depth = 1 this is
exactly Iterated Conditional Modes.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cstree import CSTree
from .model import (
    ENERGY_REL_TOL,
    Configuration,
    FactorGraph,
    ModelError,
    _FlipScratch,
    _check_bits,
    _finite_energy,
    energy,
    flip,
    indexed_energy,
    integer,
    make_configuration,
    table_indices,
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

    def __post_init__(self):
        depth = integer(self.max_depth)
        if depth is None:
            raise ValueError(f"max_depth must be an int, got {self.max_depth!r}")
        self.max_depth = depth
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.time_limit is not None and (
            isinstance(self.time_limit, bool)
            or not (math.isfinite(self.time_limit) and self.time_limit > 0)
        ):
            raise ValueError(
                f"time_limit must be positive and finite, got {self.time_limit!r}"
            )


@dataclass(slots=True)
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
    # per record: elapsed seconds; best energy; depth, flips, evaluations, nodes
    trace_columns: tuple[array, array, array] = field(repr=False)

    @property
    def energy(self) -> float:
        return self.configuration.energy

    @cached_property
    def trace(self) -> list[TraceRecord]:
        """The records, built when first read."""
        seconds, energies, counters = self.trace_columns
        return [TraceRecord(*r) for r in zip(seconds, energies, *[iter(counters)] * 4)]


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
        # the unary tables, added per variable in factor order
        unary = (graph.scopes[:-1] == m).all(axis=0)
        entries = graph.table_start[unary][:, None] + [0, 1]
        sums = np.zeros((m, 2))
        with np.errstate(over="ignore"):
            np.add.at(sums, graph.scopes[-1, unary], graph.tables[entries])
        bits = (sums[:, 1] < sums[:, 0]).astype(np.uint8)
        return make_configuration(graph, bits)
    if policy == "given":
        if given is None:
            raise ValueError("init policy 'given' needs a configuration")
        return make_configuration(graph, given)
    raise ValueError(f"unknown init policy {policy!r}")


# Subsets evaluated as one block by the batched flip-delta kernel.
BLOCK_ROWS = 256


def _blocks(tree: CSTree, selected):
    """Blocks (ids, rows) of up to BLOCK_ROWS subsets of one level, from
    (n, rows) pairs of level n and its ascending rows: a range in the first
    pass, an index array in a revisit."""
    for n, rows in selected:
        first, _, _ = tree.links(n)
        for i in range(0, len(rows), BLOCK_ROWS):
            part = rows[i : i + BLOCK_ROWS]
            if isinstance(part, range):
                # consecutive rows are read through a slice
                ids = range(first + part.start, first + part.stop)
                yield ids, tree.rows(n, slice(part.start, part.stop))
            else:
                yield first + part, tree.rows(n, part)


class _Run:
    """Mutable state of one solve."""

    def __init__(self, graph: FactorGraph, config: Configuration, params: SolveParams):
        self.config = config
        self.scratch = _FlipScratch(graph)
        self.flips_accepted = 0
        self.subsets_evaluated = 0
        self.depth = 1
        # the highest node id the sweeps have reached, which the first pass
        # raises a flip and a block at a time and a revisit never lowers
        self.nodes = 0
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + (params.time_limit or math.inf)
        self.tree = CSTree(graph, self.expired)
        self.seconds, self.energies, self.counters = array("d"), array("d"), array("q")

    def expired(self) -> bool:
        """Whether the time limit has passed: read at each block's end and
        before each step of a CS-tree level build."""
        return time.perf_counter() > self.deadline

    def record(self) -> None:
        self.seconds.append(time.perf_counter() - self.t0)
        self.energies.append(self.config.energy)
        self.counters.extend(
            (self.depth, self.flips_accepted, self.subsets_evaluated, self.nodes)
        )

    def sweep(self, blocks, tags: TagList) -> None:
        """Try flipping each subset of `blocks`, (ids, rows) pairs of one
        level; accept a flip iff it strictly lowers the energy, and raise
        ModelError if the energy it leads to is not finite. The counters and
        the nodes reached catch up at a flip, for its record, and at a
        block's end, where what the block's flips touched is tagged and the
        clock is read: past the time limit, TimeoutError is raised."""
        scratch, config = self.scratch, self.config
        delta_of = scratch.delta
        for ids, rows in blocks:
            scratch.load_block(rows)
            evaluated, flips = self.subsets_evaluated, self.flips_accepted
            for slot, subset in enumerate(rows.tolist()):
                delta = delta_of(subset, slot)
                if delta < 0.0:
                    e = _finite_energy(config.energy + delta)
                    self.subsets_evaluated = evaluated + slot + 1
                    if ids[slot] > self.nodes:
                        self.nodes = ids[slot]
                    flip(config, subset, e)
                    self.flips_accepted += 1
                    scratch.flipped(subset)
                    self.record()
            if self.flips_accepted > flips:
                # tags are read only between sweeps, so one call per block
                # tags the union of its flips' neighbourhoods
                tags.tag_connected_variables(scratch.stale)
            self.subsets_evaluated = evaluated + len(ids)
            if ids[-1] > self.nodes:
                self.nodes = ids[-1]
            if self.expired():
                raise TimeoutError("the time limit passed")


def flip_search(
    graph: FactorGraph, config: Configuration, params: SolveParams
) -> SolveResult:
    """Run the depth-limited flip search from `config` (modified in place).

    Bits that are not a uint8 array are replaced by a checked uint8 copy;
    a non-finite energy E of the bits, or an energy not within
    ENERGY_REL_TOL * max(1, |E|) of E, raises ModelError, and so does a
    flip to an energy that is not finite. A run stopped by its time limit
    reports as completed the last depth it finished, or 0 if it has flipped
    since.
    """
    config.bits = _check_bits(graph, config.bits)
    index = table_indices(graph, config.bits)
    given, e = config.energy, _finite_energy(indexed_energy(graph, index))
    if not (math.isfinite(given) and abs(given - e) <= ENERGY_REL_TOL * max(1.0, abs(e))):
        raise ModelError(
            f"configuration energy {given!r} is not the energy of its bits, {e!r}"
        )
    run = _Run(graph, config, params)
    run.scratch.track(index)
    tree = run.tree
    tags = TagList(graph.variable_count)
    completed = 0
    # flips accepted when depth `completed` was finished
    certified_flips = 0
    time_up = False
    run.record()
    try:
        n = 1
        while True:
            run.depth = n
            s = tree.first_subset_of_size(n)
            if s is None:
                # no connected subset of this size exists, hence none of any
                # larger size; every depth up to max_depth is finished
                # because disconnected flips decompose into smaller connected
                # ones with additive deltas
                run.depth = completed = params.max_depth
                break
            run.sweep(_blocks(tree, [(n, range(tree.node_count + 1 - s))]), tags)
            # a round revisits what is tagged at its start; its flips tag anew
            while tags.first_tagged_subset(tree) is not None:
                # only the walk holds the selection, so it is freed before
                # the next round selects
                blocks = _blocks(tree, tags.selection(tree))
                tags.untag_all()
                run.sweep(blocks, tags)
            completed = n
            certified_flips = run.flips_accepted
            if n == params.max_depth:
                break
            n += 1
            run.record()
    except TimeoutError:
        # from a block's end or a growth step of the level being built
        time_up = True
        if run.flips_accepted > certified_flips:
            # a flip of the unfinished depth can open improving flips of
            # any smaller size, and their revisits did not all run
            completed = 0
    run.record()
    # the flip-delta state is freed before the recompute adds its own memory
    run.scratch = None
    recomputed = energy(graph, run.config.bits)
    return SolveResult(
        configuration=run.config,
        reached_depth=run.depth,
        completed_depth=completed,
        flips_accepted=run.flips_accepted,
        subsets_evaluated=run.subsets_evaluated,
        cstree_nodes=run.nodes,
        recomputed_energy=recomputed,
        time_limit_hit=time_up,
        trace_columns=(run.seconds, run.energies, run.counters),
    )


def icm(graph: FactorGraph, config: Configuration, **kwargs) -> SolveResult:
    """Iterated Conditional Modes: flip search restricted to single variables."""
    return flip_search(graph, config, SolveParams(max_depth=1, **kwargs))
