"""Binary-variable factor graphs and incremental energy evaluation.

A model is a set of binary variables plus factors, each factor being an
explicit value table over the joint assignments of its scope. Two variables
are adjacent iff they co-occur in some factor scope; this adjacency is what
"connected subset of variables" refers to throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels

__all__ = [
    "Factor",
    "FactorGraph",
    "Configuration",
    "build_factor_graph",
    "energy",
    "energy_after_flip",
    "flip",
    "neighbors",
]


class ModelError(ValueError):
    """Raised for structurally invalid factors or configurations.

    An error about one factor carries its index in `factor` and the part at
    fault, "scope" or "table", in `part`; both are None otherwise.
    """

    def __init__(
        self, message: str, factor: int | None = None, part: str | None = None
    ):
        super().__init__(message)
        self.factor = factor
        self.part = part


@dataclass(frozen=True)
class Factor:
    """A potential: an ordered variable scope and a table of 2^arity values.

    The table entry for an assignment is found by reading the scope bits as a
    binary number with the last scope variable as the least significant bit
    (last variable varying fastest).
    """

    scope: tuple[int, ...]
    table: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(int(v) for v in self.scope))
        object.__setattr__(self, "table", tuple(float(x) for x in self.table))

    @property
    def arity(self) -> int:
        return len(self.scope)


@dataclass(frozen=True)
class FactorGraph:
    """Immutable factor graph over binary variables 0..m-1.

    `adjacency[v]` lists the variables sharing a factor with v, sorted;
    `incidence[v]` lists the indices of the factors whose scope holds v, in
    factor order. The kernels and the CS-tree read only these and `factors`.
    """

    variable_count: int
    factors: tuple[Factor, ...]
    adjacency: tuple[tuple[int, ...], ...]
    incidence: tuple[tuple[int, ...], ...]

    def __eq__(self, other):
        if not isinstance(other, FactorGraph):
            return NotImplemented
        return (
            self.variable_count == other.variable_count
            and self.factors == other.factors
        )

    def __hash__(self):
        return hash((self.variable_count, self.factors))


@dataclass
class Configuration:
    """A 0/1 assignment to every variable plus its maintained total energy.

    The energy field is kept up to date by delta accumulation across flips,
    not recomputed per query; drift is observable via a final recomputation.
    """

    bits: np.ndarray
    energy: float

    def copy(self) -> "Configuration":
        return Configuration(self.bits.copy(), self.energy)


def build_factor_graph(variable_count: int, factors: Iterable[Factor]) -> FactorGraph:
    """Validate factors and precompute adjacency and incidence."""
    m = int(variable_count)
    if m < 0:
        raise ModelError(f"variable_count must be non-negative, got {m}")
    factors = tuple(factors)
    neighbor_sets = [set() for _ in range(m)]
    incidence = [[] for _ in range(m)]
    for fi, f in enumerate(factors):
        if f.arity < 1:
            raise ModelError(f"factor {fi}: empty scope", fi, "scope")
        if len(set(f.scope)) != f.arity:
            raise ModelError(
                f"factor {fi}: duplicate variable in scope {f.scope}", fi, "scope"
            )
        for v in f.scope:
            if not 0 <= v < m:
                raise ModelError(
                    f"factor {fi}: variable {v} out of range [0, {m})", fi, "scope"
                )
        if len(f.table) != 2**f.arity:
            raise ModelError(
                f"factor {fi}: table has {len(f.table)} entries, "
                f"expected {2 ** f.arity}",
                fi,
                "table",
            )
        for x in f.table:
            if not math.isfinite(x):
                raise ModelError(
                    f"factor {fi}: non-finite table value {x}", fi, "table"
                )
        for v in f.scope:
            incidence[v].append(fi)
            for u in f.scope:
                if u != v:
                    neighbor_sets[v].add(u)
    return FactorGraph(
        variable_count=m,
        factors=factors,
        adjacency=tuple(tuple(sorted(s)) for s in neighbor_sets),
        incidence=tuple(tuple(xs) for xs in incidence),
    )


def _check_bits(graph: FactorGraph, bits: Sequence[int]) -> np.ndarray:
    """`bits` as a contiguous uint8 array, after checking that it holds one
    0 or 1 per variable; the array itself when it already is one."""
    arr = np.asarray(bits)
    if arr.shape != (graph.variable_count,):
        raise ModelError(
            f"configuration has shape {arr.shape}, "
            f"expected ({graph.variable_count},)"
        )
    if not ((arr == 0) | (arr == 1)).all():
        raise ModelError("configuration bits must be 0 or 1")
    return np.ascontiguousarray(arr, dtype=np.uint8)


def energy(graph: FactorGraph, bits: Sequence[int]) -> float:
    """Total energy: sum of all factor table entries selected by `bits`."""
    return kernels.total_energy(_check_bits(graph, bits).tolist(), graph.factors)


class _FlipScratch:
    """Per-solve scratch state for the flip-delta kernels, and a block cache.

    `delta` is the one entry point per evaluated subset. Without a `slot` it
    runs the scalar `kernels.flip_delta`. The solver hands over a block of
    subsets of one size with `load_block`; a `delta` call with the slot of a
    block row returns that row's value from `kernels.flip_deltas`, computed
    for the whole block at the block's first `delta` call. A cached value is
    bit for bit the scalar one while no variable in S or next to S has
    flipped since, S being the subset. `flipped` collects each flipped set T
    and its neighbours, and S is stale iff it meets them; a stale entry is
    recomputed by the scalar kernel. The factor arrays are built on first
    use, once per scratch.
    """

    def __init__(self, graph: FactorGraph):
        self.in_subset = bytearray(graph.variable_count)
        self.touched = [0] * len(graph.factors)
        self.stamp = 0
        self.evaluations = 0
        self._arrays: kernels.FactorArrays | None = None
        self._rows = None
        # the block's deltas and lookups once computed, and the variables
        # in or next to a flip since then
        self._values = self._lookups = None
        self._dirty: set[int] = set()

    def arrays(self, graph: FactorGraph) -> kernels.FactorArrays:
        """The model's factor arrays, built on the first call."""
        if self._arrays is None:
            self._arrays = kernels.factor_arrays(graph.variable_count, graph.factors)
        return self._arrays

    def load_block(self, rows: np.ndarray) -> None:
        """Make `rows`, a (B, n) array of subsets, the block that slots index."""
        self._rows = rows
        self._values = None

    def flipped(self, graph: FactorGraph, subset) -> None:
        """Record that the variables `subset` have just been toggled."""
        dirty, adjacency = self._dirty, graph.adjacency
        dirty.update(subset)
        for v in subset:
            dirty.update(adjacency[v])

    def delta(self, graph: FactorGraph, bits: np.ndarray, subset, slot=None) -> float:
        """Energy change of toggling the variables `subset` in `bits`.

        `slot`, if given, is the index of `subset` among the rows of the
        loaded block.
        """
        if slot is not None:
            if self._values is None:
                values, lookups = kernels.flip_deltas(bits, self._rows, self.arrays(graph))
                self._values, self._lookups = values.tolist(), lookups.tolist()
                self._dirty.clear()
            if self._dirty.isdisjoint(subset):
                self.evaluations += self._lookups[slot]
                return self._values[slot]
        self.stamp += 1
        d, evals = kernels.flip_delta(
            memoryview(bits),
            subset,
            graph.factors,
            graph.incidence,
            self.in_subset,
            self.touched,
            self.stamp,
        )
        self.evaluations += evals
        return d


def _check_subset(graph: FactorGraph, subset) -> list[int]:
    s = sorted(int(v) for v in subset)
    if not s:
        raise ModelError("flip set must be non-empty")
    if len(set(s)) != len(s):
        raise ModelError(f"flip set has duplicate indices: {s}")
    if s[0] < 0 or s[-1] >= graph.variable_count:
        raise ModelError(f"flip set {s} out of range")
    return s


def energy_after_flip(
    graph: FactorGraph, config: Configuration, subset, scratch: _FlipScratch | None = None
) -> float:
    """Energy of `config` with the variables in `subset` toggled.

    Only factors incident to the subset are evaluated (twice each); the
    configuration itself is not modified.
    """
    s = _check_subset(graph, subset)
    if scratch is None:
        scratch = _FlipScratch(graph)
    return config.energy + scratch.delta(graph, config.bits, s)


def flip(config: Configuration, subset, new_energy: float) -> Configuration:
    """Toggle the bits in `subset` in place and adopt the precomputed energy."""
    for v in subset:
        config.bits[v] ^= 1
    config.energy = float(new_energy)
    return config


def neighbors(graph: FactorGraph, j: int) -> tuple[int, ...]:
    """Sorted distinct variables sharing at least one factor with `j`."""
    if not 0 <= j < graph.variable_count:
        raise ModelError(f"variable {j} out of range")
    return graph.adjacency[j]


def make_configuration(graph: FactorGraph, bits: Sequence[int]) -> Configuration:
    """Configuration with a freshly computed (exact) energy."""
    arr = _check_bits(graph, bits)
    return Configuration(arr, energy(graph, arr))
