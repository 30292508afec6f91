"""Binary-variable factor graphs and incremental energy evaluation.

A model is a set of binary variables plus factors, each factor being an
explicit value table over the joint assignments of its scope. Two variables
are adjacent iff they co-occur in some factor scope; this adjacency is what
"connected subset of variables" refers to throughout the package.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, islice
from operator import attrgetter
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

# Scopes are int32 arrays padded with the dummy variable m, so m must fit.
MAX_VARIABLES = int(np.iinfo(np.int32).max)

# Two energies of the same bits, summed in different orders, agree when
# they differ by at most ENERGY_REL_TOL * max(1, |E|).
ENERGY_REL_TOL = 1e-9


def integer(value) -> int | None:
    """`value` as an int if it is an integer other than a bool, numpy's
    integers included, by `operator.index`; None otherwise."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


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


@dataclass(frozen=True, eq=False)
class FactorGraph:
    """Immutable factor graph over binary variables 0..m-1, held in
    read-only flat arrays.

    `scopes[:, f]` is factor f's scope, left-padded with the dummy variable
    m, whose bit is always 0, so one table index rule fits every arity.
    Factor f's table starts at `tables[table_start[f]]`. The factors whose
    scope holds v are `incident[incident_start[v]:incident_start[v + 1]]`,
    in factor order; the variables sharing a factor with v are
    `adjacent[adjacent_start[v]:adjacent_start[v + 1]]`, sorted.
    """

    variable_count: int
    scopes: np.ndarray  # (max arity or 1, factors) int32
    tables: np.ndarray  # float64
    table_start: np.ndarray  # (factors,) int64
    incident: np.ndarray  # int32
    incident_start: np.ndarray  # (variables + 1,) int64
    adjacent: np.ndarray  # int32
    adjacent_start: np.ndarray  # (variables + 1,) int64

    def __post_init__(self):
        for field in fields(self)[1:]:
            getattr(self, field.name).flags.writeable = False

    @property
    def factors(self) -> tuple[Factor, ...]:
        """The factors as `Factor` tuples, built anew on each access."""
        scopes = self.scopes.T
        real = scopes < self.variable_count
        variables = iter(scopes[real].tolist())
        values = iter(self.tables.tolist())
        return tuple(
            Factor(tuple(islice(variables, k)), tuple(islice(values, 1 << k)))
            for k in np.count_nonzero(real, axis=1).tolist()
        )

    @cached_property
    def incident_weights(self) -> np.ndarray:
        """`kernels.incident_weights` of the graph, built on first use and
        kept, read-only, for every scratch and flip of the graph."""
        weights = kernels.incident_weights(self)
        weights.flags.writeable = False
        return weights

    def __eq__(self, other):
        if not isinstance(other, FactorGraph):
            return NotImplemented
        return (
            self.variable_count == other.variable_count
            and np.array_equal(self.scopes, other.scopes)
            and np.array_equal(self.tables, other.tables)
        )


@dataclass
class Configuration:
    """A 0/1 assignment to every variable plus its maintained total energy.

    The energy field is kept up to date by delta accumulation across flips,
    not recomputed per query; drift is observable via a final recomputation.
    """

    bits: np.ndarray
    energy: float


def check_factor(fi: int, scope: Sequence[int], table: Sequence[float], m: int) -> None:
    """Raise the ModelError of factor fi, if it has one: an empty scope, a
    repeated variable, a variable out of [0, m), a table of the wrong size
    or a non-finite value, the first of these in that order."""

    def fault(what: str, part: str = "scope") -> ModelError:
        return ModelError(f"factor {fi}: {what}", fi, part)

    if not scope:
        raise fault("empty scope")
    if len(set(scope)) != len(scope):
        raise fault(f"duplicate variable in scope {tuple(scope)}")
    for v in scope:
        if not 0 <= v < m:
            raise fault(f"variable {v} out of range [0, {m})")
    if len(table) != 2 ** len(scope):
        raise fault(f"table has {len(table)} entries, expected {2 ** len(scope)}", "table")
    for x in table:
        if not math.isfinite(x):
            raise fault(f"non-finite table value {x}", "table")


def build_factor_graph(variable_count: int, factors: Iterable[Factor]) -> FactorGraph:
    """Validate factors and lay them out in a FactorGraph's arrays."""
    m = int(variable_count)
    if m < 0:
        raise ModelError(f"variable_count must be non-negative, got {m}")
    if m > MAX_VARIABLES:
        raise ModelError(f"variable_count {m} exceeds {MAX_VARIABLES}")
    factors = tuple(factors)
    scopes = list(map(attrgetter("scope"), factors))
    tables = list(map(attrgetter("table"), factors))
    arity = np.fromiter(map(len, scopes), np.int64, len(factors))
    sizes = np.fromiter(map(len, tables), np.int64, len(factors))
    try:
        flat = np.fromiter(chain.from_iterable(scopes), np.int64, int(arity.sum()))
    except OverflowError:  # a variable beyond int64 is out of range
        for fi, f in enumerate(factors):
            check_factor(fi, f.scope, f.table, m)
    values = np.fromiter(chain.from_iterable(tables), np.float64, int(sizes.sum()))
    return graph_from_arrays(m, arity, flat, sizes, values)


def graph_from_arrays(
    m: int, arity: np.ndarray, flat: np.ndarray, sizes: np.ndarray, values: np.ndarray
) -> FactorGraph:
    """The FactorGraph of factors with the int64 `arity` and table `sizes`,
    their scopes and their tables laid end to end in `flat` and `values`.

    The graph keeps `values`, as float64, for its `tables` without a copy,
    so it must not be changed afterwards. Every factor is checked at once;
    the error raised is the one `check_factor` raises for the first factor
    at fault.
    """
    count = len(arity)
    table_start = np.cumsum(sizes)
    table_start -= sizes
    # a table of 2^62 or more entries cannot exist
    faulty = (arity < 1) | (sizes != np.left_shift(1, np.minimum(arity, 62)))
    outside = (flat < 0) | (flat >= m)
    if outside.any():
        faulty[np.repeat(np.arange(count), arity)[outside]] = True
    del outside
    infinite = ~np.isfinite(values)
    if infinite.any():
        faulty[np.searchsorted(table_start, np.flatnonzero(infinite), "right") - 1] = True
    del infinite
    # the scopes of the factors before the first fault found so far, which
    # are in range, so only those factors can hold a duplicate variable
    valid = int(np.argmax(faulty)) if faulty.any() else count
    scopes = _padded_scopes(m, arity[:valid], flat[: int(arity[:valid].sum())])
    faulty[:valid] |= _repeats(scopes, m)
    if faulty.any():
        fi = int(np.argmax(faulty))
        start = int(arity[:fi].sum())
        scope = flat[start : start + arity[fi]].tolist()
        table = values[table_start[fi] : table_start[fi] + sizes[fi]].tolist()
        check_factor(fi, scope, table, m)
    del faulty
    # a stable sort of the scope entries by variable lists each variable's
    # factors in factor order
    order = np.argsort(flat, kind="stable")
    incident = np.repeat(np.arange(count, dtype=np.int32), arity).take(order)
    del order
    incident_start = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=m), out=incident_start[1:])
    adjacent, adjacent_start = _adjacency(m, scopes, int(np.dot(arity, arity - 1)))
    return FactorGraph(
        variable_count=m,
        scopes=scopes,
        # a view, so that the graph making its tables read-only leaves the
        # caller's array as it was
        tables=np.ascontiguousarray(values, dtype=np.float64).view(),
        table_start=table_start,
        incident=incident,
        incident_start=incident_start,
        adjacent=adjacent,
        adjacent_start=adjacent_start,
    )


def _padded_scopes(m: int, arity: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The (max arity or 1, factors) int32 array of the scopes in `flat`,
    each left-padded with m."""
    width = int(arity.max(initial=1))
    scopes = np.full((width, len(arity)), m, dtype=np.int32)
    # boolean assignment through the transpose fills factor by factor, each
    # factor's rightmost `arity` slots left to right
    scopes.T[np.arange(width) >= width - arity[:, None]] = flat
    return scopes


def _repeats(scopes: np.ndarray, m: int) -> np.ndarray:
    """For each factor, whether a variable below m fills two of its slots."""
    repeated = np.zeros(scopes.shape[1], dtype=bool)
    for a in range(len(scopes) - 1):
        real = scopes[a] < m
        for b in range(a + 1, len(scopes)):
            repeated |= real & (scopes[a] == scopes[b])
    return repeated


def _pair_keys(m: int, scopes: np.ndarray, pairs: int) -> np.ndarray:
    """The key v * m + w of each ordered pair (v, w) of one factor's
    variables, over the valid padded `scopes`, which hold `pairs` such
    pairs in all, in one int64 array."""
    keys = np.empty(pairs, dtype=np.int64)
    at = 0
    # with the scopes left-padded, slot a of a factor is real iff every
    # later slot is
    for a in range(len(scopes) - 1):
        real = scopes[a] < m
        first = scopes[a][real]
        for b in range(a + 1, len(scopes)):
            second = scopes[b][real]
            for v, w in (first, second), (second, first):
                out = keys[at : at + len(v)]
                np.multiply(v, m, out=out, dtype=np.int64)
                out += w
                at += len(v)
    return keys


def _adjacency(m: int, scopes: np.ndarray, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """`adjacent` and `adjacent_start` of the valid padded `scopes`, which
    hold `pairs` ordered pairs of distinct scope slots in all: the pair
    keys, sorted in place, list each variable's neighbours in order once
    repeats are dropped."""
    keys = _pair_keys(m, scopes, pairs)
    keys.sort()
    distinct = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    if not distinct.all():
        keys = keys[distinct]
    del distinct
    adjacent = np.empty(len(keys), dtype=np.int32)
    np.remainder(keys, max(m, 1), out=adjacent, casting="unsafe")
    np.floor_divide(keys, max(m, 1), out=keys)
    return adjacent, np.searchsorted(keys, np.arange(m + 1))


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


def table_indices(graph: FactorGraph, bits: np.ndarray) -> np.ndarray:
    """Each factor's table index under `bits`, a checked uint8 array; the
    bits are gathered one scope slot at a time, to bound the temporaries."""
    padded = np.append(bits, np.uint8(0))
    index = np.zeros(len(graph.table_start), dtype=np.int64)
    for slot in graph.scopes:
        index <<= 1
        # indexing converts the int32 slot to intp piecewise, `take` at once
        index |= padded[slot]
    return index


def indexed_energy(graph: FactorGraph, index: np.ndarray) -> float:
    """Sum of the table entries `index` selects, one per factor, added one
    by one in factor order, starting from +0.0; `index` is left as it is."""
    terms = np.zeros(len(index) + 1)
    # each entry's position is laid in the slot its value goes to, which
    # take reads before writing; with mode "clip" take writes to `out`
    # directly, "raise" would buffer
    entries = terms[1:].view(np.int64)
    np.add(graph.table_start, index, out=entries)
    graph.tables.take(entries, out=terms[1:], mode="clip")
    # add.accumulate adds sequentially, so this is the plain loop's sum
    with np.errstate(over="ignore"):
        np.add.accumulate(terms, out=terms)
    return float(terms[-1])


def _finite_energy(e: float) -> float:
    """`e`, or a ModelError if it is not finite."""
    if not math.isfinite(e):
        raise ModelError(f"energy {e!r} is not finite: the table values sum past the float range")
    return e


def energy(graph: FactorGraph, bits: Sequence[int]) -> float:
    """Total energy: sum of all factor table entries selected by `bits`,
    added one by one in factor order, starting from +0.0."""
    return indexed_energy(graph, table_indices(graph, _check_bits(graph, bits)))


class _FlipScratch:
    """Solve-lifetime state for the flip-delta kernels, and a block cache.

    `index` holds each factor's current table index. `track` sets it from
    the bits, and from then on only `flipped` changes it, by XOR-ing the
    slot weights of the flipped set's incidence; so it stays exactly
    `table_indices` of the bits as long as every flip is reported.

    `delta` is the one entry point per evaluated subset. Without a `slot` it
    runs the scalar `kernels.flip_delta`. The solver hands over a block of
    subsets of one size with `load_block`; a `delta` call with the slot of a
    block row returns that row's value from `kernels.flip_deltas`, computed
    for the whole block at the block's first `delta` call into one terms
    matrix that lives as long as the scratch. A cached value is bit for bit
    the scalar one while no variable in S or next to S has flipped since, S
    being the subset. `flipped` adds each flipped set T and its neighbours
    to `stale`, which the block's computation empties, and S is stale iff
    it meets `stale`; a stale entry is recomputed by the scalar kernel.
    So at a block's end `stale` is what the block's flips touched.
    """

    def __init__(self, graph: FactorGraph):
        self.graph = graph
        # table lookups: a scalar call's, and a block's total once computed
        self.evaluations = 0
        # the index of the all-zero bits until `track` is called
        self.index = np.zeros(len(graph.table_start), dtype=np.int64)
        self._index = memoryview(self.index)
        views = [
            memoryview(a)
            for a in (
                graph.incident,
                graph.incident_start,
                graph.incident_weights,
                graph.table_start,
                graph.tables,
                graph.adjacent,
                graph.adjacent_start,
            )
        ]
        # what the scalar kernel reads, and what `flipped` walks
        self._tables, self._walk = views[:5], views[:3] + views[5:]
        self._work = np.zeros(0)
        self._rows = None
        # the block's deltas once computed, and the variables in or next to
        # a flip since then
        self._values = None
        self.stale: set[int] = set()

    def track(self, index: np.ndarray) -> None:
        """Take `index`, the `table_indices` of the bits, as the current one."""
        self.index[:] = index
        self._values = None

    def load_block(self, rows: np.ndarray) -> None:
        """Make `rows`, a (B, n) array of subsets, the block that slots index."""
        self._rows = rows
        self._values = None

    def _terms(self, shape: tuple[int, int]) -> np.ndarray:
        """A zeroed float64 matrix of `shape` in the kept work buffer, which
        grows when it is too small."""
        size = shape[0] * shape[1]
        if size > len(self._work):
            self._work = np.zeros(max(size, 2 * len(self._work)))
        work = self._work[:size].reshape(shape)
        work.fill(0.0)
        return work

    def flipped(self, subset) -> None:
        """Record that the variables `subset` have just been toggled, and add
        them with their neighbours to `stale`."""
        index = self._index
        incident, incident_start, weight, adjacent, adjacent_start = self._walk
        stale = self.stale
        stale.update(subset)
        for v in subset:
            for i in range(incident_start[v], incident_start[v + 1]):
                index[incident[i]] ^= weight[i]
            stale.update(adjacent[adjacent_start[v] : adjacent_start[v + 1]])

    def delta(self, subset, slot=None) -> float:
        """Energy change of toggling the variables `subset`.

        `slot`, if given, is the index of `subset` among the rows of the
        loaded block.
        """
        if slot is not None:
            if self._values is None:
                values, lookups = kernels.flip_deltas(
                    self.index, self._rows, self.graph, self._terms
                )
                self._values = values.tolist()
                self.evaluations += lookups
                self.stale.clear()
            if self.stale.isdisjoint(subset):
                return self._values[slot]
            return kernels.flip_delta(self._index, subset, *self._tables)[0]
        d, lookups = kernels.flip_delta(self._index, subset, *self._tables)
        self.evaluations += lookups
        return d


def _variable_id(v) -> int:
    """`v` as a variable id, or a ModelError if it is not an integer."""
    i = integer(v)
    if i is None:
        raise ModelError(f"variable id must be an int, got {v!r}")
    return i


def _check_subset(graph: FactorGraph, subset) -> list[int]:
    s = sorted(map(_variable_id, subset))
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

    Only factors incident to the subset are looked up (twice each), but the
    table indices are built from `config.bits` on every call, an O(factors)
    numpy pass; the configuration itself is not modified.
    """
    bits = _check_bits(graph, config.bits)
    s = _check_subset(graph, subset)
    if scratch is None:
        scratch = _FlipScratch(graph)
    scratch.track(table_indices(graph, bits))
    return config.energy + scratch.delta(s)


def flip(config: Configuration, subset, new_energy: float) -> Configuration:
    """Toggle the bits in `subset` in place and adopt the precomputed energy."""
    for v in subset:
        config.bits[v] ^= 1
    config.energy = float(new_energy)
    return config


def neighbors(graph: FactorGraph, j: int) -> tuple[int, ...]:
    """Sorted distinct variables sharing at least one factor with `j`."""
    j = _variable_id(j)
    if not 0 <= j < graph.variable_count:
        raise ModelError(f"variable {j} out of range")
    start = graph.adjacent_start
    return tuple(graph.adjacent[start[j] : start[j + 1]].tolist())


def make_configuration(graph: FactorGraph, bits: Sequence[int]) -> Configuration:
    """Configuration with a freshly computed (exact) energy."""
    arr = _check_bits(graph, bits)
    return Configuration(arr, energy(graph, arr))
