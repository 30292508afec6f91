"""Brute-force reference implementations for desk-scale certification.

These deliberately share nothing with the CS-tree, tag-list or solver code
paths beyond the FactorGraph type, so differential tests against them are
meaningful.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ENERGY_REL_TOL, Configuration, FactorGraph, energy, integer, neighbors
from .model import _finite_energy

__all__ = [
    "EnumerationReport",
    "brute_force_minimize",
    "csr_extendable",
    "enumerate_connected_subsets_recursive",
    "count_connected_sequences",
    "verify_hamming_bound",
]


# brute_force_minimize holds 40 bytes per configuration at its peak (a code,
# an energy, a table index and two temporaries of its update, 8 bytes each),
# so it scans at most this many variables: 2^24 configurations, 640 MiB.
BRUTE_FORCE_MAX_VARIABLES = 24

# enumerate_connected_subsets_recursive refuses a model of more variables
# than this unless its size bound is at most this.
RECURSIVE_MAX_VARIABLES = 20

# verify_hamming_bound recomputes the energy of at most this many flips.
HAMMING_MAX_CHECKS = 5_000_000


@dataclass
class EnumerationReport:
    counts: dict[int, int]
    total: int
    subsets: list[frozenset[int]] | None = None


def brute_force_minimize(
    graph: FactorGraph, max_variables: int = BRUTE_FORCE_MAX_VARIABLES
) -> tuple[Configuration, float]:
    """Scan all 2^m configurations; return the lexicographically smallest
    argmin and its energy, or raise ModelError if that is not finite. A
    model of more than `max_variables` variables, or of more than
    BRUTE_FORCE_MAX_VARIABLES, raises ValueError before any allocation."""
    m = graph.variable_count
    limit = min(max_variables, BRUTE_FORCE_MAX_VARIABLES)
    if m > limit:
        raise ValueError(
            f"{m} variables exceed the brute-force guard {limit} (at most "
            f"{BRUTE_FORCE_MAX_VARIABLES}: the scan holds 40 bytes for each of "
            f"2^m configurations)"
        )
    n = 1 << m
    codes = np.arange(n, dtype=np.int64)
    energies = np.zeros(n, dtype=np.float64)
    # bit j of a configuration is stored at position m-1-j, so increasing
    # integer code order is lexicographic order of bit vectors
    for scope, start in zip(graph.scopes.T.tolist(), graph.table_start.tolist()):
        idx = np.zeros(n, dtype=np.int64)
        for v in scope:
            if v < m:  # not the padding
                idx = 2 * idx + ((codes >> (m - 1 - v)) & 1)
        with np.errstate(over="ignore"):
            energies += graph.tables[start:][idx]
    best = int(np.argmin(energies))
    e = _finite_energy(float(energies[best]))
    bits = np.array([(best >> (m - 1 - j)) & 1 for j in range(m)], dtype=np.uint8)
    return Configuration(bits, e), e


def enumerate_connected_subsets_recursive(
    graph: FactorGraph,
    max_size: int | None = None,
    include_listing: bool = False,
) -> EnumerationReport:
    """Enumerate connected subsets by growing from each minimum vertex.

    For every vertex v, subsets whose minimum is v are grown by repeatedly
    adding neighbors larger than v, with explicit frozenset deduplication.
    This is intentionally a different method than the CS-tree. A model of
    more than RECURSIVE_MAX_VARIABLES variables raises ValueError unless
    `max_size` is at most that.
    """
    m = graph.variable_count
    limit = RECURSIVE_MAX_VARIABLES
    if m > limit and (max_size is None or max_size > limit):
        raise ValueError(f"{m} variables exceed the enumeration guard {limit}")
    adjacency = [neighbors(graph, v) for v in range(m)]
    counts: dict[int, int] = {}
    listing: list[frozenset[int]] = []
    # no subset is grown from a vertex when even a singleton is too large
    for v in range(m if max_size is None or max_size >= 1 else 0):
        seen = {frozenset((v,))}
        stack = [frozenset((v,))]
        while stack:
            s = stack.pop()
            if max_size is not None and len(s) >= max_size:
                continue
            for u in s:
                for w in adjacency[u]:
                    if w > v and w not in s:
                        t = s | {w}
                        if t not in seen:
                            seen.add(t)
                            stack.append(t)
        for s in seen:
            counts[len(s)] = counts.get(len(s), 0) + 1
            if include_listing:
                listing.append(s)
    return EnumerationReport(
        counts=dict(sorted(counts.items())),
        total=sum(counts.values()),
        subsets=listing if include_listing else None,
    )


def csr_extendable(graph: FactorGraph, path, v: int) -> bool:
    """May `v` be appended to the canonical sequence `path`?

    Yes iff (i) v is not in path, (ii) v is adjacent to some path element,
    (iii) v exceeds the first element, and (iv) if i >= 1 is the first
    position with v adjacent to path[i-1], every element from path[i] on is
    smaller than v. `CSTree._children` applies this rule at once to every
    parent row of a growth step; this is its scalar statement, which the
    tests hold it to.
    """
    if v <= path[0] or v in path:
        return False
    if not any(v in neighbors(graph, p) for p in path):
        return False
    for i in range(1, len(path)):
        if v in neighbors(graph, path[i - 1]):
            return all(p < v for p in path[i:])
    return True


def count_connected_sequences(graph: FactorGraph, subset, max_size: int = 8) -> int:
    """Count orderings of `subset` in which every element after the first is
    adjacent to some predecessor."""
    s = sorted(set(subset))
    if len(s) > max_size:
        raise ValueError(f"subset of {len(s)} variables exceeds guard {max_size}")
    adjacency = [set(neighbors(graph, v)) for v in range(graph.variable_count)]
    count = 0
    for perm in itertools.permutations(s):
        ok = True
        for i in range(1, len(perm)):
            if not any(perm[i] in adjacency[perm[j]] for j in range(i)):
                ok = False
                break
        if ok:
            count += 1
    return count


def verify_hamming_bound(graph: FactorGraph, config: Configuration, n: int) -> bool:
    """True iff no flip of up to n variables (connected or not) strictly
    lowers the energy.

    Energies of flipped configurations are recomputed from scratch; a flip
    counts as lowering the energy E only by more than
    ENERGY_REL_TOL * max(1, |E|), which absorbs summation-order rounding. `n` must be a
    non-negative integer, numpy's included, and not a bool; a configuration
    whose energy is not finite raises ModelError, and more than
    HAMMING_MAX_CHECKS flips to check raise ValueError.
    """
    radius = integer(n)
    if radius is None or radius < 0:
        raise ValueError(f"n must be a non-negative int, got {n!r}")
    m = graph.variable_count
    checks = sum(math.comb(m, k) for k in range(1, min(radius, m) + 1))
    if checks > HAMMING_MAX_CHECKS:
        raise ValueError(f"{checks} flip checks exceed the budget {HAMMING_MAX_CHECKS}")
    base = _finite_energy(energy(graph, config.bits))
    threshold = base - ENERGY_REL_TOL * max(1.0, abs(base))
    bits = config.bits.copy()
    for k in range(1, min(radius, m) + 1):
        for combo in itertools.combinations(range(m), k):
            for v in combo:
                bits[v] ^= 1
            e = energy(graph, bits)
            for v in combo:
                bits[v] ^= 1
            if e < threshold:
                return False
    return True
