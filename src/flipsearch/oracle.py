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

__all__ = [
    "EnumerationReport",
    "brute_force_minimize",
    "csr_extendable",
    "enumerate_connected_subsets_recursive",
    "count_connected_sequences",
    "verify_hamming_bound",
]


@dataclass
class EnumerationReport:
    counts: dict[int, int]
    total: int
    subsets: list[frozenset[int]] | None = None


def brute_force_minimize(
    graph: FactorGraph, max_variables: int = 24
) -> tuple[Configuration, float]:
    """Scan all 2^m configurations; return the lexicographically smallest
    argmin and its energy."""
    m = graph.variable_count
    if m > max_variables:
        raise ValueError(f"{m} variables exceed the brute-force guard {max_variables}")
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
        energies += graph.tables[start:][idx]
    best = int(np.argmin(energies))
    bits = np.array([(best >> (m - 1 - j)) & 1 for j in range(m)], dtype=np.uint8)
    return Configuration(bits, float(energies[best])), float(energies[best])


def enumerate_connected_subsets_recursive(
    graph: FactorGraph,
    max_size: int | None = None,
    include_listing: bool = False,
    max_variables: int = 20,
) -> EnumerationReport:
    """Enumerate connected subsets by growing from each minimum vertex.

    For every vertex v, subsets whose minimum is v are grown by repeatedly
    adding neighbors larger than v, with explicit frozenset deduplication.
    This is intentionally a different method than the CS-tree.
    """
    m = graph.variable_count
    if m > max_variables and (max_size is None or max_size > max_variables):
        raise ValueError(
            f"{m} variables exceed the enumeration guard {max_variables}"
        )
    adjacency = [neighbors(graph, v) for v in range(m)]
    counts: dict[int, int] = {}
    listing: list[frozenset[int]] = []
    for v in range(m):
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


def verify_hamming_bound(
    graph: FactorGraph,
    config: Configuration,
    n: int,
    max_checks: int = 5_000_000,
    rel_tol: float = ENERGY_REL_TOL,
) -> bool:
    """True iff no flip of up to n variables (connected or not) strictly
    lowers the energy.

    Energies of flipped configurations are recomputed from scratch; a
    relative tolerance absorbs summation-order rounding. `n` must be a
    non-negative integer, numpy's included, and not a bool.
    """
    radius = integer(n)
    if radius is None or radius < 0:
        raise ValueError(f"n must be a non-negative int, got {n!r}")
    m = graph.variable_count
    checks = sum(math.comb(m, k) for k in range(1, min(radius, m) + 1))
    if checks > max_checks:
        raise ValueError(f"{checks} flip checks exceed the budget {max_checks}")
    base = energy(graph, config.bits)
    threshold = base - rel_tol * max(1.0, abs(base))
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
