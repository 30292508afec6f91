"""Independent output check for one solve.

Nothing here calls the package's kernels: energies and flip deltas are
recomputed from the factor tables with numpy, and connected subsets come
from the recursive oracle enumerator, not from the CS-tree.

The certificate checked is: no connected subset of at most `max_depth`
variables lowers the energy by more than `tolerance(E)`. Disconnected flips
decompose into connected ones with additive deltas, so connected subsets
are enough.
"""

from __future__ import annotations

import math

import numpy as np

from flipsearch import oracle

# Relative tolerance on energies, the same as oracle.verify_hamming_bound.
REL_TOL = 1e-9


def tolerance(energy: float) -> float:
    return REL_TOL * max(1.0, abs(energy))


class Reference:
    """Factor tables of one model grouped by arity, plus its connected
    subsets up to `max_depth` variables, one (N, k) array per size k.

    Models with the same factor scopes share the subsets and the
    (subset, factor) incidence built for them: pass an earlier Reference as
    `like`.
    """

    def __init__(self, graph, max_depth: int, like: "Reference | None" = None):
        self.variable_count = graph.variable_count
        self.max_depth = max_depth
        by_arity: dict[int, list] = {}
        for f in graph.factors:
            by_arity.setdefault(f.arity, []).append(f)
        groups = [factors for _, factors in sorted(by_arity.items())]
        self.scopes = [np.array([f.scope for f in g], dtype=np.int64) for g in groups]
        self.tables = [np.array([f.table for f in g], dtype=np.float64) for g in groups]
        if like is not None and self._same_structure(like):
            self.subsets, self._pairs = like.subsets, like._pairs
            return
        report = oracle.enumerate_connected_subsets_recursive(
            graph, max_size=max_depth, include_listing=True
        )
        sized: dict[int, list] = {}
        for s in report.subsets:
            sized.setdefault(len(s), []).append(sorted(s))
        self.subsets = {
            k: np.array(rows, dtype=np.int64) for k, rows in sorted(sized.items())
        }
        self._pairs: dict[int, list] = {}

    def _same_structure(self, other: "Reference") -> bool:
        return (
            other.variable_count == self.variable_count
            and other.max_depth == self.max_depth
            and len(other.scopes) == len(self.scopes)
            and all(np.array_equal(a, b) for a, b in zip(other.scopes, self.scopes))
        )

    def energy(self, bits: np.ndarray) -> float:
        total = 0.0
        for scopes, tables in zip(self.scopes, self.tables):
            weights = 1 << np.arange(scopes.shape[1] - 1, -1, -1)
            idx = bits[scopes].astype(np.int64) @ weights
            total += math.fsum(tables[np.arange(len(tables)), idx])
        return total

    def _incidence(self, k: int) -> list:
        """Per arity group: every (subset, incident factor) pair of the size-k
        subsets, each factor once per subset, and which of the factor's
        scope variables the subset flips."""
        if k in self._pairs:
            return self._pairs[k]
        subsets = self.subsets[k]
        n = len(subsets)
        pairs = []
        for scopes in self.scopes:
            arity = scopes.shape[1]
            order = np.argsort(scopes.ravel(), kind="stable")
            inc_flat = order // arity
            deg = np.bincount(scopes.ravel(), minlength=self.variable_count)
            inc_off = np.concatenate(([0], np.cumsum(deg)))
            keys = []
            for j in range(k):
                lo = inc_off[subsets[:, j]]
                counts = deg[subsets[:, j]]
                rows = np.repeat(np.arange(n), counts)
                first = np.cumsum(counts) - counts
                pos = np.repeat(lo - first, counts) + np.arange(counts.sum())
                keys.append(rows * len(scopes) + inc_flat[pos])
            keys = np.unique(np.concatenate(keys))
            rows, facs = np.divmod(keys, len(scopes))
            flipped = (scopes[facs][:, :, None] == subsets[rows][:, None, :]).any(axis=2)
            pairs.append((rows, facs, flipped))
        self._pairs[k] = pairs
        return pairs

    def deltas(self, bits: np.ndarray, k: int) -> np.ndarray:
        """Energy change of flipping each size-k subset on its own."""
        out = np.zeros(len(self.subsets[k]))
        bits = bits.astype(np.int64)
        for scopes, tables, (rows, facs, flipped) in zip(
            self.scopes, self.tables, self._incidence(k)
        ):
            weights = 1 << np.arange(scopes.shape[1] - 1, -1, -1)
            b = bits[scopes[facs]]
            cur = b @ weights
            new = (b ^ flipped) @ weights
            d = tables[facs, new] - tables[facs, cur]
            out += np.bincount(rows, weights=d, minlength=len(out))
        return out

    def certificate_violations(self, bits: np.ndarray, energy: float) -> list[str]:
        """Connected flips of <= max_depth variables that improve by more
        than the tolerance; an empty list means the certificate holds."""
        tol = tolerance(energy)
        problems = []
        for k, subsets in self.subsets.items():
            d = self.deltas(bits, k)
            bad = np.flatnonzero(d < -tol)
            if bad.size:
                worst = bad[np.argmin(d[bad])]
                problems.append(
                    f"{bad.size} connected flips of {k} variables improve the "
                    f"energy, e.g. {subsets[worst].tolist()} by {-float(d[worst])!r}"
                )
        return problems


def check_solve(ref: Reference, out: dict, certified: set) -> list[str]:
    """Problems found in one worker output; empty means the solve is correct.

    `certified` holds the bit strings whose certificate already passed for
    this model, so identical outputs are not enumerated again.
    """
    problems = []
    if out["completed_depth"] != ref.max_depth:
        problems.append(
            f"completed_depth {out['completed_depth']} != max_depth {ref.max_depth}"
        )
    if out["time_limit_hit"]:
        problems.append("solve stopped at its time limit")
    accumulated = out["energy"]
    if not isinstance(accumulated, float) or not math.isfinite(accumulated):
        problems.append(f"final energy not reported: {accumulated!r}")
        return problems
    if len(out["bits"]) != ref.variable_count or set(out["bits"]) - {"0", "1"}:
        problems.append("configuration is not a 0/1 string of the right length")
        return problems
    bits = np.frombuffer(out["bits"].encode(), dtype=np.uint8) - ord("0")
    recomputed = ref.energy(bits)
    tol = tolerance(recomputed)
    for label, value in (
        ("accumulated energy", accumulated),
        ("energy()", out["recomputed_energy"]),
    ):
        if abs(value - recomputed) > tol:
            problems.append(
                f"{label} {value!r} differs from the independent energy "
                f"{recomputed!r} by more than {tol:.3g}"
            )
    if not problems and out["bits"] not in certified:
        problems += ref.certificate_violations(bits, recomputed)
        if not problems:
            certified.add(out["bits"])
    return problems
