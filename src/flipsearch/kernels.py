"""Energy kernels over a factor graph's factor list and incidence lists.

`total_energy` and `flip_delta` are plain Python. `bits` must yield Python
ints (or bools) when indexed, e.g. a list or a memoryview of a uint8 array:
table indices are built from them with Python int arithmetic, which never
wraps, so factors of any arity select the right table entry.

`flip_deltas` is the numpy form of `flip_delta` for a block of subsets of
one size, over the `FactorArrays` of a model. It adds each subset's table
values in the scalar order, so every delta it returns is bit for bit the
value `flip_delta` returns for the same bits.
"""

from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

__all__ = [
    "USING_NUMBA",
    "FactorArrays",
    "factor_arrays",
    "total_energy",
    "flip_delta",
    "flip_deltas",
]

# There is one kernel path and it is not JIT-compiled; kept because the
# benchmark records it with every result.
USING_NUMBA = False

# A block whose (incident factor, scope slot, subset position) triples
# exceed this many is split in halves, so transient arrays stay small even
# around a variable of high degree.
BLOCK_CELLS = 1 << 18


def total_energy(bits, factors):
    """Sum over `factors` of the table entry selected by `bits`."""
    # Table entries are indexed with the last scope variable varying fastest.
    acc = 0.0
    for f in factors:
        idx = 0
        for v in f.scope:
            idx = 2 * idx + bits[v]
        acc += f.table[idx]
    return acc


def flip_delta(bits, subset, factors, incidence, in_subset, touched, stamp):
    """Energy change of toggling `subset`, and the number of table lookups.

    Each factor incident to the subset is evaluated once, before and after
    the flip. `in_subset` (a bytearray over variables) must arrive all-zero
    and is restored before returning; `touched` holds a stamp per factor, so
    passing a fresh `stamp` per call means it never needs clearing.
    """
    for v in subset:
        in_subset[v] = 1
    delta = 0.0
    evals = 0
    for v in subset:
        for fi in incidence[v]:
            if touched[fi] == stamp:
                continue
            touched[fi] = stamp
            f = factors[fi]
            idx_cur = 0
            idx_new = 0
            for u in f.scope:
                b = bits[u]
                idx_cur = 2 * idx_cur + b
                idx_new = 2 * idx_new + (b ^ in_subset[u])
            delta += f.table[idx_new]
            delta -= f.table[idx_cur]
            evals += 2
    for v in subset:
        in_subset[v] = 0
    return delta, evals


class FactorArrays(NamedTuple):
    """A model's factors as flat arrays, for the numpy kernels.

    `scopes[:, f]` is factor f's scope, left-padded with the dummy variable
    m, whose bit is always 0, so one table index rule fits every arity.
    Factor f's table starts at `tables[table_start[f]]`; the factors
    incident to v are `incident[incident_start[v]:incident_start[v + 1]]`,
    in factor order as in `FactorGraph.incidence`.
    """

    scopes: np.ndarray  # (max arity, factors) int32
    tables: np.ndarray  # float64
    table_start: np.ndarray  # (factors,) int64
    incident: np.ndarray  # int32
    incident_start: np.ndarray  # (variables + 1,) int64

    def energy(self, bits: np.ndarray) -> float:
        """Total energy of the m `bits`, summed in numpy's order, which is
        not the scalar kernel's."""
        bits = np.append(bits, np.uint8(0))  # the dummy variable's bit
        idx = self.table_start + _table_index(bits.take(self.scopes))
        return float(self.tables.take(idx).sum())


def _table_index(bits: np.ndarray) -> np.ndarray:
    """Table entries selected by `bits`, one row of bits per scope slot,
    the last slot being the least significant bit."""
    idx = np.zeros(bits.shape[1], dtype=np.int64)
    for b in bits:
        idx <<= 1
        idx |= b
    return idx


def factor_arrays(variable_count: int, factors) -> FactorArrays:
    """Flat arrays of `factors`, read straight from their scope and table
    tuples without a per-factor copy."""
    count = len(factors)
    scope_tuples = list(map(attrgetter("scope"), factors))
    arity = np.fromiter(map(len, scope_tuples), np.int64, count)
    width = int(arity.max()) if count else 1
    flat = np.fromiter(chain.from_iterable(scope_tuples), np.int32, int(arity.sum()))
    del scope_tuples
    scopes = np.full((width, count), variable_count, dtype=np.int32)
    # boolean assignment through the transpose fills factor by factor, each
    # factor's rightmost `arity` slots left to right
    scopes.T[np.arange(width) >= width - arity[:, None]] = flat
    size = np.left_shift(1, arity)
    tables = np.fromiter(
        chain.from_iterable(map(attrgetter("table"), factors)),
        np.float64,
        int(size.sum()),
    )
    # a stable sort of the scope entries by variable lists each variable's
    # factors in factor order
    owner = np.repeat(np.arange(count, dtype=np.int32), arity)
    incident_start = np.zeros(variable_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=variable_count), out=incident_start[1:])
    return FactorArrays(
        scopes=scopes,
        tables=tables,
        table_start=np.cumsum(size) - size,
        incident=owner[np.argsort(flat, kind="stable")],
        incident_start=incident_start,
    )


def flip_deltas(bits: np.ndarray, rows: np.ndarray, fa: FactorArrays):
    """Energy changes of toggling each row of `rows`, and the table lookups
    per row.

    `bits` holds the m variables' bits; `rows` is a (B, n) array of distinct
    variables per row. Each row's factors are laid out in the order
    `flip_delta` visits them, row position first, then incidence order. A
    factor counts only at the first position that holds one of its scope
    variables and is 0.0 elsewhere; past a row's end everything is 0.0.
    Adding the terms in that order, with the sequential `np.add.accumulate`,
    repeats the scalar additions exactly: adding 0.0 leaves a sum that
    starts at +0.0 unchanged, and subtracting v is adding -v. Blocks with
    more than BLOCK_CELLS cells are computed in halves.
    """
    count, n = rows.shape
    cells = rows.ravel()
    start = fa.incident_start.take(cells)
    degree = fa.incident_start.take(cells + 1) - start
    size = int(degree.sum())
    if count > 1 and size * len(fa.scopes) * n > BLOCK_CELLS:
        half = count // 2
        head = flip_deltas(bits, rows[:half], fa)
        tail = flip_deltas(bits, rows[half:], fa)
        return np.concatenate((head[0], tail[0])), np.concatenate((head[1], tail[1]))
    bits = np.append(bits, np.uint8(0))  # the dummy variable's bit
    # entry i is factor f[i], incident to the variable at `position[i]` of
    # row `row[i]`; entries come in the scalar visiting order, row by row
    offset = np.repeat(start - np.cumsum(degree) + degree, degree)
    f = fa.incident.take(offset + np.arange(size))
    cell = np.arange(count * n, dtype=np.int32)
    row, position = np.repeat(cell // n, degree), np.repeat(cell % n, degree)
    # hit[a, j, i]: scope slot a of entry i holds the variable at row position j
    scope = fa.scopes.take(f, axis=1)
    hit = scope[:, None, :] == np.ascontiguousarray(rows.T).take(row, axis=1)
    earlier = np.arange(n)[:, None] < position
    keep = ~(hit.any(axis=0) & earlier).any(axis=0)
    base = fa.table_start.take(f)
    b = bits.take(scope)
    cur = base + _table_index(b)
    new = base + _table_index(b ^ hit.any(axis=1))
    # terms[r, 1 + 2c] and terms[r, 2 + 2c] hold the table values gained and
    # lost (negated) at row r's c-th entry; an add.accumulate along each row
    # adds them in that order to the +0.0 of terms[r, 0]
    entries = degree.reshape(count, n).sum(axis=1)
    column = np.arange(size) - np.repeat(np.cumsum(entries) - entries, entries)
    terms = np.zeros((count, 1 + 2 * int(entries.max(initial=0))))
    at = row * terms.shape[1] + 1 + 2 * column
    flat = terms.reshape(-1)
    flat[at] = np.where(keep, fa.tables.take(new), 0.0)
    flat[at + 1] = np.where(keep, -fa.tables.take(cur), 0.0)
    delta = np.add.accumulate(terms, axis=1)[:, -1]
    return delta, 2 * np.bincount(row[keep], minlength=count)
