"""Flip-delta kernels over a FactorGraph's arrays.

`flip_delta` is plain Python over memoryviews of the arrays, whose items
are Python ints and floats (`scalar_view`). `bits` must yield Python ints
(or bools) when indexed, e.g. a list or a memoryview of a uint8 array:
table indices are built from them with Python int arithmetic, which never
wraps, so factors of any arity select the right table entry.

`flip_deltas` is the numpy form of `flip_delta` for a block of subsets of
one size. It adds each subset's table values in the scalar order, so every
delta it returns is bit for bit the value `flip_delta` returns for the same
bits.
"""

import numpy as np

__all__ = [
    "USING_NUMBA",
    "scalar_view",
    "table_index",
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


def scalar_view(graph):
    """What `flip_delta` reads of `graph`: the factors' scopes without their
    padding, end to end, where each starts, and memoryviews of the tables,
    table starts and incidence."""
    scopes = graph.scopes.T
    real = scopes < graph.variable_count
    scope_start = np.concatenate(([0], np.cumsum(np.count_nonzero(real, axis=1))))
    arrays = scopes[real], scope_start, graph.tables, graph.table_start
    return tuple(map(memoryview, arrays + (graph.incident, graph.incident_start)))


def flip_delta(bits, subset, view, in_subset, touched, stamp):
    """Energy change of toggling `subset`, and the number of table lookups.

    `view` is the model's `scalar_view`. Each factor incident to the subset
    is evaluated once, before and after the flip. `in_subset` (a bytearray
    over variables) must arrive all-zero and is restored before returning;
    `touched` holds a stamp per factor, so passing a fresh `stamp` per call
    means it never needs clearing.
    """
    scope, scope_start, tables, table_start, incident, incident_start = view
    for v in subset:
        in_subset[v] = 1
    delta = 0.0
    evals = 0
    for v in subset:
        for fi in incident[incident_start[v] : incident_start[v + 1]]:
            if touched[fi] == stamp:
                continue
            touched[fi] = stamp
            idx_cur = 0
            idx_new = 0
            for u in scope[scope_start[fi] : scope_start[fi + 1]]:
                b = bits[u]
                idx_cur = 2 * idx_cur + b
                idx_new = 2 * idx_new + (b ^ in_subset[u])
            t = table_start[fi]
            delta += tables[t + idx_new]
            delta -= tables[t + idx_cur]
            evals += 2
    for v in subset:
        in_subset[v] = 0
    return delta, evals


def table_index(bits: np.ndarray) -> np.ndarray:
    """Table entries selected by `bits`, one row of bits per scope slot,
    the last slot being the least significant bit."""
    idx = np.zeros(bits.shape[1], dtype=np.int64)
    for b in bits:
        idx <<= 1
        idx |= b
    return idx


def flip_deltas(bits: np.ndarray, rows: np.ndarray, graph):
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
    start = graph.incident_start.take(cells)
    degree = graph.incident_start.take(cells + 1) - start
    size = int(degree.sum())
    if count > 1 and size * len(graph.scopes) * n > BLOCK_CELLS:
        half = count // 2
        head = flip_deltas(bits, rows[:half], graph)
        tail = flip_deltas(bits, rows[half:], graph)
        return np.concatenate((head[0], tail[0])), np.concatenate((head[1], tail[1]))
    bits = np.append(bits, np.uint8(0))  # the dummy variable's bit
    # entry i is factor f[i], incident to the variable at `position[i]` of
    # row `row[i]`; entries come in the scalar visiting order, row by row
    offset = np.repeat(start - np.cumsum(degree) + degree, degree)
    f = graph.incident.take(offset + np.arange(size))
    cell = np.arange(count * n, dtype=np.int32)
    row, position = np.repeat(cell // n, degree), np.repeat(cell % n, degree)
    # hit[a, j, i]: scope slot a of entry i holds the variable at row position j
    scope = graph.scopes.take(f, axis=1)
    hit = scope[:, None, :] == np.ascontiguousarray(rows.T).take(row, axis=1)
    earlier = np.arange(n)[:, None] < position
    keep = ~(hit.any(axis=0) & earlier).any(axis=0)
    base = graph.table_start.take(f)
    b = bits.take(scope)
    cur = base + table_index(b)
    new = base + table_index(b ^ hit.any(axis=1))
    # terms[r, 1 + 2c] and terms[r, 2 + 2c] hold the table values gained and
    # lost (negated) at row r's c-th entry; an add.accumulate along each row
    # adds them in that order to the +0.0 of terms[r, 0]
    entries = degree.reshape(count, n).sum(axis=1)
    column = np.arange(size) - np.repeat(np.cumsum(entries) - entries, entries)
    terms = np.zeros((count, 1 + 2 * int(entries.max(initial=0))))
    at = row * terms.shape[1] + 1 + 2 * column
    flat = terms.reshape(-1)
    flat[at] = np.where(keep, graph.tables.take(new), 0.0)
    flat[at + 1] = np.where(keep, -graph.tables.take(cur), 0.0)
    delta = np.add.accumulate(terms, axis=1)[:, -1]
    return delta, 2 * np.bincount(row[keep], minlength=count)
