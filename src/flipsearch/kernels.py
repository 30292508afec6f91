"""Flip-delta kernels over a FactorGraph's arrays and each factor's table
index.

Both kernels read the current table index of each factor from `index`, an
int64 array that `_FlipScratch` keeps up to date across flips, instead of
rebuilding it from the bits of the factor's scope. Flipping a set S
toggles, in each factor incident to S, the index bits of the scope slots
that hold a variable of S: the new index is `index[f] ^ mask`, the mask
being the OR of those slots' weights `1 << (width - 1 - slot)`.

`flip_delta` is plain Python over memoryviews of the arrays, whose items
are Python ints and floats. `flip_deltas` is its numpy form for a block of
subsets of one size. It adds each subset's table values in the scalar
order, so every delta it returns is bit for bit the value `flip_delta`
returns for the same index.
"""

import numpy as np

__all__ = [
    "USING_NUMBA",
    "table_index",
    "incident_weights",
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


def table_index(bits: np.ndarray) -> np.ndarray:
    """Table entries selected by `bits`, one row of bits per scope slot,
    the last slot being the least significant bit."""
    idx = np.zeros(bits.shape[1], dtype=np.int64)
    for b in bits:
        idx <<= 1
        idx |= b
    return idx


def incident_weights(graph) -> np.ndarray:
    """For each entry of `graph.incident`, the index bit its variable sets:
    `1 << (width - 1 - slot)`, slot being the variable's row in the
    factor's padded scope. The weights are int32, or int64 when the scopes
    are wider than 31 slots, and are found one slot at a time."""
    width = len(graph.scopes)
    variable = np.repeat(
        np.arange(graph.variable_count, dtype=np.int32), np.diff(graph.incident_start)
    )
    weights = np.zeros(len(variable), dtype=np.int32 if width <= 31 else np.int64)
    for slot, row in enumerate(graph.scopes):
        # indexing with the int32 `incident` converts it to intp piecewise,
        # where `take` would convert all of it first
        np.copyto(weights, 1 << (width - 1 - slot), where=row[graph.incident] == variable)
    return weights


def flip_delta(index, subset, incident, incident_start, weight, table_start, tables):
    """Energy change of toggling `subset`, and the number of table lookups.

    One walk over the subset's incidence ORs each entry's slot weight into
    its factor's mask; then each factor, in the order first visited, adds
    its table entry after the flip and subtracts the one before. Every
    argument after `subset` is a memoryview of the like-named array
    (`weight` from `incident_weights`).

    A variable fills at most one slot of a scope, so a one-variable subset
    visits each of its factors once, in incidence order, with that entry's
    weight as the mask: it is summed in that order without the dict.
    """
    if len(subset) == 1:
        (v,) = subset
        lo, hi = incident_start[v], incident_start[v + 1]
        delta = 0.0
        for i in range(lo, hi):
            f = incident[i]
            t = table_start[f]
            cur = index[f]
            delta += tables[t + (cur ^ weight[i])]
            delta -= tables[t + cur]
        return delta, 2 * (hi - lo)
    mask = {}
    for v in subset:
        for i in range(incident_start[v], incident_start[v + 1]):
            f = incident[i]
            mask[f] = mask.get(f, 0) | weight[i]
    delta = 0.0
    for f, k in mask.items():
        t = table_start[f]
        cur = index[f]
        delta += tables[t + (cur ^ k)]
        delta -= tables[t + cur]
    return delta, 2 * len(mask)


def flip_deltas(index: np.ndarray, rows: np.ndarray, graph, terms):
    """Energy changes of toggling each row of `rows`, and the table lookups
    of the whole block.

    `index` holds each factor's current table index; `rows` is a (B, n)
    array of distinct variables per row. Each row's factors are laid out in
    the order `flip_delta` visits them, row position first, then incidence
    order. A factor counts only at the first position that holds one of its
    scope variables and is 0.0 elsewhere; past a row's end everything is
    0.0. In a one-variable row every entry is its factor's only position,
    so the scope comparison is skipped and each entry's mask is its slot
    weight. Adding the terms in that order, with the sequential
    `np.add.accumulate`, repeats the scalar additions exactly: adding 0.0
    leaves a sum that starts at +0.0 unchanged, and subtracting v is adding
    -v. `terms(shape)`, e.g. `np.zeros`, gives the zeroed float64 matrix
    the terms are laid in, which is accumulated in place. Blocks with more
    than BLOCK_CELLS cells are computed in halves.
    """
    count, n = rows.shape
    cells = rows.ravel()
    start = graph.incident_start.take(cells)
    degree = graph.incident_start.take(cells + 1) - start
    size = int(degree.sum())
    if count > 1 and size * len(graph.scopes) * n > BLOCK_CELLS:
        half = count // 2
        head = flip_deltas(index, rows[:half], graph, terms)
        tail = flip_deltas(index, rows[half:], graph, terms)
        return np.concatenate((head[0], tail[0])), head[1] + tail[1]
    # entry i is factor f[i], incident to the variable at `position[i]` of
    # row `row[i]`, and `column[i]` is its place among the row's entries;
    # entries come in the scalar visiting order, row by row
    entry = np.repeat(start - np.cumsum(degree) + degree, degree) + np.arange(size)
    f = graph.incident.take(entry)
    entries = degree.reshape(count, n).sum(axis=1)
    column = np.arange(size) - np.repeat(np.cumsum(entries) - entries, entries)
    cell = np.arange(count * n, dtype=np.int32)
    row = np.repeat(cell // n, degree)
    if n == 1:
        # a factor's one position in a one-variable row is its first: every
        # entry is kept, its mask being the entry's slot weight
        mask = graph.incident_weights.take(entry)
    else:
        position = np.repeat(cell % n, degree)
        # hit[a, j, i]: scope slot a of entry i holds the variable at row position j
        scope = graph.scopes.take(f, axis=1)
        hit = scope[:, None, :] == np.ascontiguousarray(rows.T).take(row, axis=1)
        earlier = np.arange(n)[:, None] < position
        kept = np.flatnonzero(~(hit.any(axis=0) & earlier).any(axis=0))
        mask = table_index(hit.any(axis=1)).take(kept)
        f, row, column = f.take(kept), row.take(kept), column.take(kept)
    base = graph.table_start.take(f)
    cur = index.take(f)
    new = base + (cur ^ mask)
    cur += base
    # terms[r, 1 + 2c] and terms[r, 2 + 2c] hold the table values gained and
    # lost (negated) at row r's c-th entry; an add.accumulate along each row
    # adds them in that order to the +0.0 of terms[r, 0]
    work = terms((count, 1 + 2 * int(entries.max(initial=0))))
    at = row * work.shape[1] + 1 + 2 * column
    flat = work.reshape(-1)
    flat[at] = graph.tables.take(new)
    flat[at + 1] = -graph.tables.take(cur)
    # a sum past the float range is +-inf, which the solver rejects
    with np.errstate(over="ignore"):
        np.add.accumulate(work, axis=1, out=work)
    return work[:, -1].copy(), 2 * len(f)
