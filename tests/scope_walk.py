"""The scope-walk flip-delta kernel, kept as an independent reference.

It rebuilds each factor's table index from the bits of its scope on every
call and shares nothing with the package's kernels beyond the FactorGraph
arrays, so the index-based kernels are checked against it. `bits` must
yield Python ints (or bools) when indexed, e.g. a list or a memoryview of
a uint8 array.
"""

import numpy as np


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


def scalar_delta(graph, bits, subset):
    """`flip_delta` on a fresh scratch, the delta as its hex string."""
    d, lookups = flip_delta(
        np.asarray(bits).tolist(), subset, scalar_view(graph),
        bytearray(graph.variable_count), [0] * len(graph.factors), 1,
    )
    return d.hex(), lookups
