"""Energy kernels over a factor graph's factor list and incidence lists.

Both kernels are plain Python. `bits` must yield Python ints (or bools) when
indexed, e.g. a list or a memoryview of a uint8 array: table indices are
built from them with Python int arithmetic, which never wraps, so factors of
any arity select the right table entry.
"""

__all__ = [
    "USING_NUMBA",
    "total_energy",
    "flip_delta",
]

# There is one kernel path and it is not JIT-compiled; kept because the
# benchmark records it with every result.
USING_NUMBA = False


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
