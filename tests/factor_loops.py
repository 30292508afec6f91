"""The Factor-loop generators, model writer and brute-force minimizer,
kept as an independent reference.

These build, write and scan a model one `Factor` tuple at a time. They are
the code the package's array-native generators, writer and
`brute_force_minimize` replaced; the tests require equal graphs by every
array and by table bytes, byte-identical files, and the same bits and
`energy.hex()` from both.
"""

import numpy as np

from flipsearch.generators import IsingSpec, SubgraphGridSpec
from flipsearch.model import Configuration, Factor, FactorGraph, build_factor_graph

# Penalty by number of selected edges at a 4-edge junction; dead ends are
# effectively forbidden, branches merely discouraged.
_JUNCTION_TABLE = (0.0, 100.0, 0.6, 1.2, 2.4)


def _random_unaries(m: int, rng: np.random.Generator) -> list[Factor]:
    # E(0) uniform on [0,1), E(1) its complement
    factors = []
    for v in range(m):
        e0 = float(rng.random())
        factors.append(Factor(scope=(v,), table=(e0, 1.0 - e0)))
    return factors


def generate_ising(spec: IsingSpec) -> FactorGraph:
    """Grid model: random complementary unaries plus a disagreement penalty
    of `alpha` on every 4-neighbor edge.

    Variables are row-major over grid points; pair factors list all
    horizontal edges row-major, then all vertical edges row-major.
    """
    h, w = spec.height, spec.width
    m = h * w
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    factors = _random_unaries(m, rng)
    pair = (0.0, spec.alpha, spec.alpha, 0.0)
    for i in range(h):
        for j in range(w - 1):
            v = i * w + j
            factors.append(Factor(scope=(v, v + 1), table=pair))
    for i in range(h - 1):
        for j in range(w):
            v = i * w + j
            factors.append(Factor(scope=(v, v + w), table=pair))
    return build_factor_graph(m, factors)


def generate_subgraph_grid(spec: SubgraphGridSpec) -> FactorGraph:
    """Edge-selection model on an H x W cell grid.

    Variables are the interior cell boundaries: H-1 rows of W horizontal
    boundaries (row-major, first), then H rows of W-1 vertical boundaries
    (row-major). Each of the (H-1)(W-1) interior junctions, where two
    horizontal and two vertical boundaries meet, carries a fourth-order
    factor scoring the number of selected boundaries; unaries are drawn as
    in generate_ising.
    """
    h, w = spec.cell_height, spec.cell_width
    n_horizontal = (h - 1) * w
    m = n_horizontal + h * (w - 1)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    factors = _random_unaries(m, rng)

    def horizontal(i: int, j: int) -> int:
        # boundary between cells (i, j) and (i+1, j)
        return i * w + j

    def vertical(i: int, j: int) -> int:
        # boundary between cells (i, j) and (i, j+1)
        return n_horizontal + i * (w - 1) + j

    table = tuple(
        _JUNCTION_TABLE[((a >> 3) & 1) + ((a >> 2) & 1) + ((a >> 1) & 1) + (a & 1)]
        for a in range(16)
    )
    for i in range(1, h):
        for j in range(1, w):
            scope = (
                horizontal(i - 1, j - 1),
                horizontal(i - 1, j),
                vertical(i - 1, j - 1),
                vertical(i, j - 1),
            )
            factors.append(Factor(scope=scope, table=table))
    return build_factor_graph(m, factors)


def write_model(graph: FactorGraph, fh) -> None:
    fh.write("bfg 1\n")
    fh.write(f"vars {graph.variable_count}\n")
    for f in graph.factors:
        fh.write(f"factor {f.arity} " + " ".join(str(v) for v in f.scope) + "\n")
        fh.write(" ".join(repr(x) for x in f.table) + "\n")


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
    for f in graph.factors:
        idx = np.zeros(n, dtype=np.int64)
        for v in f.scope:
            idx = 2 * idx + ((codes >> (m - 1 - v)) & 1)
        energies += np.asarray(f.table, dtype=np.float64)[idx]
    best = int(np.argmin(energies))
    bits = np.array([(best >> (m - 1 - j)) & 1 for j in range(m)], dtype=np.uint8)
    return Configuration(bits, float(energies[best])), float(energies[best])
