"""Seeded generators for the two synthetic model families, which lay
each model out with numpy in the arrays of `model.graph_from_arrays`.

Randomness comes from numpy's PCG64 with an explicit seed, so the same
spec yields bit-identical models on any platform.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .model import FactorGraph, graph_from_arrays, integer

import numpy as np

__all__ = [
    "IsingSpec",
    "SubgraphGridSpec",
    "generate_ising",
    "generate_subgraph_grid",
    "junction_potential",
]

# Penalty by number of selected edges at a 4-edge junction; dead ends are
# effectively forbidden, branches merely discouraged.
_JUNCTION_TABLE = (0.0, 100.0, 0.6, 1.2, 2.4)


def _integers(spec, **least: int) -> None:
    """Make each field named in `least` an int of at least its bound."""
    for name, bound in least.items():
        value = integer(getattr(spec, name))
        if value is None or value < bound:
            raise ValueError(f"{name} must be an int >= {bound}, got {getattr(spec, name)!r}")
        object.__setattr__(spec, name, value)


@dataclass(frozen=True)
class IsingSpec:
    height: int
    width: int
    alpha: float
    seed: int

    def __post_init__(self):
        _integers(self, height=1, width=1, seed=0)
        try:
            alpha = float(self.alpha) if isinstance(self.alpha, numbers.Real) else math.nan
        except OverflowError:  # an int beyond the float range
            alpha = math.inf
        if not 0 <= alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class SubgraphGridSpec:
    cell_height: int
    cell_width: int
    seed: int

    def __post_init__(self):
        _integers(self, cell_height=2, cell_width=2, seed=0)  # for a junction


def _grid_model(m: int, seed: int, scopes: np.ndarray, table) -> FactorGraph:
    """m unaries, E(0) uniform on [0,1) and E(1) its complement, then a
    factor with `table` on each row of `scopes`."""
    e0 = np.random.Generator(np.random.PCG64(seed)).random(m)
    count, k = scopes.shape
    arity = np.repeat(np.array([1, k], dtype=np.int64), [m, count])
    flat = np.concatenate((np.arange(m), scopes.ravel()))
    values = np.concatenate((np.column_stack((e0, 1.0 - e0)).ravel(), np.tile(table, count)))
    return graph_from_arrays(m, arity, flat, 1 << arity, values)


def generate_ising(spec: IsingSpec) -> FactorGraph:
    """Grid model: random complementary unaries plus a disagreement penalty
    of `alpha` on every 4-neighbor edge.

    Variables are row-major over grid points; pair factors list all
    horizontal edges row-major, then all vertical edges row-major.
    """
    h, w = spec.height, spec.width
    grid = np.arange(h * w).reshape(h, w)
    left, top = grid[:, :-1].ravel(), grid[:-1].ravel()
    pairs = np.concatenate((np.column_stack((left, left + 1)), np.column_stack((top, top + w))))
    return _grid_model(h * w, spec.seed, pairs, (0.0, spec.alpha, spec.alpha, 0.0))


def junction_potential(s: int) -> float:
    """Penalty for a 4-edge junction with `s` selected edges."""
    if not 0 <= s <= 4:
        raise ValueError(f"junction edge count must be in 0..4, got {s}")
    return _JUNCTION_TABLE[s]


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
    # junction (i, j), row-major over i < h-1 and j < w-1, joins horizontal
    # boundaries i*w + j and i*w + j + 1 and vertical boundaries k and
    # k + w - 1, k = n_horizontal + i*(w-1) + j
    horizontal = (np.arange(h - 1)[:, None] * w + np.arange(w - 1)).ravel()
    vertical = n_horizontal + np.arange(len(horizontal))
    scopes = np.column_stack((horizontal, horizontal + 1, vertical, vertical + w - 1))
    table = [_JUNCTION_TABLE[bin(a).count("1")] for a in range(16)]
    return _grid_model(n_horizontal + h * (w - 1), spec.seed, scopes, table)
