import numpy as np
import pytest
from hypothesis import strategies as st

from flipsearch import CSTree, Factor, build_factor_graph, energy, neighbors

import scope_walk

# 2x3 grid: variables 0..5, row 0 = (0,1,2), row 1 = (3,4,5)
GRID_EDGES = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]


def grid_graph():
    factors = [Factor((a, b), (0.0, 1.0, 1.0, 0.0)) for a, b in GRID_EDGES]
    return build_factor_graph(6, factors)


def trap_graph():
    """Two variables whose unary-optimal configuration (0,0) is a single-flip
    local optimum; the global optimum is (1,1)."""
    return build_factor_graph(
        2,
        [
            Factor((0,), (0.0, 0.5)),
            Factor((1,), (0.0, 0.5)),
            Factor((0, 1), (2.0, 2.0, 2.0, 0.0)),
        ],
    )


def random_graph(rng: np.random.Generator, m: int, max_arity: int = 4,
                 extra_factors: int | None = None, with_unaries: bool = True):
    """A random model: optional unaries plus random higher-order factors."""
    factors = []
    if with_unaries:
        for v in range(m):
            factors.append(Factor((v,), tuple(rng.random(2))))
    if extra_factors is None:
        extra_factors = int(rng.integers(1, 2 * m))
    for _ in range(extra_factors):
        k = min(int(rng.integers(2, max_arity + 1)), m)
        scope = tuple(int(x) for x in rng.choice(m, size=k, replace=False))
        factors.append(Factor(scope, tuple(rng.random(2**k) * 2.0 - 1.0)))
    return build_factor_graph(m, factors)


@st.composite
def higher_order_models(draw):
    """Random structures: m may be 0, variables may be isolated, components
    may be disconnected and scopes may repeat. Tables are irrelevant to
    growth, so they are zero."""
    m = draw(st.integers(0, 9))
    scopes = []
    if m:
        variables = st.integers(0, m - 1)
        scopes = draw(
            st.lists(
                st.lists(variables, min_size=1, max_size=min(4, m), unique=True),
                max_size=12,
            )
        )
        scopes += draw(st.lists(st.sampled_from(scopes), max_size=3)) if scopes else []
    factors = [Factor(tuple(s), (0.0,) * 2 ** len(s)) for s in scopes]
    return build_factor_graph(m, factors)


def build_levels(graph, depth):
    """Build CS-tree levels 1..depth, up to the first empty one; returns the
    tree."""
    tree = CSTree(graph)
    for n in range(1, depth + 1):
        if tree.first_subset_of_size(n) is None:
            break
    return tree


def node_for(tree, sequence):
    for p in range(1, tree.node_count + 1):
        if tree.sequence_of(p) == tuple(sequence):
            return p
    raise AssertionError(f"no node for {sequence}")


def icm_reference(graph, bits):
    """Iterated Conditional Modes with a tag list, written plainly: a pass
    over every variable in id order, then rounds over the variables flipped
    or next to a flip in the round before, in id order, until a round flips
    none. A variable flips iff its scope-walk delta is below 0.0. Returns
    the bits, the energy, and the flips and evaluations made."""
    m = graph.variable_count
    bits = [int(b) for b in bits]
    e = energy(graph, bits)
    view = scope_walk.scalar_view(graph)
    touched = [0] * len(graph.table_start)
    flips = evals = 0
    todo = range(m)
    while todo:
        near = set()
        for v in todo:
            evals += 1
            d, _ = scope_walk.flip_delta(bits, [v], view, bytearray(m), touched, evals)
            if d < 0.0:
                bits[v] ^= 1
                e += d
                flips += 1
                near.update((v, *neighbors(graph, v)))
        todo = sorted(near)
    return bits, e, flips, evals


@pytest.fixture
def grid():
    return grid_graph()


@pytest.fixture
def trap():
    return trap_graph()
