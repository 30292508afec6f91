import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsearch import (
    Factor,
    IsingSpec,
    SolveParams,
    SubgraphGridSpec,
    brute_force_minimize,
    build_factor_graph,
    energy,
    energy_after_flip,
    flip_search,
    generate_ising,
    generate_subgraph_grid,
    icm,
    initial_configuration,
    make_configuration,
    neighbors,
    verify_hamming_bound,
)
from flipsearch import CSTree, TagList, solver
from flipsearch.model import ENERGY_REL_TOL, ModelError, _FlipScratch

from conftest import higher_order_models, random_graph


class TestInitialConfiguration:
    def test_unary_min_picks_smaller_entry(self):
        g = build_factor_graph(1, [Factor((0,), (0.3, 0.7))])
        assert initial_configuration(g, "unary_min").bits.tolist() == [0]

    def test_tie_goes_to_zero(self):
        g = build_factor_graph(1, [Factor((0,), (0.5, 0.5))])
        assert initial_configuration(g, "unary_min").bits.tolist() == [0]

    def test_multiple_unaries_are_summed(self):
        g = build_factor_graph(
            1, [Factor((0,), (0.9, 0.1)), Factor((0,), (0.3, 0.2))]
        )
        assert initial_configuration(g, "unary_min").bits.tolist() == [1]
        # the second table alone would pick 0
        g = build_factor_graph(
            2, [Factor((0,), (1.0, 0.0)), Factor((1,), (0.0, 1.0)), Factor((0,), (0.0, 0.5))]
        )
        assert initial_configuration(g, "unary_min").bits.tolist() == [1, 0]

    def test_no_unary_defaults_to_zero(self):
        g = build_factor_graph(2, [Factor((0, 1), (1.0, 0.0, 0.0, 1.0))])
        assert initial_configuration(g, "unary_min").bits.tolist() == [0, 0]

    def test_all_zero(self, trap):
        c = initial_configuration(trap, "all_zero")
        assert c.bits.tolist() == [0, 0]
        assert c.energy == 2.0

    def test_given_validates_length(self, trap):
        with pytest.raises(Exception):
            initial_configuration(trap, "given", given=[0, 1, 0])
        c = initial_configuration(trap, "given", given=[1, 0])
        assert c.bits.tolist() == [1, 0]


class TestFlipSearch:
    def test_trap_depth_one_is_stuck(self, trap):
        c = initial_configuration(trap, "unary_min")
        assert c.bits.tolist() == [0, 0]
        result = flip_search(trap, c, SolveParams(max_depth=1))
        assert result.configuration.bits.tolist() == [0, 0]
        assert result.energy == 2.0
        assert result.flips_accepted == 0

    def test_trap_depth_two_escapes(self, trap):
        c = initial_configuration(trap, "unary_min")
        result = flip_search(trap, c, SolveParams(max_depth=2))
        assert result.configuration.bits.tolist() == [1, 1]
        assert result.energy == 1.0
        _, best = brute_force_minimize(trap)
        assert result.energy == best

    def test_single_variable(self):
        g = build_factor_graph(1, [Factor((0,), (1.0, 0.0))])
        c = make_configuration(g, [0])
        result = flip_search(g, c, SolveParams(max_depth=3))
        assert result.configuration.bits.tolist() == [1]
        assert result.energy == 0.0

    def test_decoupled_ising_needs_no_flips(self):
        g = generate_ising(IsingSpec(4, 4, alpha=0.0, seed=5))
        c = initial_configuration(g, "unary_min")
        result = flip_search(g, c, SolveParams(max_depth=1))
        assert result.flips_accepted == 0
        _, best = brute_force_minimize(g)
        assert result.recomputed_energy == pytest.approx(best, rel=1e-12)

    def test_full_depth_matches_brute_force_on_ising(self):
        g = generate_ising(IsingSpec(4, 4, alpha=0.5, seed=42))
        c = initial_configuration(g, "unary_min")
        result = flip_search(g, c, SolveParams(max_depth=16))
        _, best = brute_force_minimize(g)
        assert result.recomputed_energy == pytest.approx(best, rel=1e-12)

    def test_trace_is_monotone(self):
        g = generate_ising(IsingSpec(6, 6, alpha=0.7, seed=9))
        c = initial_configuration(g, "unary_min")
        result = flip_search(g, c, SolveParams(max_depth=3))
        energies = [r.best_energy for r in result.trace]
        times = [r.elapsed_seconds for r in result.trace]
        assert energies == sorted(energies, reverse=True)
        assert times == sorted(times)
        for a, b in zip(result.trace, result.trace[1:]):
            assert b.flips_accepted >= a.flips_accepted
            assert b.subsets_evaluated >= a.subsets_evaluated
            assert b.cstree_nodes >= a.cstree_nodes

    def test_accumulated_energy_close_to_recomputed(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(4, 13)))
            c = initial_configuration(g, "unary_min")
            result = flip_search(g, c, SolveParams(max_depth=3))
            assert result.energy == pytest.approx(
                result.recomputed_energy, rel=1e-6
            )

    def test_depth_fields(self, trap):
        c = initial_configuration(trap, "unary_min")
        result = flip_search(trap, c, SolveParams(max_depth=2))
        assert result.completed_depth == 2
        assert result.reached_depth == 2
        # depth capped by the largest connected subset: levels beyond 2 are
        # empty, counted as trivially finished
        c = initial_configuration(trap, "unary_min")
        result = flip_search(trap, c, SolveParams(max_depth=5))
        assert result.completed_depth == result.reached_depth == 5
        assert verify_hamming_bound(trap, result.configuration, 5)
        # with no variables even level 1 is empty
        empty = build_factor_graph(0, [])
        c = initial_configuration(empty, "unary_min")
        result = flip_search(empty, c, SolveParams(max_depth=3))
        assert result.completed_depth == result.reached_depth == 3

    def test_hamming_certificate_small_depths(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 12)))
            for depth in (1, 2):
                c = initial_configuration(g, "all_zero")
                result = flip_search(g, c, SolveParams(max_depth=depth))
                assert verify_hamming_bound(
                    g, result.configuration, result.completed_depth
                )

    def test_depth_dominance(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            g = generate_ising(IsingSpec(8, 8, alpha=0.7, seed=seed))
            finals = []
            for depth in (1, 2, 3, 4):
                c = initial_configuration(g, "unary_min")
                finals.append(
                    flip_search(g, c, SolveParams(max_depth=depth)).recomputed_energy
                )
            for a, b in zip(finals, finals[1:]):
                assert b <= a + 1e-12

    @pytest.mark.parametrize("arity", [9, 10])
    def test_wide_factor_matches_brute_force(self, arity):
        # table indices reach 2^arity - 1 > 255; the optimum is all ones
        g = build_factor_graph(
            arity, [Factor(tuple(range(arity)), tuple(range(2**arity - 1, -1, -1)))]
        )
        best_config, best = brute_force_minimize(g)
        assert best_config.bits.tolist() == [1] * arity
        assert energy(g, best_config.bits) == best
        start = initial_configuration(g, "all_zero")
        assert start.energy == 2**arity - 1
        assert energy_after_flip(g, start, range(arity)) == best
        result = flip_search(g, start, SolveParams(max_depth=arity))
        assert result.configuration.bits.tolist() == [1] * arity
        assert result.energy == result.recomputed_energy == best

    def test_time_limit_stops_early(self):
        g = generate_ising(IsingSpec(40, 40, alpha=0.5, seed=1))
        c = initial_configuration(g, "unary_min")
        result = flip_search(
            g, c, SolveParams(max_depth=6, time_limit=0.05)
        )
        assert result.time_limit_hit
        assert result.completed_depth < 6
        # the returned configuration is still internally consistent
        assert result.energy == pytest.approx(result.recomputed_energy, rel=1e-6)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SolveParams(max_depth=0)
        for bad in (2.5, 2.0, True, False, "2", None):
            with pytest.raises(ValueError, match=repr(bad)):
                SolveParams(max_depth=bad)
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolveParams(max_depth=1, time_limit=bad)
        for bad in (True, False):
            with pytest.raises(ValueError, match=repr(bad)):
                SolveParams(max_depth=1, time_limit=bad)
        assert SolveParams(max_depth=1, time_limit=1).time_limit == 1

    @pytest.mark.parametrize("depth", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_depths(self, depth):
        params = SolveParams(max_depth=depth)
        assert params.max_depth == 2 and type(params.max_depth) is int

    @pytest.mark.parametrize("bad", [np.True_, np.float64(2.0), np.int64(0), np.int64(-2)])
    def test_numpy_non_depths_are_refused(self, bad):
        with pytest.raises(ValueError, match="max_depth"):
            SolveParams(max_depth=bad)


class TestIcm:
    def test_equals_depth_one_on_random_models(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 13)))
            bits = rng.integers(0, 2, size=g.variable_count).astype(np.uint8)
            a = icm(g, make_configuration(g, bits.copy()))
            b = flip_search(
                g, make_configuration(g, bits.copy()), SolveParams(max_depth=1)
            )
            assert a.configuration.bits.tolist() == b.configuration.bits.tolist()
            assert a.flips_accepted == b.flips_accepted
            assert a.subsets_evaluated == b.subsets_evaluated
            assert a.cstree_nodes == b.cstree_nodes

    def test_trap_model(self, trap):
        result = icm(trap, initial_configuration(trap, "unary_min"))
        assert result.configuration.bits.tolist() == [0, 0]
        assert result.energy == 2.0

    def test_decoupled_ising_global(self):
        g = generate_ising(IsingSpec(3, 3, alpha=0.0, seed=2))
        result = icm(g, initial_configuration(g, "unary_min"))
        _, best = brute_force_minimize(g)
        assert result.recomputed_energy == pytest.approx(best, rel=1e-12)


@st.composite
def weighted_models(draw):
    """`higher_order_models` structures (m may be 0, scopes may repeat) or
    unary factors only, with random tables: small integers, so that flips
    tie exactly, or spread floats."""
    graph = draw(higher_order_models())
    m = graph.variable_count
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scopes = [f.scope for f in graph.factors]
    if m and draw(st.booleans()):
        scopes = [(int(v),) for v in rng.integers(0, m, int(rng.integers(1, 2 * m)))]
    integer = draw(st.booleans())
    factors = []
    for scope in scopes:
        size = 2 ** len(scope)
        table = rng.integers(-2, 3, size) if integer else rng.normal(size=size)
        factors.append(Factor(scope, tuple(float(x) for x in table)))
    bits = rng.integers(0, 2, m).astype(np.uint8)
    return build_factor_graph(m, factors), bits


def close(a, b):
    return abs(a - b) <= ENERGY_REL_TOL * max(1.0, abs(b))


@settings(max_examples=60, deadline=None)
@given(model=weighted_models())
def test_full_depth_reaches_the_brute_force_optimum(model):
    g, bits = model
    _, best = brute_force_minimize(g)
    depth = max(1, g.variable_count)
    result = flip_search(g, make_configuration(g, bits), SolveParams(max_depth=depth))
    assert result.completed_depth == result.reached_depth == depth
    assert not result.time_limit_hit
    assert close(result.recomputed_energy, best)
    assert close(result.energy, result.recomputed_energy)


@settings(max_examples=60, deadline=None)
@given(model=weighted_models(), depth=st.integers(1, 3))
def test_completed_depth_is_certified(model, depth):
    g, bits = model
    result = flip_search(g, make_configuration(g, bits), SolveParams(max_depth=depth))
    assert result.completed_depth == depth
    assert verify_hamming_bound(g, result.configuration, result.completed_depth)
    assert close(result.energy, result.recomputed_energy)


class _Clock:
    """A perf_counter that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


def deeper_flip_model():
    """(0, 0, 0) is 1-optimal; flipping {0, 1} at depth 2 makes flipping 2
    improve."""
    return build_factor_graph(
        3,
        [
            Factor((0,), (0.0, 0.5)),
            Factor((1,), (0.0, 0.5)),
            Factor((0, 1), (3.0, 3.0, 3.0, 0.0)),
            Factor((1, 2), (0.0, 1.0, 1.0, -1.0)),
        ],
    )


def cut_solve(graph, time_limit):
    """A depth-2 solve from (0, 0, 0) on a clock that advances one second
    per reading."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "time", _Clock())
        return flip_search(
            graph,
            make_configuration(graph, [0, 0, 0]),
            SolveParams(max_depth=2, time_limit=time_limit),
        )


def test_a_cut_after_a_deeper_flip_certifies_no_depth():
    """The clock is read at the start, at each trace record, before each
    step of a level build and at each block's end: readings 1-3 are the
    start, its record and depth 1's one block, 4 the record of depth 2's
    start, 5 level 2's one growth step, 6 the record of the flip, and
    reading 7 ends depth 2's one block past the deadline of 5.5."""
    g = deeper_flip_model()
    result = cut_solve(g, 4.5)
    assert result.time_limit_hit
    assert result.configuration.bits.tolist() == [1, 1, 0]
    assert not verify_hamming_bound(g, result.configuration, 1)
    assert result.completed_depth == 0
    assert result.reached_depth == 2


def test_a_cut_inside_a_level_build_certifies_the_depth_before_it():
    """With a deadline of 4.5, reading 5, before level 2's one growth step,
    passes it: level 2 is not built and depth 1 stays certified."""
    g = deeper_flip_model()
    result = cut_solve(g, 3.5)
    assert result.time_limit_hit
    assert (result.completed_depth, result.reached_depth) == (1, 2)
    assert (result.subsets_evaluated, result.cstree_nodes) == (3, 3)
    assert result.configuration.bits.tolist() == [0, 0, 0]
    assert verify_hamming_bound(g, result.configuration, 1)


@settings(max_examples=60, deadline=None)
@given(model=weighted_models(), depth=st.integers(1, 4), ticks=st.integers(1, 40))
def test_a_run_cut_short_reports_an_honest_depth(model, depth, ticks):
    """The clock runs out after about `ticks` evaluations; whatever depth the
    run reports as completed must hold its certificate."""
    g, bits = model
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "time", _Clock())
        result = flip_search(
            g,
            make_configuration(g, bits),
            SolveParams(max_depth=depth, time_limit=ticks + 0.5),
        )
    assert result.completed_depth <= result.reached_depth <= depth
    if result.time_limit_hit:
        assert result.completed_depth < depth
    else:
        assert result.completed_depth == depth
    assert verify_hamming_bound(g, result.configuration, result.completed_depth)
    assert close(result.energy, result.recomputed_energy)


@pytest.mark.parametrize(
    "graph, depth, first_pass, revisits, rounds",
    [
        (lambda: generate_ising(IsingSpec(30, 30, 0.5, 0)), 5, 72_833, 12_191, 25),
        (lambda: generate_subgraph_grid(SubgraphGridSpec(100, 100, 0)), 2, 78_606, 64_619, 9),
        (lambda: generate_ising(IsingSpec(200, 200, 0.5, 0)), 1, 40_000, 40_353, 10),
    ],
    ids=["ising-30x30-d5", "subgraph-100x100-d2", "ising-200x200-d1"],
)
def test_hooks_split_the_evaluations_into_first_pass_and_revisits(
    graph, depth, first_pass, revisits, rounds
):
    """A traced benchmark run books each delta call to the first pass or to
    the revisits by the CS-tree growth or `first_tagged_subset` call that
    came before it, and counts a revisit round per `first_tagged_subset`
    that finds a node. The seed-0 benchmark models pin those counts."""
    graph = graph()
    phase, calls, found, sweeps = None, {"first": 0, "revisit": 0}, 0, 0
    hooks = {
        (CSTree, "first_subset_of_size"): "first",
        (CSTree, "next_subset_of_same_size"): "first",
        (TagList, "first_tagged_subset"): "revisit",
    }

    def marking(method, name):
        def marked(*args):
            nonlocal phase, found
            phase = name
            out = method(*args)
            if name == "revisit" and out is not None:
                found += 1
            return out

        return marked

    def counted_delta(*args):
        calls[phase] += 1
        return delta(*args)

    def counted_sweep(*args):
        nonlocal sweeps
        sweeps += 1
        return sweep(*args)

    delta, sweep = _FlipScratch.delta, solver._Run.sweep
    with pytest.MonkeyPatch.context() as mp:
        for (cls, attr), name in hooks.items():
            mp.setattr(cls, attr, marking(getattr(cls, attr), name))
        mp.setattr(_FlipScratch, "delta", counted_delta)
        mp.setattr(solver._Run, "sweep", counted_sweep)
        r = flip_search(
            graph, initial_configuration(graph, "unary_min"), SolveParams(max_depth=depth)
        )
    assert not r.time_limit_hit
    assert (calls["first"], calls["revisit"], found) == (first_pass, revisits, rounds)
    assert calls["first"] == r.cstree_nodes
    assert calls["revisit"] == r.subsets_evaluated - r.cstree_nodes
    # one first-pass sweep per depth, and one sweep per round
    assert found == sweeps - depth


def rounds_against_flip_by_flip_tags(graph, bits, depth):
    """Solve `graph` from `bits`, and check every selection the solve takes
    against a reference tag list that tags each flipped set's closed
    neighbourhood at the flip, as `neighbors` gives it; the reference is
    untagged with the solver's list. Returns the number of selections."""
    reference = TagList(graph.variable_count)
    selection, untag_all, flip = TagList.selection, TagList.untag_all, solver.flip
    taken = 0

    def checked_selection(tags, tree):
        nonlocal taken
        got = [(n, rows.tolist()) for n, rows in selection(tags, tree)]
        if tags is not reference:
            assert got == [(n, rows.tolist()) for n, rows in selection(reference, tree)]
            taken += 1
        return ((n, np.array(rows, dtype=np.intp)) for n, rows in got)

    def untag_both(tags):
        untag_all(tags)
        if tags is not reference:
            untag_all(reference)

    def tagging_flip(config, subset, e):
        reference.tag_connected_variables(
            set(subset).union(*(neighbors(graph, v) for v in subset))
        )
        return flip(config, subset, e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TagList, "selection", checked_selection)
        mp.setattr(TagList, "untag_all", untag_both)
        mp.setattr(solver, "flip", tagging_flip)
        flip_search(graph, make_configuration(graph, bits), SolveParams(max_depth=depth))
    return taken


@pytest.mark.parametrize(
    "graph, depth",
    [
        (lambda: generate_ising(IsingSpec(30, 30, 0.5, 0)), 5),
        (lambda: generate_subgraph_grid(SubgraphGridSpec(100, 100, 0)), 2),
        (lambda: generate_ising(IsingSpec(200, 200, 0.5, 0)), 1),
    ],
    ids=["ising-30x30-d5", "subgraph-100x100-d2", "ising-200x200-d1"],
)
def test_block_end_tags_select_what_flip_by_flip_tags_select(graph, depth):
    """The solver tags once per block with flips; each round must still
    select the nodes that tagging at every flip selects."""
    graph = graph()
    bits = initial_configuration(graph, "unary_min").bits
    assert rounds_against_flip_by_flip_tags(graph, bits, depth) > depth


@settings(max_examples=60, deadline=None)
@given(model=weighted_models(), depth=st.integers(1, 4))
def test_block_end_tags_select_what_flip_by_flip_tags_select_on_random_models(
    model, depth
):
    graph, bits = model
    rounds_against_flip_by_flip_tags(graph, bits, depth)


def test_a_rounds_selection_is_freed_before_the_next_round_selects():
    """Only a round's walk holds its selection, so when the next round
    selects, no earlier selection is alive."""
    graph = generate_ising(IsingSpec(10, 10, 0.5, 0))
    selection, made = TagList.selection, []

    def tracked(tags, tree):
        assert all(ref() is None for ref in made)
        got = selection(tags, tree)
        made.append(weakref.ref(got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TagList, "selection", tracked)
        r = flip_search(
            graph, initial_configuration(graph, "unary_min"), SolveParams(max_depth=3)
        )
    assert r.completed_depth == 3 and len(made) > 3


@pytest.mark.parametrize(
    "factors, bits",
    [
        ([Factor((0,), (1e308, -1e308))], [0]),
        ([Factor((0,), (0.0, -1e308)), Factor((1,), (0.0, -1e308))], [0, 0]),
    ],
    ids=["delta-overflows", "energy-overflows"],
)
@pytest.mark.parametrize("depth", [1, 2])
def test_a_flip_past_the_float_range_is_a_clear_error(factors, bits, depth):
    """A flip whose delta, or whose new energy, sums past the float range
    raises the ModelError of a starting energy that does, and numpy warns
    of no overflow on the way."""
    g = build_factor_graph(len(bits), factors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match="energy -inf is not finite: the table values"):
            flip_search(g, make_configuration(g, bits), SolveParams(max_depth=depth))
