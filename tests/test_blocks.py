"""The solver walks each block of up to BLOCK_ROWS subsets in one loop and
reads the clock once per block, at its end, and before each step of a
CS-tree level build. Where the blocks end must change nothing in a whole
run: not the counters, the trace, the energy or the bits. A run cut short by
its time limit stops at one of the whole run's block ends, or inside a level
build that follows one, and reports a depth it has certified."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsearch import (
    SolveParams,
    flip_search,
    initial_configuration,
    make_configuration,
    verify_hamming_bound,
)
from flipsearch import model, solver

from test_golden import GOLDEN
from test_golden import model as golden_model
from test_solver import _Clock, weighted_models

BLOCKS = (1, 2, 3, 7, solver.BLOCK_ROWS)


def solve(graph, bits, depth, block_rows, time_limit=None, clock=None, ends=None):
    """A solve in blocks of `block_rows`; the evaluation count at the end of
    each block is appended to `ends`, if given. Each trace record and the
    result count as evaluated exactly the subsets whose delta was asked for."""
    calls = 0
    starts = []
    delta, load_block, record = (
        model._FlipScratch.delta,
        model._FlipScratch.load_block,
        solver._Run.record,
    )

    def counted_delta(*args):
        nonlocal calls
        calls += 1
        return delta(*args)

    def counted_load_block(scratch, rows):
        starts.append(calls)
        load_block(scratch, rows)

    def checked_record(run):
        assert run.subsets_evaluated == calls
        record(run)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "BLOCK_ROWS", block_rows)
        mp.setattr(model._FlipScratch, "delta", counted_delta)
        mp.setattr(model._FlipScratch, "load_block", counted_load_block)
        mp.setattr(solver._Run, "record", checked_record)
        if clock is not None:
            mp.setattr(solver, "time", clock)
        r = flip_search(
            graph,
            make_configuration(graph, bits.copy()),
            SolveParams(max_depth=depth, time_limit=time_limit),
        )
    assert r.subsets_evaluated == calls
    if ends is not None:
        ends += starts[1:] + [calls]
    return r


def outcome(r, with_times=False):
    trace = [
        (
            t.elapsed_seconds if with_times else None,
            t.best_energy.hex(),
            t.depth,
            t.flips_accepted,
            t.subsets_evaluated,
            t.cstree_nodes,
        )
        for t in r.trace
    ]
    return (
        r.subsets_evaluated,
        r.cstree_nodes,
        r.flips_accepted,
        r.reached_depth,
        r.completed_depth,
        r.time_limit_hit,
        r.energy.hex(),
        r.configuration.bits.tolist(),
        trace,
    )


def readings(graph, bits, depth):
    """Clock readings of a run that is not cut: its start, its trace
    records, its block ends and its growth steps."""
    clock = _Clock()
    r = solve(graph, bits, depth, solver.BLOCK_ROWS, time_limit=1e12, clock=clock)
    assert not r.time_limit_hit
    return int(clock.now)


def assert_cuts_are_prefixes(graph, bits, depth, ticks):
    """Cut after each reading count in `ticks`, in blocks of each size: the
    cut run's trace up to its last record is a prefix of the whole run's,
    it stops where a block of the whole run ends, at the energy and the
    flips of its last flip, and the depth it reports as completed holds its
    certificate."""
    for b in BLOCKS:
        ends = []
        whole = outcome(solve(graph, bits, depth, b, ends=ends))
        for t in ticks:
            r = solve(graph, bits, depth, b, time_limit=t + 0.5, clock=_Clock())
            if not r.time_limit_hit:
                assert outcome(r) == whole, f"block {b}, {t} readings"
                continue
            trace = outcome(r)[-1]
            assert trace[:-1] == whole[-1][: len(trace) - 1], f"block {b}, {t} readings"
            assert r.subsets_evaluated in ends
            _, energy, _, flips, _, _ = trace[-2]
            assert (r.energy.hex(), r.flips_accepted) == (energy, flips)
            assert r.completed_depth < depth
            assert verify_hamming_bound(graph, r.configuration, r.completed_depth)


def golden_start(name):
    graph, depth = golden_model(name)
    return graph, initial_configuration(graph, "unary_min").bits, depth


def first_pass_blocks(graph, bits, depth, block_rows):
    """Per level of a solve: its node count, and the row count of each block
    its first pass walked, in order."""
    passes = []
    blocks = solver._blocks

    def recorded(tree, selected):
        for n, rows in selected:
            # the first pass hands over a level's rows as a range
            first_pass = isinstance(rows, range)
            if first_pass:
                assert len(rows) == len(tree.links(n)[2])
                passes.append((len(rows), []))
            for ids, block in blocks(tree, [(n, rows)]):
                if first_pass:
                    passes[-1][1].append(len(block))
                yield ids, block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "BLOCK_ROWS", block_rows)
        mp.setattr(solver, "_blocks", recorded)
        flip_search(graph, make_configuration(graph, bits.copy()), SolveParams(depth))
    return passes


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_first_pass_blocks_are_full_but_for_each_levels_last(name):
    """The first pass walks a level's id range in blocks of BLOCK_ROWS rows,
    so only a level's last block is shorter."""
    graph, bits, depth = golden_start(name)
    for b in BLOCKS:
        passes = first_pass_blocks(graph, bits, depth, b)
        assert len(passes) == depth
        for size, blocks in passes:
            assert sum(blocks) == size
            assert blocks[:-1] == [b] * (len(blocks) - 1)
            assert 0 < blocks[-1] <= b


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_block_size_changes_no_golden_solve(name):
    graph, bits, depth = golden_start(name)
    runs = [outcome(solve(graph, bits, depth, b)) for b in BLOCKS]
    assert runs[1:] == runs[:-1]
    assert runs[0][:3] == GOLDEN[name][:3]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cuts_are_prefixes_of_the_whole_run(name):
    graph, bits, depth = golden_start(name)
    n = readings(graph, bits, depth)
    # every early cut, then 12 more spread over the rest of the run
    ticks = sorted(set(range(1, 40)) | set(np.linspace(40, n, 12).astype(int).tolist()))
    assert_cuts_are_prefixes(graph, bits, depth, ticks)


@settings(max_examples=40, deadline=None)
@given(weighted=weighted_models(), depth=st.integers(1, 3))
def test_block_size_changes_no_random_solve_and_cuts_are_prefixes(weighted, depth):
    graph, bits = weighted
    runs = [outcome(solve(graph, bits, depth, b)) for b in BLOCKS]
    assert runs[1:] == runs[:-1]
    assert_cuts_are_prefixes(graph, bits, depth, range(1, readings(graph, bits, depth) + 1))
