"""The solver walks each block of up to BLOCK_ROWS subsets in one loop and
asks the CS-tree or the tag list for the next block once per block. Where the
blocks end must change nothing: not the counters, the trace, the energy or
the bits, and not what a run cut short by its time limit reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsearch import SolveParams, flip_search, initial_configuration, make_configuration
from flipsearch import model, solver

from test_golden import GOLDEN
from test_golden import model as golden_model
from test_solver import _Clock, weighted_models

BLOCKS = (1, 2, 3, 7, solver.BLOCK_ROWS)


def solve(graph, bits, depth, block_rows, time_limit=None, clock=None):
    """A solve in blocks of `block_rows`. Each trace record and the result
    count as evaluated exactly the subsets whose delta was asked for."""
    calls = 0
    delta, record = model._FlipScratch.delta, solver._Run.record

    def counted_delta(*args):
        nonlocal calls
        calls += 1
        return delta(*args)

    def checked_record(run):
        assert run.subsets_evaluated == calls
        record(run)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "BLOCK_ROWS", block_rows)
        mp.setattr(model._FlipScratch, "delta", counted_delta)
        mp.setattr(solver._Run, "record", checked_record)
        if clock is not None:
            mp.setattr(solver, "time", clock)
        r = flip_search(
            graph,
            make_configuration(graph, bits.copy()),
            SolveParams(max_depth=depth, time_limit=time_limit),
        )
    assert r.subsets_evaluated == calls
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
    """Clock readings of a run that is not cut."""
    clock = _Clock()
    r = solve(graph, bits, depth, solver.BLOCK_ROWS, time_limit=1e12, clock=clock)
    assert not r.time_limit_hit
    return int(clock.now)


def assert_cuts_agree(graph, bits, depth, ticks):
    """Cut after each reading count in `ticks`: what the run reports, and
    when it reads the clock, is the same for every block size."""
    for t in ticks:
        runs = [
            outcome(solve(graph, bits, depth, b, time_limit=t + 0.5, clock=_Clock()), True)
            for b in BLOCKS
        ]
        assert runs[1:] == runs[:-1], f"cut after {t} readings"


def golden_start(name):
    graph, depth = golden_model(name)
    return graph, initial_configuration(graph, "unary_min").bits, depth


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_block_size_changes_no_golden_solve(name):
    graph, bits, depth = golden_start(name)
    runs = [outcome(solve(graph, bits, depth, b)) for b in BLOCKS]
    assert runs[1:] == runs[:-1]
    assert runs[0][:3] == GOLDEN[name][:3]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_block_size_changes_no_golden_cut(name):
    graph, bits, depth = golden_start(name)
    n = readings(graph, bits, depth)
    # every early cut, then 12 more spread over the rest of the run
    ticks = sorted(set(range(1, 40)) | set(np.linspace(40, n, 12).astype(int).tolist()))
    assert_cuts_agree(graph, bits, depth, ticks)


@settings(max_examples=40, deadline=None)
@given(weighted=weighted_models(), depth=st.integers(1, 3))
def test_block_size_changes_no_random_solve_or_cut(weighted, depth):
    graph, bits = weighted
    runs = [outcome(solve(graph, bits, depth, b)) for b in BLOCKS]
    assert runs[1:] == runs[:-1]
    assert_cuts_agree(graph, bits, depth, range(1, readings(graph, bits, depth) + 1))
