"""Span tracing of one solve, added at run time from outside the package.

`instrument` replaces the entry points each layer exposes to the solver and
to `parse_model` with wrappers that record a span per call: name, start,
end and the enclosing span. The package source is not edited. `solver`
imports `flip` and `energy` into its own namespace,
and `fileformat` does the same with `build_factor_graph`, so those names are
replaced where they are looked up.

Spans are kept in compact arrays in memory; `Tracer.save` writes them out.
A span's self time is its duration minus that of its direct child spans.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from flipsearch import cstree, fileformat, model, solver, taglist


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.rounds = 0
        self.depth_start: dict[int, float] = {}
        self.scratch = None

    def wrap(self, name: str, fn):
        """`fn` recording a span per call; it must be called positionally."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        start, end, stack = self.start, self.end, self.stack
        add_name, add_parent = self.span_name.append, self.parent.append
        add_start, add_end = start.append, end.append
        push, pop = stack.append, stack.pop
        clock = time.perf_counter

        def traced(*args):
            i = len(start)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            push(i)
            add_start(clock())
            try:
                return fn(*args)
            finally:
                end[i] = clock()
                pop()

        return traced

    def _ids(self) -> np.ndarray:
        return np.frombuffer(self.span_name, dtype=np.int32)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self seconds, number of spans)."""
        names = self._ids()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(names, weights=dur - child, minlength=len(self.names))
        count = np.bincount(names, minlength=len(self.names))
        return {n: (float(own[i]), int(count[i])) for i, n in enumerate(self.names)}

    def span_bounds(self, name: str) -> tuple[float, float]:
        """Start of the first and end of the last span called `name`."""
        ids = np.flatnonzero(self._ids() == self.names.index(name))
        return self.start[ids[0]], self.end[ids[-1]]

    def delta_phases(self) -> tuple[int, int]:
        """Delta evaluations of the first pass and of revisits: each belongs
        to the CS-tree growth or tag-list sweep call that preceded it."""
        ids = self._ids()
        grow, sweep, delta = (
            self.names.index(n) for n in ("cstree.grow", "taglist.sweep", "model.delta")
        )
        order = np.arange(len(ids))
        last = np.maximum.accumulate(np.where((ids == grow) | (ids == sweep), order, 0))
        producer = ids[last[ids == delta]]
        return int((producer == grow).sum()), int((producer == sweep).sum())

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            span_name=self._ids(),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def instrument(tr: Tracer) -> None:
    """Wrap every layer entry point used by parse_model and flip_search."""
    fileformat.parse_model = tr.wrap("fileformat.parse", fileformat.parse_model)
    fileformat.build_factor_graph = tr.wrap(
        "model.build", fileformat.build_factor_graph
    )
    traced_energy = tr.wrap("model.energy", model.energy)
    model.energy = traced_energy
    solver.energy = traced_energy
    solver.flip = tr.wrap("model.flip", solver.flip)
    solver.initial_configuration = tr.wrap(
        "solver.init", solver.initial_configuration
    )
    solver.flip_search = tr.wrap("solver.flip_search", solver.flip_search)

    model._FlipScratch.delta = tr.wrap("model.delta", model._FlipScratch.delta)
    scratch_init = model._FlipScratch.__init__

    def keep_scratch(scratch, graph):
        tr.scratch = scratch
        scratch_init(scratch, graph)

    model._FlipScratch.__init__ = keep_scratch

    first_subset = cstree.CSTree.first_subset_of_size

    def first_subset_of_size(tree, n):
        tr.depth_start[n] = time.perf_counter()
        return first_subset(tree, n)

    cstree.CSTree.first_subset_of_size = tr.wrap("cstree.grow", first_subset_of_size)
    cstree.CSTree.next_subset_of_same_size = tr.wrap(
        "cstree.grow", cstree.CSTree.next_subset_of_same_size
    )
    cstree.CSTree.sequence_of = tr.wrap("cstree.sequence_of", cstree.CSTree.sequence_of)

    first_tagged = taglist.TagList.first_tagged_subset

    def first_tagged_subset(tags, tree):
        s = first_tagged(tags, tree)
        if s is not None:
            tr.rounds += 1
        return s

    taglist.TagList.first_tagged_subset = tr.wrap("taglist.sweep", first_tagged_subset)
    taglist.TagList.next_tagged_subset = tr.wrap(
        "taglist.sweep", taglist.TagList.next_tagged_subset
    )
    taglist.TagList.tag_connected_variables = tr.wrap(
        "taglist.tag", taglist.TagList.tag_connected_variables
    )
    taglist.TagList.untag_all = tr.wrap("taglist.tag", taglist.TagList.untag_all)


def layer_metrics(tr: Tracer, result, max_depth: int, model_bytes: int) -> dict:
    """Per-layer figures of one traced setup + solve."""
    own = tr.self_times()

    def s(name):
        return own.get(name, (0.0, 0))[0]

    def calls(name):
        return own.get(name, (0.0, 0))[1]

    solve_start, solve_end = tr.span_bounds("solver.flip_search")
    evals = result.subsets_evaluated
    first_pass, revisits = tr.delta_phases()
    delta_calls = calls("model.delta")
    m = {
        "fileformat.parse_s": s("fileformat.parse"),
        "fileformat.parse_mb_per_s": model_bytes / 2**20 / s("fileformat.parse"),
        "model.build_s": s("model.build"),
        "model.delta_s": s("model.delta"),
        "model.delta_calls": delta_calls,
        "model.delta_us": 1e6 * s("model.delta") / max(1, delta_calls),
        "model.table_lookups": tr.scratch.evaluations,
        "model.energy_s": s("model.energy"),
        "model.flip_s": s("model.flip"),
        "cstree.grow_s": s("cstree.grow"),
        "cstree.nodes": result.cstree_nodes,
        "cstree.sequence_of_s": s("cstree.sequence_of"),
        "cstree.sequence_of_calls": calls("cstree.sequence_of"),
        "taglist.sweep_s": s("taglist.sweep"),
        "taglist.tag_s": s("taglist.tag"),
        "taglist.rounds": tr.rounds,
        "solver.init_s": s("solver.init"),
        "solver.self_s": s("solver.flip_search"),
        "solver.evals": evals,
        "solver.flips": result.flips_accepted,
        "solver.first_pass_evals": first_pass,
        "solver.revisit_evals": revisits,
        "solver.revisit_share": revisits / max(1, evals),
        "solver.accept_ratio": result.flips_accepted / max(1, evals),
    }
    # Time from the start of the solve until depth k is complete; a depth
    # beyond max_depth is complete when the solve returns.
    for k in range(1, 6):
        done = tr.depth_start.get(k + 1, solve_end) if k < max_depth else solve_end
        m[f"solver.depth_s.{k}"] = done - solve_start
    return m
