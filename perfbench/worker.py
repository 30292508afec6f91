"""One benchmark process: parse a model file and solve it, nothing else.

Usage: python3 worker.py MODEL --max-depth N --time-limit S [--trace SPANS.npz]

Prints one JSON line with the final configuration, the solver's counters,
the setup and solve times and the peak resident set size of this process. Setup is
`parse_model` plus `initial_configuration`; the first setup is followed by
the solve, later ones are repeated only to time setup again.

With --trace the layer entry points are wrapped (spans.py), one setup and
one solve are traced, the spans are written to SPANS.npz and the per-layer
figures are added under "layers".
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
import tracemalloc

import numpy as np

from flipsearch import fileformat, solver

# Untraced setup is repeated until setups have taken this many seconds, at
# most MAX_SETUPS times in all.
SETUP_SECONDS = 0.5
MAX_SETUPS = 15


def setup(path: str):
    t0 = time.perf_counter()
    graph = fileformat.parse_model(path)
    config = solver.initial_configuration(graph, "unary_min")
    return graph, config, time.perf_counter() - t0


def peak_rss_mib() -> float:
    """High-water resident set size of this process since it started.

    ru_maxrss survives exec, so in a worker started by a large parent it can
    report the parent's size; Linux's VmHWM belongs to this process image.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def graph_mib(path: str) -> float:
    """Bytes held by a parsed graph, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        graph = fileformat.parse_model(path)
        held = tracemalloc.get_traced_memory()[0]
        del graph
    finally:
        tracemalloc.stop()
    return held / 2**20


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("model")
    parser.add_argument("--max-depth", type=int, required=True)
    parser.add_argument("--time-limit", type=float, required=True)
    parser.add_argument("--trace", default=None, metavar="SPANS_NPZ")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)

    graph, config, first_setup = setup(args.model)
    params = solver.SolveParams(max_depth=args.max_depth, time_limit=args.time_limit)
    t0 = time.perf_counter()
    result = solver.flip_search(graph, config, params)
    solve_s = time.perf_counter() - t0
    peak_rss = peak_rss_mib()
    del graph, config

    out = {
        "bits": (result.configuration.bits + ord("0")).astype(np.uint8).tobytes().decode(),
        "energy": result.energy,
        "recomputed_energy": result.recomputed_energy,
        "completed_depth": result.completed_depth,
        "time_limit_hit": result.time_limit_hit,
        "flips": result.flips_accepted,
        "evals": result.subsets_evaluated,
        "nodes": result.cstree_nodes,
        "setup_s": [first_setup],
        "solve_s": solve_s,
        "peak_rss_mib": peak_rss,
    }
    if tracer is not None:
        size = os.path.getsize(args.model)
        out["layers"] = spans.layer_metrics(tracer, result, args.max_depth, size)
        tracer.save(args.trace)
        out["layers"]["model.graph_mb"] = graph_mib(args.model)
    else:
        while sum(out["setup_s"]) < SETUP_SECONDS and len(out["setup_s"]) < MAX_SETUPS:
            out["setup_s"].append(setup(args.model)[2])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
