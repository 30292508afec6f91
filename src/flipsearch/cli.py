"""Command-line interface.

Subcommands: solve, generate (ising / subgraph-grid), exact, verify,
count-subgraphs. All outputs are deterministic for identical inputs except
the elapsed_seconds field of trace files.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import fileformat, generators, oracle
from .cstree import CSTree
from .model import Configuration
from .solver import SolveParams, flip_search, initial_configuration

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _init(text: str) -> tuple[str, str | None]:
    """The `initial_configuration` policy that `--init` names, and the path
    of the bits file for `file:<path>`."""
    if text == "unary":
        return "unary_min", None
    if text == "zeros":
        return "all_zero", None
    if text.startswith("file:") and len(text) > 5:
        return "given", text[5:]
    raise argparse.ArgumentTypeError(f"expected unary, zeros or file:<path>, got {text!r}")


def _size(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipsearch",
        description="Energy minimization over binary factor graphs by "
        "depth-limited search over connected variable subsets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the flip search on a model file")
    p.add_argument("model")
    p.add_argument("--max-depth", type=_positive_int, required=True)
    p.add_argument("--init", type=_init, default="unary", help="unary | zeros | file:<path>")
    p.add_argument(
        "--time-limit", type=_positive_seconds, default=None, metavar="SECONDS"
    )
    p.add_argument("--trace", default=None, metavar="OUT_JSON")
    p.add_argument("--out", default=None, metavar="CONFIG_TXT")

    p = sub.add_parser("generate", help="write a synthetic model file")
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("ising", help="grid model with pairwise couplings")
    g.add_argument("--size", type=_size, required=True, metavar="HxW")
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", required=True)
    g = gsub.add_parser(
        "subgraph-grid", help="edge-selection model with 4th-order junctions"
    )
    g.add_argument("--size", type=_size, required=True, metavar="HxW")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", required=True)

    p = sub.add_parser("exact", help="brute-force global optimum (small models)")
    p.add_argument("model")
    p.add_argument("--max-variables", type=int, default=24)

    p = sub.add_parser("verify", help="check a Hamming-distance optimality bound")
    p.add_argument("model")
    p.add_argument("config")
    p.add_argument("--hamming", type=_nonnegative_int, required=True)

    p = sub.add_parser("count-subgraphs", help="count connected variable subsets")
    p.add_argument("model")
    p.add_argument("--max-size", type=_positive_int, default=None)
    p.add_argument(
        "--check",
        action="store_true",
        help="cross-check against the independent recursive enumerator",
    )
    return parser


def _cmd_solve(args) -> int:
    graph = fileformat.parse_model(args.model)
    policy, path = args.init
    given = None if path is None else fileformat.parse_configuration(path, graph.variable_count)
    config = initial_configuration(graph, policy, given=given)
    params = SolveParams(max_depth=args.max_depth, time_limit=args.time_limit)
    result = flip_search(graph, config, params)
    if args.out is not None:
        fileformat.write_configuration(result.configuration.bits, args.out)
    if args.trace is not None:
        fileformat.write_trace(result.trace, args.trace)
    print(f"energy {result.energy!r}")
    print(f"recomputed_energy {result.recomputed_energy!r}")
    print(f"completed_depth {result.completed_depth}")
    print(f"reached_depth {result.reached_depth}")
    print(f"flips_accepted {result.flips_accepted}")
    print(f"subsets_evaluated {result.subsets_evaluated}")
    print(f"cstree_nodes {result.cstree_nodes}")
    print(f"time_limit_hit {'yes' if result.time_limit_hit else 'no'}")
    return 0


def _cmd_generate(args) -> int:
    h, w = args.size
    if args.family == "ising":
        graph = generators.generate_ising(
            generators.IsingSpec(height=h, width=w, alpha=args.alpha, seed=args.seed)
        )
    else:
        graph = generators.generate_subgraph_grid(
            generators.SubgraphGridSpec(cell_height=h, cell_width=w, seed=args.seed)
        )
    fileformat.write_model(graph, args.output)
    print(
        f"wrote {args.output}: {graph.variable_count} variables, "
        f"{len(graph.table_start)} factors"
    )
    return 0


def _cmd_exact(args) -> int:
    graph = fileformat.parse_model(args.model)
    config, best = oracle.brute_force_minimize(graph, max_variables=args.max_variables)
    print("".join(str(int(b)) for b in config.bits))
    print(f"energy {best!r}")
    return 0


def _cmd_verify(args) -> int:
    graph = fileformat.parse_model(args.model)
    bits = fileformat.parse_configuration(args.config, graph.variable_count)
    config = Configuration(bits, 0.0)
    if oracle.verify_hamming_bound(graph, config, args.hamming):
        print(f"hamming-{args.hamming} bound holds")
        return 0
    print(f"hamming-{args.hamming} bound violated")
    return 1


def _cmd_count_subgraphs(args) -> int:
    graph = fileformat.parse_model(args.model)
    tree = CSTree(graph)
    counts: dict[int, int] = {}
    size = 1
    while args.max_size is None or size <= args.max_size:
        if tree.first_subset_of_size(size) is None:
            break
        counts[size] = len(tree.links(size)[2])
        size += 1
    for size in sorted(counts):
        print(f"size {size}: {counts[size]}")
    print(f"total {sum(counts.values())}")
    if args.check:
        report = oracle.enumerate_connected_subsets_recursive(
            graph, max_size=args.max_size
        )
        if report.counts != counts:
            print("mismatch against recursive enumeration", file=sys.stderr)
            return 1
        print("recursive enumeration agrees")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "generate": _cmd_generate,
        "exact": _cmd_exact,
        "verify": _cmd_verify,
        "count-subgraphs": _cmd_count_subgraphs,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
