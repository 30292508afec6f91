"""Solve benchmark: setup, solve and memory of flipsearch, end to end.

Usage (from the root of a flipsearch checkout):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For each workload the model files are generated from the seed and written
first. Then, for S seconds and until every model of the run is solved, one
single-threaded worker process at a time (worker.py) parses a model file
and solves it, and nothing else. Every
worker's output is checked outside the timed region (verify.py), and the
deterministic counters must repeat exactly across the workers of a run,
across runs in one checkout, and, for seed 0, match the recorded baseline.

--trace 0 reports the end-to-end metrics. --trace 1 runs an untraced and a
traced worker per model, for S seconds and at least one model, and reports
the per-layer metrics from the traced ones (spans.py), plus trace.overhead,
the traced solve time over the untraced one minus 1. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 1 if any
output check failed. Details of every sample, the environment and the last
traced worker's spans are written under .perfbench/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# A solve that reaches this limit fails the output check.
SOLVE_TIME_LIMIT = 60.0
# No worker starts after this many seconds of measuring, and every worker
# is killed this many seconds after the benchmark started.
LAST_START_S = 110.0
HARD_STOP_S = 165.0
ALPHA = 0.5


@dataclass(frozen=True)
class Workload:
    """Why each workload is there is said in BENCHMARK.json."""

    name: str
    family: str  # "ising" or "subgraph"
    height: int
    width: int
    max_depth: int
    # Models per run; run seed n solves model seeds batch*n .. batch*n+batch-1.
    batch: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ising-deep", "ising", 30, 30, 5, 12),
        Workload("subgraph-paper", "subgraph", 100, 100, 2, 1),
        Workload("ising-wide-icm", "ising", 200, 200, 1, 1),
    )
}

# Counters of the seed-0 models: (subsets evaluated, CS-tree nodes).
BASELINE = {
    ("ising", 30, 30, 5, 0): (85_024, 72_833),
    ("subgraph", 100, 100, 2, 0): (143_225, 78_606),
}

def load_package():
    """Import flipsearch from this checkout's src/, never from elsewhere."""
    package = SRC / "flipsearch" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a flipsearch checkout")
    sys.path.insert(0, str(SRC))
    import flipsearch

    if Path(flipsearch.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported flipsearch from {flipsearch.__file__}")
    return flipsearch


def model_seeds(w: Workload, seed: int) -> list[int]:
    return [w.batch * seed + i for i in range(w.batch)]


def generate(fs, w: Workload, model_seed: int):
    if w.family == "ising":
        return fs.generate_ising(fs.IsingSpec(w.height, w.width, ALPHA, model_seed))
    return fs.generate_subgraph_grid(
        fs.SubgraphGridSpec(w.height, w.width, model_seed)
    )


def environment(fs) -> dict:
    """What the figures depend on besides the code. Workers run with this
    interpreter and environment, so they take the same kernel path."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "using_numba": fs.kernels.USING_NUMBA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def run_worker(model_path: Path, w: Workload, spans_path: Path | None, timeout: float):
    cmd = [
        sys.executable, str(HERE / "worker.py"), str(model_path),
        "--max-depth", str(w.max_depth), "--time-limit", str(SOLVE_TIME_LIMIT),
    ]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMBA_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return None, f"worker killed after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, f"worker printed no result: {proc.stdout[-200:]!r}"


def signature(out: dict) -> dict:
    """What must repeat exactly between solves of one model."""
    return {k: out[k] for k in ("nodes", "evals", "flips", "energy", "bits")}


def count_problems(w: Workload, model_seed: int, first: dict | None, out: dict):
    """Counters that differ from an earlier worker on the same model, from
    the recorded baseline, or between the solver and the traced layers."""
    problems = []
    sig = signature(out)
    if first is not None and sig != first:
        diff = [k for k in sig if sig[k] != first[k]]
        problems.append(f"{diff} differ between runs")
    key = (w.family, w.height, w.width, w.max_depth, model_seed)
    if key in BASELINE and (out["evals"], out["nodes"]) != BASELINE[key]:
        problems.append(
            f"evals/nodes {out['evals']}/{out['nodes']} "
            f"!= baseline {BASELINE[key][0]}/{BASELINE[key][1]}"
        )
    layers = out.get("layers")
    if layers is not None:
        first_pass, revisits = layers["solver.first_pass_evals"], layers["solver.revisit_evals"]
        if not layers["model.delta_calls"] == first_pass + revisits == out["evals"]:
            problems.append(
                f"traced delta calls {layers['model.delta_calls']} ({first_pass} "
                f"first pass + {revisits} revisits) != {out['evals']} subsets evaluated"
            )
    return problems


def check_history(w: Workload, signatures: dict) -> list[str]:
    """Compare this run's counters with earlier runs in this checkout."""
    path = WORK / "counts.json"
    history = json.loads(path.read_text()) if path.is_file() else {}
    problems = []
    for model_seed, sig in signatures.items():
        key = f"{w.family}-{w.height}x{w.width}-d{w.max_depth}-s{model_seed}"
        counts = {k: v for k, v in sig.items() if k != "bits"}
        if key in history and history[key] != counts:
            problems.append(f"{key}: counts {counts} != earlier run {history[key]}")
        history.setdefault(key, counts)
    path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return problems


def declared_units(section: str) -> dict[str, str]:
    """Metric names and units of "end_to_end" or "per_layer", as
    BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def mean_of_medians(per_model: list[list[float]]) -> float:
    return statistics.fmean(statistics.median(xs) for xs in per_model)


def run_workload(fs, w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import verify  # imports flipsearch, so only after load_package()

    started = time.perf_counter()
    models = WORK / f"models-{os.getpid()}"
    models.mkdir(parents=True, exist_ok=True)
    seeds = model_seeds(w, seed)
    refs, paths = {}, {}
    for s in seeds:
        graph = generate(fs, w, s)
        paths[s] = models / f"{w.name}-{s}.bfg"
        fs.write_model(graph, paths[s])
        refs[s] = verify.Reference(graph, w.max_depth, like=refs.get(seeds[0]))

    workers: list[dict] = []
    untraced = {s: [] for s in seeds}
    traced = {s: [] for s in seeds}
    certified = {s: set() for s in seeds}
    signatures: dict[int, dict] = {}
    problems: list[str] = []
    attempted = failed = 0
    spans_path = WORK / f"spans-{w.name}.npz"

    def measured() -> list[int]:
        """Models with an untraced solve and, when tracing, a traced one."""
        return [s for s in seeds if untraced[s] and (traced[s] or not trace)]

    def enough() -> bool:
        # End-to-end figures need every model of the batch; the per-layer
        # figures of a traced run are for the models it got to.
        return bool(measured()) if trace else len(measured()) == len(seeds)

    t0 = time.perf_counter()
    for s in itertools.cycle(seeds):
        elapsed = time.perf_counter() - t0
        # a failed check ends the run: the figures of a wrong program are moot
        if problems or (elapsed >= seconds and enough()) or elapsed >= LAST_START_S:
            break
        for is_traced in (False, True) if trace else (False,):
            attempted += 1
            timeout = max(1.0, HARD_STOP_S - (time.perf_counter() - started))
            out, err = run_worker(paths[s], w, spans_path if is_traced else None, timeout)
            errs = [err] if err else verify.check_solve(refs[s], out, certified[s])
            if not errs:
                errs = count_problems(w, s, signatures.get(s), out)
                signatures.setdefault(s, signature(out))
            if errs:
                failed += 1
                problems += [f"model seed {s}: {e}" for e in errs]
                break
            out["model_seed"] = s
            out["traced"] = is_traced
            workers.append(out)
            (traced if is_traced else untraced)[s].append(out)
    if not problems and not enough():
        problems.append("too few models were solved within the time budget")
    if not problems:
        problems += check_history(w, signatures)
    shutil.rmtree(models, ignore_errors=True)

    def per_model(runs: dict, value) -> float:
        return mean_of_medians([[v for o in runs[s] for v in value(o)] for s in done])

    done = measured()
    e2e, layers = {}, {}
    if enough():
        setup = per_model(untraced, lambda o: o["setup_s"])
        solve = per_model(untraced, lambda o: [o["solve_s"]])
        values = {
            "setup_s": setup,
            "solve_s": solve,
            "certified_s": setup + solve,
            "peak_rss_mb": statistics.median(
                o["peak_rss_mib"] for s in done for o in untraced[s]
            ),
            "final_energy": statistics.fmean(untraced[s][0]["energy"] for s in done),
        }
        e2e = {
            k: {"value": values[k], "unit": unit}
            for k, unit in declared_units("end_to_end").items()
        }
    if trace and enough():
        for key, unit in declared_units("per_layer").items():
            if key == "trace.overhead":
                value = per_model(traced, lambda o: [o["solve_s"]]) / solve - 1
            else:
                value = per_model(traced, lambda o: [o["layers"][key]])
            layers[key] = {"value": value, "unit": unit}
    metrics = layers if trace else e2e
    if problems and not failed:
        failed = 1  # a run-level check failed, e.g. counters across runs
    samples = {
        "models": len(done),
        "untraced_workers": sum(len(v) for v in untraced.values()),
        "traced_workers": sum(len(v) for v in traced.values()),
        "setup_samples": sum(len(o["setup_s"]) for v in untraced.values() for o in v),
    }
    result = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "wall_s": time.perf_counter() - started,
        "environment": environment(fs),
        "samples": samples,
        "problems": problems,
        "workers": [{k: v for k, v in o.items() if k != "bits"} for o in workers],
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if trace:
        result["end_to_end"] = e2e
    (WORK / f"result-{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    return result


def report(result: dict) -> None:
    name = result["workload"]
    n = result["samples"]
    print(
        f"# {name} seed {result['seed']}: {n['models']} models, "
        f"{n['untraced_workers']} untraced + {n['traced_workers']} traced workers, "
        f"{n['setup_samples']} setup samples, {result['wall_s']:.1f} s"
    )
    print(f"# environment: {json.dumps(result['environment'])}")
    # sample count behind each figure
    counts = {"setup_s": n["setup_samples"], "final_energy": n["models"]}
    default = n["traced_workers"] if result["trace"] else n["untraced_workers"]
    for key, m in result["metrics"].items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']} (n={counts.get(key, default)})")
    for p in result["problems"]:
        print(f"{name} CHECK FAILED: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    fs = load_package()
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        results.append(
            run_workload(fs, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        )
        report(results[-1])
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1
        else {r["workload"]: r["metrics"] for r in results},
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
