"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json

import numpy as np
import pytest

import run

fs = run.load_package()
import verify  # noqa: E402  (needs flipsearch on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"ising-deep": (6, 6), "subgraph-paper": (4, 4), "ising-wide-icm": (12, 12)}


def solved(height=6, width=6, seed=3, depth=2):
    graph = fs.generate_ising(fs.IsingSpec(height, width, 0.5, seed))
    config = fs.initial_configuration(graph)
    result = fs.flip_search(graph, config, fs.SolveParams(max_depth=depth))
    return graph, result


def worker_output(result, bits=None):
    bits = result.configuration.bits if bits is None else bits
    return {
        "bits": "".join(str(int(b)) for b in bits),
        "energy": result.energy,
        "recomputed_energy": result.recomputed_energy,
        "completed_depth": result.completed_depth,
        "time_limit_hit": result.time_limit_hit,
    }


def test_check_accepts_a_certified_solve():
    graph, result = solved()
    ref = verify.Reference(graph, 2)
    assert verify.check_solve(ref, worker_output(result), set()) == []


def test_check_rejects_one_bit_flipped_away_from_a_certified_optimum():
    graph, result = solved()
    ref = verify.Reference(graph, 2)
    bits = result.configuration.bits.copy()
    singles = ref.deltas(bits, 1)
    v = int(np.argmax(singles))
    assert singles[v] > verify.tolerance(result.energy)
    bits[v] ^= 1
    energy = fs.energy(graph, bits)
    assert ref.certificate_violations(bits, energy)
    out = worker_output(result, bits)
    out["energy"] = out["recomputed_energy"] = energy
    assert verify.check_solve(ref, out, set())


@pytest.mark.parametrize(
    "field, value",
    [("completed_depth", 1), ("time_limit_hit", True), ("energy", 0.5)],
)
def test_check_rejects_incomplete_or_inconsistent_output(field, value):
    graph, result = solved()
    out = worker_output(result)
    out[field] = value
    assert verify.check_solve(verify.Reference(graph, 2), out, set())


def test_deltas_match_recomputed_energies():
    graph, result = solved(depth=3)
    ref = verify.Reference(graph, 3)
    bits = result.configuration.bits
    base = fs.energy(graph, bits)
    for k, subsets in ref.subsets.items():
        deltas = ref.deltas(bits, k)
        for row, d in zip(subsets[::7], deltas[::7]):
            flipped = bits.copy()
            flipped[row] ^= 1
            assert fs.energy(graph, flipped) - base == pytest.approx(d, abs=1e-12)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_pass_runs_every_workload(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    h, w = TINY[name]
    workload = dataclasses.replace(run.WORKLOADS[name], height=h, width=w, batch=2)
    result = run.run_workload(fs, workload, seed=1, seconds=0, trace=trace)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert (tmp_path / f"spans-{name}.npz").is_file()


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
