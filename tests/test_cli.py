import json
import os
import resource
import subprocess
import sys

import pytest

from flipsearch import CSTree, Factor, FactorGraph, IsingSpec, generate_ising, write_model
from flipsearch.cli import _build_parser, main

from conftest import grid_graph, trap_graph


@pytest.fixture
def trap_file(tmp_path):
    path = tmp_path / "trap.bfg"
    write_model(trap_graph(), path)
    return path


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.bfg"
    write_model(grid_graph(), path)
    return path


class TestSolve:
    def test_trap_depth_two(self, trap_file, tmp_path, capsys):
        out = tmp_path / "config.txt"
        rc = main(
            ["solve", str(trap_file), "--max-depth", "2", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text() == "11\n"
        printed = capsys.readouterr().out
        assert "energy 1.0" in printed
        assert "time_limit_hit no" in printed

    def test_depth_zero_is_usage_error(self, trap_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["solve", str(trap_file), "--max-depth", "0"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("seconds", ["-1", "0", "inf", "nan", "soon"])
    def test_time_limit_must_be_positive_and_finite(self, tmp_path, capsys, seconds):
        # the model file does not exist: the limit is refused before any read
        args = ["solve", str(tmp_path / "nope.bfg"), "--max-depth", "1"]
        with pytest.raises(SystemExit) as exc_info:
            main(args + ["--time-limit", seconds])
        assert exc_info.value.code == 2
        assert "--time-limit" in capsys.readouterr().err

    def test_decoupled_ising_trace_has_no_flips(self, tmp_path, capsys):
        model = tmp_path / "ising.bfg"
        main(
            [
                "generate",
                "ising",
                "--size",
                "4x4",
                "--alpha",
                "0",
                "--seed",
                "3",
                "-o",
                str(model),
            ]
        )
        trace = tmp_path / "trace.json"
        rc = main(
            ["solve", str(model), "--max-depth", "1", "--trace", str(trace)]
        )
        assert rc == 0
        records = json.loads(trace.read_text())
        assert all(r["flips_accepted"] == 0 for r in records)

    def test_init_from_file(self, trap_file, tmp_path, capsys):
        init = tmp_path / "init.txt"
        init.write_text("11\n")
        rc = main(
            [
                "solve",
                str(trap_file),
                "--max-depth",
                "1",
                "--init",
                f"file:{init}",
            ]
        )
        assert rc == 0
        assert "energy 1.0" in capsys.readouterr().out

    def test_missing_model_file(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path / "nope.bfg"), "--max-depth", "1"])
        assert rc == 1

    def test_bad_init(self, trap_file, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["solve", str(trap_file), "--max-depth", "1", "--init", "wat"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("init", ["bogus", "file:", "Unary", "zeros:"])
    def test_bad_init_is_refused_before_the_model_is_read(self, tmp_path, capsys, init):
        args = ["solve", str(tmp_path / "nope.bfg"), "--max-depth", "1"]
        with pytest.raises(SystemExit) as exc_info:
            main(args + ["--init", init])
        assert exc_info.value.code == 2
        assert "--init" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "init, policy, energy",
        [("unary", "unary_min", "2.0"), ("zeros", "all_zero", "2.0"), ("file:", "given", "1.0")],
    )
    def test_each_init_form(self, trap_file, tmp_path, capsys, init, policy, energy):
        """At depth 1 the trap stays where it starts: at 00 (energy 2.0)
        from the unary choice or from zeros, at 11 (energy 1.0) from the
        bits file."""
        if init == "file:":
            (tmp_path / "init.txt").write_text("11\n")
            init += str(tmp_path / "init.txt")
        args = ["solve", str(trap_file), "--max-depth", "1", "--init", init]
        assert _build_parser().parse_args(args).init[0] == policy
        assert main(args) == 0
        assert f"energy {energy}" in capsys.readouterr().out


class TestGenerate:
    def test_determinism_byte_for_byte(self, tmp_path, capsys):
        args = [
            "generate",
            "ising",
            "--size",
            "5x5",
            "--alpha",
            "0.5",
            "--seed",
            "7",
        ]
        a, b = tmp_path / "a.bfg", tmp_path / "b.bfg"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_subgraph_grid(self, tmp_path, capsys):
        out = tmp_path / "sg.bfg"
        rc = main(
            [
                "generate",
                "subgraph-grid",
                "--size",
                "3x3",
                "--seed",
                "2",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        assert "12 variables" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args, field",
        [
            (["ising", "--size", "0x3", "--alpha", "0.5", "--seed", "0"], "height"),
            (["ising", "--size", "3x0", "--alpha", "0.5", "--seed", "0"], "width"),
            (["ising", "--size", "3x3", "--alpha", "nan", "--seed", "0"], "alpha"),
            (["ising", "--size", "3x3", "--alpha", "inf", "--seed", "0"], "alpha"),
            (["ising", "--size", "3x3", "--alpha", "-0.5", "--seed", "0"], "alpha"),
            (["ising", "--size", "3x3", "--alpha", "0.5", "--seed", "-1"], "seed"),
            (["subgraph-grid", "--size", "1x3", "--seed", "0"], "cell_height"),
            (["subgraph-grid", "--size", "3x1", "--seed", "0"], "cell_width"),
            (["subgraph-grid", "--size", "3x3", "--seed", "-1"], "seed"),
        ],
    )
    def test_bad_spec_names_its_field(self, tmp_path, capsys, args, field):
        out = tmp_path / "model.bfg"
        assert main(["generate", *args, "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert not out.exists()


class TestExactAndVerify:
    def test_exact_trap(self, trap_file, capsys):
        rc = main(["exact", str(trap_file)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "11"
        assert out[1] == "energy 1.0"

    def test_exact_refuses_a_scan_past_its_memory_ceiling(self, tmp_path, capsys):
        """A guard raised past the memory ceiling stays at the ceiling: 2^40
        configurations would need 40 TiB. One error line, before anything
        is allocated."""
        model = tmp_path / "m.bfg"
        assert main(["generate", "ising", "--size", "5x8", "--alpha", "0.5", "--seed", "0",
                     "-o", str(model)]) == 0
        capsys.readouterr()
        assert main(["exact", str(model), "--max-variables", "60"]) == 1
        assert capsys.readouterr().err == (
            "error: 40 variables exceed the brute-force guard 24 (at most 24: the scan "
            "holds 40 bytes for each of 2^m configurations)\n"
        )

    def test_verify_optimum(self, trap_file, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("11\n")
        assert main(["verify", str(trap_file), str(config), "--hamming", "2"]) == 0

    def test_verify_failure_exit_code(self, trap_file, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("00\n")
        assert main(["verify", str(trap_file), str(config), "--hamming", "1"]) == 0
        assert main(["verify", str(trap_file), str(config), "--hamming", "2"]) == 1

    def test_negative_hamming_is_usage_error(self, trap_file, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("00\n")
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", str(trap_file), str(config), "--hamming", "-3"])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert "must be >= 0, got -3" in captured.err
        assert "bound holds" not in captured.out


class TestCountSubgraphs:
    def test_grid_total(self, grid_file, capsys):
        rc = main(["count-subgraphs", str(grid_file), "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total 40" in out
        assert "size 1: 6" in out
        assert "size 2: 7" in out
        assert "recursive enumeration agrees" in out

    def test_max_size(self, grid_file, capsys):
        rc = main(["count-subgraphs", str(grid_file), "--max-size", "2", "--check"])
        assert rc == 0
        assert "total 13" in capsys.readouterr().out

    def test_check_refuses_a_large_model_before_counting(self, tmp_path, capsys, monkeypatch):
        """The recursive enumerator's size guard runs before the CS-tree is
        built, so a refused model prints no counts."""
        path = tmp_path / "ising.bfg"
        write_model(generate_ising(IsingSpec(5, 5, alpha=0.5, seed=0)), path)
        monkeypatch.setattr(CSTree, "__init__", lambda *args: pytest.fail("tree built"))
        assert main(["count-subgraphs", str(path), "--check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 25 variables exceed the enumeration guard 20\n"


def test_console_entry_point(trap_file):
    proc = subprocess.run(
        [sys.executable, "-m", "flipsearch.cli", "exact", str(trap_file)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "11"


def _cap_address_space():
    cap = 3 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_a_failed_allocation_is_an_error_not_a_traceback(tmp_path):
    """A model of 2^31 - 1 variables asks for 16 GiB; the child's address
    space is capped at 3 GiB, so the allocation fails there and nowhere
    else."""
    path = tmp_path / "huge.bfg"
    path.write_text("bfg 1\nvars 2147483647\n")
    proc = subprocess.run(
        [sys.executable, "-m", "flipsearch.cli", "solve", str(path), "--max-depth", "1"],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_no_command_builds_a_factor(tmp_path, monkeypatch, capsys):
    """Every command works from the graph's arrays alone: none makes a
    `Factor` or reads `FactorGraph.factors`."""

    def refuse(*args):
        raise AssertionError("a Factor was built")

    monkeypatch.setattr(Factor, "__post_init__", refuse)
    monkeypatch.setattr(FactorGraph, "factors", property(refuse))
    ising, grid, bits = (str(tmp_path / name) for name in ("ising.bfg", "grid.bfg", "bits.txt"))
    commands = [
        ["generate", "ising", "--size", "3x3", "--alpha", "0.5", "--seed", "1", "-o", ising],
        ["generate", "subgraph-grid", "--size", "2x3", "--seed", "1", "-o", grid],
        ["solve", ising, "--max-depth", "2", "--out", bits],
        ["solve", grid, "--max-depth", "2"],
        ["exact", ising],
        ["verify", ising, bits, "--hamming", "1"],
        ["count-subgraphs", grid, "--max-size", "3", "--check"],
    ]
    for command in commands:
        assert main(command) == 0, command


@pytest.mark.parametrize("command", [["solve", "--max-depth", "1"], ["exact"]])
def test_energy_past_the_float_range_is_a_clear_error(tmp_path, command):
    """Two finite tables that sum to inf: the command fails with one line
    that says why, and no numpy warning."""
    path = tmp_path / "overflow.bfg"
    path.write_text("bfg 1\nvars 1\n" + "factor 1 0\n1e308 1e308\n" * 2)
    proc = subprocess.run(
        [sys.executable, "-m", "flipsearch.cli", command[0], str(path), *command[1:]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: energy inf is not finite: the table values sum past the float range\n"
    )


def test_verify_of_an_infinite_energy_is_a_clear_error(tmp_path):
    """The bits 0 have energy inf and flipping them gives -inf, so no bound
    can be checked: verify fails with the one line of solve and exact."""
    model, bits = tmp_path / "overflow.bfg", tmp_path / "bits.txt"
    model.write_text("bfg 1\nvars 1\n" + "factor 1 0\n1e308 -1e308\n" * 2)
    bits.write_text("0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "flipsearch.cli", "verify", str(model), str(bits), "--hamming=1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: energy inf is not finite: the table values sum past the float range\n"
    )
