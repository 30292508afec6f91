"""The `bfg 1` model file format and the solve-trace JSON schema.

Line-oriented text:

    bfg 1
    vars <m>
    factor <k> <v1> ... <vk>
    <2^k reals, last scope variable varying fastest>
    ...

Lines starting with '#' are comments; blank lines are ignored. Reals are
written with Python's shortest round-trippable repr, so parse(write(G))
reproduces the model value-exactly.
"""

from __future__ import annotations

import dataclasses
import json
from array import array
from typing import IO, Iterable

import numpy as np

from .model import Factor, FactorGraph, ModelError, build_factor_graph
from .solver import TraceRecord

__all__ = [
    "ModelFormatError",
    "write_model",
    "parse_model",
    "write_trace",
    "write_configuration",
    "parse_configuration",
]


class ModelFormatError(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def write_model(graph: FactorGraph, destination) -> None:
    if hasattr(destination, "write"):
        _write_model(graph, destination)
    else:
        with open(destination, "w") as fh:
            _write_model(graph, fh)


def _write_model(graph: FactorGraph, fh: IO[str]) -> None:
    fh.write("bfg 1\n")
    fh.write(f"vars {graph.variable_count}\n")
    for f in graph.factors:
        fh.write(f"factor {f.arity} " + " ".join(str(v) for v in f.scope) + "\n")
        fh.write(" ".join(repr(x) for x in f.table) + "\n")


def parse_model(source) -> FactorGraph:
    if hasattr(source, "read"):
        return _parse_model(source)
    with open(source) as fh:
        return _parse_model(fh)


def _content_lines(fh: IO[str]):
    for number, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def _parse_model(fh: IO[str]) -> FactorGraph:
    lines = _content_lines(fh)

    def next_line(what: str):
        try:
            return next(lines)
        except StopIteration:
            raise ModelFormatError(0, f"unexpected end of file, expected {what}")

    number, line = next_line("header 'bfg 1'")
    if line.split() != ["bfg", "1"]:
        raise ModelFormatError(number, f"bad header {line!r}, expected 'bfg 1'")
    number, line = next_line("'vars <m>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "vars":
        raise ModelFormatError(number, f"expected 'vars <m>', got {line!r}")
    try:
        m = int(parts[1])
    except ValueError:
        raise ModelFormatError(number, f"bad variable count {parts[1]!r}")
    if m < 0:
        raise ModelFormatError(number, f"negative variable count {m}")

    factors = []
    # line numbers of each factor's scope and values, to place build errors;
    # arrays, because a tuple per factor would weigh on large models
    scope_lines = array("q")
    value_lines = array("q")
    for number, line in lines:
        parts = line.split()
        if parts[0] != "factor":
            raise ModelFormatError(number, f"expected 'factor ...', got {line!r}")
        try:
            arity = int(parts[1])
        except (IndexError, ValueError):
            raise ModelFormatError(number, "bad factor arity")
        if arity < 1:
            raise ModelFormatError(number, f"factor arity must be >= 1, got {arity}")
        if len(parts) != 2 + arity:
            raise ModelFormatError(
                number, f"expected {arity} scope indices, got {len(parts) - 2}"
            )
        try:
            scope = tuple(int(p) for p in parts[2:])
        except ValueError:
            raise ModelFormatError(number, "bad scope index")
        vnumber, vline = next_line("factor value table")
        vparts = vline.split()
        if len(vparts) != 2**arity:
            raise ModelFormatError(
                vnumber, f"expected {2 ** arity} values, got {len(vparts)}"
            )
        try:
            table = tuple(float(p) for p in vparts)
        except ValueError:
            raise ModelFormatError(vnumber, "bad table value")
        factors.append(Factor(scope=scope, table=table))
        scope_lines.append(number)
        value_lines.append(vnumber)
    try:
        return build_factor_graph(m, factors)
    except ModelError as exc:
        lines_of = value_lines if exc.part == "table" else scope_lines
        raise ModelFormatError(lines_of[exc.factor], str(exc)) from exc


def write_trace(trace: Iterable[TraceRecord], destination) -> None:
    records = [dataclasses.asdict(r) for r in trace]
    if hasattr(destination, "write"):
        json.dump(records, destination, indent=2)
    else:
        with open(destination, "w") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")


def write_configuration(bits, destination) -> None:
    text = "".join(str(int(b)) for b in bits) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


def parse_configuration(source, variable_count: int) -> np.ndarray:
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as fh:
            text = fh.read()
    text = text.strip()
    if len(text) != variable_count or any(ch not in "01" for ch in text):
        raise ValueError(
            f"configuration must be {variable_count} characters of 0/1, "
            f"got {text[:40]!r}"
        )
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
