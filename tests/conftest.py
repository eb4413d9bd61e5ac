"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import build_executable, tiny_config
from repro.ioutil import sha256_file
from repro.kernel.process import Process


#: fixed multi-threaded MCF-style case shared by the golden-journal and
#: oracle/accuracy gates: four workers sweep a global struct array, the
#: even workers writing member ``a`` and the odd ones member ``b`` — the
#: same cells, so every E$ line of ``grid`` is write-shared and the
#: ``cohm`` coherence-miss counter fires densely at cores > 1
THREADED_MCF_SRC = """
struct cell { long a; long b; };
struct cell grid[512];
long acc;
long worker(long wid) {
    long i; long t; long s;
    s = 0;
    for (t = 0; t < 6; t++) {
        for (i = 0; i < 512; i++) {
            if ((wid & 1) == 0) { grid[i].a = grid[i].a + wid + 1; }
            else { grid[i].b = grid[i].b + wid; }
            s = s + grid[i].a;
        }
    }
    atomic_add(&acc, s & 255);
    return s & 255;
}
long main(long *input, long n) {
    long h0; long h1; long h2; long h3; long s;
    acc = 0;
    h0 = spawn(worker, 0);
    h1 = spawn(worker, 1);
    h2 = spawn(worker, 2);
    h3 = spawn(worker, 3);
    s = join(h0) + join(h1) + join(h2) + join(h3);
    return (s + acc) & 255;
}
"""


def run_source(
    source: str,
    input_longs=(),
    config=None,
    max_instructions: int = 5_000_000,
    hwcprof: bool = True,
    heap_page_bytes=None,
):
    """Compile mini-C, run it, return the finished Process."""
    program = build_executable(source, name="t", hwcprof=hwcprof)
    process = Process(
        program,
        config or tiny_config(),
        input_longs=input_longs,
        heap_page_bytes=heap_page_bytes,
    )
    process.run(max_instructions=max_instructions)
    assert process.finished, "program did not halt within the budget"
    return process


def run_main(source: str, input_longs=(), **kwargs) -> int:
    """Compile+run, return main's exit code."""
    return run_source(source, input_longs, **kwargs).machine.cpu.exit_code


@pytest.fixture
def tiny():
    return tiny_config()


@pytest.fixture
def runner():
    return run_source


#: one field of a journal line set to a value of the wrong JSON type, as
#: (field, value) — each must fail the event decoders closed
MISTYPED_HWC_FIELDS = [
    ("weight", "x"),
    ("callstack", "abc"),
    ("trap_pc", None),
    ("counter", True),
]


def tamper_journal_line(directory, filename: str, field: str, value,
                        lineno: int = 1) -> None:
    """Set ``field`` of line ``lineno`` of a saved experiment's journal
    to ``value``, then re-seal ``manifest.json`` over the edit, so only
    the event decoder can notice the damage."""
    path = Path(directory) / filename
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[lineno - 1])
    record[field] = value
    lines[lineno - 1] = json.dumps(record, separators=(",", ":")) + "\n"
    path.write_text("".join(lines))
    manifest_file = Path(directory) / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["files"][filename].update(
        bytes=path.stat().st_size, sha256=sha256_file(path)
    )
    manifest_file.write_text(json.dumps(manifest, indent=2))
