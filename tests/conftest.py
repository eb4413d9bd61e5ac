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


#: one field of info.json set to a value of the wrong JSON type, as
#: (field, value) — each must fail the info.json check closed
MISTYPED_INFO_FIELDS = [
    ("ecache_line_bytes", 64.0),
    ("incomplete", 1),
    ("clock_hz", "900e6"),
    ("cores", True),
    ("totals", {"cycles": "many"}),
    ("segments", [["heap", 0, 4096, "8192"]]),
    ("allocations", [[0, 64, 0, -1]]),
    ("counters", ["+ecrm,13"]),
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
    _reseal(directory, filename)


def tamper_info(directory, field: str, value) -> None:
    """Set ``field`` of a saved experiment's info.json to ``value`` and
    re-seal ``manifest.json`` over the edit, so only the info.json type
    check can notice the damage."""
    path = Path(directory) / "info.json"
    record = json.loads(path.read_text())
    record[field] = value
    path.write_text(json.dumps(record, indent=2))
    _reseal(directory, "info.json")


def _reseal(directory, filename: str) -> None:
    path = Path(directory) / filename
    manifest_file = Path(directory) / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["files"][filename].update(
        bytes=path.stat().st_size, sha256=sha256_file(path)
    )
    manifest_file.write_text(json.dumps(manifest, indent=2))


def _drop_lines(payload):
    del payload["lines"]


def _functions_not_a_list(payload):
    payload["functions"] = {}


def _lines_row_too_wide(payload):
    payload["lines"][0].append(0)


def _cache_line_key_is_a_string(payload):
    payload["cache_lines"][0][0] = hex(payload["cache_lines"][0][0])


def _total_is_not_numeric(payload):
    for metric in payload["total"]:
        payload["total"][metric] = "many"


def _address_sample_not_a_pair(payload):
    samples = next(iter(payload["address_samples"].values()))
    samples[0] = samples[0][:1]


def _data_object_metric_is_true(payload):
    vector = payload["data_objects"][0][-1]
    for metric in vector:
        vector[metric] = True


def _address_samples_is_a_list(payload):
    payload["address_samples"] = []


def _drop_pcs(payload):
    del payload["pcs"]


def _pcs_is_an_int(payload):
    payload["pcs"] = 7


#: in-place damage to a reduction payload, as (id, field the decoder must
#: name, edit); every edit touches only tables a profiled run with
#: backtracking fills, so it applies to cache entries and fleet aggregates
PAYLOAD_MUTATIONS = [
    ("drop-table", "lines", _drop_lines),
    ("table-not-list", "functions", _functions_not_a_list),
    ("wrong-row-length", "lines", _lines_row_too_wide),
    ("wrong-key-type", "cache_lines", _cache_line_key_is_a_string),
    ("non-numeric-metric", "total", _total_is_not_numeric),
    ("non-pair-sample", "address_samples", _address_sample_not_a_pair),
    ("true-as-metric", "data_objects", _data_object_metric_is_true),
    ("samples-not-object", "address_samples", _address_samples_is_a_list),
    ("drop-pcs", "pcs", _drop_pcs),
    ("pcs-not-list", "pcs", _pcs_is_an_int),
]

#: ``PAYLOAD_MUTATIONS`` as parametrize arguments ``field, mutate``
PAYLOAD_MUTATION_PARAMS = [
    pytest.param(field, mutate, id=name)
    for name, field, mutate in PAYLOAD_MUTATIONS
]
