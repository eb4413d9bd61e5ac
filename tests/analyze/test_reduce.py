"""Tests for data reduction: attribution, validation, data objects,
and payload bytes that do not depend on the interpreter's hash seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import build_executable, tiny_config
from repro.collect.collector import CollectConfig, collect
from repro.collect.experiment import ClockEvent, Experiment, HwcEvent
from repro.analyze import model
from repro.analyze.reduce import reduce_experiment, reduce_experiments

SRC = """
struct rec { long a; long b; long pad1; long pad2; };
long reader(struct rec *arr, long n) {
    long i; long s;
    s = 0;
    for (i = 0; i < n; i++)
        s = s + arr[i].b;
    return s;
}
long main(long *input, long n) {
    struct rec *arr;
    long i; long j; long s;
    arr = (struct rec *) malloc(2048 * sizeof(struct rec));
    s = 0;
    for (j = 0; j < 3; j++) {
        for (i = 0; i < 2048; i++) arr[i].a = i;
        s = s + reader(arr, 2048);
    }
    return s & 255;
}
"""


@pytest.fixture(scope="module")
def program():
    return build_executable(SRC)


@pytest.fixture(scope="module")
def reduced(program):
    cfg = CollectConfig(
        clock_profiling=True, clock_interval=211,
        counters=["+ecstall,59", "+ecrm,13"],
    )
    return reduce_experiment(collect(program, tiny_config(), cfg))


class TestTotals:
    def test_total_matches_sum_of_events(self, reduced):
        assert reduced.total["ecrm"] > 0
        assert reduced.total["ecstall"] > 0
        assert reduced.total["user_cpu"] > 0

    def test_sampled_totals_near_ground_truth(self, reduced):
        truth = reduced.machine_totals
        assert reduced.total["ecrm"] == pytest.approx(truth["ec_read_misses"], rel=0.05)
        assert reduced.total["ecstall"] == pytest.approx(
            truth["ec_stall_cycles"], rel=0.05
        )
        assert reduced.total["user_cpu"] == pytest.approx(truth["cycles"], rel=0.05)

    def test_functions_sum_to_total(self, reduced):
        for metric in reduced.metric_ids:
            total = sum(v.get(metric, 0.0) for v in reduced.functions.values())
            assert total == pytest.approx(reduced.total[metric])

    def test_metric_order_canonical(self, reduced):
        assert reduced.metric_ids[0] == "user_cpu"


class TestAttribution:
    def test_reader_function_owns_read_misses(self, reduced):
        by_rm = sorted(
            reduced.functions.items(),
            key=lambda kv: kv[1].get("ecrm", 0),
            reverse=True,
        )
        assert by_rm[0][0] == "reader"

    def test_data_object_is_struct_member(self, reduced):
        assert "structure:rec" in reduced.data_objects
        share = reduced.percent(
            "ecrm", reduced.data_objects["structure:rec"].get("ecrm", 0)
        )
        assert share > 90

    def test_member_b_is_the_hot_one(self, reduced):
        rows = {
            key.member: vector.get("ecrm", 0)
            for key, vector in reduced.data_members.items()
            if key.object_class == "structure:rec"
        }
        assert rows.get("b", 0) > rows.get("a", 0)

    def test_lines_attributed_within_function(self, reduced):
        reader_lines = [line for (fn, line) in reduced.lines if fn == "reader"]
        assert reader_lines
        func = reduced.program.function("reader")
        for line in reader_lines:
            assert func.line <= line <= func.end_line

    def test_callers_callees(self, reduced):
        assert ("main", "reader") in reduced.caller_callee
        attributed = reduced.caller_callee[("main", "reader")].get("ecrm", 0)
        assert attributed > 0
        incl_main = reduced.functions_incl["main"].get("ecrm", 0)
        excl_main = reduced.functions["main"].get("ecrm", 0)
        assert incl_main >= excl_main

    def test_inclusive_total_of_main_covers_reader(self, reduced):
        # everything runs under main
        assert reduced.functions_incl["main"].get("ecrm", 0) == pytest.approx(
            reduced.total["ecrm"]
        )

    def test_address_samples_recorded(self, reduced):
        samples = reduced.address_samples.get("ecrm")
        assert samples
        heap = next(s for s in reduced.segments if s[0] == "heap")
        in_heap = sum(1 for ea, _w in samples if heap[1] <= ea < heap[1] + heap[2])
        assert in_heap / len(samples) > 0.9

    def test_effectiveness_high_for_stall_events(self, reduced):
        assert reduced.backtrack_effectiveness("ecrm") > 95.0
        assert reduced.backtrack_effectiveness("ecstall") > 95.0


class TestValidationPaths:
    """Drive the reducer through synthetic events to hit each (Un*) path."""

    def _make_experiment(self, program, events):
        exp = Experiment("synthetic")
        exp.program = program
        exp.info.clock_hz = 1e8
        exp.info.totals = {"cycles": 1000, "system_cycles": 0}
        for event in events:
            exp.record_hwc(event)
        return exp

    def _event(self, **kw):
        base = dict(
            counter=1, event="ecrm", weight=10, trap_pc=0, candidate_pc=None,
            effective_address=None, status="found", ea_reason="",
            cycle=0, callstack=(),
        )
        base.update(kw)
        return HwcEvent(**base)

    def test_unresolvable_when_not_found(self, program):
        main = program.function("main")
        exp = self._make_experiment(
            program,
            [self._event(status="not_found", trap_pc=main.start + 8)],
        )
        reduced = reduce_experiment(exp)
        assert reduced.data_objects[model.UNRESOLVABLE]["ecrm"] == 10

    def test_branch_target_invalidation(self, program):
        # find a branch target inside main, fake a candidate before it
        main = program.function("main")
        target = min(
            t for t in program.branch_targets if main.start < t < main.end
        )
        event = self._event(candidate_pc=target - 8, trap_pc=target)
        reduced = reduce_experiment(self._make_experiment(program, [event]))
        assert reduced.data_objects[model.UNRESOLVABLE]["ecrm"] == 10
        record = reduced.pcs[target]
        assert record.is_branch_target_artifact

    def test_unascertainable_for_runtime_module(self, program):
        zero = program.function("zero_memory")
        # find the stx inside zero_memory
        stx_pc = next(
            pc
            for pc in range(zero.start, zero.end, 4)
            if program.instr_at(pc).op.name == "STX"
        )
        event = self._event(candidate_pc=stx_pc, trap_pc=stx_pc + 8, event="ecref",
                            counter=0)
        reduced = reduce_experiment(self._make_experiment(program, [event]))
        assert reduced.data_objects[model.UNASCERTAINABLE]["ecref"] == 10

    def test_unverifiable_for_module_without_branch_info(self):
        from repro.compiler.codegen import compile_module
        from repro.compiler.program import link
        from repro.compiler.runtime import runtime_module

        module = compile_module(SRC, hwcprof=True)
        module.has_branch_info = False  # simulates inadequate compiler info
        program = link([module, runtime_module()])
        reader = program.function("reader")
        load_pc = next(
            pc
            for pc in range(reader.start, reader.end, 4)
            if program.instr_at(pc).op.name == "LDX"
        )
        event = self._event(candidate_pc=load_pc, trap_pc=load_pc + 8)
        reduced = reduce_experiment(self._make_experiment(program, [event]))
        assert reduced.data_objects[model.UNVERIFIABLE]["ecrm"] == 10

    def test_unknown_total_aggregates_kinds(self, program):
        main = program.function("main")
        exp = self._make_experiment(
            program,
            [
                self._event(status="not_found", trap_pc=main.start + 8),
                self._event(status="not_found", trap_pc=main.start + 8),
            ],
        )
        reduced = reduce_experiment(exp)
        assert reduced.unknown_total()["ecrm"] == 20


class TestMerging:
    def test_merge_two_experiments(self, program):
        cfg1 = CollectConfig(clock_profiling=True, clock_interval=211,
                             counters=["+ecstall,59", "+ecrm,13"])
        cfg2 = CollectConfig(clock_profiling=False,
                             counters=["+ecref,31", "+dtlbm,7"])
        exp1 = collect(program, tiny_config(), cfg1)
        exp2 = collect(program, tiny_config(), cfg2)
        merged = reduce_experiments([exp1, exp2])
        assert set(merged.metric_ids) == {
            "user_cpu", "ecstall", "ecrm", "ecref", "dtlbm",
        }
        r1 = reduce_experiment(exp1)
        assert merged.total["ecrm"] == r1.total["ecrm"]

    def test_merge_requires_experiments(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            reduce_experiments([])


#: a four-deep call chain, so the inclusive (callstack) attribution of
#: one event touches several function names at once
NESTED_SRC = """
struct rec { long a; long b; long pad1; long pad2; };
long leaf(struct rec *arr, long n) {
    long i; long s;
    s = 0;
    for (i = 0; i < n; i++) s = s + arr[i].b;
    return s;
}
long inner(struct rec *arr, long n) { return leaf(arr, n) + 1; }
long outer(struct rec *arr, long n) { return inner(arr, n) + 1; }
long main(long *input, long n) {
    struct rec *arr;
    long j; long s;
    arr = (struct rec *) malloc(2048 * sizeof(struct rec));
    s = 0;
    for (j = 0; j < 3; j++) s = s + outer(arr, 2048);
    return s & 255;
}
"""

_REDUCE_AND_PRINT = (
    "import json, sys\n"
    "from repro.analyze.reduce import reduce_path\n"
    "print(json.dumps(reduce_path(sys.argv[1], use_cache=False)"
    ".to_payload()))\n"
)


class TestDeterminism:
    def test_payload_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        cfg = CollectConfig(clock_profiling=True, clock_interval=211,
                            counters=["+ecstall,59", "+ecrm,13"])
        saved = collect(build_executable(NESTED_SRC), tiny_config(),
                        cfg).save(tmp_path / "nested")
        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = []
        for seed in ("1", "2"):
            path = filter(None, [src, os.environ.get("PYTHONPATH")])
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(path))
            outputs.append(subprocess.run(
                [sys.executable, "-c", _REDUCE_AND_PRINT, str(saved)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout)
        assert len(json.loads(outputs[0])["functions_incl"]) >= 4
        assert outputs[0] == outputs[1]
