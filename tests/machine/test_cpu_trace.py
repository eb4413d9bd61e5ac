"""Unit tests for the trace/superblock compilation tier (DESIGN.md §11).

The journal-level contract (trace == reference, byte for byte) lives in
tests/collect/test_golden_profile.py and test_fuzz_differential.py; this
file exercises the machinery itself: block discovery, both compile modes
(events-exit and in-block loops), deopt at every possible deadline
offset, and the trampoline's batched-countdown boundary math with
interval-1 counters.
"""

import pytest

from repro import build_executable, tiny_config
from repro.collect.collector import CollectConfig, Collector, collect
from repro.config import TraceEngineConfig
from repro.errors import WatchdogExpired
from repro.kernel.process import Process
from repro.lang.fuzz import INPUT_LEN, generate_source

INPUT = [((k * 37) ^ 11) & 1023 for k in range(INPUT_LEN)]

#: a tight self-loop over memory: hot enough to compile, and its back
#: edge targets the block leader, so the no-events-exit run recompiles
#: it as an in-block loop
HOT_LOOP = """
long main(long *input, long n) {
    long *a; long i; long j; long s;
    a = (long *) malloc(8192);
    s = 0;
    for (j = 0; j < 50; j++)
        for (i = 0; i < 1024; i = i + 1)
            s = s + a[i & 511] + (i ^ s);
    return s & 255;
}
"""


def _state(process):
    """Everything an engine can get wrong, in one comparable tuple."""
    cpu = process.machine.cpu
    m = process.machine
    return (
        cpu.instr_count, cpu.cycles, cpu.pc, cpu.npc, cpu.halted,
        tuple(cpu.regs), cpu.ecstall_cycles,
        m.dcache.read_refs, m.dcache.read_misses,
        m.dcache.write_refs, m.dcache.write_misses,
        m.ecache.refs, m.ecache.misses,
        m.dtlb.refs, m.dtlb.misses,
        bytes(m.memory.words[:2048].tobytes()),
    )


def _run(program, engine, trace_config=None, **run_kwargs):
    process = Process(program, tiny_config(), input_longs=INPUT)
    process.machine.cpu.engine = engine
    if trace_config is not None:
        process.machine.cpu.trace_config = trace_config
    raised = None
    try:
        process.run(**run_kwargs)
    except WatchdogExpired:
        raised = "watchdog"
    return _state(process), raised


class TestUnwatchedAgreement:
    """No-events-exit mode (plain runs): checkpoints are unobservable, so
    the contract is final architectural + model-counter state, not
    per-checkpoint timing."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fuzz_state_matches_reference(self, seed):
        program = build_executable(generate_source(seed, 8),
                                   name=f"tr{seed}")
        for budget in (None, 777):
            ref, _ = _run(program, "reference", max_instructions=budget)
            got, _ = _run(program, "trace", max_instructions=budget)
            assert got == ref, f"seed={seed} budget={budget}"

    def test_hot_loop_state_matches_reference(self):
        program = build_executable(HOT_LOOP, name="hotloop")
        ref, _ = _run(program, "reference")
        got, _ = _run(program, "trace")
        assert got == ref


class TestInBlockLoops:
    def test_hot_self_loop_compiles_as_loop(self):
        from repro.machine.cpu_trace import get_program

        program = build_executable(HOT_LOOP, name="hotloop")
        process = Process(program, tiny_config(), input_longs=INPUT)
        cpu = process.machine.cpu
        cpu.engine = "trace"
        process.run()
        prog = get_program(cpu, events_exit=False)
        assert not prog.events_exit
        loop_sources = [src for src in prog.compiler.sources.values()
                        if "while True" in src]
        assert loop_sources, "hot self-loop was not compiled as an in-block loop"
        # the loop body must re-check the deadline before every extra pass
        assert all("left - dn >=" in src for src in loop_sources)

    def test_watched_runs_never_loop_in_block(self):
        """With anything in the cycle domain observable, penalties must
        checkpoint mid-block, so loop mode (which batches penalties) is
        structurally excluded from events-exit programs."""
        from repro.machine.cpu_trace import get_program

        program = build_executable(HOT_LOOP, name="hotloop")
        process = Process(program, tiny_config(), input_longs=INPUT)
        cpu = process.machine.cpu
        cpu.engine = "trace"
        process.run(max_cycles=1 << 40)  # cycle deadline => events-exit
        prog = get_program(cpu, events_exit=True)
        assert prog.events_exit
        assert not any("while True" in src
                       for src in prog.compiler.sources.values())


class TestDeoptBoundaries:
    """Force the instruction-count deadline onto *every* offset of the
    hot loop's compiled blocks: whatever the offset, the trace engine
    must stop at exactly the same instruction, cycle count and state as
    the reference interpreter."""

    def test_budget_at_every_block_offset(self):
        program = build_executable(HOT_LOOP, name="hotloop")
        # 3000.. is deep inside the compiled hot loop; a 40-wide sweep
        # covers every offset of any block (max_block_instructions < 40)
        for budget in range(3000, 3040):
            ref, _ = _run(program, "reference", max_instructions=budget)
            got, _ = _run(program, "trace", max_instructions=budget)
            assert got == ref, f"diverged with budget={budget}"

    def test_watchdog_at_every_block_offset(self):
        program = build_executable(HOT_LOOP, name="hotloop")
        for deadline in range(3100, 3125):
            ref, ref_raised = _run(program, "reference",
                                   watchdog_instructions=deadline)
            got, got_raised = _run(program, "trace",
                                   watchdog_instructions=deadline)
            assert got_raised == ref_raised == "watchdog"
            assert got == ref, f"diverged with watchdog={deadline}"

    def test_tiny_blocks_still_agree(self):
        """max_block_instructions=2 forces maximal trampoline traffic —
        every boundary is a block boundary."""
        program = build_executable(HOT_LOOP, name="hotloop")
        tiny = TraceEngineConfig(hot_threshold=1, max_block_instructions=2,
                                 min_block_instructions=2,
                                 burst_instructions=1)
        ref, _ = _run(program, "reference", max_instructions=5000)
        got, _ = _run(program, "trace", trace_config=tiny,
                      max_instructions=5000)
        assert got == ref


class TestIntervalOneCounters:
    """Satellite regression for the batched-countdown boundary audit: an
    interval-1 counter makes *every* instruction an overflow crossing, so
    any off-by-one between `remaining`, the block-entry guard
    (`n <= left`) and the checkpoint would shift a trap by one
    instruction and change the journal."""

    @pytest.mark.parametrize("counter", ["insts,1", "+ecref,1"])
    def test_journals_identical_under_interval_one(self, tmp_path, counter):
        program = build_executable(generate_source(1, 5), name="iv1")

        def journals(engine):
            outdir = tmp_path / f"iv1-{engine}-{counter.lstrip('+').split(',')[0]}"
            collect(program, tiny_config(),
                    CollectConfig(counters=[counter],
                                  name=outdir.name, engine=engine),
                    input_longs=INPUT, save_to=str(outdir))
            saved = outdir.with_suffix(".er")
            return {p.name: p.read_bytes()
                    for p in sorted(saved.iterdir())
                    if p.suffix == ".jsonl"}

        ref = journals("reference")
        got = journals("trace")
        assert got == ref


class TestProgramCacheAndStats:
    def test_mode_flip_mid_run_is_safe(self):
        """A cycle-domain deadline forces events-exit mode; finishing the
        run without one switches to no-events-exit blocks.  The program
        cache must swap cleanly and the final state must still match."""
        program = build_executable(HOT_LOOP, name="hotloop")
        ref, _ = _run(program, "reference")

        process = Process(program, tiny_config(), input_longs=INPUT)
        process.machine.cpu.engine = "trace"
        process.run(max_instructions=2500, max_cycles=1 << 40)  # events-exit
        process.run()  # no-events-exit to completion
        assert _state(process) == ref

    def test_trace_stats_accounting(self):
        program = build_executable(HOT_LOOP, name="hotloop")
        process = Process(program, tiny_config(), input_longs=INPUT)
        cpu = process.machine.cpu
        cpu.engine = "trace"
        process.run()
        stats = cpu.trace_stats()
        assert stats["blocks_compiled"] > 0
        assert stats["trace_retired"] > 0
        # every retired instruction is accounted to exactly one tier
        assert stats["trace_retired"] + stats["burst_retired"] \
            == cpu.instr_count
        # a plain run of a loop has no observable mid-block events
        assert stats["deopt_event"] == 0

    def test_trace_stats_accounting_watched(self):
        """A watched run compiles events-exit blocks: a miss inside a
        block exits it early, and the dispatch chain retires the rest."""
        program = build_executable(HOT_LOOP, name="hotloop")
        experiment = collect(program, tiny_config(),
                             CollectConfig(counters=["+ecrm,13"],
                                           engine="trace"),
                             input_longs=INPUT)
        stats = experiment.info.trace_stats
        assert stats["blocks_compiled"] > 0
        assert stats["trace_retired"] + stats["burst_retired"] \
            == experiment.info.instructions
        assert stats["deopt_event"] > 0

    def test_trace_config_change_recompiles(self):
        from repro.machine.cpu_trace import get_program

        program = build_executable(HOT_LOOP, name="hotloop")
        process = Process(program, tiny_config(), input_longs=INPUT)
        cpu = process.machine.cpu
        cpu.engine = "trace"
        process.run(max_instructions=4000)
        first = get_program(cpu, events_exit=False)
        cpu.trace_config = TraceEngineConfig(hot_threshold=1,
                                             max_block_instructions=8,
                                             min_block_instructions=2,
                                             burst_instructions=4)
        process.run(max_instructions=8000)
        second = get_program(cpu, events_exit=False)
        assert second is not first


class TestEngineSwitching:
    """``fast`` and ``trace`` share one loop in ``CPU.run``; the trace
    tier hands its locals to the compiled blocks' state hub and back.
    Switching engine between budgeted runs whose budgets end mid-block
    must leave the state and every journal exactly as one reference
    run does."""

    BUDGETS = (1009, 37, 2003, 5, 613, 3, 1501)

    def _journals(self, tmp_path, name, engine, switching):
        program = build_executable(HOT_LOOP, name="hotloop")
        outdir = tmp_path / name
        collector = Collector(
            program, tiny_config(),
            CollectConfig(clock_interval=211,
                          counters=["+ecrm,13", "+ecstall,59"],
                          name=name, engine=engine),
            input_longs=INPUT, journal_to=str(outdir))
        process = collector.process
        if switching:
            whole_run = process.run
            cpu = process.machine.cpu

            def sliced_run(**kwargs):
                n = 0
                while not cpu.halted:
                    cpu.engine = ("fast", "trace")[n % 2]
                    whole_run(max_instructions=self.BUDGETS[
                        n % len(self.BUDGETS)])
                    n += 1
                return process.exit_code

            process.run = sliced_run
        collector.run()
        saved = collector.experiment.save()
        journals = {p.name: p.read_bytes() for p in sorted(saved.iterdir())
                    if p.suffix == ".jsonl"}
        return _state(process), journals

    def test_switching_matches_reference(self, tmp_path):
        ref_state, ref = self._journals(tmp_path, "ref", "reference", False)
        got_state, got = self._journals(tmp_path, "mix", "fast", True)
        assert {"clock.jsonl", "hwc0.jsonl", "hwc1.jsonl",
                "truth.jsonl"} <= set(ref)
        assert got_state == ref_state
        assert got == ref
