"""The CPU: fetch/execute loop with delay slots, cycle accounting and
imprecise counter-overflow traps.

The interpreter models what the paper's technique depends on:

* **pc/npc semantics with one branch delay slot** — the instruction after a
  taken branch executes before control transfers, so the compiler's
  "no loads/stores in delay slots" rule (§2.1) is meaningful;
* **counter overflow skid** — when a watched event overflows its counter,
  the trap is delivered ``skid`` completed instructions later, carrying the
  *next-to-issue* PC and the register file at delivery time (§2.2.2);
* **cycle penalties** for D$ misses, E$ misses and DTLB misses, with E$
  read-miss penalties accumulated on the ``ecstall`` event.

Three execution engines share this model (DESIGN.md §11):

* ``engine="fast"`` (default) runs the predecoded dispatch table from
  :mod:`repro.isa.decode` through a dispatch chain whose arms are
  rendered from the semantics table (:mod:`repro.machine.semantics`);
  ``CPU.run`` is rendered from ``_RUN`` and compiled once per process, at
  import.  It uses a **batched overflow countdown**: instead
  of two ``counters.record()`` calls plus a pending-trap list walk per
  retired instruction, the loop computes how many instructions can retire
  before *anything* observable can happen (counter overflow, trap
  delivery, clock tick, watchdog/kill deadline, budget exhaustion) and
  runs that many iterations touching only one local integer.  Any event
  that breaks the "every instruction costs exactly ``base_cycles``"
  assumption (a cache/TLB miss charging extra cycles, a trap being armed,
  a kernel service) zeroes the countdown so the checkpoint runs at that
  very instruction.  The checkpoint then performs the bookkeeping in the
  exact order the per-instruction loop used, which keeps RNG draws, trap
  timing and therefore whole profiles bit-identical (see DESIGN.md).
* ``engine="trace"`` runs the same loop, but between checkpoints it
  first chains superblocks that :mod:`repro.machine.cpu_trace` renders
  from the same table and exec-compiles, while each one fits the
  countdown, and falls back to the dispatch
  chain for at most ``burst_instructions`` at a time whenever a deadline
  could land mid-block or control leaves compiled code.  Checkpoint,
  countdown and finalization are the fast engine's own code, so its
  journals are byte-identical too.  Multi-core runs and runs watching an
  extended-taxonomy event stay on the dispatch chain alone.
* ``engine="reference"`` (:mod:`repro.machine.cpu_reference`) keeps the
  seed-style per-instruction loop — the cross-check oracle for golden
  profile tests and the baseline for throughput benchmarks.

Invariants every engine must preserve:

* **Deadline batching is unobservable.**  Bookkeeping may be deferred,
  but ``counters.record()`` calls, RNG draws and pending-trap list walks
  must happen in the same order and at the same retired-instruction
  counts as the per-instruction reference loop.
* **Coalesced traps.**  One ``record()`` call that crosses *k* intervals
  arms exactly one pending trap with ``coalesced=k`` and weight
  ``interval * k`` — never *k* separate traps.
* **Pending-trap format.**  Traps are stored as ``[due_instr_count,
  register, skid, trigger_pc, coalesced, true_ea]`` where
  ``due_instr_count`` is the absolute retired-instruction count at which
  the trap must be delivered and ``true_ea`` is the triggering access's
  effective address (None for events not tied to a memory instruction) —
  a diagnostic the attribution oracle journals; the collector's profile
  never sees it.  Sampled-latency (``ldlat``) traps append an optional
  seventh element, the sampled load's latency in cycles; delivery sites
  read ``trap[6]`` only when present.  All engines share the format, so
  single-stepping and engine switches between runs agree.
* **K_BAD sentinel rows.**  The predecode table ends with a
  ``(K_BAD, None)`` sentinel at index ``ncode`` and appends dedicated
  ``(K_BAD, target)`` rows for statically invalid branch targets, so
  dispatch loops index without bounds checks; an engine reaching such a
  row must raise :class:`IllegalInstruction` with the *original* bad
  address (``bad_pc`` for dynamically computed ones).
"""

from __future__ import annotations

import linecache
import random
from typing import Callable, Optional

from ..config import TRACE_DEFAULTS
# every name the rendered ``CPU.run`` uses must be a module global here
from ..errors import (
    DivisionByZero,
    IllegalInstruction,
    MachineError,
    MemoryFault,
    SimulatedCrash,
    WatchdogExpired,
)
from ..isa.decode import K_BAD, predecode
from ..isa.instructions import Instr
from ..isa.registers import NUM_REGS
from .cache import Cache
from .counters import EXTENDED_EVENTS, CounterSnapshot, CounterUnit
from .memory import Memory
from .semantics import (
    CHAIN_ORDER,
    HUB_BROKE,
    TABLE,
    WRAP,
    hub_load,
    hub_store,
    operand_env,
    parse,
    render,
    subst,
)
from .tlb import TLB

_BIG = 1 << 62

#: cycles charged for a kernel service trap (the paper's tiny System CPU time)
TRAP_CYCLES = 40


class CpuExit(MachineError):
    """Raised internally when the instruction budget is exhausted."""


class CPU:
    """Execution engine bound to one machine's memory system."""

    def __init__(
        self,
        memory: Memory,
        dcache: Cache,
        ecache: Cache,
        dtlb: TLB,
        counters: CounterUnit,
        rng: random.Random,
        base_cycles: int = 1,
        dtlb_miss_cycles: int = 100,
        store_stall_cycles: int = 0,
    ) -> None:
        self.memory = memory
        self.dcache = dcache
        self.ecache = ecache
        self.dtlb = dtlb
        self.counters = counters
        self.rng = rng
        self.base_cycles = base_cycles
        self.dtlb_miss_cycles = dtlb_miss_cycles
        self.store_stall_cycles = store_stall_cycles

        self.regs: list[int] = [0] * NUM_REGS
        self.pc = 0
        self.npc = 0
        self.cycles = 0
        self.system_cycles = 0
        self.instr_count = 0
        self.ecstall_cycles = 0
        self.halted = False
        self.exit_code = 0
        #: condition code: the last CMP's ``rs1 - operand``
        self._cc = 0

        #: which interpreter loop `run` uses: "fast", "trace" or "reference"
        self.engine = "fast"

        #: tuning for the trace/superblock tier (engine="trace")
        self.trace_config = TRACE_DEFAULTS
        #: compiled-trace program cache (cpu_trace.TraceProgram or None)
        self._trace_cache = None

        #: call-site PCs, innermost last (shadow stack for profiling unwinds)
        self.callstack: list[int] = []

        #: decoded text segment; set by the loader
        self.code: list[Instr] = []
        self.text_base = 0

        #: predecoded dispatch table (lazily rebuilt when code changes)
        self._decoded: Optional[list[tuple]] = None
        self._decoded_src: Optional[list[Instr]] = None
        self._decoded_base = -1
        self._decoded_ncode = -1

        #: E$ lines being fetched by software prefetch: line -> ready cycle
        self.inflight_prefetches: dict[int, int] = {}

        #: armed-but-undelivered overflow traps:
        #: [due_instr_count, register, skid, trigger_pc, coalesced, true_ea]
        self.pending_traps: list[list] = []
        self.overflow_handler: Optional[Callable[[CounterSnapshot], None]] = None

        #: clock profiling (SIGPROF equivalent)
        self.clock_interval_cycles = 0
        self.next_clock_tick = 0
        self.clock_handler: Optional[Callable[[int, int, tuple], None]] = None

        #: kernel service dispatcher for the TA instruction
        self.kernel_service: Optional[Callable[["CPU", int], None]] = None

        #: injected-fault kill point (FaultPlan.kill_at_cycle); the run
        #: raises SimulatedCrash once the cycle counter reaches it
        self.kill_at_cycle: Optional[int] = None

        #: which core of the machine this CPU is (0 on single-core)
        self.core_index = 0
        #: software thread currently scheduled here (kernel-maintained)
        self.thread_id = 0
        #: shared CoherenceDirectory, or None on a single-core machine —
        #: None skips every coherence hook in the hot loops, which is
        #: what keeps single-core runs byte-identical to the historical
        #: machine
        self.coherence = None
        #: scheduler handshake: a kernel service that must end the
        #: current thread's timeslice (spawn/join-block/thread-exit) sets
        #: this and ``halted``; the scheduler reads and clears it after
        #: ``run()`` returns (services cannot redirect control flow —
        #: the engines keep pc/npc in locals — so ending the slice is
        #: the only way to switch threads deterministically)
        self._slice_event: Optional[tuple] = None

    # ------------------------------------------------------------------ API

    def set_entry(self, pc: int) -> None:
        """Point the CPU at the program entry."""
        self.pc = pc
        self.npc = pc + 4

    def enable_clock_profiling(self, interval_cycles: int) -> None:
        """Arm SIGPROF-style ticks every N cycles."""
        self.clock_interval_cycles = interval_cycles
        self.next_clock_tick = self.cycles + interval_cycles

    def snapshot(self, register: int, true_skid: int,
                 true_trigger_pc: int = 0, coalesced: int = 1,
                 true_effective_address: Optional[int] = None,
                 load_latency: Optional[int] = None) -> CounterSnapshot:
        """Build the signal-delivery view of the CPU state."""
        spec = self.counters.specs[register]
        assert spec is not None
        return CounterSnapshot(
            counter_index=register,
            event=spec.event,
            trap_pc=self.pc,
            regs=tuple(self.regs),
            callstack=tuple(self.callstack),
            cycle=self.cycles,
            instr_count=self.instr_count,
            true_skid=true_skid,
            true_trigger_pc=true_trigger_pc,
            coalesced=coalesced,
            true_effective_address=true_effective_address,
            load_latency=load_latency,
            core=self.core_index,
            thread=self.thread_id,
        )

    def step(self) -> None:
        """Execute exactly one instruction (test/debug convenience)."""
        self.run(max_instructions=1)

    def predecode_code(self) -> None:
        """Build the fast-dispatch table eagerly (the loader calls this so
        the first run does not pay the lowering cost)."""
        self._dispatch_table()

    def _dispatch_table(self) -> list[tuple]:
        """The predecoded form of ``self.code``, rebuilt when stale.

        Tests (and the loader, before it learned to predecode) assign
        ``cpu.code`` directly, so the table is validated against the
        current code list identity, base and length on every run.
        """
        dec = self._decoded
        code = self.code
        if (
            dec is None
            or self._decoded_src is not code
            or self._decoded_base != self.text_base
            or self._decoded_ncode != len(code)
        ):
            dec = predecode(code, self.text_base)
            self._decoded = dec
            self._decoded_src = code
            self._decoded_base = self.text_base
            self._decoded_ncode = len(code)
            # compiled traces bake rows from the old table; drop them
            self._trace_cache = None
        return dec

    def trace_stats(self) -> dict:
        """Observability counters from the trace tier (empty dict until
        an ``engine="trace"`` run has happened)."""
        prog = self._trace_cache
        return dict(prog.stats) if prog is not None else {}


    # ------------------------------------------------------------- main loop
    #
    # ``run`` is rendered from ``_RUN`` and the semantics table, and
    # compiled once at import (see the bottom of this module).


#: ``CPU.run``: checkpoint, countdown and trace-tier chaining around the
#: dispatch chain, which ``@chain()`` renders from the semantics table
_RUN = '''
def run(self, max_instructions=None, max_cycles=None,
        watchdog_instructions=None):
    """Run until HALT (or the budget); returns instructions executed.

    ``max_instructions`` stops gracefully; ``max_cycles`` and
    ``watchdog_instructions`` are *loud* deadlines that raise
    :class:`WatchdogExpired` — the collector's runaway-run guard.
    """
    if self.engine == "reference":
        from .cpu_reference import run_reference

        return run_reference(
            self, max_instructions, max_cycles, watchdog_instructions
        )

    # Bind everything hot to locals.
    regs = self.regs
    memory = self.memory
    words = memory.words
    mem_base = memory.base
    nwords = len(words)
    dcache = self.dcache
    ecache = self.ecache
    dtlb = self.dtlb
    dcache_access = dcache.access
    ecache_access = ecache.access
    dtlb_lookup = dtlb.lookup
    dtlb_peek = dtlb.peek
    counters = self.counters
    watching = counters.watching
    record = counters.record
    remaining = counters.remaining
    pending = self.pending_traps
    callstack = self.callstack
    callstack_append = callstack.append
    callstack_pop = callstack.pop
    code = self.code
    ncode = len(code)
    dec = self._dispatch_table()
    base_cycles = self.base_cycles
    ec_hit_cycles = ecache.config.hit_cycles
    ec_miss_cycles = ecache.config.miss_cycles
    dtlb_miss_cycles = self.dtlb_miss_cycles
    store_stall_cycles = self.store_stall_cycles
    inflight = self.inflight_prefetches
    inflight_pop = inflight.pop
    ec_line_shift = ecache.line_shift
    _MX, _MN, _UM, _U64 = WRAP["_MX"], WRAP["_MN"], WRAP["_UM"], WRAP["_U64"]
    # coherence (multi-core only; None on the historical machine)
    coh = self.coherence
    core_id = self.core_index
    coh_owner = coh.owner if coh is not None else None
    coh_shift = coh.line_shift if coh is not None else 0

    # D$ and DTLB most-recently-used fast paths: a hit on the MRU entry
    # causes no LRU movement and no state change, so it can be tested
    # inline and tallied in a local, flushed at every checkpoint.
    dc_shift = dcache.line_shift
    dc_mask = dcache.set_mask
    dc_sets = dcache.sets
    dc_r = dc_w = tlb_hits = 0
    # local cache of the segment of the MRU TLB entry (invalid ranges
    # force the first access through the slow path)
    seg_base, seg_end, seg_shift, mru_page = 1, 0, 0, -1

    w_cycles = watching.get("cycles")
    w_insts = watching.get("insts")
    w_dcrm = watching.get("dcrm")
    w_dtlbm = watching.get("dtlbm")
    w_ecref = watching.get("ecref")
    w_ecrm = watching.get("ecrm")
    w_ecstall = watching.get("ecstall")
    w_ldbytes = watching.get("ldbytes")
    w_stbytes = watching.get("stbytes")
    w_ldlat = watching.get("ldlat")
    w_br = watching.get("br")
    w_brm = watching.get("brm")
    w_cohm = watching.get("cohm")
    track_br = w_br is not None or w_brm is not None

    pc = self.pc
    npc = self.npc
    cycles = self.cycles
    instr_count = self.instr_count
    ecs = self.ecstall_cycles
    cc = self._cc

    budget = -1 if max_instructions is None else max_instructions
    kill_at = self.kill_at_cycle
    start_count = instr_count
    flushed_insts = instr_count
    flushed_cycles = cycles

    # The trace tier (DESIGN.md §11.2) chains compiled superblocks
    # between checkpoints and falls back to the dispatch chain below
    # for everything else.  Runs watching an extended-taxonomy event
    # (branch/bandwidth/latency counters) or on a multi-core machine
    # (blocks carry no coherence hooks) stay on the dispatch chain —
    # journals are byte-identical across engines either way.
    prog = None
    if (
        self.engine == "trace"
        and coh is None
        and EXTENDED_EVENTS.isdisjoint(watching)
    ):
        from .cpu_trace import get_program

        # Penalties only have to checkpoint when something in the
        # cycle domain (or a watcher that stamps checkpoint state into
        # traps) can observe them; a plain unprofiled run compiles
        # penalty-accumulating blocks that run to their control-flow
        # exits instead.
        prog = get_program(self, events_exit=bool(
            watching
            or pending
            or self.clock_interval_cycles
            or kill_at is not None
            or max_cycles is not None
        ))
        st = prog.st
        btab = prog.btab
        counts = prog.counts
        compile_row = prog.compile_row
        hot = prog.cfg.hot_threshold
        burst_size = prog.cfg.burst_instructions
        s_block_calls = s_trace = s_burst = 0
        s_split = s_entry = s_event = s_cold = 0

    if self.halted or budget == 0:
        return 0

    # The loop runs in *index space*: ``i``/``ni`` are dispatch-table
    # rows standing in for pc/npc (pc == text_base + 4*i), so the hot
    # path never converts an address or bounds-checks a fetch — every
    # invalid control transfer lands on a K_BAD row instead.  ``bad_pc``
    # remembers the unrepresentable address of a computed jump that had
    # to be redirected to the sentinel row.
    tb = self.text_base
    i = (pc - tb) >> 2
    if pc & 3 or i < 0 or i > ncode:
        raise IllegalInstruction(f"fetch from 0x{pc:x}")
    ni = (npc - tb) >> 2
    bad_pc = None
    if npc & 3 or ni < 0 or ni > ncode:
        bad_pc = npc
        ni = ncode

    def btfn_backward(trow, row):
        # BTFN static prediction: taken iff the target address is at or
        # before the branch.  Statically invalid targets live on
        # appended K_BAD rows whose payload keeps the raw address, so
        # compare addresses there instead of row indices.
        te = dec[trow]
        if te[0] == K_BAD and te[1] is not None:
            return te[1] <= tb + (row << 2)
        return trow <= row

    def note_br(mispred, row, icount):
        # One completed branch (and possibly one misprediction) on the
        # branch counters; returns True when a trap was armed so the
        # arm breaks to the checkpoint at this instruction.
        armed = False
        bpc = tb + (row << 2)
        @arm("br", 1, flag="armed", due="icount + 1", pc="bpc", ea="None")
        if mispred:
            @arm("brm", 1, flag="armed", due="icount + 1", pc="bpc", ea="None")
        return armed

    def _stale(now):
        # expire software prefetches that completed in the past
        for ln in [ln for ln, r in inflight.items() if r <= now]:
            del inflight[ln]

    countdown = 0
    brk = False
    fresh = True
    try:
        while True:
            # ---- checkpoint: the only place observable bookkeeping
            # happens; the countdown guarantees it runs at exactly the
            # instructions where the per-instruction loop would have
            # overflowed a counter, delivered a trap, ticked the clock
            # or hit a deadline.
            if not fresh:
                pc = tb + (i << 2)
                npc = (
                    bad_pc
                    if ni == ncode and bad_pc is not None
                    else tb + (ni << 2)
                )
                @flush()
                n = instr_count - flushed_insts
                if n:
                    @arm("insts", "n", due="instr_count", pc="pc", ea="None")
                n = cycles - flushed_cycles
                if n:
                    @arm("cycles", "n", due="instr_count", pc="pc", ea="None")
                flushed_insts = instr_count
                flushed_cycles = cycles
                if pending:
                    due = None
                    for trap in pending:
                        if trap[0] <= instr_count:
                            if due is None:
                                due = []
                            due.append(trap)
                    if due:
                        handler = self.overflow_handler
                        # sync state so snapshot sees next-to-issue PC
                        self.pc, self.npc = pc, npc
                        self.cycles, self.instr_count = cycles, instr_count
                        self.ecstall_cycles = ecs
                        for trap in due:
                            pending.remove(trap)
                            if handler is not None:
                                handler(
                                    self.snapshot(
                                        trap[1], trap[2], trap[3], trap[4],
                                        trap[5],
                                        trap[6] if len(trap) > 6 else None,
                                    )
                                )
                if self.clock_interval_cycles and cycles >= self.next_clock_tick:
                    handler2 = self.clock_handler
                    self.pc, self.npc = pc, npc
                    self.cycles, self.instr_count = cycles, instr_count
                    self.ecstall_cycles = ecs
                    while self.next_clock_tick <= cycles:
                        self.next_clock_tick += self.clock_interval_cycles
                        if handler2 is not None:
                            handler2(pc, cycles, tuple(callstack))
                # deadlines fire only after the retired instruction's
                # events are fully counted (partial experiments must
                # agree with machine.stats() ground truth)
                if kill_at is not None and cycles >= kill_at:
                    raise SimulatedCrash(
                        f"injected kill at cycle {cycles} (pc 0x{pc:x})"
                    )
                if max_cycles is not None and cycles >= max_cycles:
                    raise WatchdogExpired(
                        f"cycle watchdog: {cycles} >= {max_cycles} "
                        f"(pc 0x{pc:x})"
                    )
                if (
                    watchdog_instructions is not None
                    and instr_count >= watchdog_instructions
                ):
                    raise WatchdogExpired(
                        f"instruction watchdog: {instr_count} >= "
                        f"{watchdog_instructions} (pc 0x{pc:x})"
                    )
                if self.halted:
                    break
                if budget >= 0 and instr_count - start_count >= budget:
                    break
            fresh = False

            # ---- how many instructions may retire before the next
            # possible observable event, assuming every one costs
            # exactly base_cycles (any instruction that violates the
            # assumption zeroes the countdown when it happens)
            nxt = _BIG
            if w_insts is not None:
                nxt = remaining[w_insts]
            if w_cycles is not None:
                v = -(-remaining[w_cycles] // base_cycles)
                if v < nxt:
                    nxt = v
            if pending:
                v = min(trap[0] for trap in pending) - instr_count
                if v < nxt:
                    nxt = v
            if self.clock_interval_cycles:
                v = -(-(self.next_clock_tick - cycles) // base_cycles)
                if v < nxt:
                    nxt = v
            if kill_at is not None:
                v = -(-(kill_at - cycles) // base_cycles)
                if v < nxt:
                    nxt = v
            if max_cycles is not None:
                v = -(-(max_cycles - cycles) // base_cycles)
                if v < nxt:
                    nxt = v
            if watchdog_instructions is not None:
                v = watchdog_instructions - instr_count
                if v < nxt:
                    nxt = v
            if budget >= 0:
                v = budget - (instr_count - start_count)
                if v < nxt:
                    nxt = v
            countdown = nxt if nxt > 0 else 1
            left = countdown

            while True:
                if prog is not None:
                    # ---- trace tier: chain compiled blocks while
                    # each one's worst-case length fits the `left`
                    # instructions before the next checkpoint.  The
                    # blocks share state through the hub `st`; the
                    # finally reloads the locals even when a block
                    # raised, so finalization sees exact state.
                    @hub_store()
                    try:
                        while left > 0:
                            row = st[0]
                            ent = btab[row]
                            if ent is None:
                                c = counts.get(row, 0) + 1
                                counts[row] = c
                                ent = compile_row(row) if c >= hot else False
                            if ent is False:
                                s_cold += 1
                            elif st[1] != row + 1:
                                # mid-block entry (e.g. resuming in a
                                # delay slot): blocks assume npc == pc+4
                                s_entry += 1
                            elif ent[0] > left:
                                # the deadline lands inside the block
                                s_split += 1
                            else:
                                retired = ent[1](left)
                                s_block_calls += 1
                                s_trace += retired
                                left -= retired
                                if st[$BROKE]:
                                    # event inside the block: checkpoint
                                    st[$BROKE] = 0
                                    s_event += 1
                                    left = 0
                                continue
                            break
                    finally:
                        @hub_load()
                    if left <= 0:
                        break
                    # deopt: a bounded burst of the dispatch chain
                    countdown = left if left < burst_size else burst_size
                    left -= countdown
                    burst_start = instr_count

                # ---- hot loop: the dispatch chain, rendered from the
                # semantics table in CHAIN_ORDER.  Every arm retires
                # inline (``i = ni; ni += 1`` or the branch target), so
                # straight-line instructions never materialise a "next
                # pc" temporary; any arm that broke the base-cycles
                # assumption sets ``brk`` (or breaks directly) so the
                # checkpoint runs at this very instruction.
                for _ in range(countdown):
                    e = dec[i]
                    k = e[0]
                    @chain()
                else:
                    if prog is not None and left > 0:
                        # burst retired without an event: back to
                        # the compiled blocks
                        s_burst += instr_count - burst_start
                        continue
                if prog is not None:
                    s_burst += instr_count - burst_start
                break

    finally:
        # Sync locals back even when a fault/deadline raised mid-loop,
        # so partial-experiment finalization sees accurate state.  Any
        # instruction with extra cycles or an armed trap forced a
        # checkpoint, so everything retired-but-unflushed cost exactly
        # base_cycles — flush it so counter totals track ground truth
        # through the last retired instruction.
        n = instr_count - flushed_insts
        if n:
            if w_insts is not None:
                record(w_insts, n)
            if w_cycles is not None:
                record(w_cycles, n * base_cycles)
        @flush()
        if i >= ncode and bad_pc is not None:
            self.pc = bad_pc
        else:
            self.pc = tb + (i << 2)
        if ni == ncode and bad_pc is not None and i < ncode:
            self.npc = bad_pc
        else:
            self.npc = tb + (ni << 2)
        self.cycles = cycles
        self.instr_count = instr_count
        self.ecstall_cycles = ecs
        self._cc = cc
        if prog is not None:
            stats = prog.stats
            stats["block_calls"] += s_block_calls
            stats["trace_retired"] += s_trace
            stats["burst_retired"] += s_burst
            stats["deopt_split"] += s_split
            stats["deopt_entry"] += s_entry
            stats["deopt_event"] += s_event
            stats["deopt_cold"] += s_cold
    return instr_count - start_count
'''


class _Chain:
    """``CPU.run``'s hooks into the semantics table: MRU inline probes
    tallied in locals, penalties charged straight to ``cycles`` with
    ``brk`` asking for a checkpoint, faults raised in place."""

    flags = (("CHAIN", True), ("PF", True))
    env = {
        "e1": "e[1]", "e2": "e[2]", "e3": "e[3]", "e4": "e[4]",
        "pc": "tb + (i << 2)", "CYC": "cycles", "LCYC": "lcyc",
        "NOW": "cycles", "DTLB_MISS": "dtlb_miss_cycles",
        "EC_HIT": "ec_hit_cycles", "EC_MISS": "ec_miss_cycles",
        "STORE_STALL": "store_stall_cycles", "DC_SHIFT": "dc_shift",
        "DC_MASK": "dc_mask", "EC_LINE_SHIFT": "ec_line_shift",
        "MEM_BASE": "mem_base", "NWORDS": "nwords", "TB": "tb",
        "NCODE": "ncode", "BAD_PC": "bad_pc", "BROKE": str(HUB_BROKE),
    }
    RETIRE = ["instr_count += 1", "cycles += base_cycles", "i = ni",
              "ni += 1"]
    BREAK = ["if brk:", "    brk = False", "    break"]
    hub_store = staticmethod(hub_store)
    hub_load = staticmethod(hub_load)

    def enter(self, load):
        return ["lcyc = cycles"] if load else []

    def tlb(self):
        return ["if seg_base <= ea < seg_end and "
                "(ea >> seg_shift) == mru_page:",
                "    tlb_hits += 1",
                "else:"]

    def dprobe(self, tally, write):
        return ["if dcset and dcset[0] == line:",
                f"    {tally} += 1",
                f"elif not dcache_access(ea, {write}):"]

    def brk(self):
        return ["brk = True"]

    def fault(self, exc):
        return [f"raise {exc}"]

    def retire(self):
        return self.RETIRE

    def arm(self, event, amount, flag=None, extra="",
            due="instr_count + 1", pc="$pc", ea="ea"):
        """The trap-arming snippet: count ``amount`` watched events and,
        on an overflow, append the pending trap (format: module
        docstring); ``flag`` is set when a trap was armed."""
        w = "w_" + event
        tail = f", {extra}" if extra else ""
        return [f"if {w} is not None:",
                f"    skid = record({w}, {amount})",
                "    if skid >= 0:",
                f"        pending.append([{due} + skid, {w}, skid, {pc},",
                f"            counters.last_coalesced, {ea}{tail}])",
                ] + ([f"        {flag} = True"] if flag else [])

    def flush(self):
        # the batched MRU hit tallies -> the units' reference counters
        out = []
        for tally, unit in (("tlb_hits", "dtlb.refs"),
                            ("dc_r", "dcache.read_refs"),
                            ("dc_w", "dcache.write_refs")):
            out += [f"if {tally}:", f"    {unit} += {tally}",
                    f"    {tally} = 0"]
        return out

    def chain(self):
        out, seen = [], set()
        for n, kinds in enumerate(CHAIN_ORDER):
            entry = TABLE[kinds[0]]
            lo, hi = kinds[0], kinds[-1]
            # a range test must not catch an unused kind below it, which
            # has to reach the final ``else`` and fail closed
            if len(kinds) == 1:
                test = f"k == {lo}"
            elif seen.issuperset(range(lo)):
                test = f"k < {hi + 1}"
            else:
                test = f"{lo} <= k <= {hi}"
            seen.update(kinds)
            env = operand_env(entry, kinds, dict(self.env))
            body = render(entry.body, self, kinds, env)
            if entry.shape == "jump":
                mis = subst(entry.mispredict, env)
                target = subst(entry.target, env)
                body[:0] = [f"if track_br and note_br({mis}, i, instr_count):",
                            "    brk = True"]
                if entry.cond:
                    body += [f"if {entry.cond}:", "    i = ni",
                             f"    ni = {target}", "else:", "    i = ni",
                             "    ni += 1"]
                else:
                    body += ["i = ni", f"ni = {target}"]
                body += self.RETIRE[:2] + self.BREAK
            elif entry.shape != "stop":
                body += self.RETIRE
                if entry.shape == "mem":
                    body += self.BREAK
            out.append(f"{'elif' if n else 'if'} {test}:  # {entry.name}")
            out += ["    " + line for line in body]
        return out + ["else:", "    raise IllegalInstruction(",
                      '        f"unknown kind {k} at 0x{tb + (i << 2):x}")']


def _compile_run():
    """Render ``_RUN`` and compile it; the source is registered with
    ``linecache`` so tracebacks and ``inspect.getsource`` show it."""
    src = "\n".join(render(parse(_RUN), _Chain(), (), _Chain.env)) + "\n"
    filename = f"<rendered {__name__}.CPU.run>"
    linecache.cache[filename] = (len(src), None, src.splitlines(True),
                                 filename)
    namespace: dict = {}
    exec(compile(src, filename, "exec"), globals(), namespace)
    run = namespace["run"]
    run.__qualname__ = "CPU.run"
    return run


CPU.run = _compile_run()

__all__ = ["CPU", "CpuExit", "TRAP_CYCLES"]
