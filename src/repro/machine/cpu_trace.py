"""Superblock compiler for the trace tier (``engine="trace"``).

The trace tier is not a separate interpreter: ``CPU.run`` owns the
checkpoint, the batched overflow countdown and the dispatch chain for
every non-reference engine (see DESIGN.md §11).  This module supplies
what it chains between checkpoints: straight-line runs of predecoded
table rows (*superblocks*) compiled, via ``exec``, into single Python
functions that retire the whole run with no per-instruction dispatch at
all.  It holds the block compiler, :class:`TraceProgram` (the per-row
block table and its statistics) and :func:`get_program` (the cache).

Invariants that keep trace-engine journals byte-identical to the
reference interpreter:

* **Checkpoints happen at exactly the fast engine's instruction counts.**
  ``CPU.run`` only enters a compiled block when the block's worst-case
  length fits inside the countdown (``n <= left``); otherwise it
  deoptimizes into a bounded burst of its dispatch chain.  Any
  instruction that breaks the "every instruction costs exactly
  ``base_cycles``" assumption (cache/TLB miss penalty, armed trap,
  prefetch wait) makes the block exit early — after retiring that
  instruction — so the checkpoint runs at that very spot, as in the fast
  engine.
* **Blocks perform observable side effects in program order.** Register
  and memory writes, ``counters.record`` calls for per-access events
  (dcrm/dtlbm/ecref/ecrm/ecstall) and pending-trap appends are emitted
  into the generated code in exactly the order the dispatch chain
  performs them, with PCs, immediates and penalties constant-folded.
* **Pure bookkeeping is deferred.** Instruction/cycle totals and the MRU
  D$/DTLB tallies accumulate as static per-block deltas applied at block
  exit; ``CounterUnit.record`` only draws RNG on interval crossings, and
  crossings can only happen at checkpoints, so deferring the totals to
  the block boundary is unobservable.
* **Nothing that can transfer control mid-run is compiled.** ``TA``,
  ``HALT`` and ``K_BAD`` rows terminate block discovery; faults raised
  inside a block first write the architectural state (including partial
  cycle penalties) back to the state hub, which ``CPU.run`` reloads into
  its locals before its own finalization runs.
* **Extended-taxonomy events are not inlined.** When a run watches one
  of the branch/bandwidth/latency counters (``counters.EXTENDED_EVENTS``)
  ``CPU.run`` never fetches a program: the whole run stays on the
  dispatch chain, which keeps the journals byte-identical without
  teaching the block compiler about per-branch records.

Blocks are compiled in one of two modes, chosen per ``run()`` call:

* **events-exit mode** (anything in the cycle domain is observable:
  watched counters, pending traps, clock profiling, a kill/cycle
  deadline).  Every penalty-carrying instruction ends the block right
  after retiring, exactly as described above.
* **no-events-exit mode** (a plain unprofiled run).  Mid-block
  checkpoints would be unobservable, so penalties just accumulate in a
  ``pen`` local and blocks always run to their control-flow exits.
  Additionally, a block whose walk finds a back edge to its own start
  is recompiled as an **in-block loop**: the body iterates under a
  deadline guard (``left - dn >= n``) and returns to ``CPU.run`` only
  when a worst-case pass no longer fits the countdown, so a hot
  self-loop costs one call per checkpoint window instead of one per
  iteration.  Loop bodies break straight-line emission-order reasoning
  (iteration 2 reaches the earliest exit *after* the whole body ran),
  so the recompile is seeded with the first pass's full mutation set
  and every exit passes the live locals.

Compiled blocks communicate with ``CPU.run`` through a single shared
list (the *state hub* ``st``); its slots are the ``_ST_*`` constants
below.  ``CPU.run`` copies its locals into the hub before chaining
blocks and reloads them afterwards.  Blocks are invalidated whenever the
dispatch table is rebuilt (reassigned code), the counter-watching set
changes, the events-exit mode flips, or any bound machine object is
replaced — see ``_bind_key``.
"""

from __future__ import annotations

from typing import Optional

from ..errors import DivisionByZero, MemoryFault
from ..isa import decode as D
from ..isa.decode import SIMPLE_KIND_MAX
from ..isa.registers import REG_RA

_U64 = 1 << 64
_U64M = _U64 - 1
_S64_MAX = (1 << 63) - 1
_S64_MIN = -(1 << 63)

# State-hub slots: the one list every compiled block and ``CPU.run``
# share.  0/1 are the dispatch-table row stand-ins for pc/npc.
_ST_I = 0
_ST_NI = 1
_ST_CC = 2
_ST_CYCLES = 3
_ST_ICOUNT = 4
_ST_ECSTALL = 5
_ST_SEG_BASE = 6
_ST_SEG_END = 7
_ST_SEG_SHIFT = 8
_ST_MRU_PAGE = 9
_ST_TLB_HITS = 10
_ST_DC_R = 11
_ST_DC_W = 12
_ST_BROKE = 13
_ST_BAD_PC = 14


# ---------------------------------------------------------------- shared
# block-exit helpers.  Every way out of a compiled block funnels through
# one of these instead of inlining a dozen ``st[...]`` writes per exit
# site — that keeps generated sources (and hence bytecode-compile time,
# the trace tier's whole startup cost) small.  Call sites pass the local
# value when the block materialised it and the ``st`` slot itself when it
# did not (the slot still holds the current value then), so the writes
# are always exact.

def _fx(st, i, ni, dcyc, n, cc, ecs, sb, se, ss, mp, th, dr, dw):
    """Normal block exit: sync the state hub, return instructions retired."""
    st[0] = i
    st[1] = ni
    st[2] = cc
    st[3] += dcyc
    st[4] += n
    st[5] = ecs
    st[6] = sb
    st[7] = se
    st[8] = ss
    st[9] = mp
    st[10] = th
    st[11] = dr
    st[12] = dw
    return n


def _fev(st, i, ni, dcyc, n, cc, ecs, sb, se, ss, mp, th, dr, dw):
    """Event exit: like :func:`_fx` but flags ``CPU.run`` to checkpoint."""
    _fx(st, i, ni, dcyc, n, cc, ecs, sb, se, ss, mp, th, dr, dw)
    st[13] = 1
    return n


def _mf(st, i, ni, dcyc, n, cc, ecs, sb, se, ss, mp, th, dr, dw, ea, msg=None):
    """Memory-fault exit: sync, then raise with the faulting address."""
    _fx(st, i, ni, dcyc, n, cc, ecs, sb, se, ss, mp, th, dr, dw)
    if msg is None:
        raise MemoryFault(ea)
    raise MemoryFault(ea, msg)


def _dz(st, i, ni, dcyc, n, cc, ecs, sb, se, ss, mp, th, dr, dw, msg):
    """Division-by-zero exit: sync, then raise."""
    _fx(st, i, ni, dcyc, n, cc, ecs, sb, se, ss, mp, th, dr, dw)
    raise DivisionByZero(msg)


#: stable ordering for generated-function default-arg bindings
_PARAM_ORDER = (
    "st",
    "_fx",
    "_fev",
    "_arm",
    "_stale",
    "_MX",
    "_MN",
    "_UM",
    "regs",
    "words",
    "dc_sets",
    "record",
    "pending_append",
    "counters",
    "dtlb",
    "dtlb_lookup",
    "dtlb_peek",
    "tlb_entries",
    "dcache_access",
    "ecache_access",
    "inflight",
    "inflight_pop",
    "memory",
    "callstack",
    "callstack_append",
    "callstack_pop",
)

_WRAP_EXPRS = {
    D.K_ADD_I: "regs[{a}] + ({c})",
    D.K_ADD_R: "regs[{a}] + regs[{c}]",
    D.K_SUB_I: "regs[{a}] - ({c})",
    D.K_SUB_R: "regs[{a}] - regs[{c}]",
    D.K_MULX_I: "regs[{a}] * ({c})",
    D.K_MULX_R: "regs[{a}] * regs[{c}]",
    D.K_SLLX_I: "regs[{a}] << {c}",
    D.K_SLLX_R: "regs[{a}] << (regs[{c}] & 63)",
}

_LOGIC_EXPRS = {
    D.K_AND_I: "regs[{a}] & ({c})",
    D.K_AND_R: "regs[{a}] & regs[{c}]",
    D.K_OR_I: "regs[{a}] | ({c})",
    D.K_OR_R: "regs[{a}] | regs[{c}]",
    D.K_XOR_I: "regs[{a}] ^ ({c})",
    D.K_XOR_R: "regs[{a}] ^ regs[{c}]",
    D.K_SRAX_I: "regs[{a}] >> {c}",
    D.K_SRAX_R: "regs[{a}] >> (regs[{c}] & 63)",
}

_COND_EXPRS = {
    D.K_BE: "cc == 0",
    D.K_BNE: "cc != 0",
    D.K_BG: "cc > 0",
    D.K_BGE: "cc >= 0",
    D.K_BL: "cc < 0",
    D.K_BLE: "cc <= 0",
}


class _BlockCompiler:
    """Generates one Python function per superblock of the dispatch table.

    Machine constants (penalties, cache geometry, memory bounds, watched
    counter indexes) and hot objects (register file, arena words, cache
    sets, bound methods) are frozen into each generated function as
    constant-folded literals and default arguments, so a block executes
    with local-variable speed and zero dispatch.
    """

    def __init__(self, cpu, dec, tb, ncode, cfg, events_exit: bool = True) -> None:
        self.dec = dec
        self.tb = tb
        self.ncode = ncode
        self.cfg = cfg
        #: when False (nothing cycle-domain is observable this run: no
        #: watched counters, no pending traps, no clock, no cycle kill or
        #: cycle watchdog), penalties cannot move any deadline, so blocks
        #: accumulate them in a running local instead of exiting early
        self.events_exit = events_exit
        self.bc = cpu.base_cycles
        self.dtlb_miss = cpu.dtlb_miss_cycles
        self.tag_shift = cpu.dtlb._SEG_TAG_SHIFT
        self.store_stall = cpu.store_stall_cycles
        self.ec_hit = cpu.ecache.config.hit_cycles
        self.ec_miss = cpu.ecache.config.miss_cycles
        self.dc_shift = cpu.dcache.line_shift
        self.dc_mask = cpu.dcache.set_mask
        self.ec_line_shift = cpu.ecache.line_shift
        self.mem_base = cpu.memory.base
        self.nwords = len(cpu.memory.words)
        #: programs with no PREFETCH rows can never populate the inflight
        #: map, so blocks omit all inflight bookkeeping entirely
        self.has_prefetch = any(8 <= e[0] <= 9 for e in dec)
        watching = cpu.counters.watching
        self.w_dcrm = watching.get("dcrm")
        self.w_dtlbm = watching.get("dtlbm")
        self.w_ecref = watching.get("ecref")
        self.w_ecrm = watching.get("ecrm")
        self.w_ecstall = watching.get("ecstall")
        #: the state hub shared by every block compiled here
        self.st: list = [0] * 15

        record = cpu.counters.record
        pending_append = cpu.pending_traps.append
        counters = cpu.counters
        inflight = cpu.inflight_prefetches

        def _arm(w, amount, due, pc, ea):
            # counters.record + pending-trap arming, shared across every
            # watched-event site in every block compiled here
            skid = record(w, amount)
            if skid >= 0:
                pending_append([due + skid, w, skid, pc,
                                counters.last_coalesced, ea])

        def _stale(th):
            # expire software prefetches whose ready cycle has passed
            for ln in [l for l, r in inflight.items() if r <= th]:
                del inflight[ln]

        #: def-time bindings for generated functions; holding these also
        #: pins the bound objects so the cache key's id() checks stay sound
        self.globals = {
            "st": self.st,
            "_fx": _fx,
            "_fev": _fev,
            "_mf": _mf,
            "_dz": _dz,
            "_arm": _arm,
            "_stale": _stale,
            "_MX": _S64_MAX,
            "_MN": _S64_MIN,
            "_UM": _U64M,
            "regs": cpu.regs,
            "words": cpu.memory.words,
            "dc_sets": cpu.dcache.sets,
            "record": cpu.counters.record,
            "pending_append": cpu.pending_traps.append,
            "counters": cpu.counters,
            "dtlb": cpu.dtlb,
            "dtlb_lookup": cpu.dtlb.lookup,
            "dtlb_peek": cpu.dtlb.peek,
            "tlb_entries": cpu.dtlb.entries,
            "dcache_access": cpu.dcache.access,
            "ecache_access": cpu.ecache.access,
            "inflight": cpu.inflight_prefetches,
            "inflight_pop": cpu.inflight_prefetches.pop,
            "callstack": cpu.callstack,
            "callstack_append": cpu.callstack.append,
            "callstack_pop": cpu.callstack.pop,
            "memory": cpu.memory,
            "MemoryFault": MemoryFault,
            "DivisionByZero": DivisionByZero,
        }
        #: generated source per entry row (debugging / test introspection)
        self.sources: dict[int, str] = {}

    def compile(self, start: int) -> Optional[tuple]:
        """Compile the superblock entered at table row ``start``.

        Returns ``(n, fn)`` where ``n`` is the worst-case number of
        instructions one pass over the block retires (its static path
        length) and ``fn(left)`` executes it against the state hub,
        returning how many instructions actually retired.  Returns
        ``None`` when the span is shorter than ``min_block_instructions``
        (not worth a call).

        In no-events-exit mode, a block whose walk finds a back edge to
        its own start row is recompiled as an *in-block loop*: the body
        iterates under a deadline guard (``left - dn >= n``) and only
        returns to ``CPU.run`` when the countdown no longer fits a
        worst-case pass, so a hot self-loop costs one call per
        checkpoint window instead of one per iteration.
        """
        res, saw_back, mut, pen = self._compile(start, loop_mode=False)
        if saw_back:
            # Loop bodies break the straight-line assumption that an exit
            # emitted at offset ``j`` runs before anything emitted later:
            # iteration 2 reaches the earliest exit *after* the whole body.
            # Seed the recompile with the full mutation set so every exit
            # passes the live locals, not the stale st slots.
            res, _, _, _ = self._compile(start, loop_mode=True,
                                         pre_mut=mut, pre_pen=pen)
        return res

    def _compile(self, start: int, loop_mode: bool,
                 pre_mut: frozenset = frozenset(),
                 pre_pen: bool = False) -> tuple:
        dec = self.dec
        tb = self.tb
        ncode = self.ncode
        bc = self.bc
        events_exit = self.events_exit
        lines: list[str] = []
        needs = {"st"}
        mut: set[str] = set(pre_mut)
        #: static count of memory accesses emitted so far (folded MRU
        #: tallies — see sargs)
        cnt = {"tlb": 0, "dcr": 0, "dcw": 0}
        #: whether a penalty-carrying instruction has been emitted; in
        #: no-events-exit mode `pen` then lives across instructions and
        #: every later exit must fold it in
        uses_pen = [pre_pen]
        #: back edges to `start` are loopable only when penalties cannot
        #: force a mid-block checkpoint
        loopable = not events_exit
        saw_back = False

        def L(pad: str, s: str) -> None:
            lines.append("    " + pad + s)

        def cycabs(off: int) -> str:
            # absolute-cycle expression for a static in-pass offset; in
            # loop mode `dn` completed instructions precede this pass
            if loop_mode:
                return (f"cycles + dn + {off}" if bc == 1
                        else f"cycles + dn * {bc} + {off}")
            return f"cycles + {off}"

        def sargs(i_expr: str, ni_expr: str, jr: int, pen: bool) -> str:
            # Argument list for the shared exit helpers.  Locals not yet
            # materialised (absent from `mut`) are still equal to their
            # st slots, so passing the slot back is exact.  MRU-hit
            # tallies are folded: blocks only *decrement* on non-MRU
            # accesses, so each exit adds the static access count so far.
            if not events_exit and uses_pen[0]:
                # accumulated penalties never exit the block, so every
                # exit after the first penalty site folds `pen` in
                pen = True
            if loop_mode:
                # `dn` whole-pass instructions retired before this one;
                # tallies are kept live (not folded), see emit_tlb
                n_a = f"dn + {jr}" if jr else "dn"
                base = n_a if bc == 1 else f"({n_a}) * {bc}"
                cyc = f"{base} + pen" if pen else base
            elif jr and pen:
                n_a = str(jr)
                cyc = f"{jr * bc} + pen"
            elif jr:
                n_a = str(jr)
                cyc = str(jr * bc)
            else:
                n_a = "0"
                cyc = "pen" if pen else "0"
            cc_a = "cc" if "cc" in mut else "st[2]"
            ecs_a = "ecs" if "ecs" in mut else "st[5]"
            if "seg" in mut:
                th_a = ("tlb_hits" if loop_mode
                        else f"tlb_hits + {cnt['tlb']}")
                seg_a = (f"seg_base, seg_end, seg_shift, mru_page, {th_a}")
            else:
                seg_a = "st[6], st[7], st[8], st[9], st[10]"
            if "dcr" in mut:
                dr_a = "dc_r" if loop_mode else f"dc_r + {cnt['dcr']}"
            else:
                dr_a = "st[11]"
            if "dcw" in mut:
                dw_a = "dc_w" if loop_mode else f"dc_w + {cnt['dcw']}"
            else:
                dw_a = "st[12]"
            return (f"st, {i_expr}, {ni_expr}, {cyc}, {n_a}, {cc_a}, {ecs_a}, "
                    f"{seg_a}, {dr_a}, {dw_a}")

        def early_exit(pad: str, jr: int, i_expr: str, ni_expr: str) -> None:
            needs.add("_fev")
            L(pad, f"return _fev({sargs(i_expr, ni_expr, jr, pen=True)})")

        def final_exit(pad: str, jr: int, i_expr: str, ni_expr: str) -> None:
            needs.add("_fx")
            L(pad, f"return _fx({sargs(i_expr, ni_expr, jr, pen=False)})")

        def rec(pad: str, w: int, amount, j: int, row: int,
                ea_expr: str) -> None:
            # counters.record for a per-access event, exactly where the
            # per-instruction loop performs it; due count and trigger pc
            # are constant-folded (icount is the block-entry total, the
            # instruction at offset j retires as icount + j + 1).
            mut.add("icount")
            needs.add("_arm")
            L(pad, f"_arm({w}, {amount}, icount + {j + 1}, "
                   f"{tb + (row << 2)}, {ea_expr})")

        def emit_tlb(j: int, row: int, pen_flag: bool) -> None:
            # Three-tier translation: MRU-page hit falls straight through,
            # a same-or-other-segment hit probes the TLB's LRU dict inline
            # (replicating lookup's reinsert-at-MRU), and only true misses
            # or segment switches call dtlb_lookup.  In the folded scheme
            # (non-loop) exits add the static access count and only the
            # lookup path *decrements* — lookup counts the ref itself; in
            # loop mode the tallies are live because statics cannot scale
            # with `dn`.
            mut.add("seg")
            cnt["tlb"] += 1
            needs.update(("dtlb", "dtlb_lookup", "tlb_entries", "memory"))
            L("", "if seg_base <= ea < seg_end:")
            L("", "    _pg = ea >> seg_shift")
            L("", "else:")
            L("", "    _pg = -2")  # matches no mru_page and no dict key
            if loop_mode:
                L("", "if _pg == mru_page:")
                L("", "    tlb_hits += 1")
                L("", "elif (_pk := seg_tag | _pg) in tlb_entries:")
            else:
                L("", "if _pg == mru_page:")
                L("", "    pass")
                L("", "elif (_pk := seg_tag | _pg) in tlb_entries:")
            L("", "    del tlb_entries[_pk]")
            L("", "    tlb_entries[_pk] = True")
            if loop_mode:
                L("", "    tlb_hits += 1")
            L("", "    mru_page = _pg")
            L("", "else:")
            if not loop_mode:
                L("", "    tlb_hits -= 1")
            L("", "    if not dtlb_lookup(ea, memory):")
            if events_exit:
                L("", f"        pen = {self.dtlb_miss}")
                if not pen_flag:
                    L("", "        brk = True")
            else:
                L("", f"        pen += {self.dtlb_miss}")
            if self.w_dtlbm is not None:
                rec("        ", self.w_dtlbm, 1, j, row, "ea")
            L("", "    seg = dtlb._seg_cache")
            L("", "    seg_base = seg.base")
            L("", "    seg_end = seg.end")
            L("", "    seg_shift = seg.page_shift")
            L("", f"    seg_tag = seg.seg_id << {self.tag_shift}")
            L("", "    mru_page = ea >> seg_shift")

        def emit_load(j: int, row: int, e: tuple, exit_i: str, exit_ni: str,
                      err_i: str, err_ni: str) -> None:
            k, rd = e[0], e[1]
            mut.update(("cycles", "ecs"))
            needs.update(("regs", "words", "dc_sets", "dcache_access",
                          "ecache_access"))
            mut.add("dcr")
            o = e[3]
            ea = (f"regs[{e[2]}] + regs[{o}]" if k & 1
                  else f"regs[{e[2]}] + ({o})")
            jb = j * bc
            # every load-break cause carries a nonzero penalty when the
            # miss costs are nonzero, so `pen` doubles as the break flag
            pen_flag = self.dtlb_miss > 0 and self.ec_hit > 0
            uses_pen[0] = True
            L("", f"ea = {ea}")
            if events_exit:
                L("", "pen = 0")
                if not pen_flag:
                    L("", "brk = False")
            elif self.has_prefetch:
                # penalties accumulate across the block; the prefetch
                # timing below needs this instruction's entry point
                L("", "lp = pen")
            emit_tlb(j, row, pen_flag)
            cnt["dcr"] += 1
            if self.has_prefetch:
                L("", "full_miss = False")
            L("", f"line = ea >> {self.dc_shift}")
            L("", f"dcset = dc_sets[line & {self.dc_mask}]")
            L("", "if dcset and dcset[0] == line:")
            L("", "    dc_r += 1" if loop_mode else "    pass")
            L("", "elif line in dcset:")
            L("", "    dcset.remove(line)")
            L("", "    dcset.insert(0, line)")
            if loop_mode:
                L("", "    dc_r += 1")
            L("", "else:")
            if not loop_mode:
                L("", "    dc_r -= 1")
            L("", "    if not dcache_access(ea, False):")
            if events_exit and not pen_flag:
                L("", "        brk = True")
            if self.w_dcrm is not None:
                rec("        ", self.w_dcrm, 1, j, row, "ea")
            L("", f"        pen += {self.ec_hit}")
            if self.w_ecref is not None:
                rec("        ", self.w_ecref, 1, j, row, "ea")
            L("", "        if not ecache_access(ea, False):")
            if self.has_prefetch:
                L("", "            full_miss = True")
            L("", f"            pen += {self.ec_miss}")
            L("", f"            ecs += {self.ec_miss}")
            if self.w_ecrm is not None:
                rec("            ", self.w_ecrm, 1, j, row, "ea")
            if self.w_ecstall is not None:
                rec("            ", self.w_ecstall, self.ec_miss, j, row, "ea")
            if self.has_prefetch:
                needs.update(("inflight", "inflight_pop", "_stale"))
                lc = f"cycles + {jb}" if events_exit else f"{cycabs(jb)} + lp"
                L("", "if inflight:")
                L("", f"    ready = inflight_pop(ea >> {self.ec_line_shift},"
                      " None)")
                L("", f"    if ready is not None and not full_miss and "
                      f"ready > {lc}:")
                L("", f"        wait = ready - ({lc})")
                L("", "        pen += wait")
                L("", "        ecs += wait")
                if events_exit and not pen_flag:
                    L("", "        brk = True")
                L("", "    if inflight:")
                L("", f"        _stale({cycabs(jb)} + pen)")
            if k < 2:  # LDX
                L("", "if ea & 7:")
                L("", f"    _mf({sargs(err_i, err_ni, j, True)}, ea, "
                      '"misaligned 8-byte load")')
            L("", f"widx = (ea - {self.mem_base}) >> 3")
            L("", f"if widx < 0 or widx >= {self.nwords}:")
            L("", f"    _mf({sargs(err_i, err_ni, j, True)}, ea)")
            if rd:
                if k < 2:
                    L("", f"regs[{rd}] = words[widx]")
                else:
                    L("", f"regs[{rd}] = (words[widx] >> ((ea & 7) << 3)) & 0xFF")
            if events_exit:
                L("", "if pen:" if pen_flag else "if brk:")
                early_exit("    ", j + 1, exit_i, exit_ni)

        def emit_store(j: int, row: int, e: tuple, exit_i: str, exit_ni: str,
                       err_i: str, err_ni: str) -> None:
            k = e[0]
            mut.add("cycles")
            needs.update(("regs", "words", "dc_sets", "dcache_access",
                          "ecache_access"))
            mut.add("dcw")
            o = e[3]
            ea = (f"regs[{e[2]}] + regs[{o}]" if k & 1
                  else f"regs[{e[2]}] + ({o})")
            jb = j * bc
            uses_pen[0] = True
            L("", f"ea = {ea}")
            if events_exit:
                L("", "pen = 0")
                L("", "brk = False")
            emit_tlb(j, row, pen_flag=False)
            cnt["dcw"] += 1
            L("", f"line = ea >> {self.dc_shift}")
            L("", f"dcset = dc_sets[line & {self.dc_mask}]")
            L("", "if dcset and dcset[0] == line:")
            L("", "    dc_w += 1" if loop_mode else "    pass")
            L("", "elif line in dcset:")
            L("", "    dcset.remove(line)")
            L("", "    dcset.insert(0, line)")
            if loop_mode:
                L("", "    dc_w += 1")
            L("", "else:")
            if not loop_mode:
                L("", "    dc_w -= 1")
            L("", "    if not dcache_access(ea, True):")
            if events_exit:
                L("", "        brk = True")
            if self.store_stall:
                L("", f"        pen += {self.store_stall}")
            if self.w_ecref is not None:
                rec("        ", self.w_ecref, 1, j, row, "ea")
            L("", "        ecache_access(ea, True)")
            if self.has_prefetch:
                needs.update(("inflight", "inflight_pop", "_stale"))
                L("", "if inflight:")
                L("", f"    inflight_pop(ea >> {self.ec_line_shift}, None)")
                L("", "    if inflight:")
                L("", f"        _stale({cycabs(jb)} + pen)")
            if k < 6:  # STX
                L("", "if ea & 7:")
                L("", f"    _mf({sargs(err_i, err_ni, j, True)}, ea, "
                      '"misaligned 8-byte store")')
            L("", f"widx = (ea - {self.mem_base}) >> 3")
            L("", f"if widx < 0 or widx >= {self.nwords}:")
            L("", f"    _mf({sargs(err_i, err_ni, j, True)}, ea)")
            if k < 6:
                L("", f"words[widx] = regs[{e[1]}]")
            else:
                needs.update(("_MX", "_UM"))
                L("", "shift = (ea & 7) << 3")
                L("", "word = words[widx] & _UM")
                L("", "word = (word & ~(0xFF << shift)) | "
                      f"((regs[{e[1]}] & 0xFF) << shift)")
                L("", "if word > _MX:")
                L("", f"    word -= {_U64}")
                L("", "words[widx] = word")
            if events_exit:
                L("", "if brk:")
                early_exit("    ", j + 1, exit_i, exit_ni)

        def emit_prefetch(j: int, e: tuple) -> None:
            k = e[0]
            mut.add("cycles")
            needs.update(("regs", "dtlb_peek", "memory", "dcache_access",
                          "ecache_access", "inflight"))
            o = e[3]
            ea = (f"regs[{e[2]}] + regs[{o}]" if k & 1
                  else f"regs[{e[2]}] + ({o})")
            L("", f"ea = {ea}")
            L("", "try:")
            L("", "    translated = dtlb_peek(ea, memory)")
            L("", "except MemoryFault:")
            L("", "    translated = False")
            tail = " + pen" if not events_exit and uses_pen[0] else ""
            L("", "if translated and not dcache_access(ea, False):")
            L("", "    if not ecache_access(ea, False):")
            L("", f"        inflight[ea >> {self.ec_line_shift}] = "
                  f"{cycabs(j * bc + self.ec_miss)}{tail}")

        def emit_div(j: int, row: int, e: tuple,
                     err_i: str, err_ni: str) -> None:
            k, rd = e[0], e[1]
            needs.add("regs")
            msg = f'"at pc 0x{tb + (row << 2):x}"'
            if k & 1:
                L("", f"_b = regs[{e[3]}]")
                L("", "if _b == 0:")
                L("", f"    _dz({sargs(err_i, err_ni, j, False)}, {msg})")
            else:
                if e[3] == 0:
                    L("", f"_dz({sargs(err_i, err_ni, j, False)}, {msg})")
                    return
                L("", f"_b = {e[3]}")
            L("", f"_a = regs[{e[2]}]")
            L("", "_q = abs(_a) // abs(_b)")
            L("", "if (_a < 0) != (_b < 0):")
            L("", "    _q = -_q")
            if rd:
                if k < 36:
                    L("", f"regs[{rd}] = _q")
                else:
                    L("", f"regs[{rd}] = _a - _q * _b")

        def emit_instr(j: int, row: int, e: tuple, exit_i: str, exit_ni: str,
                       err_i: str, err_ni: str) -> None:
            k = e[0]
            if k == D.K_NOP:
                return
            needs.add("regs")
            if k == D.K_SET:
                L("", f"regs[{e[1]}] = {e[2]}")
            elif k == D.K_MOV:
                L("", f"regs[{e[1]}] = regs[{e[2]}]")
            elif k == D.K_CMP_I:
                mut.add("cc")
                L("", f"cc = regs[{e[1]}] - ({e[2]})")
            elif k == D.K_CMP_R:
                mut.add("cc")
                L("", f"cc = regs[{e[1]}] - regs[{e[2]}]")
            elif k in _WRAP_EXPRS:
                needs.update(("_MX", "_MN", "_UM"))
                L("", "value = " + _WRAP_EXPRS[k].format(a=e[2], c=e[3]))
                L("", "if value > _MX or value < _MN:")
                L("", "    value = ((value - _MN) & _UM) + _MN")
                L("", f"regs[{e[1]}] = value")
            elif k in _LOGIC_EXPRS:
                L("", f"regs[{e[1]}] = " + _LOGIC_EXPRS[k].format(a=e[2], c=e[3]))
            elif k == D.K_SRLX_I or k == D.K_SRLX_R:
                needs.update(("_MX", "_UM"))
                sh = f"{e[3]}" if k == D.K_SRLX_I else f"(regs[{e[3]}] & 63)"
                L("", f"value = (regs[{e[2]}] & _UM) >> {sh}")
                L("", "if value > _MX:")
                L("", f"    value -= {_U64}")
                L("", f"regs[{e[1]}] = value")
            elif k < 4:
                emit_load(j, row, e, exit_i, exit_ni, err_i, err_ni)
            elif k < 8:
                emit_store(j, row, e, exit_i, exit_ni, err_i, err_ni)
            elif k < 10:
                emit_prefetch(j, e)
            else:  # SDIVX / SMODX
                emit_div(j, row, e, err_i, err_ni)

        # ---- superblock walk: straight-line emission that continues
        # across unconditional edges (BA/CALL targets) and the fall-through
        # side of conditionals (the taken side becomes an in-block early
        # return), stopping at computed jumps, traps, already-emitted rows
        # and the length cap.
        max_block = self.cfg.max_block_instructions
        ndec = len(dec)
        i = start
        j = 0
        visited: set[int] = set()
        while True:
            if i in visited or j >= max_block or not 0 <= i < ndec:
                final_exit("", j, str(i), str(i + 1))
                break
            e = dec[i]
            k = e[0]
            if k <= SIMPLE_KIND_MAX:
                visited.add(i)
                emit_instr(j, i, e, str(i + 1), str(i + 2),
                           str(i), str(i + 1))
                j += 1
                i += 1
                continue
            if k < D.K_BA or k > D.K_JMPL:  # TA / HALT / K_BAD / unknown
                final_exit("", j, str(i), str(i + 1))
                break
            d = i + 1
            de = dec[d] if d < ndec else (D.K_BAD, None)
            if de[0] > SIMPLE_KIND_MAX or j + 2 > max_block:
                # the delay slot itself transfers control (or no room):
                # end the block *before* the branch
                final_exit("", j, str(i), str(i + 1))
                break
            visited.add(i)
            visited.add(d)
            if k == D.K_BA:
                t = e[1]
                j += 1  # the branch itself retires
                emit_instr(j, d, de, str(t), str(t + 1), str(d), str(t))
                j += 1
                if t == start and loopable:
                    saw_back = True
                    if loop_mode:
                        # unconditional back edge: iterate in-block while
                        # a worst-case pass still fits the countdown
                        L("", f"dn += {j}")
                        L("", "if left - dn >= __NMAX__:")
                        L("", "    continue")
                        final_exit("", 0, str(start), str(start + 1))
                        break
                i = t
                continue
            if k == D.K_CALL:
                t = e[1]
                pc_b = tb + (i << 2)
                needs.update(("regs", "callstack_append"))
                L("", f"regs[{REG_RA}] = {pc_b}")
                L("", f"callstack_append({pc_b})")
                j += 1
                emit_instr(j, d, de, str(t), str(t + 1), str(d), str(t))
                j += 1
                i = t
                continue
            if k == D.K_JMPL:
                rd = e[1]
                needs.add("regs")
                if rd:
                    L("", f"regs[{rd}] = {tb + (i << 2)}")
                L("", f"_t = regs[{e[2]}] + ({e[3]})")
                if e[4]:  # RET: pop the shadow call stack
                    needs.update(("callstack", "callstack_pop"))
                    L("", "if callstack:")
                    L("", "    callstack_pop()")
                L("", f"_ti = (_t - {tb}) >> 2")
                L("", f"if _t & 3 or _ti < 0 or _ti > {ncode}:")
                L("", "    st[14] = _t")
                L("", f"    _ti = {ncode}")
                L("", "_t = _ti")
                j += 1
                emit_instr(j, d, de, "_t", "_t + 1", str(d), "_t")
                j += 1
                final_exit("", j, "_t", "_t + 1")
                break
            # conditional branch: decide before the delay slot executes
            # (a CMP in the delay slot must not affect this transfer)
            mut.add("cc")
            t = e[1]
            fall = i + 2
            j += 1
            if t == fall:  # degenerate branch-to-fall-through
                emit_instr(j, d, de, str(fall), str(fall + 1),
                           str(d), str(fall))
                j += 1
                i = fall
                continue
            L("", f"_tk = {_COND_EXPRS[k]}")
            L("", f"_t = {t} if _tk else {fall}")
            emit_instr(j, d, de, "_t", "_t + 1", str(d), "_t")
            j += 1
            if t == start and loopable:
                saw_back = True
                if loop_mode:
                    L("", "if _tk:")
                    L("", f"    dn += {j}")
                    L("", "    if left - dn >= __NMAX__:")
                    L("", "        continue")
                    final_exit("    ", 0, str(start), str(start + 1))
                    i = fall
                    continue
            L("", "if _tk:")
            final_exit("    ", j, str(t), str(t + 1))
            i = fall

        if j < self.cfg.min_block_instructions:
            return None, saw_back, frozenset(mut), uses_pen[0]

        head = []
        if not events_exit and uses_pen[0]:
            head.append("pen = 0")
        if "cc" in mut:
            head.append("cc = st[2]")
        if "cycles" in mut:
            head.append("cycles = st[3]")
        if "icount" in mut:
            head.append("icount = st[4]")
        if "ecs" in mut:
            head.append("ecs = st[5]")
        if "seg" in mut:
            # `seg_tag` shadows the TLB's own cached segment tag: the st
            # seg slots are only ever written from ``dtlb._seg_cache``, so
            # whenever they describe a valid segment the TLB's tag matches
            # (and when they are the invalid sentinel the first access
            # takes the slow path and rewrites everything anyway).
            needs.add("dtlb")
            head += ["seg_base = st[6]", "seg_end = st[7]",
                     "seg_shift = st[8]", "mru_page = st[9]",
                     "seg_tag = dtlb._seg_tag",
                     "tlb_hits = st[10]"]
        if "dcr" in mut:
            head.append("dc_r = st[11]")
        if "dcw" in mut:
            head.append("dc_w = st[12]")
        params = [p for p in _PARAM_ORDER if p in needs]
        src = "def _blk(left, {}):\n".format(
            ", ".join(p + "=" + p for p in params))
        src += "".join("    " + h + "\n" for h in head)
        if loop_mode:
            # wrap the body so back edges to `start` can iterate in-block;
            # the guard constant is the finished block's worst-case length
            src += "    dn = 0\n    while True:\n"
            src += "".join("    " + line + "\n" for line in lines)
            src = src.replace("__NMAX__", str(j))
        else:
            src += "".join(line + "\n" for line in lines)
        g = dict(self.globals)
        exec(src, g)
        self.sources[start] = src
        return (j, g["_blk"]), saw_back, frozenset(mut), uses_pen[0]


def _bind_key(cpu) -> tuple:
    """Everything a compiled block bakes in, as a comparable tuple.

    The ``id()`` entries are sound because the matching objects are held
    strongly by the cached program's compiler globals — a replaced object
    cannot be garbage collected into id reuse while the old program is
    still the cache occupant holding it.
    """
    return (
        id(cpu.code),
        cpu.text_base,
        len(cpu.code),
        tuple(sorted(cpu.counters.watching.items())),
        id(cpu.regs),
        id(cpu.memory.words),
        id(cpu.pending_traps),
        id(cpu.callstack),
        id(cpu.inflight_prefetches),
        id(cpu.counters),
        id(cpu.dcache.sets),
        id(cpu.dtlb),
        id(cpu.ecache),
        cpu.base_cycles,
        cpu.dtlb_miss_cycles,
        cpu.store_stall_cycles,
        cpu.ecache.config.hit_cycles,
        cpu.ecache.config.miss_cycles,
        cpu.dcache.line_shift,
        cpu.dcache.set_mask,
        cpu.ecache.line_shift,
        cpu.memory.base,
        len(cpu.memory.words),
    )


class TraceProgram:
    """Compiled-superblock table for one (code, machine, watching) binding.

    ``btab[row]`` is ``None`` (never considered), ``False`` (considered
    and rejected / too short), or ``(n, fn)``.  Compilation is lazy: a
    row compiles once ``CPU.run`` has entered it ``hot_threshold`` times.
    """

    def __init__(self, cpu, cfg, events_exit: bool = True) -> None:
        dec = cpu._dispatch_table()
        self.cfg = cfg
        self.dec = dec
        self.events_exit = events_exit
        self.code_ref = cpu.code  # pin so id(cpu.code) in the key is stable
        self.compiler = _BlockCompiler(cpu, dec, cpu.text_base,
                                       len(cpu.code), cfg, events_exit)
        self.st = self.compiler.st
        self.btab: list = [None] * len(dec)
        self.counts: dict[int, int] = {}
        self.stats = {
            "blocks_compiled": 0,
            "blocks_rejected": 0,
            "block_instructions": 0,
            "block_calls": 0,
            "trace_retired": 0,
            "burst_retired": 0,
            "deopt_split": 0,
            "deopt_entry": 0,
            "deopt_event": 0,
            "deopt_cold": 0,
        }
        self.key = _bind_key(cpu)

    def compile_row(self, row: int):
        """Compile (or reject) the block at ``row``; returns the btab entry."""
        res = self.compiler.compile(row)
        if res is None:
            self.btab[row] = False
            self.stats["blocks_rejected"] += 1
            return False
        self.btab[row] = res
        self.stats["blocks_compiled"] += 1
        self.stats["block_instructions"] += res[0]
        return res


def get_program(cpu, events_exit: bool = True) -> TraceProgram:
    """The CPU's current trace program, recompiled when stale.

    Staleness mirrors ``CPU._dispatch_table`` (code identity, base,
    length) and adds the trace tier's extra bake-ins: the counter
    watching set, machine-object identities, penalty constants, and the
    compile mode (``events_exit`` — whether penalties must checkpoint).
    """
    cfg = cpu.trace_config
    prog = cpu._trace_cache
    if (
        prog is not None
        and prog.cfg is cfg
        and prog.events_exit == events_exit
        and prog.dec is cpu._dispatch_table()
        and prog.key == _bind_key(cpu)
    ):
        return prog
    prog = TraceProgram(cpu, cfg, events_exit)
    cpu._trace_cache = prog
    return prog


__all__ = ["TraceProgram", "get_program"]
