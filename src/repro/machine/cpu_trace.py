"""Superblock compiler for the trace tier (``engine="trace"``).

The trace tier is not a separate interpreter: ``CPU.run`` owns the
checkpoint, the batched overflow countdown and the dispatch chain for
every non-reference engine (see DESIGN.md §11).  This module supplies
what it chains between checkpoints: straight-line runs of predecoded
table rows (*superblocks*) rendered from the semantics table
(:mod:`repro.machine.semantics`) and compiled, via ``exec``, into single
Python functions that retire the whole run with no per-instruction
dispatch at all.  It holds the block compiler (the table's trace-tier
hooks), :class:`TraceProgram` (the per-row block table and its
statistics) and :func:`get_program` (the cache).

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
  (dcrm/dtlbm/ecref/ecrm/ecstall) and pending-trap appends come from the
  same table entry the dispatch chain is rendered from, so they happen
  in exactly its order, with PCs, immediates and penalties
  constant-folded.
* **Pure bookkeeping is deferred.** Instruction/cycle totals and the MRU
  D$/DTLB tallies accumulate as static per-block deltas applied at block
  exit; ``CounterUnit.record`` only draws RNG on interval crossings, and
  crossings can only happen at checkpoints, so deferring the totals to
  the block boundary is unobservable.
* **Nothing that can transfer control mid-run is compiled.** ``TA``,
  ``HALT`` and ``K_BAD`` rows, and any kind without a table entry,
  terminate block discovery; faults raised
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
  so every exit of every block passes the locals the whole block
  materialises.

Compiled blocks communicate with ``CPU.run`` through a single shared
list (the *state hub* ``st``) whose layout ``semantics.HUB`` owns.
``CPU.run`` copies its locals into the hub before chaining blocks and
reloads them afterwards.  Blocks are invalidated whenever the
dispatch table is rebuilt (reassigned code), the counter-watching set
changes, the events-exit mode flips, or any bound machine object is
replaced — see ``_bind_key``.
"""

from __future__ import annotations

import re
from typing import Optional

from ..errors import DivisionByZero, MemoryFault
from ..isa import decode as D
from .semantics import (
    HUB,
    HUB_BAD_PC,
    TABLE,
    WRAP,
    operand_env,
    render,
    straight,
)


# ---------------------------------------------------------------- shared
# block-exit helpers.  Every way out of a compiled block funnels through
# one of these instead of inlining a dozen ``st[...]`` writes per exit
# site — that keeps generated sources (and hence bytecode-compile time,
# the trace tier's whole startup cost) small.  Call sites pass the local
# value when the block materialised it and the ``st`` slot itself when it
# did not (the slot still holds the current value then), so the writes
# are always exact.  The slot order is ``semantics.HUB``.

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


def _rx(st, i, ni, dcyc, n, cc, ecs, sb, se, ss, mp, th, dr, dw, exc):
    """Fault exit: sync, then raise ``exc``."""
    _fx(st, i, ni, dcyc, n, cc, ecs, sb, se, ss, mp, th, dr, dw)
    raise exc


#: stable ordering for generated-function default-arg bindings
_PARAM_ORDER = (
    "st", "_fx", "_fev", "_rx", "_arm", "_stale", "_MX", "_MN", "_UM",
    "_U64", "regs", "words", "dc_sets", "dtlb", "dtlb_lookup", "dtlb_peek",
    "tlb_entries", "dcache_access", "ecache_access", "inflight",
    "inflight_pop", "memory", "callstack", "callstack_append",
    "callstack_pop",
)

#: exit argument list placeholder, resolved once the whole block is known
_EXIT = re.compile("\x00(\\d+)\x00")
_NAME = re.compile(r"[A-Za-z_]\w*")


class _BlockCompiler:
    """Generates one Python function per superblock of the dispatch table.

    It is the trace tier's side of the semantics table: it renders each
    row's entry with operands, PCs, penalties, cache geometry, memory
    bounds and watched counter indexes folded to literals, and supplies
    the table's hooks — the three-tier DTLB/D$ probes with folded MRU
    tallies, ``pen``/``_fev`` event exits, ``_rx`` faults and ``_arm``
    trap arming.  Hot objects (register file, arena words, cache sets,
    bound methods) become default arguments, so a block executes with
    local-variable speed and zero dispatch.
    """

    def __init__(self, cpu, dec, tb, ncode, cfg,
                 events_exit: bool = True) -> None:
        self.dec = dec
        self.tb = tb
        self.cfg = cfg
        #: when False (nothing cycle-domain is observable this run: no
        #: watched counters, no pending traps, no clock, no cycle kill or
        #: cycle watchdog), penalties cannot move any deadline, so blocks
        #: accumulate them in a running local instead of exiting early
        self.events_exit = events_exit
        self.bc = cpu.base_cycles
        #: every load-break cause carries a nonzero penalty when the miss
        #: costs are nonzero, so a load's `pen` doubles as its break flag
        self.load_pen_flag = (cpu.dtlb_miss_cycles > 0
                              and cpu.ecache.config.hit_cycles > 0)
        #: programs with no PREFETCH rows can never populate the inflight
        #: map, so blocks omit all inflight bookkeeping entirely
        self.prefetch = any(8 <= e[0] <= 9 for e in dec)
        self.flags = (("CHAIN", False), ("PF", self.prefetch))
        self.consts = {
            "CYC": "pen", "TB": str(tb), "NCODE": str(ncode),
            "BAD_PC": f"st[{HUB_BAD_PC}]",
            "DTLB_MISS": str(cpu.dtlb_miss_cycles),
            "EC_HIT": str(cpu.ecache.config.hit_cycles),
            "EC_MISS": str(cpu.ecache.config.miss_cycles),
            "STORE_STALL": str(cpu.store_stall_cycles),
            "DC_SHIFT": str(cpu.dcache.line_shift),
            "DC_MASK": str(cpu.dcache.set_mask),
            "EC_LINE_SHIFT": str(cpu.ecache.line_shift),
            "MEM_BASE": str(cpu.memory.base),
            "NWORDS": str(len(cpu.memory.words)),
            "TAG_SHIFT": str(cpu.dtlb._SEG_TAG_SHIFT),
        }
        #: watched events by counter register (blocks inline the
        #: per-access ones the table arms)
        self.w = dict(cpu.counters.watching)
        #: the state hub shared by every block compiled here
        self.st: list = [0] * (HUB_BAD_PC + 1)

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

        def _stale(now):
            # expire software prefetches whose ready cycle has passed
            for ln in [ln for ln, r in inflight.items() if r <= now]:
                del inflight[ln]

        #: def-time bindings for generated functions; holding these also
        #: pins the bound objects so the cache key's id() checks stay sound
        self.globals = dict(
            WRAP, st=self.st, _fx=_fx, _fev=_fev, _rx=_rx, _arm=_arm,
            _stale=_stale, regs=cpu.regs, words=cpu.memory.words,
            dc_sets=cpu.dcache.sets, dtlb=cpu.dtlb,
            dtlb_lookup=cpu.dtlb.lookup, dtlb_peek=cpu.dtlb.peek,
            tlb_entries=cpu.dtlb.entries, dcache_access=cpu.dcache.access,
            ecache_access=cpu.ecache.access,
            inflight=cpu.inflight_prefetches,
            inflight_pop=cpu.inflight_prefetches.pop,
            callstack=cpu.callstack, callstack_append=cpu.callstack.append,
            callstack_pop=cpu.callstack.pop, memory=cpu.memory,
            MemoryFault=MemoryFault, DivisionByZero=DivisionByZero,
        )
        #: generated source per entry row (debugging / test introspection)
        self.sources: dict[int, str] = {}

    # ------------------------------------------------ semantics-table hooks
    # (see repro.machine.semantics); ``self._at`` is the instruction being
    # rendered: (offset j, row, fault-exit i, fault-exit ni, is-memory)

    def enter(self, load):
        if self.events_exit:
            return ["pen = 0"] + ([] if self.pen_flag else ["brk = False"])
        # penalties accumulate across the block; the prefetch timing
        # needs a load's entry point
        return ["lp = pen"] if load and self.prefetch else []

    def tlb(self):
        # Three-tier translation: MRU-page hit falls straight through, a
        # same-or-other-segment hit probes the TLB's LRU dict inline
        # (replicating lookup's reinsert-at-MRU), and only true misses or
        # segment switches call dtlb_lookup.  In the folded scheme
        # (non-loop) exits add the static access count and only the
        # lookup path *decrements* — lookup counts the ref itself; in
        # loop mode the tallies are live because statics cannot scale
        # with `dn`.
        self.cnt["tlb_hits"] += 1
        live = self.loop_mode
        return ([
            "if seg_base <= ea < seg_end:", "    _pg = ea >> seg_shift",
            "else:", "    _pg = -2",  # matches no mru_page and no dict key
            "if _pg == mru_page:", "    tlb_hits += 1" if live else "    pass",
            "elif (_pk := seg_tag | _pg) in tlb_entries:",
            "    del tlb_entries[_pk]", "    tlb_entries[_pk] = True",
        ] + (["    tlb_hits += 1"] if live else [])
            + ["    mru_page = _pg", "else:"]
            + ([] if live else ["    tlb_hits -= 1"]))

    def dprobe(self, tally, write):
        # the D$ set's MRU hit, then an inline LRU hit, then the unit
        self.cnt[tally] += 1
        hit = ["if dcset and dcset[0] == line:",
               f"    {tally} += 1" if self.loop_mode else "    pass",
               "elif line in dcset:", "    dcset.remove(line)",
               "    dcset.insert(0, line)"]
        if self.loop_mode:
            return hit + [f"    {tally} += 1",
                          f"elif not dcache_access(ea, {write}):"]
        return hit + [f"elif dcache_access(ea, {write}):",
                      f"    {tally} -= 1", "else:", f"    {tally} -= 1"]

    def brk(self):
        return ["brk = True"] if self.events_exit and not self.pen_flag else []

    def arm(self, event, amount, **_):
        # the due count and trigger pc are constant-folded (instr_count
        # is the block-entry total, offset j retires as + j + 1)
        w = self.w.get(event)
        if w is None:
            return []
        j, row = self._at[:2]
        return [f"_arm({w}, {amount}, instr_count + {j + 1}, "
                f"{self.tb + (row << 2)}, ea)"]

    def fault(self, exc):
        j, _, err_i, err_ni, mem = self._at
        return [f"_rx({self._exit(err_i, err_ni, j, mem)}, {exc})"]

    def _exit(self, i_expr: str, ni_expr: str, jr: int, pen: bool) -> str:
        # exit arguments depend on which locals the finished block
        # materialises, so they are rendered last (see _args)
        self.exits.append((i_expr, ni_expr, jr, pen, dict(self.cnt)))
        return f"\x00{len(self.exits) - 1}\x00"

    def _args(self, names: set, i_expr: str, ni_expr: str, jr: int,
              pen: bool, cnt: dict) -> str:
        # Argument list for the shared exit helpers.  Locals the block
        # never materialises are still equal to their st slots, so
        # passing the slot back is exact.  MRU-hit tallies are folded:
        # blocks only *decrement* on non-MRU accesses, so each exit adds
        # the static access count so far.
        if not self.events_exit and "pen" in names:
            # accumulated penalties never exit the block, so every exit
            # folds `pen` in (it is 0 before the first penalty site)
            pen = True
        bc = self.bc
        if self.loop_mode:
            # `dn` whole-pass instructions retired before this one
            n_a = f"dn + {jr}" if jr else "dn"
            base = n_a if bc == 1 else f"({n_a}) * {bc}"
            cyc = f"{base} + pen" if pen else base
        else:
            n_a = str(jr)
            cyc = f"{jr * bc} + pen" if pen else str(jr * bc)
        args = [i_expr, ni_expr, cyc, n_a]
        for name in HUB[2:]:
            if name in ("cycles", "instr_count"):
                continue
            if name not in names:
                args.append(f"st[{HUB.index(name)}]")
            elif cnt.get(name) and not self.loop_mode:
                args.append(f"{name} + {cnt[name]}")
            else:
                args.append(name)
        return "st, " + ", ".join(args)

    def _env(self, entry, j: int, row: int, e: tuple) -> dict:
        env = dict(self.consts)
        env.update((f"e{n}", repr(v)) for n, v in enumerate(e) if n)
        env["pc"] = str(self.tb + (row << 2))
        at = self._cycabs(j * self.bc)
        env["LCYC"] = at if self.events_exit else f"{at} + lp"
        env["NOW"] = (f"{at} + pen"
                      if entry.shape == "mem" or not self.events_exit else at)
        return operand_env(entry, (e[0],), env)

    def _cycabs(self, off: int) -> str:
        # absolute-cycle expression for a static in-pass offset; in loop
        # mode `dn` completed instructions precede this pass
        if self.loop_mode:
            bc = self.bc
            return (f"cycles + dn + {off}" if bc == 1
                    else f"cycles + dn * {bc} + {off}")
        return f"cycles + {off}"

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
        checkpoint window instead of one per iteration.  Every exit of
        either form passes the locals of the *whole* block (see
        ``_args``), so iteration 2 reaching the earliest exit after the
        body ran still syncs exact state.
        """
        res, saw_back = self._compile(start, loop_mode=False)
        if saw_back:
            res, _ = self._compile(start, loop_mode=True)
        return res

    def _compile(self, start: int, loop_mode: bool) -> tuple:
        dec = self.dec
        events_exit = self.events_exit
        self.loop_mode = loop_mode
        self.exits: list = []
        #: static count of memory accesses emitted so far (folded MRU
        #: tallies — see _args)
        self.cnt = {"tlb_hits": 0, "dc_r": 0, "dc_w": 0}
        lines: list[str] = []
        #: back edges to `start` are loopable only when penalties cannot
        #: force a mid-block checkpoint
        loopable = not events_exit
        saw_back = False

        def L(pad: str, s: str) -> None:
            lines.append("    " + pad + s)

        def final_exit(pad: str, jr: int, i_expr: str, ni_expr: str) -> None:
            L(pad, f"return _fx({self._exit(i_expr, ni_expr, jr, False)})")

        def emit(j: int, row: int, e: tuple, exit_i: str, exit_ni: str,
                 err_i: str, err_ni: str) -> None:
            entry = TABLE[e[0]]
            mem = entry.shape == "mem"
            self._at = (j, row, err_i, err_ni, mem)
            self.pen_flag = entry.name == "load" and self.load_pen_flag
            for line in render(entry.body, self, (e[0],),
                               self._env(entry, j, row, e)):
                L("", line)
            if mem and events_exit:
                # the instruction retired; checkpoint right after it
                L("", "if pen:" if self.pen_flag else "if brk:")
                args = self._exit(exit_i, exit_ni, j + 1, True)
                L("    ", f"return _fev({args})")

        # ---- superblock walk: straight-line emission that continues
        # across unconditional edges (BA/CALL targets) and the fall-through
        # side of conditionals (the taken side becomes an in-block early
        # return), stopping at computed jumps, traps, kinds with no
        # straight-line or jump entry, already-emitted rows and the
        # length cap.
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
            if straight(k):
                visited.add(i)
                emit(j, i, e, str(i + 1), str(i + 2), str(i), str(i + 1))
                j += 1
                i += 1
                continue
            entry = TABLE.get(k)
            d = i + 1
            de = dec[d] if d < ndec else (D.K_BAD, None)
            if (entry is None or entry.shape != "jump"
                    or not straight(de[0]) or j + 2 > max_block):
                # TA / HALT / K_BAD / unknown, or the delay slot itself
                # transfers control (or no room): end the block *before*
                # the branch
                final_exit("", j, str(i), str(i + 1))
                break
            visited.add(i)
            visited.add(d)
            for line in render(entry.body, self, (k,),
                               self._env(entry, j, i, e)):
                L("", line)
            j += 1  # the branch itself retires
            if entry.cond is None and entry.target != "$e1":
                # computed target (JMPL): the block ends after the slot
                emit(j, d, de, "_ti", "_ti + 1", str(d), "_ti")
                j += 1
                final_exit("", j, "_ti", "_ti + 1")
                break
            t = e[1]
            if entry.cond is None:
                emit(j, d, de, str(t), str(t + 1), str(d), str(t))
                j += 1
                if k == D.K_BA and t == start and loopable:
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
            # conditional branch: decide before the delay slot executes
            # (a CMP in the delay slot must not affect this transfer)
            fall = i + 2
            if t == fall:  # degenerate branch-to-fall-through
                emit(j, d, de, str(fall), str(fall + 1), str(d), str(fall))
                j += 1
                i = fall
                continue
            L("", f"_tk = {entry.cond}")
            L("", f"_t = {t} if _tk else {fall}")
            emit(j, d, de, "_t", "_t + 1", str(d), "_t")
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
            return None, saw_back

        body = "\n".join(lines)
        names = set(_NAME.findall(body))
        body = _EXIT.sub(
            lambda m: self._args(names, *self.exits[int(m[1])]), body)
        head = []
        if not events_exit and "pen" in names:
            head.append("pen = 0")
        for name in HUB[2:]:
            if name in names:
                head.append(f"{name} = st[{HUB.index(name)}]")
        if "seg_base" in names:
            # `seg_tag` shadows the TLB's own cached segment tag: the st
            # seg slots are only ever written from ``dtlb._seg_cache``, so
            # whenever they describe a valid segment the TLB's tag matches
            # (and when they are the invalid sentinel the first access
            # takes the slow path and rewrites everything anyway).
            head.append("seg_tag = dtlb._seg_tag")
        names.add("st")  # the exits' and the head's
        params = [p for p in _PARAM_ORDER if p in names]
        src = "def _blk(left, {}):\n".format(
            ", ".join(p + "=" + p for p in params))
        src += "".join("    " + h + "\n" for h in head)
        if loop_mode:
            # wrap the body so back edges to `start` can iterate in-block;
            # the guard constant is the finished block's worst-case length
            src += "    dn = 0\n    while True:\n"
            src += "".join("    " + line + "\n" for line in body.split("\n"))
            src = src.replace("__NMAX__", str(j))
        else:
            src += body + "\n"
        g = dict(self.globals)
        exec(src, g)
        self.sources[start] = src
        return (j, g["_blk"]), saw_back


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
