"""The instruction-semantics table: the one non-oracle definition of every
predecoded kind.

``cpu_reference.py`` is the semantics of record.  This module is the only
other place an instruction's behaviour is written down: every kind that
:func:`repro.isa.decode.predecode` can emit has exactly one :class:`Entry`
in :data:`TABLE`, a statement template over the row's operands.  The load
and store entries state the memory-system order once — DTLB, D$, E$,
prefetch wait/expiry, fault checks, data move — and name the counter each
step arms.  Two tiers render the entries:

* ``CPU.run``'s dispatch chain (:mod:`repro.machine.cpu`), compiled once
  per process at import, reads operands from the row tuple ``e`` and
  orders its arms by :data:`CHAIN_ORDER`;
* the trace tier's superblocks (:mod:`repro.machine.cpu_trace`) fold
  operands, PCs and machine constants to literals.

A tier supplies only hooks: how it probes the DTLB and D$ (the chain's MRU
inline test, or the blocks' three-tier probe with folded tallies), how a
penalty asks for a checkpoint (``brk``, or ``pen`` and the block's event
exit), how it raises a fault and how it arms a trap.

Template language, one statement per line, indentation significant:

* ``$name`` placeholders: row operands ``$e1``..``$e4``; the second
  operand in immediate-or-register form, ``$o2``/``$o3``; a shift amount
  ``$s3``; the instruction's ``$pc``; and the tier's names for machine
  constants and cycle accumulators (``$CYC``, ``$EC_MISS``, ...);
* ``?cond`` / ``?else`` / ``?end``: a conditional resolved at render time
  when it can be (the kind, the tier flags ``CHAIN`` and ``PF``, literal
  operands) and emitted as a runtime ``if`` otherwise;
* ``@hook(args)``: replaced by the lines the tier's hook returns.

The module also owns the 64-bit wrap constants the templates name
(``_MX``, ``_MN``, ``_UM``, ``_U64``) and the layout of the state hub
``st`` that compiled blocks and ``CPU.run`` share.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from ..isa import decode as D
from ..isa.registers import REG_RA

#: the 64-bit wrap constants, under the names the templates use
WRAP = {"_MX": (1 << 63) - 1, "_MN": -(1 << 63), "_UM": (1 << 64) - 1,
        "_U64": 1 << 64}

#: state-hub slots ``st[0..12]``, in order (``i``/``ni`` are the dispatch
#: table rows standing in for pc/npc); slot 13 flags a block's event exit
#: and slot 14 holds ``bad_pc``
HUB = ("i", "ni", "cc", "cycles", "instr_count", "ecs", "seg_base",
       "seg_end", "seg_shift", "mru_page", "tlb_hits", "dc_r", "dc_w")
HUB_BROKE = len(HUB)
HUB_BAD_PC = HUB_BROKE + 1


def hub_store() -> list:
    """``CPU.run``'s locals -> the hub."""
    return [f"st[:{HUB_BROKE}] = ({', '.join(HUB)})",
            f"st[{HUB_BAD_PC}] = bad_pc"]


def hub_load() -> list:
    """The hub -> ``CPU.run``'s locals."""
    return [f"({', '.join(HUB)}) = st[:{HUB_BROKE}]",
            f"bad_pc = st[{HUB_BAD_PC}]"]


# ------------------------------------------------------------ templates

_DIRECTIVE = re.compile(r"@(\w+)\((.*)\)$")
_PLACEHOLDER = re.compile(r"\$(\w+)")
_FORMATS: dict = {}


def subst(text: str, env: dict) -> str:
    """``text`` with its ``$name`` placeholders replaced from ``env``
    (the prepared form is cached: call it with template text only)."""
    fmt = _FORMATS.get(text)
    if fmt is None:
        fmt = _FORMATS[text] = _PLACEHOLDER.sub(
            r"{\1}", text.replace("{", "{{").replace("}", "}}"))
    return fmt.format_map(env)


def _args(*args, **kwargs):
    return args, kwargs


def parse(text: str) -> tuple:
    """Template text -> ``(indent, op, payload)`` items, op in ``"?@"`` or
    ``""`` for a statement."""
    items = []
    for line in text.splitlines():
        body = line.lstrip()
        if not body:
            continue
        indent = len(line) - len(body)
        if body[0] == "?":
            items.append((indent, "?", body[1:]))
        elif body[0] == "@":
            m = _DIRECTIVE.match(body)
            items.append((indent, "@", (m[1],) + eval(
                f"_args({m[2]})", {"_args": _args})))
        else:
            items.append((indent, "", body))
    return tuple(items)


_STATIC: dict = {}


def _static(text: str, kinds: tuple, flags: tuple) -> Optional[bool]:
    """The condition's value when it is the same for every kind of the
    arm and needs no runtime name; None when it must stay an ``if``."""
    key = (text, kinds, flags)
    if key not in _STATIC:
        try:
            values = {bool(eval(text, {"__builtins__": {}}, dict(flags, k=k)))
                      for k in kinds}
        except NameError:
            values = set()
        _STATIC[key] = values.pop() if len(values) == 1 else None
    return _STATIC[key]


def render(items: tuple, tier, kinds: tuple, env: dict) -> list:
    """Render parsed template ``items`` for an arm covering ``kinds``.

    ``tier`` supplies the hooks and ``tier.flags`` (``(name, value)``
    pairs); ``env`` maps every ``$`` placeholder to its text.
    """
    out: list = []
    frames: list = []  # [active outside, static value or None, len(out)]
    active = True
    shift = 0
    for indent, op, arg in items:
        if op == "?":
            if arg not in ("else", "end"):
                value = None
                if active:
                    cond = subst(arg, env)
                    value = _static(cond, kinds, tier.flags)
                    if value is None:
                        out.append(" " * (indent + shift) + f"if {cond}:")
                        shift += 4
                frames.append([active, value, len(out)])
                active = active and value is not False
                continue
            outer, value, mark = frames[-1]
            if outer and value is None:
                if len(out) == mark:
                    out.append(" " * (indent + shift) + "pass")
                if arg == "else":
                    out.append(" " * (indent + shift - 4) + "else:")
                    frames[-1][2] = len(out)
                else:
                    shift -= 4
            if arg == "else":
                active = outer and value is not True
            else:
                frames.pop()
                active = outer
        elif not active:
            continue
        elif op == "@":
            pad = " " * (indent + shift)
            # hook lines carry per-instruction literals: substitute them
            # uncached, and only when they name a placeholder
            for line in getattr(tier, arg[0])(*arg[1], **arg[2]):
                if "$" in line:
                    line = _PLACEHOLDER.sub(lambda m: env[m[1]], line)
                out.append(pad + line)
        else:
            out.append(" " * (indent + shift) + subst(arg, env))
    return out


def operand_env(entry: "Entry", kinds: tuple, env: dict) -> dict:
    """Add the immediate-or-register forms ``$o2``/``$o3``/``$s3`` for an
    arm covering ``kinds`` to ``env``; mixed arms select on ``k & 1``."""
    regs = {k in entry.reg_kinds for k in kinds}
    for n in ("2", "3"):
        x = env.get("e" + n)
        if x is None:
            continue
        if regs == {True}:
            env["o" + n], env["s" + n] = f"regs[{x}]", f"(regs[{x}] & 63)"
        elif regs == {False}:
            env["o" + n], env["s" + n] = f"({x})", x
        else:
            env["o" + n] = f"(regs[{x}] if k & 1 else {x})"
    return env


# ---------------------------------------------------------------- table

class Entry(NamedTuple):
    """One kind family's semantics.

    ``shape`` tells the tiers how control leaves the instruction: ``op``
    (straight line), ``mem`` (straight line that may end the countdown
    window: penalties, armed traps), ``jump`` (taken when ``cond`` holds,
    or always when it is None, to row ``target``; ``mispredict`` is the
    BTFN misprediction the branch counters see) or ``stop`` (kernel trap,
    halt, fetch fault: the dispatch chain alone runs these, and they end
    every superblock).
    """
    name: str
    kinds: tuple
    reg_kinds: frozenset
    shape: str
    body: tuple
    cond: Optional[str] = None
    target: str = "$e1"
    mispredict: str = "False"


ENTRIES: list = []


def _entry(name, kinds, shape, body="", reg=(), **kw) -> None:
    ENTRIES.append(Entry(name, tuple(kinds), frozenset(reg), shape,
                         parse(body), **kw))


def _pair(name, imm_kind, body) -> None:
    """An immediate kind and its register twin (``imm_kind + 1``)."""
    _entry(name, (imm_kind, imm_kind + 1), "op", body, reg=(imm_kind + 1,))


_WRAP = """\
value = {}
if value > _MX or value < _MN:
    value = ((value - _MN) & _UM) + _MN
regs[$e1] = value
"""

_TLB = """\
@tlb()
    if not dtlb_lookup(ea, memory):
        $CYC += $DTLB_MISS
        @brk()
        @arm("dtlbm", 1)
    seg = dtlb._seg_cache
    seg_base = seg.base
    seg_end = seg.end
    seg_shift = seg.page_shift
    ?not CHAIN
    seg_tag = seg.seg_id << $TAG_SHIFT
    ?end
    mru_page = ea >> seg_shift
"""

# Loads and stores: DTLB, then D$ (a miss goes to E$), then the software
# prefetch wait/expiry, then the fault checks, then the data move.  The
# coherence hooks and the extended events (ldbytes/stbytes/ldlat) render
# into the dispatch chain only: runs that need them never reach a block.
_entry("load", (D.K_LDX_I, D.K_LDX_R, D.K_LDUB_I, D.K_LDUB_R), "mem", """\
ea = regs[$e2] + $o3
@enter(load=True)
""" + _TLB + """\
?PF
full_miss = False
?end
line = ea >> $DC_SHIFT
dcset = dc_sets[line & $DC_MASK]
@dprobe("dc_r", False)
    @brk()
    ?CHAIN
    if coh is not None:
        _cp = coh.load_miss(core_id, ea)
        if _cp:
            cycles += _cp
            @arm("cohm", 1)
    ?end
    @arm("dcrm", 1)
    $CYC += $EC_HIT
    @arm("ecref", 1)
    if not ecache_access(ea, False):
        ?PF
        full_miss = True
        ?end
        $CYC += $EC_MISS
        ecs += $EC_MISS
        @arm("ecrm", 1)
        @arm("ecstall", "$EC_MISS")
?PF
if inflight:
    ready = inflight_pop(ea >> $EC_LINE_SHIFT, None)
    if ready is not None and not full_miss and ready > $LCYC:
        wait = ready - ($LCYC)
        $CYC += wait
        ecs += wait
        @brk()
    if inflight:
        _stale($NOW)
?end
?k < 2
if ea & 7:
    @fault('MemoryFault(ea, "misaligned 8-byte load")')
?end
widx = (ea - $MEM_BASE) >> 3
if widx < 0 or widx >= $NWORDS:
    @fault("MemoryFault(ea)")
?$e1
?k < 2
regs[$e1] = words[widx]
?else
regs[$e1] = (words[widx] >> ((ea & 7) << 3)) & 0xFF
?end
?end
?CHAIN
@arm("ldbytes", "8 if k < 2 else 1", flag="brk")
@arm("ldlat", 1, flag="brk", extra="cycles - lcyc + base_cycles")
?end
""", reg=(D.K_LDX_R, D.K_LDUB_R))

_entry("store", (D.K_STX_I, D.K_STX_R, D.K_STB_I, D.K_STB_R), "mem", """\
ea = regs[$e2] + $o3
@enter(load=False)
""" + _TLB + """\
?CHAIN
if coh is not None and coh_owner.get(ea >> coh_shift) != core_id:
    _cp = coh.store(core_id, ea)
    if _cp:
        cycles += _cp
        brk = True
        @arm("cohm", 1)
?end
line = ea >> $DC_SHIFT
dcset = dc_sets[line & $DC_MASK]
@dprobe("dc_w", True)
    @brk()
    ?$STORE_STALL
    $CYC += $STORE_STALL
    ?end
    @arm("ecref", 1)
    ecache_access(ea, True)
?PF
if inflight:
    inflight_pop(ea >> $EC_LINE_SHIFT, None)
    if inflight:
        _stale($NOW)
?end
?k < 6
if ea & 7:
    @fault('MemoryFault(ea, "misaligned 8-byte store")')
?end
widx = (ea - $MEM_BASE) >> 3
if widx < 0 or widx >= $NWORDS:
    @fault("MemoryFault(ea)")
?k < 6
words[widx] = regs[$e1]
?else
shift = (ea & 7) << 3
word = words[widx] & _UM
word = (word & ~(0xFF << shift)) | ((regs[$e1] & 0xFF) << shift)
if word > _MX:
    word -= _U64
words[widx] = word
?end
?CHAIN
@arm("stbytes", "8 if k < 6 else 1", flag="brk")
?end
""", reg=(D.K_STX_R, D.K_STB_R))

_pair("prefetch", D.K_PREFETCH_I, """\
ea = regs[$e2] + $o3
try:
    translated = dtlb_peek(ea, memory)
except MemoryFault:
    translated = False
if translated and not dcache_access(ea, False):
    if not ecache_access(ea, False):
        inflight[ea >> $EC_LINE_SHIFT] = $NOW + $EC_MISS
""")
_entry("set", (D.K_SET,), "op", "regs[$e1] = $e2")
_entry("mov", (D.K_MOV,), "op", "regs[$e1] = regs[$e2]")
_entry("nop", (D.K_NOP,), "op")
_entry("cmp", (D.K_CMP_I, D.K_CMP_R), "op", "cc = regs[$e1] - $o2",
       reg=(D.K_CMP_R,))
_pair("add", D.K_ADD_I, _WRAP.format("regs[$e2] + $o3"))
_pair("sub", D.K_SUB_I, _WRAP.format("regs[$e2] - $o3"))
_pair("mulx", D.K_MULX_I, _WRAP.format("regs[$e2] * $o3"))
_pair("sllx", D.K_SLLX_I, _WRAP.format("regs[$e2] << $s3"))
_pair("and", D.K_AND_I, "regs[$e1] = regs[$e2] & $o3")
_pair("or", D.K_OR_I, "regs[$e1] = regs[$e2] | $o3")
_pair("xor", D.K_XOR_I, "regs[$e1] = regs[$e2] ^ $o3")
_pair("srax", D.K_SRAX_I, "regs[$e1] = regs[$e2] >> $s3")
_pair("srlx", D.K_SRLX_I, """\
value = (regs[$e2] & _UM) >> $s3
if value > _MX:
    value -= _U64
regs[$e1] = value
""")
_entry("div", (D.K_SDIVX_I, D.K_SDIVX_R, D.K_SMODX_I, D.K_SMODX_R), "op", """\
?k & 1
_b = regs[$e3]
?else
_b = $e3
?end
_a = regs[$e2]
?k & 1 or not $e3
if _b == 0:
    @fault('DivisionByZero(f"at pc 0x{$pc:x}")')
?end
_q = abs(_a) // abs(_b)
if (_a < 0) != (_b < 0):
    _q = -_q
?$e1
?k < 36
regs[$e1] = _q
?else
regs[$e1] = _a - _q * _b
?end
?end
""", reg=(D.K_SDIVX_R, D.K_SMODX_R))

_entry("ba", (D.K_BA,), "jump")
for _name, _cond in (("be", "cc == 0"), ("bne", "cc != 0"), ("bg", "cc > 0"),
                     ("bge", "cc >= 0"), ("bl", "cc < 0"), ("ble", "cc <= 0")):
    _entry(_name, (getattr(D, "K_" + _name.upper()),), "jump", cond=_cond,
           mispredict=f"({_cond}) != btfn_backward($e1, i)")
_entry("call", (D.K_CALL,), "jump", f"""\
regs[{REG_RA}] = $pc
callstack_append($pc)
""")
# an indirect target: the BTFN static predictor always mispredicts it;
# an unrepresentable target routes through the sentinel row, which
# raises with the real address
_entry("jmpl", (D.K_JMPL,), "jump", """\
?$e1
regs[$e1] = $pc
?end
_t = regs[$e2] + ($e3)
?$e4
if callstack:
    callstack_pop()
?end
_ti = (_t - $TB) >> 2
if _t & 3 or _ti < 0 or _ti > $NCODE:
    $BAD_PC = _t
    _ti = $NCODE
""", target="_ti", mispredict="True")

# the kernel service sees a consistent CPU and machine (state synced, MRU
# tallies flushed) and may remap memory, so the segment cache is dropped
_entry("ta", (D.K_TA,), "stop", """\
service = self.kernel_service
if service is None:
    raise MachineError(f"trap {$e1} with no kernel")
self.pc = $pc
self.npc = bad_pc if ni == ncode and bad_pc is not None else tb + (ni << 2)
self.cycles, self.instr_count = cycles, instr_count
self.ecstall_cycles = ecs
@flush()
service(self, $e1)
cycles += TRAP_CYCLES
self.system_cycles += TRAP_CYCLES
seg_base, seg_end, mru_page = 1, 0, -1
@retire()
break
""")
_entry("halt", (D.K_HALT,), "stop", """\
self.halted = True
self.exit_code = regs[8]
@retire()
break
""")
# fetch fault: fell off the end of text, or a control transfer targeted a
# bad address
_entry("bad", (D.K_BAD,), "stop", """\
p = $e1
if p is None:
    p = bad_pc if bad_pc is not None else $pc
bad_pc = p
raise IllegalInstruction(f"fetch from 0x{p:x}")
""")

#: kind -> its entry
TABLE = {k: entry for entry in ENTRIES for k in entry.kinds}

#: the dispatch chain's arms, hottest first by the dynamic opcode mix of
#: the MCF workload; the memory, prefetch and division arms each cover
#: their whole entry and select the kind inside the arm
CHAIN_ORDER = tuple(
    TABLE[k].kinds if TABLE[k].name in ("load", "store", "prefetch", "div")
    else (k,)
    for k in (
        D.K_LDX_I, D.K_SET, D.K_ADD_R, D.K_ADD_I, D.K_NOP, D.K_CMP_R,
        D.K_CMP_I, D.K_STX_I, D.K_MOV, D.K_BGE, D.K_BA, D.K_MULX_R, D.K_BL,
        D.K_BNE, D.K_SLLX_I, D.K_SUB_R, D.K_SUB_I, D.K_BE, D.K_BG, D.K_BLE,
        D.K_MULX_I, D.K_CALL, D.K_JMPL, D.K_PREFETCH_I, D.K_AND_R,
        D.K_AND_I, D.K_OR_R, D.K_OR_I, D.K_XOR_R, D.K_XOR_I, D.K_SLLX_R,
        D.K_SRLX_I, D.K_SRLX_R, D.K_SRAX_I, D.K_SRAX_R, D.K_SDIVX_I,
        D.K_TA, D.K_HALT, D.K_BAD,
    )
)


def straight(kind) -> bool:
    """Whether ``kind`` has an entry that retires straight-line (next row
    is ``row + 1``); kinds without an entry end every superblock."""
    entry = TABLE.get(kind)
    return entry is not None and entry.shape in ("op", "mem")


__all__ = ["CHAIN_ORDER", "ENTRIES", "Entry", "HUB", "TABLE", "WRAP",
           "hub_load", "hub_store", "operand_env", "parse", "render",
           "straight", "subst"]
