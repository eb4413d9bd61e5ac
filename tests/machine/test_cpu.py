"""Unit tests for the CPU: ALU semantics, delay slots, traps, skid.

Every case runs on all three engines: the rendered dispatch chain
(``fast``, the classes as written), then the reference oracle and the
trace tier with blocks compiled on first entry (the ``...Reference`` and
``...Trace`` subclasses at the bottom), so each kind's semantics-table
entry is checked on both of its renderings.
"""

import pytest

from repro.config import ARENA_BASE, TraceEngineConfig, tiny_config
from repro.errors import DivisionByZero, IllegalInstruction, MemoryFault
from repro.isa.instructions import Instr, Op
from repro.isa.registers import REG_RA, reg_number
from repro.machine.counters import CounterSpec
from repro.machine.machine import Machine

O0 = reg_number("%o0")
O1 = reg_number("%o1")
G1 = reg_number("%g1")
G2 = reg_number("%g2")
G3 = reg_number("%g3")

TEXT = ARENA_BASE + 0x1000
DATA = ARENA_BASE + 0x8000


#: the engine the current test runs on (set by the autouse fixture)
ENGINE = ["fast"]
#: compile every block on first entry, however short
EAGER_TRACE = TraceEngineConfig(hot_threshold=1, min_block_instructions=1)


@pytest.fixture(autouse=True)
def engine(request):
    ENGINE[0] = getattr(request.cls, "ENGINE", "fast")
    yield ENGINE[0]
    ENGINE[0] = "fast"


def make_machine(code, segments=True):
    machine = Machine(tiny_config())
    machine.cpu.engine = ENGINE[0]
    machine.cpu.trace_config = EAGER_TRACE
    if segments:
        machine.memory.add_segment("text", ARENA_BASE, 0x8000, 1024)
        machine.memory.add_segment("data", DATA, 0x8000, 1024)
    cpu = machine.cpu
    cpu.code = list(code) + [Instr(Op.HALT)]
    for index, instr in enumerate(cpu.code):
        instr.addr = TEXT + 4 * index
    cpu.text_base = TEXT
    cpu.set_entry(TEXT)
    return machine


def run(code, max_instructions=10_000):
    machine = make_machine(code)
    machine.cpu.run(max_instructions=max_instructions)
    return machine


class TestAlu:
    def test_set_and_add(self):
        m = run([
            Instr(Op.SET, O0, imm=40),
            Instr(Op.ADD, O0, O0, imm=2),
        ])
        assert m.cpu.regs[O0] == 42

    def test_add_reg_reg(self):
        m = run([
            Instr(Op.SET, G1, imm=7),
            Instr(Op.SET, G2, imm=5),
            Instr(Op.ADD, O0, G1, rs2=G2),
        ])
        assert m.cpu.regs[O0] == 12

    def test_sub_wraps_at_64_bits(self):
        m = run([
            Instr(Op.SET, G1, imm=-(1 << 63)),
            Instr(Op.SUB, O0, G1, imm=1),
        ])
        assert m.cpu.regs[O0] == (1 << 63) - 1

    def test_mulx_wraps(self):
        m = run([
            Instr(Op.SET, G1, imm=1 << 40),
            Instr(Op.MULX, O0, G1, rs2=G1),
        ])
        assert m.cpu.regs[O0] == 0  # 2^80 mod 2^64

    def test_sdivx_truncates_toward_zero(self):
        m = run([
            Instr(Op.SET, G1, imm=-7),
            Instr(Op.SDIVX, O0, G1, imm=2),
        ])
        assert m.cpu.regs[O0] == -3

    def test_smodx_c_semantics(self):
        m = run([
            Instr(Op.SET, G1, imm=-7),
            Instr(Op.SMODX, O0, G1, imm=2),
        ])
        assert m.cpu.regs[O0] == -1

    def test_division_by_zero_faults(self):
        with pytest.raises(DivisionByZero):
            run([Instr(Op.SET, G1, imm=1), Instr(Op.SDIVX, O0, G1, imm=0)])

    def test_logic_ops(self):
        m = run([
            Instr(Op.SET, G1, imm=0b1100),
            Instr(Op.AND, O0, G1, imm=0b1010),
            Instr(Op.OR, O1, G1, imm=0b0001),
            Instr(Op.XOR, G2, G1, imm=0b1111),
        ])
        assert m.cpu.regs[O0] == 0b1000
        assert m.cpu.regs[O1] == 0b1101
        assert m.cpu.regs[G2] == 0b0011

    def test_shifts(self):
        m = run([
            Instr(Op.SET, G1, imm=-16),
            Instr(Op.SLLX, O0, G1, imm=2),
            Instr(Op.SRAX, O1, G1, imm=2),
            Instr(Op.SRLX, G2, G1, imm=60),
        ])
        assert m.cpu.regs[O0] == -64
        assert m.cpu.regs[O1] == -4
        assert m.cpu.regs[G2] == 15

    def test_shift_amount_masked_to_6_bits(self):
        m = run([
            Instr(Op.SET, G1, imm=1),
            Instr(Op.SLLX, O0, G1, imm=65),  # behaves like << 1
        ])
        assert m.cpu.regs[O0] == 2

    def test_writes_to_g0_ignored(self):
        m = run([Instr(Op.SET, 0, imm=99)])
        assert m.cpu.regs[0] == 0

    def test_mov(self):
        m = run([Instr(Op.SET, G1, imm=5), Instr(Op.MOV, O0, G1)])
        assert m.cpu.regs[O0] == 5


class TestBranches:
    def test_delay_slot_executes_on_taken_branch(self):
        m = run([
            Instr(Op.SET, G1, imm=0),
            Instr(Op.CMP, rs1=0, imm=0),
            Instr(Op.BE, target=TEXT + 6 * 4),
            Instr(Op.SET, G1, imm=1),   # delay slot: executes
            Instr(Op.SET, G2, imm=99),  # skipped
            Instr(Op.NOP),
            Instr(Op.NOP),              # branch target
        ])
        assert m.cpu.regs[G1] == 1
        assert m.cpu.regs[G2] == 0

    def test_delay_slot_executes_on_untaken_branch(self):
        m = run([
            Instr(Op.CMP, rs1=0, imm=1),  # 0 != 1
            Instr(Op.BE, target=TEXT + 20 * 4),
            Instr(Op.SET, G1, imm=1),     # delay slot still executes
            Instr(Op.SET, G2, imm=2),     # fallthrough path
        ])
        assert m.cpu.regs[G1] == 1
        assert m.cpu.regs[G2] == 2

    @pytest.mark.parametrize(
        "op,cc_value,taken",
        [
            (Op.BE, 0, True), (Op.BE, 1, False),
            (Op.BNE, 1, True), (Op.BNE, 0, False),
            (Op.BG, 1, True), (Op.BG, 0, False), (Op.BG, -1, False),
            (Op.BGE, 0, True), (Op.BGE, -1, False),
            (Op.BL, -1, True), (Op.BL, 0, False),
            (Op.BLE, 0, True), (Op.BLE, 1, False),
            (Op.BA, 5, True),
        ],
    )
    def test_condition_codes(self, op, cc_value, taken):
        m = run([
            Instr(Op.SET, G1, imm=cc_value),
            Instr(Op.CMP, rs1=G1, imm=0),
            Instr(op, target=TEXT + 6 * 4),
            Instr(Op.NOP),
            Instr(Op.SET, G2, imm=1),  # only on fallthrough
            Instr(Op.NOP),
            Instr(Op.NOP),             # target
        ])
        assert (m.cpu.regs[G2] == 0) == taken

    def test_call_and_retl(self):
        # layout: call f; nop; set o1,7; halt ... f: set o0,3; retl; nop
        code = [
            Instr(Op.CALL, target=TEXT + 5 * 4),  # 0
            Instr(Op.NOP),                        # 1 delay
            Instr(Op.SET, O1, imm=7),             # 2 (return lands here)
            Instr(Op.HALT),                       # 3
            Instr(Op.NOP),                        # 4
            Instr(Op.SET, O0, imm=3),             # 5: f
            Instr(Op.JMPL, 0, REG_RA, imm=8),     # 6: retl
            Instr(Op.NOP),                        # 7 delay
        ]
        m = run(code)
        assert m.cpu.regs[O0] == 3
        assert m.cpu.regs[O1] == 7

    def test_callstack_tracked(self):
        code = [
            Instr(Op.CALL, target=TEXT + 4 * 4),
            Instr(Op.NOP),
            Instr(Op.HALT),
            Instr(Op.NOP),
            Instr(Op.SET, O0, imm=1),  # callee
            Instr(Op.JMPL, 0, REG_RA, imm=8),
            Instr(Op.NOP),
        ]
        machine = make_machine(code)
        depths = []
        machine.cpu.clock_handler = lambda pc, cyc, stack: depths.append(len(stack))
        machine.cpu.enable_clock_profiling(1)
        machine.cpu.run(max_instructions=100)
        assert max(depths) == 1
        assert depths[-1] == 0


class TestMemoryOps:
    def test_store_load_roundtrip(self):
        m = run([
            Instr(Op.SET, G1, imm=DATA),
            Instr(Op.SET, G2, imm=1234),
            Instr(Op.STX, G2, G1, imm=16),
            Instr(Op.LDX, O0, G1, imm=16),
        ])
        assert m.cpu.regs[O0] == 1234

    def test_reg_plus_reg_addressing(self):
        m = run([
            Instr(Op.SET, G1, imm=DATA),
            Instr(Op.SET, G2, imm=24),
            Instr(Op.SET, G3, imm=-5),
            Instr(Op.STX, G3, G1, rs2=G2),
            Instr(Op.LDX, O0, G1, rs2=G2),
        ])
        assert m.cpu.regs[O0] == -5

    def test_byte_ops(self):
        m = run([
            Instr(Op.SET, G1, imm=DATA),
            Instr(Op.SET, G2, imm=0x1FF),
            Instr(Op.STB, G2, G1, imm=3),
            Instr(Op.LDUB, O0, G1, imm=3),
        ])
        assert m.cpu.regs[O0] == 0xFF

    def test_misaligned_ldx_faults(self):
        with pytest.raises(MemoryFault):
            run([Instr(Op.SET, G1, imm=DATA + 4), Instr(Op.LDX, O0, G1, imm=0)])

    def test_cache_counters_updated(self):
        m = run([
            Instr(Op.SET, G1, imm=DATA),
            Instr(Op.LDX, O0, G1, imm=0),
            Instr(Op.LDX, O0, G1, imm=8),   # same 32-byte line: D$ hit
            Instr(Op.LDX, O0, G1, imm=64),  # new line
        ])
        assert m.dcache.read_refs == 3
        assert m.dcache.read_misses == 2

    def test_miss_costs_cycles(self):
        hit = run([
            Instr(Op.SET, G1, imm=DATA),
            Instr(Op.LDX, O0, G1, imm=0),
            Instr(Op.LDX, O0, G1, imm=0),
        ]).cpu.cycles
        miss = run([
            Instr(Op.SET, G1, imm=DATA),
            Instr(Op.LDX, O0, G1, imm=0),
            Instr(Op.LDX, O0, G1, imm=256),
        ]).cpu.cycles
        assert miss > hit

    def test_ecstall_accumulates_on_load_misses_only(self):
        m = run([
            Instr(Op.SET, G1, imm=DATA),
            Instr(Op.SET, G2, imm=1),
            Instr(Op.STX, G2, G1, imm=1024),  # store miss: no stall
        ])
        assert m.cpu.ecstall_cycles == 0
        m2 = run([
            Instr(Op.SET, G1, imm=DATA),
            Instr(Op.LDX, O0, G1, imm=1024),  # load miss: stall
        ])
        assert m2.cpu.ecstall_cycles > 0


class TestTraps:
    def test_unmapped_fetch_is_illegal(self):
        machine = make_machine([Instr(Op.NOP)])
        machine.cpu.set_entry(TEXT + 0x100000)
        with pytest.raises(IllegalInstruction):
            machine.cpu.run(max_instructions=1)

    def test_kernel_trap_dispatch(self):
        calls = []

        def service(cpu, code):
            calls.append(code)
            cpu.regs[O0] = 77

        machine = make_machine([Instr(Op.TA, imm=5)])
        machine.cpu.kernel_service = service
        machine.cpu.run(max_instructions=10)
        assert calls == [5]
        assert machine.cpu.regs[O0] == 77
        assert machine.cpu.system_cycles > 0

    def test_halt_sets_exit_code(self):
        m = run([Instr(Op.SET, O0, imm=9)])
        assert m.cpu.halted and m.cpu.exit_code == 9

    def test_instruction_budget_stops_run(self):
        machine = make_machine([
            Instr(Op.BA, target=TEXT),
            Instr(Op.NOP),
        ])
        executed = machine.cpu.run(max_instructions=50)
        assert executed == 50 and not machine.cpu.halted


class TestOverflowTraps:
    def _machine_with_counter(self, code, spec_text="dtlbm,1"):
        machine = make_machine(code)
        spec = CounterSpec.parse(spec_text, 1)
        machine.configure_counters([spec])
        return machine

    def test_overflow_handler_called(self):
        code = [
            Instr(Op.SET, G1, imm=DATA),
            Instr(Op.LDX, O0, G1, imm=0),
            Instr(Op.NOP),
            Instr(Op.NOP),
        ]
        machine = self._machine_with_counter(code)
        snaps = []
        machine.cpu.overflow_handler = snaps.append
        machine.cpu.run(max_instructions=100)
        assert snaps, "expected at least one overflow"
        snap = snaps[0]
        assert snap.event.name == "dtlbm"
        # precise: trap PC is the instruction right after the load
        assert snap.trap_pc == TEXT + 2 * 4
        assert snap.regs[G1] == DATA

    def test_snapshot_carries_register_file(self):
        code = [
            Instr(Op.SET, G1, imm=DATA),
            Instr(Op.SET, G2, imm=31337),
            Instr(Op.LDX, O0, G1, imm=0),
            Instr(Op.NOP),
            Instr(Op.NOP),
        ]
        machine = self._machine_with_counter(code)
        snaps = []
        machine.cpu.overflow_handler = snaps.append
        machine.cpu.run(max_instructions=100)
        assert snaps[0].regs[G2] == 31337

    def test_clock_profiling_fires(self):
        code = [Instr(Op.NOP) for _ in range(50)]
        machine = make_machine(code)
        ticks = []
        machine.cpu.clock_handler = lambda pc, cyc, stack: ticks.append(pc)
        machine.cpu.enable_clock_profiling(10)
        machine.cpu.run(max_instructions=1000)
        assert len(ticks) >= 4
        for pc in ticks:
            assert TEXT <= pc <= TEXT + len(machine.cpu.code) * 4


# every case again on the reference oracle and on the trace tier
for _cls in (TestAlu, TestBranches, TestMemoryOps, TestTraps, TestOverflowTraps):
    for _engine in ("reference", "trace"):
        _name = _cls.__name__ + _engine.title()
        globals()[_name] = type(_name, (_cls,), {"ENGINE": _engine})
