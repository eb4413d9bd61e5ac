"""The instruction-semantics table (DESIGN.md §11.6): one entry per kind,
rendered into both ``CPU.run``'s dispatch chain and the trace blocks."""

import inspect

from repro import build_executable
from repro.isa import decode as D
from repro.lang.fuzz import generate_source
from repro.machine import semantics as S
from repro.machine.cpu import CPU


def _all_kinds():
    return {v for name, v in vars(D).items() if name.startswith("K_")}


def test_every_kind_has_exactly_one_entry():
    covered = [k for entry in S.ENTRIES for k in entry.kinds]
    assert sorted(covered) == sorted(_all_kinds())
    assert len(covered) == len(set(covered))
    assert set(S.TABLE) == _all_kinds()


def test_chain_order_covers_every_kind_once():
    ordered = [k for arm in S.CHAIN_ORDER for k in arm]
    assert sorted(ordered) == sorted(_all_kinds())
    for arm in S.CHAIN_ORDER:
        assert len({id(S.TABLE[k]) for k in arm}) == 1


def test_predecode_emits_only_table_kinds():
    program = build_executable(generate_source(3, 8), name="sem3")
    kinds = {row[0] for row in D.predecode(program.code, program.text_base)}
    assert kinds <= set(S.TABLE)


def test_run_is_rendered_once_with_visible_source():
    source = inspect.getsource(CPU.run)
    assert source.startswith("def run(")
    for entry in S.ENTRIES:
        assert f"# {entry.name}\n" in source
    assert CPU.run.__code__.co_filename.startswith("<rendered ")
    assert CPU.run.__qualname__ == "CPU.run"


def test_static_conditions_fold_and_dynamic_ones_stay():
    class Tier:
        flags = (("CHAIN", False), ("PF", False))

    items = S.parse("?k < 2\na = 1\n?else\na = 2\n?end\n?$e1\nb = $e1\n?end")
    assert S.render(items, Tier, (0,), {"e1": "5"}) == ["a = 1", "b = 5"]
    assert S.render(items, Tier, (0, 2), {"e1": "e[1]"}) == [
        "if k < 2:", "    a = 1", "else:", "    a = 2",
        "if e[1]:", "    b = e[1]"]
