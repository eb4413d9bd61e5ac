"""Tests for the experiment directory format (save/open round-trip)."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_executable, tiny_config
from repro.collect.collector import CollectConfig, collect
from repro.collect.experiment import ClockEvent, Experiment, HwcEvent, TruthEvent
from repro.errors import ExperimentCorrupt, ExperimentError

SRC = """
long main(long *input, long n) {
    long *a; long i; long s;
    a = (long *) malloc(4096);
    s = 0;
    for (i = 0; i < 512; i++) a[i] = i;
    for (i = 0; i < 512; i++) s = s + a[i];
    return s & 255;
}
"""


@pytest.fixture(scope="module")
def experiment():
    program = build_executable(SRC)
    cfg = CollectConfig(
        clock_profiling=True, clock_interval=211, counters=["+ecrm,13", "+ecstall,59"]
    )
    return collect(program, tiny_config(), cfg)


class TestEventSerialization:
    def test_hwc_event_roundtrip(self):
        event = HwcEvent(
            counter=1, event="ecrm", weight=13, trap_pc=0x100003000,
            candidate_pc=0x100002FF8, effective_address=0x100400020,
            status="found", ea_reason="", cycle=123456, callstack=(1, 2, 3),
        )
        assert HwcEvent.from_json(event.to_json()) == event

    def test_hwc_event_with_nones(self):
        event = HwcEvent(
            counter=0, event="ecref", weight=7, trap_pc=16,
            candidate_pc=None, effective_address=None,
            status="not_found", ea_reason="no_candidate", cycle=1, callstack=(),
        )
        assert HwcEvent.from_json(event.to_json()) == event

    def test_clock_event_roundtrip(self):
        event = ClockEvent(pc=0x100003210, cycle=999, callstack=(0x100003000,))
        assert ClockEvent.from_json(event.to_json()) == event


#: the journal wire format, as a spec the direct encoders must match:
#: ``dataclasses.asdict`` in field order, each optional field dropped
#: while it holds its default, compact separators
OMITTED_AT_DEFAULT = {
    HwcEvent: {"latency": None, "scale": 1, "core": 0, "thread": 0},
    TruthEvent: {"true_latency": None, "core": 0, "thread": 0},
    ClockEvent: {"core": 0, "thread": 0},
}


def reference_to_json(event) -> str:
    record = dataclasses.asdict(event)
    for name, default in OMITTED_AT_DEFAULT[type(event)].items():
        if record[name] == default:
            del record[name]
    return json.dumps(record, separators=(",", ":"))


HWC_PLAIN = HwcEvent(
    counter=1, event="ecrm", weight=13, trap_pc=4096, candidate_pc=4088,
    effective_address=8192, status="found", ea_reason="", cycle=123,
    callstack=(1, 2, 3),
)
HWC_FULL = HwcEvent(
    counter=0, event="ldlat", weight=26, trap_pc=16, candidate_pc=None,
    effective_address=None, status="not_found", ea_reason="no_candidate",
    cycle=1, callstack=(), coalesced=2, latency=40, scale=2, core=1, thread=3,
)
TRUTH_PLAIN = TruthEvent(
    seq=0, counter=1, event="ecrm", trap_pc=4096, cycle=123,
    true_trigger_pc=4088, true_effective_address=8192, true_skid=2,
    coalesced=1, regs=(0, 7, -1),
)
TRUTH_FULL = TruthEvent(
    seq=9, counter=0, event="ldlat", trap_pc=16, cycle=1,
    true_trigger_pc=8, true_effective_address=None, true_skid=0,
    coalesced=2, regs=(), true_latency=40, core=1, thread=3,
)
CLOCK_PLAIN = ClockEvent(pc=4096, cycle=999, callstack=(4000,))
CLOCK_FULL = ClockEvent(pc=4096, cycle=999, callstack=(), core=1, thread=2)

WIRE_LINES = [
    (HWC_PLAIN,
     '{"counter":1,"event":"ecrm","weight":13,"trap_pc":4096,'
     '"candidate_pc":4088,"effective_address":8192,"status":"found",'
     '"ea_reason":"","cycle":123,"callstack":[1,2,3],"coalesced":1}'),
    (HWC_FULL,
     '{"counter":0,"event":"ldlat","weight":26,"trap_pc":16,'
     '"candidate_pc":null,"effective_address":null,"status":"not_found",'
     '"ea_reason":"no_candidate","cycle":1,"callstack":[],"coalesced":2,'
     '"latency":40,"scale":2,"core":1,"thread":3}'),
    (TRUTH_PLAIN,
     '{"seq":0,"counter":1,"event":"ecrm","trap_pc":4096,"cycle":123,'
     '"true_trigger_pc":4088,"true_effective_address":8192,"true_skid":2,'
     '"coalesced":1,"regs":[0,7,-1]}'),
    (TRUTH_FULL,
     '{"seq":9,"counter":0,"event":"ldlat","trap_pc":16,"cycle":1,'
     '"true_trigger_pc":8,"true_effective_address":null,"true_skid":0,'
     '"coalesced":2,"regs":[],"true_latency":40,"core":1,"thread":3}'),
    (CLOCK_PLAIN, '{"pc":4096,"cycle":999,"callstack":[4000]}'),
    (CLOCK_FULL,
     '{"pc":4096,"cycle":999,"callstack":[],"core":1,"thread":2}'),
]


class TestWireFormat:
    """The journal bytes, pinned literally: a format drift on every engine
    at once would pass the engine-vs-engine golden tests."""

    @pytest.mark.parametrize("event,line", WIRE_LINES)
    def test_encodes_to_pinned_line(self, event, line):
        assert event.to_json() == line
        assert reference_to_json(event) == line

    @pytest.mark.parametrize("event,line", WIRE_LINES)
    def test_decodes_pinned_line(self, event, line):
        assert type(event).from_json(line) == event
        # as read from a journal, and with JSON's insignificant whitespace
        assert type(event).from_json(f" {line}\n") == event

    def test_older_line_without_coalesced_decodes_with_default(self):
        record = json.loads(HWC_PLAIN.to_json())
        del record["coalesced"]
        assert HwcEvent.from_json(json.dumps(record)) == HWC_PLAIN

    def test_explicit_defaults_decode(self):
        record = json.loads(HWC_PLAIN.to_json())
        record.update(latency=None, scale=1, core=0, thread=0)
        assert HwcEvent.from_json(json.dumps(record)) == HWC_PLAIN


_ints = st.integers(min_value=-(1 << 64), max_value=1 << 64)
_opt_ints = st.none() | _ints
_text = st.text(max_size=8)
_int_tuples = st.lists(_ints, max_size=40).map(tuple)

EVENTS = st.one_of(
    st.builds(
        HwcEvent, counter=_ints, event=_text, weight=_ints, trap_pc=_ints,
        candidate_pc=_opt_ints, effective_address=_opt_ints, status=_text,
        ea_reason=_text, cycle=_ints, callstack=_int_tuples, coalesced=_ints,
        latency=_opt_ints, scale=st.just(1) | _ints,
        core=st.just(0) | _ints, thread=st.just(0) | _ints,
    ),
    st.builds(
        TruthEvent, seq=_ints, counter=_ints, event=_text, trap_pc=_ints,
        cycle=_ints, true_trigger_pc=_ints, true_effective_address=_opt_ints,
        true_skid=_ints, coalesced=_ints, regs=_int_tuples,
        true_latency=_opt_ints, core=st.just(0) | _ints,
        thread=st.just(0) | _ints,
    ),
    st.builds(
        ClockEvent, pc=_ints, cycle=_ints, callstack=_int_tuples,
        core=st.just(0) | _ints, thread=st.just(0) | _ints,
    ),
)


@settings(max_examples=200, deadline=None)
@given(EVENTS)
def test_encoder_matches_reference_and_round_trips(event):
    line = event.to_json()
    assert line == reference_to_json(event)
    assert type(event).from_json(line) == event


def _with(base, **changes) -> str:
    record = json.loads(base.to_json())
    record.update(changes)
    return json.dumps(record)


MISTYPED_LINES = [
    (HwcEvent, _with(HWC_PLAIN, weight="x"), "weight"),
    (HwcEvent, _with(HWC_PLAIN, weight=1.5), "weight"),
    (HwcEvent, _with(HWC_PLAIN, counter=True), "counter"),
    (HwcEvent, _with(HWC_PLAIN, trap_pc=None), "trap_pc"),
    (HwcEvent, _with(HWC_PLAIN, candidate_pc="4088"), "candidate_pc"),
    (HwcEvent, _with(HWC_PLAIN, event=7), "event"),
    (HwcEvent, _with(HWC_PLAIN, callstack="abc"), "callstack"),
    (HwcEvent, _with(HWC_PLAIN, callstack=[1, "2"]), "callstack"),
    (HwcEvent, _with(HWC_PLAIN, callstack=[True]), "callstack"),
    (HwcEvent, _with(HWC_PLAIN, latency=False), "latency"),
    (HwcEvent, _with(HWC_PLAIN, scale="2"), "scale"),
    (TruthEvent, _with(TRUTH_PLAIN, regs={"0": 1}), "regs"),
    (TruthEvent, _with(TRUTH_PLAIN, regs=[0, None]), "regs"),
    (TruthEvent, _with(TRUTH_PLAIN, true_effective_address=[1]),
     "true_effective_address"),
    (TruthEvent, _with(TRUTH_PLAIN, core=None), "core"),
    (ClockEvent, _with(CLOCK_PLAIN, pc="4096"), "pc"),
    (ClockEvent, _with(CLOCK_PLAIN, callstack=""), "callstack"),
    (ClockEvent, _with(CLOCK_PLAIN, thread=True), "thread"),
]

MALFORMED_LINES = [
    (HwcEvent, _with(HWC_PLAIN, extra=1), "unknown keys ['extra']"),
    (HwcEvent, HWC_PLAIN.to_json().replace('"cycle":123,', ""), "cycle"),
    (TruthEvent, "[1, 2, 3]", "bad truth event"),
    (ClockEvent, _with(CLOCK_PLAIN, weight=1), "unknown keys ['weight']"),
    (ClockEvent, '{"pc": 1, "cycle"', "bad clock event"),
]


class TestDecoderFailsClosed:
    @pytest.mark.parametrize("cls,line,field", MISTYPED_LINES)
    def test_mistyped_field_is_named(self, cls, line, field):
        with pytest.raises(ExperimentCorrupt) as info:
            cls.from_json(line, source="x.jsonl", lineno=7)
        assert (info.value.file, info.value.line) == ("x.jsonl", 7)
        assert field in str(info.value)

    @pytest.mark.parametrize("cls,line,detail", MALFORMED_LINES)
    def test_malformed_line_is_rejected(self, cls, line, detail):
        with pytest.raises(ExperimentCorrupt) as info:
            cls.from_json(line, source="x.jsonl", lineno=3)
        assert detail in str(info.value)


class TestDirectoryFormat:
    def test_save_creates_er_directory(self, experiment, tmp_path):
        path = experiment.save(tmp_path / "run1")
        assert path.name == "run1.er"
        for name in ("log.txt", "info.json", "program.pkl", "clock.jsonl"):
            assert (path / name).exists()
        assert (path / "hwc0.jsonl").exists()
        assert (path / "hwc1.jsonl").exists()

    def test_info_json_is_valid(self, experiment, tmp_path):
        path = experiment.save(tmp_path / "run2")
        info = json.loads((path / "info.json").read_text())
        assert info["totals"]["cycles"] > 0
        assert len(info["counters"]) == 2

    def test_roundtrip_preserves_events(self, experiment, tmp_path):
        path = experiment.save(tmp_path / "run3")
        loaded = Experiment.open(path)
        assert len(loaded.hwc_events) == len(experiment.hwc_events)
        assert len(loaded.clock_events) == len(experiment.clock_events)
        assert sorted(loaded.hwc_events, key=lambda e: (e.cycle, e.counter)) == sorted(
            experiment.hwc_events, key=lambda e: (e.cycle, e.counter)
        )
        assert loaded.info.totals == experiment.info.totals

    def test_roundtrip_preserves_program(self, experiment, tmp_path):
        path = experiment.save(tmp_path / "run4")
        loaded = Experiment.open(path)
        assert len(loaded.program.code) == len(experiment.program.code)
        assert loaded.program.function("main").start == (
            experiment.program.function("main").start
        )

    def test_reduction_works_on_reloaded_experiment(self, experiment, tmp_path):
        from repro.analyze.reduce import reduce_experiment

        path = experiment.save(tmp_path / "run5")
        loaded = Experiment.open(path)
        reduced = reduce_experiment(loaded)
        direct = reduce_experiment(experiment)
        assert dict(reduced.total) == pytest.approx(dict(direct.total))

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(ExperimentError):
            Experiment.open(tmp_path / "nope.er")

    def test_open_rejects_incomplete_directory(self, tmp_path):
        bad = tmp_path / "bad.er"
        bad.mkdir()
        with pytest.raises(ExperimentError):
            Experiment.open(bad)

    def test_save_requires_program(self, tmp_path):
        exp = Experiment("empty")
        with pytest.raises(ExperimentError):
            exp.save(tmp_path / "empty")


class TestMapFile:
    def test_map_txt_written(self, experiment, tmp_path):
        path = experiment.save(tmp_path / "mapped")
        text = (path / "map.txt").read_text()
        assert "main" in text
        assert "librt" in text       # runtime module present
        assert "hwcprof" in text     # user module flagged
