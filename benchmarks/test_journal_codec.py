"""Engineering benchmark: journal event codec, per event.

Every counter-overflow trap of a profiled run becomes one HWC line and one
truth line in the experiment's journals, and every clock tick one clock
line; every analysis parses them back.  This benchmark times the three
event types' ``to_json``/``from_json`` on a fixed, seeded synthetic set
(callstacks of 1-6 frames, 32-register truth snapshots, some events
without a backtracking candidate or effective address) and reports the
median and interquartile range of microseconds per event over the
repetitions.

Absolute microseconds depend on the host, so the gate is a same-host
ratio: the HWC and truth encoders must stay at least 3x faster than the
``dataclasses.asdict`` encoder the journal used to be written with (the
wire-format spec ``reference_to_json`` of ``tests/collect/
test_experiment.py``, interleaved with them in every repetition).  Run
from the repository root, as ``python -m pytest``, so ``tests`` imports.
Set ``REPRO_BENCH_OUT=<path>`` to write the measurement as JSON (CI
writes it to an untracked file, prints it in the job summary and uploads
it; ``BENCH_journal_codec.json`` is a committed run).
"""

import json
import os
import platform
import random
import statistics
import time
from pathlib import Path

from repro.collect.experiment import ClockEvent, HwcEvent, TruthEvent
from tests.collect.test_experiment import reference_to_json

SEED = 1
EVENTS_PER_KIND = 2000
REPETITIONS = 7
#: minimum speedup of the direct encoders over ``reference_to_json``
MIN_ENCODE_SPEEDUP = 3.0

TEXT_BASE = 0x100000000


def synthetic_events(seed: int = SEED, count: int = EVENTS_PER_KIND) -> dict:
    """``count`` events of each type, drawn from one seeded RNG."""
    rng = random.Random(seed)

    def pc():
        return TEXT_BASE + 4 * rng.randrange(1 << 14)

    def callstack():
        return tuple(pc() for _ in range(rng.randint(1, 6)))

    def register():
        return rng.choice((0, rng.randrange(256), rng.randrange(1 << 64)))

    hwc, truth, clock = [], [], []
    cycle = 0
    for seq in range(count):
        cycle += rng.randrange(1, 5000)
        counter = rng.randrange(2)
        event = ("ecstall", "ecrm", "ecref", "dtlbm")[2 * counter + rng.randrange(2)]
        coalesced = 1 if rng.random() < 0.9 else rng.randint(2, 4)
        trap_pc = pc()
        found = rng.random() < 0.85
        candidate = trap_pc - 4 * rng.randint(1, 5) if found else None
        address = rng.randrange(1 << 36) if found and rng.random() < 0.9 else None
        hwc.append(HwcEvent(
            counter=counter, event=event, weight=97 * coalesced,
            trap_pc=trap_pc, candidate_pc=candidate,
            effective_address=address,
            status="found" if found else "not_found",
            ea_reason="" if address is not None else "no_candidate",
            cycle=cycle, callstack=callstack(), coalesced=coalesced,
        ))
        truth.append(TruthEvent(
            seq=seq, counter=counter, event=event, trap_pc=trap_pc,
            cycle=cycle, true_trigger_pc=trap_pc - 4 * rng.randint(1, 5),
            true_effective_address=rng.randrange(1 << 36),
            true_skid=rng.randint(1, 5), coalesced=coalesced,
            regs=tuple(register() for _ in range(32)),
        ))
        clock.append(ClockEvent(pc=pc(), cycle=cycle, callstack=callstack()))
    return {"hwc": hwc, "truth": truth, "clock": clock}


def _host() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"{model}, {os.cpu_count()} CPUs, "
            f"{platform.python_implementation()} {platform.python_version()}")


def _us_per_event(function, items) -> float:
    start = time.perf_counter()
    for item in items:
        function(item)
    return (time.perf_counter() - start) / len(items) * 1e6


def _summary(samples) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 3), "iqr": round(q3 - q1, 3)}


def measure(events: dict, repetitions: int = REPETITIONS) -> dict:
    """Per kind: µs/event of encode, decode and the reference encoder
    (median and IQR over ``repetitions``), all three interleaved in each
    repetition so host speed drifts hit them alike."""
    samples = {
        kind: {"encode": [], "decode": [], "reference_encode": []}
        for kind in events
    }
    for _ in range(repetitions):
        for kind, items in events.items():
            cls = type(items[0])
            lines = [event.to_json() for event in items]
            times = samples[kind]
            times["encode"].append(_us_per_event(cls.to_json, items))
            times["decode"].append(_us_per_event(cls.from_json, lines))
            times["reference_encode"].append(
                _us_per_event(reference_to_json, items))
    return {
        kind: {op: _summary(values) for op, values in times.items()}
        for kind, times in samples.items()
    }


def test_journal_codec_per_event():
    events = synthetic_events()
    for items in events.values():
        for event in items:
            line = event.to_json()
            assert line == reference_to_json(event)
            assert type(event).from_json(line) == event

    us_per_event = measure(events)
    speedup = {
        kind: round(
            us_per_event[kind]["reference_encode"]["median"]
            / us_per_event[kind]["encode"]["median"], 2)
        for kind in events
    }
    measurement = {
        "workload": f"{EVENTS_PER_KIND} synthetic events per type, seed {SEED}",
        "repetitions": REPETITIONS,
        "host": _host(),
        "us_per_event": us_per_event,
        "encode_speedup_vs_asdict": speedup,
    }
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        Path(out).write_text(json.dumps(measurement, indent=2) + "\n")

    for kind in ("hwc", "truth"):
        assert speedup[kind] >= MIN_ENCODE_SPEEDUP, (
            f"{kind} encoder only {speedup[kind]:.2f}x faster than the "
            f"asdict reference (floor {MIN_ENCODE_SPEEDUP}x): "
            f"{us_per_event[kind]}"
        )
