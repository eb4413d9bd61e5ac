"""Host-speed-calibrated stage timing and the in-memory span recorder.

Calibration.  On a shared host the speed of one CPU changes in phases of
several seconds (a fixed pure-Python loop runs anywhere from 1x to 2.4x
its best time), so a raw wall time says as much about the neighbours as
about the program.  ``HostClock`` therefore runs a short, fixed
calibration loop, owned by the benchmark and independent of the program
under test, every ``TICK_S`` seconds from a SIGALRM handler, and at the
start and end of every sample.  Each stretch of wall time between two
calibrations counts as

    raw seconds * CALIBRATION_REF_S / (mean calibration time at its ends)

that is, as seconds at the host speed where one calibration loop takes
``CALIBRATION_REF_S``; the calibrations themselves are not counted.  A
change to the program moves the stage and not the calibration, so
program speed-ups show in full; a slow phase of the host moves both, and
largely cancels.

Spans.  ``Tracer`` records one span per call into a layer of the program
(name, layer, start, end, parent span, run id) in memory and writes them
out at the end.  A layer's self time is the span's duration minus the
part its child spans cover, so the self times of all spans add up to the
top-level spans: the ledger accounts for the whole traced wall.
"""

from __future__ import annotations

import gc
import json
import pickle
import signal
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

#: one calibration at the reference host speed, in seconds
CALIBRATION_REF_S = 0.0013
#: wall time between calibrations while a stage runs
TICK_S = 0.2

_CAL_ITERATIONS = 2_500
_CAL_RECORDS = 500


class _Registers:
    __slots__ = ("acc", "regs")

    def __init__(self) -> None:
        self.acc = 0
        self.regs = [0] * 32

    def step(self, i: int) -> int:
        regs = self.regs
        k = i & 31
        regs[k] = (regs[(k + 1) & 31] + self.acc + i) & 0xFFFFFFFF
        self.acc = regs[k] >> 3
        return self.acc


def _calibration_loop() -> int:
    # two halves of about equal time: method calls, slot attributes and
    # list/dict traffic (the simulator's mix), then allocating and
    # pickling small records (the analysis side's mix).  Host slow phases
    # slow the two kinds of code by different amounts; in recordings on a
    # shared host the mix tracked both kinds of stage better than either
    # half alone.
    state = _Registers()
    table = {}
    acc = 0
    for i in range(_CAL_ITERATIONS):
        acc ^= state.step(i)
        table[i & 63] = acc * (i % 7)
    records = [
        {"pc": i, "cycle": i * 7, "stack": (i, i + 1, i + 2),
         "name": f"f{i & 15}"}
        for i in range(_CAL_RECORDS)
    ]
    return acc + len(pickle.loads(pickle.dumps(records)))


def calibrate() -> float:
    """Seconds one calibration loop takes right now (median of three)."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class HostClock:
    """Wall time integrated at the reference host speed.

    ``now()`` reads calibrated seconds; ``tick()`` recalibrates (the timer
    signal calls it every ``TICK_S`` while ``running()``).
    """

    def __init__(self) -> None:
        self._calibrated = 0.0      # calibrated seconds up to _last_end
        self._last_end = time.perf_counter()
        self._factor = calibrate() / CALIBRATION_REF_S
        self._busy = False
        #: host factor (calibration time / reference) at every tick
        self.factors: list = []

    def tick(self, *_signal_args) -> None:
        if self._busy:  # a timer signal landed inside an explicit tick
            return
        self._busy = True
        try:
            start = time.perf_counter()
            factor = calibrate() / CALIBRATION_REF_S
            end = time.perf_counter()
            self._calibrated += (start - self._last_end) / (
                (self._factor + factor) / 2)
            self._last_end, self._factor = end, factor
            self.factors.append(factor)
        finally:
            self._busy = False

    def now(self) -> float:
        return self._calibrated + (
            time.perf_counter() - self._last_end) / self._factor

    @contextmanager
    def running(self):
        """Recalibrate from a timer signal every ``TICK_S`` seconds."""
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Tracer:
    """In-memory spans around calls into the program's layers.

    A disabled tracer records nothing, so the same code runs traced and
    untraced.
    """

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": name.split(".", 1)[0],
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Per-layer self time in seconds: span duration minus children."""
        child_time: dict = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0)
                    + span["end"] - span["start"]
                )
        per_layer: dict = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            per_layer[span["layer"]] = per_layer.get(span["layer"], 0.0) + own
        return per_layer

    def wall(self) -> float:
        """Duration of the top-level spans together."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")


class Sample:
    """One calibrated measurement, split into named parts.

    Each part also opens a span of the same name.
    """

    def __init__(self, clock: HostClock, tracer: Tracer) -> None:
        self._clock = clock
        self._tracer = tracer
        self._parts: dict = {}
        self.seconds = 0.0

    @contextmanager
    def part(self, name: str):
        start = self._clock.now()
        with self._tracer.span(name):
            yield
        self._parts[name] = (self._parts.get(name, 0.0)
                             + self._clock.now() - start)

    def part_seconds(self, name: str) -> float:
        return self._parts.get(name, 0.0)


class Timer:
    """Hands out samples timed on one ``HostClock``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.clock = HostClock()

    @contextmanager
    def sample(self):
        """``with timer.sample() as s:`` times the block in calibrated
        seconds (``s.seconds``, ``s.part_seconds(name)``)."""
        # start from a collected heap: a sample must not pay for the
        # previous one's garbage, and simulated processes hold reference
        # cycles, so peak memory would otherwise depend on when the GC ran
        gc.collect()
        sample = Sample(self.clock, self.tracer)
        self.clock.tick()
        start = self.clock.now()
        yield sample
        self.clock.tick()
        sample.seconds = self.clock.now() - start

    def host_factor(self) -> float:
        return median(self.clock.factors, 1.0)


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


__all__ = ["CALIBRATION_REF_S", "HostClock", "Sample", "Timer", "Tracer",
           "calibrate", "median"]
