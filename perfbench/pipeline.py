"""One workload through the user's pipeline, stage by stage.

A *round* is what a user runs once: an unprofiled run, the profiled
collect passes saved to disk, a cold analysis (reduction into an empty
cache plus the report set), warm re-reports, and fleet ingests.  Every
stage is timed as a calibrated sample (see ``timing.py``) and every call
into the program is wrapped in a span of its layer.  The traced run adds
``layer_round``, which takes the per-layer measurements a round cannot:
an in-memory collect to split handler from journal cost, event
re-encoding, backtrack replay, streaming open, cache-less reduction and
the oracle.

Only the program's public API is called.  The program is compiled during
set-up, never from a cache; each round collects, reduces and ingests into
fresh directories, so rounds share nothing but the compiled program.
Input generation and correctness checks count as the ``bench`` layer.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

from repro.analyze import cache as reduction_cache
from repro.analyze.erprint import run_command
from repro.analyze.oracle import oracle_path
from repro.analyze.reduce import merge_reduced, reduce_path
from repro.collect.backtrack import FOUND, apropos_backtrack
from repro.collect.collector import Collector
from repro.collect.experiment import Experiment
from repro.fleet.service import FleetService
from repro.kernel.process import Process
from repro.machine.counters import EVENTS

from timing import Timer, Tracer, median

#: cold analyses, warm re-reports and fleet ingests per round (the
#: stages that take about a second or less)
COLD_REPS = 5
WARM_REPS = 9
INGEST_REPS = 5
#: the traced run alternates unprofiled, in-memory and saved runs up to
#: this many times or for about this long, to split a pass's cost
BRACKET_REPS = 5
BRACKET_S = 8.0


class Ledger:
    """Operations attempted and failed, correctness checks included."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def checks(self, pairs) -> None:
        for name, ok in pairs:
            self.check(name, ok)

    def op(self, count: int = 1) -> None:
        """Count operations that raise on failure (a raise ends the run)."""
        self.attempted += count


class Bench:
    """A workload, its seed and the set-up every round reuses."""

    def __init__(self, workload, seed: int, work_dir: Path,
                 tracer: Tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.timer = Timer(tracer)
        self.ledger = Ledger()
        self.machine = workload.machine()
        self.inputs = self.context = self.program = None
        self._rounds = 0

    # ------------------------------------------------------------ set-up

    def setup(self, reps: int) -> dict:
        """Compile, generate the input and load a process ``reps`` times;
        keep the last program.  Returns calibrated samples."""
        samples = {"setup": [], "build": [], "load": []}
        for _ in range(reps):
            with self.timer.sample() as s:
                with s.part("bench.input"):
                    inputs, context = self.workload.make_input(self.seed)
                with s.part("compiler.build"):
                    program = self.workload.build(context)
                with s.part("kernel.load"):
                    Process(program, self.machine, input_longs=inputs)
            samples["setup"].append(s.seconds)
            samples["build"].append(s.part_seconds("compiler.build"))
            samples["load"].append(s.part_seconds("kernel.load"))
        self.inputs, self.context, self.program = inputs, context, program
        return samples

    # ------------------------------------------------------------- stages

    def unprofiled_run(self):
        """Load and run once; returns ``(process, sample)``."""
        with self.timer.sample() as s:
            with s.part("kernel.load"):
                process = Process(self.program, self.machine,
                                  input_longs=self.inputs)
                for core in process.machine.cores:
                    core.cpu.engine = self.workload.engine
            with s.part("machine.run"):
                process.run()
        return process, s

    def collect_pass(self, config, directory=None):
        """One collect pass, saved to ``directory`` when given."""
        with self.timer.sample() as s:
            with s.part("collect.pass"):
                collector = Collector(self.program, self.machine, config,
                                      input_longs=self.inputs,
                                      journal_to=directory)
                experiment = collector.run()
                if directory is not None:
                    experiment.save()
        self.ledger.op()
        return collector, experiment, s

    def analyze(self, dirs: list):
        """Reduce the saved passes, merge, render the report set and (for
        mcf-paper) the layout advice; one calibrated sample."""
        workload = self.workload
        with self.timer.sample() as s:
            with s.part("analyze.reduce"):
                shards = [reduce_path(d) for d in dirs]
            with s.part("analyze.merge"):
                reduced = merge_reduced(shards)
            outputs = {}
            for verb, args in workload.reports:
                with s.part(f"analyze.render.{verb}"):
                    outputs[verb] = run_command(reduced, verb, args)
            with s.part("layoutopt.advise"):
                advice = workload.advise(reduced)
        self.ledger.op(len(dirs) + len(workload.reports) + len(advice))
        return outputs, s

    def ingest(self, dirs: list, root: Path):
        """Submit every pass into a fresh fleet root and drain it."""
        with self.timer.sample() as s:
            service = FleetService(root)
            with s.part("fleet.submit"):
                submitted = [service.submit(d) for d in dirs]
            with s.part("fleet.drain"):
                outcomes = service.drain()
        self.ledger.op(len(dirs))
        merged = sum(o.status == "merged" for o in outcomes)
        quarantined = sum(o.status == "quarantined" for o in outcomes)
        self.ledger.check("every submission accepted",
                          all(r.ok for r in submitted))
        self.ledger.check("every ingest merged, none quarantined",
                          merged == len(dirs) and quarantined == 0)
        return s, merged, quarantined

    # -------------------------------------------------------------- round

    def round(self) -> dict:
        """One pass of the whole pipeline in a fresh directory."""
        self._rounds += 1
        round_dir = self.work_dir / f"round{self._rounds}"
        round_dir.mkdir(parents=True)
        try:
            return self._round(round_dir)
        finally:
            shutil.rmtree(round_dir, ignore_errors=True)

    def _round(self, round_dir: Path) -> dict:
        workload, ledger, tracer = self.workload, self.ledger, self.tracer
        result: dict = {}

        process, run_sample = self.unprofiled_run()
        with tracer.span("bench.check"):
            ledger.checks(workload.check_run(process, self.context))
        result["run_s"] = run_sample.seconds
        result["machine_run_s"] = run_sample.part_seconds("machine.run")
        result["stats"] = process.machine.stats()
        result["stdout"] = process.stdout
        del process

        dirs, experiments, pass_s = [], [], []
        for index, config in enumerate(workload.passes(self.context)):
            directory = round_dir / f"pass{index}.er"
            collector, experiment, sample = self.collect_pass(config, directory)
            ledger.checks(workload.check_pass(collector, result["stdout"]))
            ledger.check(f"pass {index} complete", not experiment.incomplete)
            dirs.append(directory)
            experiments.append(experiment)
            pass_s.append(sample.seconds)
        result["pass_s"] = pass_s
        result["profile_s"] = sum(pass_s)
        result["instructions"] = sum(e.info.instructions for e in experiments)
        result["journal_bytes"] = sum(
            f.stat().st_size for d in dirs for f in d.iterdir() if f.is_file()
        )
        result["fingerprint"] = fingerprint(dirs, experiments)
        result["counts"] = event_counts(experiments)
        del experiments, collector, experiment

        cold = []
        for _ in range(COLD_REPS):
            for d in dirs:
                reduction_cache.invalidate(d)
            outputs, sample = self.analyze(dirs)
            with tracer.span("bench.check"):
                ledger.checks(workload.check_reports(outputs))
            cold.append(sample.seconds)
        result["analyze_cold_s"] = cold

        warm = [self.analyze(dirs)[1] for _ in range(WARM_REPS)]
        result["report_warm_s"] = [s.seconds for s in warm]
        result["warm_samples"] = warm

        ingests = [self.ingest(dirs, round_dir / f"fleet{k}")
                   for k in range(INGEST_REPS)]
        result["ingest_s"] = [s.seconds / len(dirs) for s, _, _ in ingests]
        result["ingest_samples"] = [s for s, _, _ in ingests]
        result["fleet_merged"] = ingests[-1][1]
        result["fleet_quarantined"] = ingests[-1][2]

        exact = events = 0
        with tracer.span("analyze.oracle"):
            for d in dirs:
                for tally in oracle_path(d).by_event.values():
                    exact += tally.exact_pc
                    events += tally.events
        result["attribution_exact_pct"] = 100.0 * exact / events if events else 0.0

        if tracer.enabled:
            result["layers"] = self.layer_round(dirs, result, round_dir)
        return result

    # ------------------------------------------------- traced-run layers

    def layer_round(self, dirs: list, round_result: dict,
                    round_dir: Path) -> dict:
        """Per-layer measurements beyond what a round takes."""
        workload, ledger = self.workload, self.ledger
        layers: dict = {}

        # handler cost: in-memory pass minus the unprofiled run; journal
        # cost: saved pass minus in-memory pass.  The three alternate for
        # up to BRACKET_REPS rounds or BRACKET_S seconds, and each side is
        # its minimum (interference only ever adds time), so a slow host
        # phase cannot land on one side only.
        configs = workload.passes(self.context)
        runs = [round_result["run_s"]]
        saved = [[t] for t in round_result["pass_s"]]
        inmem: list = [[] for _ in configs]
        memory: list = [None] * len(configs)
        deadline = time.perf_counter() + BRACKET_S
        while True:
            for index, config in enumerate(configs):
                memory[index] = None
                collector, memory[index], sample = self.collect_pass(config)
                inmem[index].append(sample.seconds)
                ledger.checks(workload.check_pass(collector,
                                                  round_result["stdout"]))
            if (len(runs) >= BRACKET_REPS
                    or time.perf_counter() > deadline):
                break
            runs.append(self.unprofiled_run()[1].seconds)
            for index, config in enumerate(configs):
                directory = round_dir / f"bracket{index}.er"
                saved[index].append(self.collect_pass(config, directory)[2]
                                    .seconds)
        # a cost below the timing resolution can difference to a few
        # milliseconds below zero; it is reported as 0, never negative
        run = min(runs)
        layers["collect.pass_s"] = round_result["profile_s"]
        layers["collect.handler_s"] = max(
            0.0, sum(min(t) - run for t in inmem))
        layers["collect.journal_s"] = max(
            0.0, sum(min(s) - min(t) for s, t in zip(saved, inmem)))

        with self.timer.sample() as s:
            with s.part("collect.encode"):
                encoded = [encode_journal(e) for e in memory]
        events = sum(len(lines) for files in encoded for lines in files.values())
        layers["collect.encode_us_per_event"] = (
            1e6 * s.seconds / events if events else 0.0)
        # the saved journal is exactly the in-memory events, re-encoded
        for d, files in zip(dirs, encoded):
            ledger.check("in-memory collect re-encodes to the saved journal",
                         all(_sha256(d / name) == _digest(lines)
                             for name, lines in files.items()))
        del encoded

        calls = found = 0
        with self.timer.sample() as s:
            with s.part("collect.backtrack"):
                code, base = self.program.code, self.program.text_base
                for experiment in memory:
                    for truth in experiment.truth_events:
                        result = apropos_backtrack(
                            code, base, truth.trap_pc, EVENTS[truth.event],
                            truth.regs)
                        calls += 1
                        found += result.status == FOUND
        layers["collect.backtrack_us_per_call"] = (
            1e6 * s.seconds / calls if calls else 0.0)
        layers["collect.backtrack_found_frac"] = found / calls if calls else 0.0

        with self.timer.sample() as s:
            with s.part("analyze.open"):
                for d in dirs:
                    experiment = Experiment.open_streaming(d)
                    for _ in experiment.iter_clock_events():
                        pass
                    for _ in experiment.iter_hwc_events():
                        pass
                    for _ in experiment.iter_truth_events():
                        pass
        layers["analyze.open_s"] = s.seconds

        counts = round_result["counts"]
        reduced_events = counts["collect.hwc_events"] + counts["collect.clock_events"]
        with self.timer.sample() as s:
            with s.part("analyze.reduce_cold"):
                for d in dirs:
                    reduce_path(d, use_cache=False)
        ledger.op(len(dirs))
        layers["analyze.reduce_cold_s"] = s.seconds
        layers["analyze.reduce_us_per_event"] = (
            1e6 * s.seconds / reduced_events if reduced_events else 0.0)

        with self.tracer.span("analyze.cache_probe"):
            hits = sum(reduction_cache.load(d) is not None for d in dirs)
        layers["analyze.cache_hit_frac"] = hits / len(dirs)
        warm = round_result["warm_samples"]
        layers["analyze.reduce_warm_s"] = median(
            s.part_seconds("analyze.reduce") for s in warm)
        layers["analyze.merge_s"] = median(
            s.part_seconds("analyze.merge") for s in warm)
        for verb in RENDER_VERBS:
            layers[f"analyze.render_s.{verb}"] = median(
                s.part_seconds(f"analyze.render.{verb}") for s in warm)
        layers["layoutopt.advise_s"] = median(
            s.part_seconds("layoutopt.advise") for s in warm)

        with self.timer.sample() as s:
            with s.part("analyze.oracle"):
                for d in dirs:
                    oracle_path(d)
        layers["analyze.oracle_s"] = s.seconds

        ingests = round_result["ingest_samples"]
        layers["fleet.submit_s"] = median(
            s.part_seconds("fleet.submit") for s in ingests) / len(dirs)
        layers["fleet.drain_s"] = median(
            s.part_seconds("fleet.drain") for s in ingests) / len(dirs)
        layers["fleet.merged"] = round_result["fleet_merged"]
        layers["fleet.quarantined"] = round_result["fleet_quarantined"]
        return layers


#: every er_print verb some workload renders
RENDER_VERBS = ("overview", "functions", "pcs", "data_objects", "data_single",
                "lines", "pages", "segments", "sharing")

#: the counters any workload samples
SAMPLED_COUNTERS = ("ecstall", "ecrm", "ecref", "dtlbm", "cohm")


def event_counts(experiments: list) -> dict:
    """Work counts of the saved passes, as per-layer metrics."""
    hwc = [event for e in experiments for event in e.hwc_events]
    counts = {
        "collect.hwc_events": len(hwc),
        "collect.clock_events": sum(len(e.clock_events) for e in experiments),
        "collect.coalesced": sum(event.coalesced > 1 for event in hwc),
    }
    for counter in SAMPLED_COUNTERS:
        counts[f"collect.samples.{counter}"] = sum(
            event.event == counter for event in hwc)
    trace_stats: dict = {}
    for experiment in experiments:
        for key, value in experiment.info.trace_stats.items():
            trace_stats[key] = trace_stats.get(key, 0) + value
    for key in ("blocks_compiled", "block_calls", "deopt_event", "deopt_cold"):
        counts[f"machine.trace.{key}"] = trace_stats.get(key, 0)
    retired = (trace_stats.get("trace_retired", 0)
               + trace_stats.get("burst_retired", 0))
    counts["machine.trace.retired_frac"] = (
        trace_stats.get("trace_retired", 0) / retired if retired else 0.0)
    return counts


def encode_journal(experiment) -> dict:
    """The journal files' lines, re-encoded from in-memory events."""
    files: dict = {"clock.jsonl": [e.to_json() for e in experiment.clock_events]}
    for event in experiment.hwc_events:
        files.setdefault(f"hwc{event.counter}.jsonl", []).append(event.to_json())
    if experiment.truth_events:
        files["truth.jsonl"] = [e.to_json() for e in experiment.truth_events]
    return files


def _digest(lines: list) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines)
                          .encode()).hexdigest()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(dirs: list, experiments: list) -> str:
    """sha256 over every pass's event journals and simulated totals."""
    digest = hashlib.sha256()
    for directory, experiment in zip(dirs, experiments):
        for path in sorted(directory.glob("*.jsonl")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        digest.update(json.dumps(experiment.info.totals,
                                 sort_keys=True).encode())
    return digest.hexdigest()
