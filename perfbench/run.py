#!/usr/bin/env python3
"""End-to-end profiling-pipeline benchmark.

    python3 perfbench/run.py --workload mcf-paper --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``; design notes in ``design.json``)
through the user's pipeline — unprofiled run, collect passes saved to
disk, cold analysis, warm re-report, fleet ingest — for about
``--seconds`` seconds, checks every output, and prints a table and then,
as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(medians over the rounds that fit); ``--trace 1`` runs one untraced and
one traced round and reports the per-layer ledger instead.  Times are in
calibrated seconds (``timing.py``).  Exits 1 when any check or operation
failed, 2 when the checkout lacks the program or the benchmark's own
files.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 15


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def e2e_metrics(bench, setup: dict, rounds: list) -> dict:
    from timing import median

    npasses = len(rounds[0]["pass_s"])
    metrics = {
        "setup_s": median(setup["setup"]),
        "run_s": median(r["run_s"] for r in rounds),
        "profile_s": median(r["profile_s"] for r in rounds),
        "profiled_mips": median(r["instructions"] / r["profile_s"] / 1e6
                                for r in rounds),
        "analyze_cold_s": median(t for r in rounds for t in r["analyze_cold_s"]),
        "report_warm_s": median(t for r in rounds for t in r["report_warm_s"]),
        "ingest_s": median(t for r in rounds for t in r["ingest_s"]),
    }
    metrics["wall_s"] = (
        metrics["setup_s"] + metrics["run_s"] + metrics["profile_s"]
        + metrics["analyze_cold_s"] + metrics["report_warm_s"]
        + metrics["ingest_s"] * npasses
    )
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    metrics["journal_mb"] = rounds[0]["journal_bytes"] / 1e6
    metrics["attribution_exact_pct"] = rounds[0]["attribution_exact_pct"]
    return metrics


def stage_wall(round_result: dict) -> float:
    """The timed stages of one round, as ``wall_s`` adds them."""
    from timing import median

    return (round_result["run_s"] + round_result["profile_s"]
            + median(round_result["analyze_cold_s"])
            + median(round_result["report_warm_s"])
            + median(round_result["ingest_s"]) * len(round_result["pass_s"]))


def layer_metrics(bench, setup: dict, untraced: dict, traced: dict) -> dict:
    from timing import median

    stats = traced["stats"]
    metrics = {
        "compiler.build_s": median(setup["build"]),
        "kernel.load_s": median(setup["load"]),
        "machine.run_s": traced["machine_run_s"],
        "machine.mips": stats.instructions / traced["machine_run_s"] / 1e6,
    }
    for field in ("instructions", "cycles", "dc_read_misses", "ec_refs",
                  "ec_read_misses", "dtlb_misses", "coherence_misses"):
        metrics[f"machine.{field}"] = getattr(stats, field)
    metrics.update(traced["counts"])
    metrics["collect.journal_bytes"] = traced["journal_bytes"]
    metrics.update(traced["layers"])

    untraced_wall = stage_wall(untraced)
    metrics["bench.trace_overhead_frac"] = (
        stage_wall(traced) / untraced_wall - 1.0)
    wall = bench.tracer.wall()
    metrics["bench.traced_wall_s"] = wall
    for layer, seconds in bench.tracer.self_times().items():
        metrics[f"bench.self_frac.{layer}"] = seconds / wall
    metrics["bench.host_factor"] = bench.timer.host_factor()
    return metrics


def measure(args, bench, fingerprints: list) -> dict:
    """Set up, then run rounds while another one fits in ``--seconds``
    (at least one).  The traced run adds one traced set-up and round."""
    start = time.perf_counter()
    setup = bench.setup(SETUP_REPS)
    rounds = []
    while True:
        began = time.perf_counter()
        rounds.append(bench.round())
        fingerprints.append(rounds[-1]["fingerprint"])
        took = time.perf_counter() - began
        if args.trace or time.perf_counter() - start + took > args.seconds:
            break
    if not args.trace:
        return e2e_metrics(bench, setup, rounds)
    tracer = bench.tracer
    tracer.enabled = True
    with tracer.span("bench.run"):
        traced_setup = bench.setup(SETUP_REPS)
        traced = bench.round()
    fingerprints.append(traced["fingerprint"])
    tracer.write(ROOT / ".perfbench_out" / f"spans-{tracer.run_id}.jsonl")
    return layer_metrics(bench, traced_setup, rounds[0], traced)


def check_fingerprints(ledger, args, fingerprints: list) -> None:
    """The fingerprint must repeat in every round of this run and in
    every earlier run of the same workload and seed in this checkout."""
    ledger.check("fingerprint identical across rounds",
                 len(set(fingerprints)) == 1)
    path = ROOT / ".perfbench_out" / "fingerprints.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    key = f"{args.workload}/{args.seed}"
    ledger.check("fingerprint identical to earlier runs of this seed",
                 seen.setdefault(key, fingerprints[0]) == fingerprints[0])
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        _fail_setup(f"no program source at {ROOT / 'src' / 'repro'}")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        _fail_setup(f"cannot read BENCHMARK.json: {error}")
    sys.path.insert(0, str(ROOT / "src"))

    from pipeline import Bench
    from timing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail_setup(f"unknown workload {args.workload!r} "
                    f"(one of {', '.join(WORKLOADS)})")
    spec = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m for m in spec}

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir = ROOT / ".perfbench_work" / run_id
    tracer = Tracer(run_id, enabled=False)
    bench = Bench(WORKLOADS[args.workload], args.seed, work_dir, tracer)
    fingerprints: list = []
    metrics: dict = {}
    raised = False
    try:
        with bench.timer.clock.running():
            metrics = measure(args, bench, fingerprints)
        check_fingerprints(bench.ledger, args, fingerprints)
    except Exception:  # report the failure as a result, then exit 1
        traceback.print_exc()
        raised = True
        bench.ledger.check("pipeline ran without raising", False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if work_dir.parent.is_dir() and not any(work_dir.parent.iterdir()):
            work_dir.parent.rmdir()

    ledger = bench.ledger
    if not raised:
        metrics["bench.failed_frac"] = ledger.failed / ledger.attempted
        metrics = {name: metrics[name] for name in units if name in metrics}
        missing = sorted(set(units) - set(metrics))
        if missing:
            _fail_setup(f"metrics declared but not measured: {missing}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {len(fingerprints)}")
    if fingerprints:
        print(f"fingerprint {fingerprints[0]}")
    for name, value in metrics.items():
        info = units[name]
        print(f"  {name:<36} {value:>16.6g} {info['unit']:<9} "
              f"{info['better']} is better")
    for failure in ledger.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]["unit"]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
