"""The benchmark's workloads: program, inputs from the seed, collect
passes, report set and correctness checks.

Each workload stresses a different layer (the reasons are recorded in
``design.json``): ``mcf-paper`` is simulation-bound with sparse events,
``commercial-dense`` is per-event-bound (handlers, journal, reduction,
ingest), and ``sharing-2core`` is the only one that runs the coherence
directory, per-core units and the thread scheduler.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

from repro.collect.collector import CollectConfig
from repro.compiler.program import build_executable
from repro.config import scaled_config
from repro.mcf.casestudy import default_instance
from repro.mcf.instance import encode_instance
from repro.mcf.reference import solve_reference
from repro.mcf.sources import parse_mcf_stdout
from repro.mcf.workload import build_mcf
from repro.workloads.commercial import build_commercial, commercial_input

REPO = Path(__file__).resolve().parent.parent


class Workload:
    """One named workload.  Subclasses fill in the hooks."""

    name = ""
    engine = "fast"
    #: er_print verbs (with arguments) rendered by every analysis
    reports: tuple = ()

    def machine(self):
        return scaled_config()

    def build(self, context):
        """Compile the program (never from an in-process cache)."""
        raise NotImplementedError

    def make_input(self, seed: int):
        """``(input_longs, context)`` generated from the seed."""
        raise NotImplementedError

    def passes(self, context) -> list:
        raise NotImplementedError

    def check_run(self, process, context) -> list:
        """``(check name, ok)`` pairs for the unprofiled run."""
        return [("run exits 0", process.finished and process.exit_code == 0)]

    def check_pass(self, collector, run_stdout: str) -> list:
        return []

    def check_reports(self, outputs: dict) -> list:
        return []

    def advise(self, reduced) -> list:
        """Layout advice rendered with the reports (mcf-paper only)."""
        return []


class McfPaper(Workload):
    """§3.1: the two collect runs of MCF, and Figs 1/2/5/6/7."""

    name = "mcf-paper"
    engine = "fast"
    trips = 100
    reports = (
        ("overview", []),
        ("functions", []),
        ("pcs", []),
        ("data_objects", []),
        ("data_single", ["structure:node"]),
    )

    def build(self, context):
        return build_mcf(use_cache=False)

    def make_input(self, seed: int):
        instance = default_instance(trips=self.trips, seed=seed)
        return encode_instance(instance), {"instance": instance}

    def passes(self, context) -> list:
        # the case study's interval scaling: the paper's presets target a
        # 550-second run, so intervals shrink with the instance
        scale = max(context["instance"].m / 7000.0, 0.02)

        def interval(base: int, floor: int) -> int:
            return max(floor, int(base * scale))

        return [
            CollectConfig(
                clock_profiling=True,
                clock_interval=interval(4999, 499),
                counters=[f"+ecstall,{interval(4999, 211)}",
                          f"+ecrm,{interval(97, 13)}"],
                name="mcf-exp1", engine=self.engine,
            ),
            CollectConfig(
                clock_profiling=False,
                counters=[f"+ecref,{interval(499, 31)}",
                          f"+dtlbm,{interval(29, 5)}"],
                name="mcf-exp2", engine=self.engine,
            ),
        ]

    def check_run(self, process, context) -> list:
        checks = super().check_run(process, context)
        fields = parse_mcf_stdout(process.stdout)
        checks.append(("mcf solved optimally",
                       fields["artificial_flow"] == 0
                       and fields["dual_violations"] == 0))
        checks.append(("mcf flow cost equals the reference solver",
                       fields["flow_cost"]
                       == solve_reference(context["instance"])))
        return checks

    def check_reports(self, outputs: dict) -> list:
        text = outputs["data_objects"]
        return [("data_objects lists structure:node and structure:arc",
                 "structure:node" in text and "structure:arc" in text)]

    def advise(self, reduced) -> list:
        from repro.layoutopt.advisor import LayoutAdvisor

        advisor = LayoutAdvisor(reduced)
        return [advisor.advise_struct("structure:node"),
                advisor.advise_page_size()]


class CommercialDense(Workload):
    """§3.2.5: the order-processing workload at dense sampling."""

    name = "commercial-dense"
    engine = "trace"
    queries = 500
    reports = (
        ("functions", []),
        ("data_objects", []),
        ("lines", []),
        ("pages", []),
        ("pcs", []),
        ("segments", []),
    )

    def build(self, context):
        return build_commercial()

    def make_input(self, seed: int):
        # the program's Lehmer generator needs a state in [1, 2^31 - 2]
        return commercial_input(queries=self.queries,
                                seed=1 + seed % 2147483646), {}

    def passes(self, context) -> list:
        return [
            CollectConfig(clock_profiling=True, clock_interval=4999,
                          counters=["+ecstall,997", "+ecrm,97"],
                          name="commercial-exp1", engine=self.engine),
            CollectConfig(clock_profiling=False,
                          counters=["+ecref,31", "+dtlbm,5"],
                          name="commercial-exp2", engine=self.engine),
        ]

    def check_run(self, process, context) -> list:
        checks = super().check_run(process, context)
        checks.append(("commercial prints a checksum",
                       process.stdout.strip().lstrip("-").isdigit()))
        return checks

    def check_pass(self, collector, run_stdout: str) -> list:
        return [("profiled pass prints the unprofiled checksum",
                 collector.process.stdout == run_stdout)]


def _false_sharing_example():
    path = REPO / "examples" / "false_sharing.py"
    spec = importlib.util.spec_from_file_location("false_sharing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Sharing2Core(Workload):
    """The false-sharing example's unpadded program on two cores."""

    name = "sharing-2core"
    engine = "trace"
    base_iterations = 150_000
    reports = (("functions", []), ("sharing", []))

    def machine(self):
        return dataclasses.replace(scaled_config(), cores=2,
                                   thread_quantum=400)

    def make_input(self, seed: int):
        # the program takes no input: the seed sizes the loop instead
        return [], {"iterations": self.base_iterations + seed % 1024}

    def build(self, context):
        source = _false_sharing_example().UNPADDED
        return build_executable(source % {"iters": context["iterations"]},
                                name="unpadded")

    def passes(self, context) -> list:
        return [CollectConfig(clock_profiling=True,
                              counters=["+cohm,97", "+ecstall"],
                              name="sharing-exp", engine=self.engine)]

    def check_run(self, process, context) -> list:
        checks = super().check_run(process, context)
        checks.append(("threads sum to 2 x iterations",
                       process.stdout.strip()
                       == str(2 * context["iterations"])))
        return checks

    def check_reports(self, outputs: dict) -> list:
        lines = outputs["sharing"].splitlines()
        top = [i for i, line in enumerate(lines) if "written by threads" in line]
        ok = False
        if top:
            first = top[0]
            end = top[1] if len(top) > 1 else len(lines)
            members = "\n".join(lines[first + 1:end])
            ok = (lines[first].rstrip().endswith(("threads 1,2", "threads 2,1"))
                  and "structure:counters.a" in members
                  and "structure:counters.b" in members)
        return [("top shared line is written by threads 1,2 and tied to "
                 "counters.a/.b", ok)]


WORKLOADS = {w.name: w for w in (McfPaper(), CommercialDense(), Sharing2Core())}
