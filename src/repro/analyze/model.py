"""The reduced-data model: everything the reports are generated from.

The reduction attributes every profile event to

* a PC (real, or an artificial ``<branch target>`` PC when trigger-PC
  validation failed), rolled up to source lines and functions, and
* a **data object** — a ``structure:<name>`` class with a member, the
  ``<Scalars>`` bucket, or one of the paper's indeterminate kinds:

  ========================  ==============================================
  ``(Unspecified)``          compiler gave no symbolic memop reference
  ``(Unresolvable)``         backtracking failed / invalidated by a branch
                             target
  ``(Unascertainable)``      module not compiled with -xhwcprof
  ``(Unidentified)``         compiler temporary (spill/save slots, locals)
  ``(Unverifiable)``         module lacks branch-target info, validation
                             impossible
  ========================  ==============================================
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Optional

from ..compiler.program import Program
from ..errors import AnalysisError
from ..ioutil import canonical_json

# pseudo data objects (paper §3.2.5)
UNSPECIFIED = "(Unspecified)"
UNRESOLVABLE = "(Unresolvable)"
UNASCERTAINABLE = "(Unascertainable)"
UNIDENTIFIED = "(Unidentified)"
UNVERIFIABLE = "(Unverifiable)"
SCALARS = "<Scalars>"
TOTAL = "<Total>"
UNKNOWN = "<Unknown>"

UNKNOWN_KINDS = (UNSPECIFIED, UNRESOLVABLE, UNASCERTAINABLE, UNIDENTIFIED, UNVERIFIABLE)


class DataObjectKey(NamedTuple):
    """One row of the member-level data-object profile (Figure 7)."""

    object_class: str   # "structure:node"
    offset: int         # byte offset of the member
    member: str
    member_type: str


class MetricVector(dict):
    """metric id -> raw count; a missing metric reads (and is stored) as 0.0."""

    __slots__ = ()

    def __missing__(self, metric_id: str) -> float:
        self[metric_id] = 0.0
        return 0.0

    def add(self, metric_id: str, value: float) -> None:
        """Accumulate into one metric."""
        self[metric_id] += value

    def merged_with(self, other: "MetricVector") -> "MetricVector":
        """A new vector with both operands' counts summed."""
        out = MetricVector(self)
        for key, value in other.items():
            out[key] += value
        return out


@dataclass
class PCRecord:
    """Metrics attributed to one PC (possibly artificial)."""

    pc: int
    metrics: MetricVector = field(default_factory=MetricVector)
    is_branch_target_artifact: bool = False
    #: data-object annotation of this PC's instruction (for the PC report)
    data_object: str = ""
    member: str = ""


class Table(NamedTuple):
    """One keyed :class:`MetricVector` table.  A payload row is ``[*key
    fields, metrics]``; a one-field key stays bare, wider ones are built
    with ``key(*fields)``.  ``key_types`` gives each field's JSON type."""

    attr: str
    key_types: tuple
    key: type = tuple

    def encode(self, table: dict) -> list:
        if len(self.key_types) == 1:
            return [[key, dict(vector)] for key, vector in table.items()]
        return [[*key, dict(vector)] for key, vector in table.items()]

    def decode(self, rows) -> dict:
        *fields, vectors = _columns(rows, self.attr,
                                    (*self.key_types, MetricVector))
        keys = (fields[0] if len(fields) == 1 else zip(*fields)
                if self.key is tuple else map(self.key, *fields))
        return defaultdict(MetricVector, zip(keys, map(MetricVector, vectors)))


#: The reduction's keyed tables, in payload order: first those keyed by
#: program structure, then (after the sample lists and ``line_bytes``)
#: the address- and thread-keyed data-space axes of paper §4.
CODE_TABLES = (
    Table("functions", (str,)),               # exclusive, by function
    Table("functions_incl", (str,)),          # inclusive, via callstacks
    Table("caller_callee", (str, str)),
    Table("lines", (str, int)),               # (function, line)
    Table("data_objects", (str,)),            # memory metrics per class
    Table("data_members", (str, int, str, str), DataObjectKey),
)
SPACE_TABLES = (
    Table("cache_lines", (int,)),             # E$ line base
    Table("pages", (str, int)),               # (segment, page base)
    Table("cache_line_objects", (int, str)),  # (line base, object label)
    Table("page_objects", (str, int, str)),
    Table("threads", (int,)),                 # empty for single-core runs
    #: (line base, writing thread) of store-triggered coherence events:
    #: the cross-thread write traffic behind the false-sharing report
    Table("cache_line_writers", (int, int)),
)
TABLES = CODE_TABLES + SPACE_TABLES
#: metric id -> list of ``[value, weight]`` samples: effective addresses,
#: and load latencies from the SPE-style ``ldlat`` counter
SAMPLES = ("address_samples", "latency_samples")

_NUMBER = (int, float)
#: the payload's scalar fields and their JSON types
_SCALARS = (("clock_hz", _NUMBER), ("code_len", int), ("line_bytes", int),
            ("incomplete", bool), ("incomplete_reason", str))


def _check(values, allowed, where: str) -> None:
    """Every value of an ``allowed`` type (a type, a tuple of types, or
    ``MetricVector``: an object of numbers), or :class:`AnalysisError`.
    C-level sweeps over ``type``: ``bool`` never passes as a number."""
    kinds = set(map(type, values))
    if allowed is MetricVector:
        if kinds <= {dict} and set(map(type, chain.from_iterable(
                map(dict.values, values)))) <= {int, float}:
            return
        expected = "an object of numbers"
    else:
        allowed = allowed if type(allowed) is tuple else (allowed,)
        if kinds.issubset(allowed):
            return
        expected = " or ".join(kind.__name__ for kind in allowed)
    raise AnalysisError(f"reduction payload: {where} is not {expected}")


def _field(payload: dict, name: str, allowed=None):
    """One top-level field: present, and of an allowed type when given."""
    if name not in payload:
        raise AnalysisError(f"reduction payload: {name} is missing")
    if allowed is not None:
        _check((payload[name],), allowed, name)
    return payload[name]


def _rows(rows, where: str, width: int) -> None:
    """A list of lists of ``width`` fields each."""
    _check((rows,), list, where)
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        raise AnalysisError(f"reduction payload: {where} has a row "
                            f"that is not {width} fields")


def _columns(rows, where: str, types: tuple) -> list:
    """The columns of a list of ``len(types)``-field rows, each checked."""
    _rows(rows, where, len(types))
    columns = list(zip(*rows)) or [()] * len(types)
    for position, allowed in enumerate(types):
        _check(columns[position], allowed, f"{where}[*][{position}]")
    return columns


class ReducedData:
    """Everything the analyzer computed from one (or merged) experiments:
    the attributes set below plus the :data:`TABLES` and :data:`SAMPLES`."""

    def __init__(self, program: Optional[Program], clock_hz: float) -> None:
        self.program = program
        self.clock_hz = clock_hz
        #: metric ids with data present, in canonical order
        self.metric_ids: list[str] = []
        self.total = MetricVector()
        self.pcs: dict[int, PCRecord] = {}
        for table in TABLES:
            setattr(self, table.attr, defaultdict(MetricVector))
        for name in SAMPLES:
            setattr(self, name, defaultdict(list))
        #: E$ line size used for the cache-line axis (machine geometry)
        self.line_bytes: int = 512
        #: ground truth totals from the experiment info (for validation)
        self.machine_totals: dict[str, float] = {}
        #: segments recorded at collection (name, base, size, page_bytes)
        self.segments: list[tuple] = []
        #: heap allocations (addr, size, start_cycle, end_cycle, callsite)
        self.allocations: list[tuple] = []
        #: counter configs that produced the data
        self.counter_info: list[dict] = []
        #: True when the underlying experiment was partial (crashed run or
        #: salvaged damage); reports carry an ``(Incomplete)`` header
        self.incomplete: bool = False
        self.incomplete_reason: str = ""
        #: code length of the program this was reduced over; survives
        #: :meth:`detach` so :meth:`attach` can validate the re-attachment
        self.code_len: int = len(program.code) if program is not None else 0

    # ------------------------------------------------------------- helpers

    def record_pc(self, pc: int) -> PCRecord:
        """Get-or-create the record for one PC."""
        record = self.pcs.get(pc)
        if record is None:
            record = PCRecord(pc)
            self.pcs[pc] = record
        return record

    def seconds(self, metric_id: str, raw: float) -> float:
        """Wall-clock seconds at the configured clock rate."""
        return raw / self.clock_hz

    def percent(self, metric_id: str, raw: float) -> float:
        """Share of <Total> for a metric, in percent."""
        total = self.total.get(metric_id, 0.0)
        return 100.0 * raw / total if total else 0.0

    def unknown_total(self) -> MetricVector:
        """Sum of all (Un*) pseudo-object vectors."""
        out = MetricVector()
        for kind in UNKNOWN_KINDS:
            vector = self.data_objects.get(kind)
            if vector:
                for key, value in vector.items():
                    out[key] += value
        return out

    def backtrack_effectiveness(self, metric_id: str) -> float:
        """Paper §3.2.5: 100% minus (Unresolvable)+(Unascertainable) share."""
        total = self.total.get(metric_id, 0.0)
        if not total:
            return 0.0
        bad = 0.0
        for kind in (UNRESOLVABLE, UNASCERTAINABLE):
            vector = self.data_objects.get(kind)
            if vector:
                bad += vector.get(metric_id, 0.0)
        return 100.0 * (1.0 - bad / total)

    def merged_with(self, other: "ReducedData") -> "ReducedData":
        """Combine two experiments over the same program (the paper's two
        collect runs feed one analysis).

        Works on *detached* reductions too (program image stripped, e.g.
        a payload loaded from the reduction cache or the fleet aggregate
        store): program compatibility is then validated through the
        recorded ``code_len`` instead of the live image, and the merged
        result keeps the code length so :meth:`attach` can still verify
        a later re-attachment.
        """
        mine = self.code_len or (
            len(self.program.code) if self.program is not None else 0
        )
        theirs = other.code_len or (
            len(other.program.code) if other.program is not None else 0
        )
        if mine and theirs and mine != theirs:
            raise ValueError("cannot merge experiments over different programs")
        out = ReducedData(self.program or other.program, self.clock_hz)
        out.code_len = mine or theirs
        out.metric_ids = list(
            dict.fromkeys([*self.metric_ids, *other.metric_ids])
        )
        out.total = self.total.merged_with(other.total)
        for source in (self, other):
            for pc, record in source.pcs.items():
                target = out.record_pc(pc)
                target.metrics = target.metrics.merged_with(record.metrics)
                target.is_branch_target_artifact |= record.is_branch_target_artifact
                # deterministic label resolution: identical experiments
                # agree on the label, so this only breaks ties (and does
                # so independently of merge order — the fleet store's
                # canonical-bytes invariant)
                if record.data_object:
                    if (not target.data_object
                            or record.data_object < target.data_object):
                        target.data_object = record.data_object
                        target.member = record.member
                    elif (record.data_object == target.data_object
                          and record.member):
                        if not target.member or record.member < target.member:
                            target.member = record.member
            for table in TABLES:
                merged = getattr(out, table.attr)
                for key, vector in getattr(source, table.attr).items():
                    merged[key] = merged[key].merged_with(vector)
            for name in SAMPLES:
                merged = getattr(out, name)
                for metric_id, samples in getattr(source, name).items():
                    merged[metric_id].extend(samples)
            for key, value in source.machine_totals.items():
                out.machine_totals[key] = max(out.machine_totals.get(key, 0.0), value)
            out.counter_info.extend(source.counter_info)
        # union, first-seen order, deduplicated: merging two passes over
        # the same run keeps the original lists untouched, while merging
        # different runs (fleet aggregation) loses neither side
        out.segments = [
            list(seg) for seg in dict.fromkeys(
                tuple(seg) for source in (self, other)
                for seg in source.segments
            )
        ]
        out.allocations = [
            list(alloc) for alloc in dict.fromkeys(
                tuple(alloc) for source in (self, other)
                for alloc in source.allocations
            )
        ]
        out.line_bytes = self.line_bytes
        out.incomplete = self.incomplete or other.incomplete
        out.incomplete_reason = "; ".join(
            filter(None, dict.fromkeys(
                [self.incomplete_reason, other.incomplete_reason]
            ))
        )
        return out

    # -------------------------------------------------- worker detach/attach

    def detach(self) -> "ReducedData":
        """Strip the program image, in place, so a worker process can ship
        the reduction back to the parent cheaply (mirrors
        :meth:`repro.collect.experiment.Experiment.detached`)."""
        if self.program is not None:
            self.code_len = len(self.program.code)
        self.program = None
        return self

    def attach(self, program: Program) -> "ReducedData":
        """Re-attach a program image after :meth:`detach` (or a cache load),
        validating that it matches the one the reduction was made over."""
        if self.code_len and len(program.code) != self.code_len:
            raise ValueError(
                f"program mismatch: reduction covers {self.code_len} "
                f"instructions, image has {len(program.code)}"
            )
        self.program = program
        self.code_len = len(program.code)
        return self

    # ------------------------------------------------- cache serialization

    #: bump whenever the payload layout or reduction semantics change — a
    #: version bump orphans (and thereby invalidates) every existing cache
    PAYLOAD_VERSION = 3

    def to_payload(self) -> dict:
        """JSON-serializable snapshot of the whole reduction (without the
        program image, which the experiment directory already stores).

        Insertion order of every table is preserved, so a reduction loaded
        back with :meth:`from_payload` renders byte-identical reports.
        """
        return {
            "version": self.PAYLOAD_VERSION,
            "clock_hz": self.clock_hz,
            "code_len": self.code_len,
            "metric_ids": list(self.metric_ids),
            "total": dict(self.total),
            "pcs": [
                [r.pc, dict(r.metrics), r.is_branch_target_artifact,
                 r.data_object, r.member]
                for r in self.pcs.values()
            ],
            **{t.attr: t.encode(getattr(self, t.attr)) for t in CODE_TABLES},
            **{name: {metric: list(map(list, samples))
                      for metric, samples in getattr(self, name).items()}
               for name in SAMPLES},
            "line_bytes": self.line_bytes,
            **{t.attr: t.encode(getattr(self, t.attr)) for t in SPACE_TABLES},
            "machine_totals": dict(self.machine_totals),
            "segments": [list(s) for s in self.segments],
            "allocations": [list(a) for a in self.allocations],
            "counter_info": list(self.counter_info),
            "incomplete": self.incomplete,
            "incomplete_reason": self.incomplete_reason,
        }

    def canonical_payload(self) -> dict:
        """:meth:`to_payload`, normalized to be independent of merge order.

        The plain payload preserves table insertion order (what the
        per-experiment cache wants: byte-identical reports on reload).
        Cross-experiment aggregates need the opposite guarantee — the
        same *set* of experiments must serialize to the same bytes no
        matter which order they were merged in (the fleet store's
        crash-recovery invariant) — so every table is sorted by key,
        address samples are sorted, counter configs are deduplicated and
        sorted, and the incomplete-reason join is order-normalized.
        Metric sums stay exact under reordering because every event
        weight is integral.
        """
        from .metrics import metric_sort_key

        payload = self.to_payload()
        payload["metric_ids"] = sorted(payload["metric_ids"],
                                       key=metric_sort_key)
        payload["pcs"] = sorted(payload["pcs"], key=lambda row: row[0])
        for table in TABLES:
            payload[table.attr].sort(key=itemgetter(slice(len(table.key_types))))
        for name in SAMPLES:
            payload[name] = {metric: sorted(samples) for metric, samples
                             in sorted(payload[name].items())}
        payload["counter_info"] = [
            json.loads(text) for text in sorted(
                {canonical_json(info) for info in payload["counter_info"]}
            )
        ]
        payload["segments"] = sorted(payload["segments"])
        payload["allocations"] = sorted(payload["allocations"])
        reasons = sorted(
            set(filter(None, payload["incomplete_reason"].split("; ")))
        )
        payload["incomplete_reason"] = "; ".join(reasons)
        return payload

    @classmethod
    def from_payload(cls, payload,
                     program: Optional[Program] = None) -> "ReducedData":
        """Rebuild a reduction from :meth:`to_payload` output — the one
        reader of the payload format.  Fail-closed: a missing or mistyped
        field, a row of the wrong width or a mistyped key, metric or sample
        raises :class:`AnalysisError` naming the field."""
        if type(payload) is not dict:
            raise AnalysisError("reduction payload is not an object")
        if payload.get("version") != cls.PAYLOAD_VERSION:
            raise AnalysisError(f"reduction payload v{payload.get('version')}"
                                f" != v{cls.PAYLOAD_VERSION}")
        out = cls(program, 0.0)
        for name, allowed in _SCALARS:
            setattr(out, name, _field(payload, name, allowed))
        for name, item in (("metric_ids", str), ("counter_info", dict)):
            setattr(out, name, list(_field(payload, name, list)))
            _check(getattr(out, name), item, f"{name}[*]")
        out.total = MetricVector(_field(payload, "total", MetricVector))
        out.machine_totals = dict(_field(payload, "machine_totals", MetricVector))
        pcs, vectors, artifacts, objects, members = _columns(
            _field(payload, "pcs"), "pcs", (int, MetricVector, bool, str, str))
        out.pcs = dict(zip(pcs, map(PCRecord, pcs, map(MetricVector, vectors),
                                    artifacts, objects, members)))
        for table in TABLES:
            setattr(out, table.attr, table.decode(_field(payload, table.attr)))
        for name in SAMPLES:
            samples = getattr(out, name)
            for metric, pairs in _field(payload, name, dict).items():
                _rows(pairs, f"{name}[{metric!r}]", 2)
                _check(chain.from_iterable(pairs), _NUMBER,
                       f"{name}[{metric!r}][*][*]")
                samples[metric] = list(pairs)
        for name, types in (("segments", (str, int, int, int)),
                            ("allocations", (int,) * 5)):
            setattr(out, name, list(zip(*_columns(
                _field(payload, name), name, types))))
        return out


__all__ = [
    "ReducedData",
    "PCRecord",
    "MetricVector",
    "DataObjectKey",
    "UNSPECIFIED",
    "UNRESOLVABLE",
    "UNASCERTAINABLE",
    "UNIDENTIFIED",
    "UNVERIFIABLE",
    "SCALARS",
    "TOTAL",
    "UNKNOWN",
    "UNKNOWN_KINDS",
]
