"""Unit tests for the reduced-data model (MetricVector, merging,
effectiveness math, the payload schema and its fail-closed decoder)."""

import json
import pickle
from collections import Counter, defaultdict

import pytest

from repro import build_executable
from repro.analyze.model import (
    TABLES,
    DataObjectKey,
    MetricVector,
    PCRecord,
    ReducedData,
    UNASCERTAINABLE,
    UNRESOLVABLE,
)
from repro.errors import AnalysisError
from repro.ioutil import canonical_json

from tests.conftest import PAYLOAD_MUTATION_PARAMS


@pytest.fixture(scope="module")
def program():
    return build_executable("long main(long *i, long n) { return 0; }")


class TestMetricVector:
    def test_defaults_to_zero(self):
        v = MetricVector()
        assert v["anything"] == 0.0

    def test_add(self):
        v = MetricVector()
        v.add("ecrm", 5)
        v.add("ecrm", 2)
        assert v["ecrm"] == 7

    def test_merged_with_is_pure(self):
        a = MetricVector()
        a.add("x", 1)
        b = MetricVector()
        b.add("x", 2)
        b.add("y", 3)
        merged = a.merged_with(b)
        assert merged["x"] == 3 and merged["y"] == 3
        assert a["x"] == 1 and b["x"] == 2  # inputs untouched


class TestReducedData:
    def test_percent_of_zero_total(self, program):
        reduced = ReducedData(program, 1e8)
        assert reduced.percent("ecrm", 10) == 0.0

    def test_seconds_conversion(self, program):
        reduced = ReducedData(program, 1e8)
        assert reduced.seconds("ecstall", 1e8) == pytest.approx(1.0)

    def test_record_pc_idempotent(self, program):
        reduced = ReducedData(program, 1e8)
        a = reduced.record_pc(0x1000)
        b = reduced.record_pc(0x1000)
        assert a is b and isinstance(a, PCRecord)

    def test_effectiveness_math(self, program):
        reduced = ReducedData(program, 1e8)
        reduced.total.add("ecrm", 100)
        reduced.data_objects[UNRESOLVABLE].add("ecrm", 3)
        reduced.data_objects[UNASCERTAINABLE].add("ecrm", 2)
        assert reduced.backtrack_effectiveness("ecrm") == pytest.approx(95.0)

    def test_effectiveness_empty_metric(self, program):
        reduced = ReducedData(program, 1e8)
        assert reduced.backtrack_effectiveness("ecrm") == 0.0

    def test_unknown_total_sums_kinds(self, program):
        reduced = ReducedData(program, 1e8)
        reduced.data_objects[UNRESOLVABLE].add("ecrm", 3)
        reduced.data_objects[UNASCERTAINABLE].add("ecref", 4)
        unknown = reduced.unknown_total()
        assert unknown["ecrm"] == 3 and unknown["ecref"] == 4

    def test_merge_combines_everything(self, program):
        a = ReducedData(program, 1e8)
        b = ReducedData(program, 1e8)
        a.metric_ids = ["user_cpu"]
        b.metric_ids = ["ecrm"]
        a.total.add("user_cpu", 10)
        b.total.add("ecrm", 5)
        a.functions["f"].add("user_cpu", 10)
        b.functions["f"].add("ecrm", 5)
        a.record_pc(0x10).metrics.add("user_cpu", 10)
        b.record_pc(0x10).metrics.add("ecrm", 5)
        b.address_samples["ecrm"].append((0x2000, 5))
        merged = a.merged_with(b)
        assert merged.metric_ids == ["user_cpu", "ecrm"]
        assert merged.total["user_cpu"] == 10 and merged.total["ecrm"] == 5
        assert merged.functions["f"]["ecrm"] == 5
        assert merged.pcs[0x10].metrics["user_cpu"] == 10
        assert merged.address_samples["ecrm"] == [(0x2000, 5)]

    def test_merge_keeps_branch_target_flag(self, program):
        a = ReducedData(program, 1e8)
        b = ReducedData(program, 1e8)
        a.record_pc(0x10)
        b.record_pc(0x10).is_branch_target_artifact = True
        merged = a.merged_with(b)
        assert merged.pcs[0x10].is_branch_target_artifact


def _one_row_everywhere() -> ReducedData:
    """A hand-built detached reduction with one row in every table."""
    r = ReducedData(None, 9e8)
    r.code_len = 12
    r.metric_ids = ["user_cpu", "ecrm"]
    r.total.add("user_cpu", 211.0)
    r.total.add("ecrm", 13.0)
    record = r.record_pc(0x1010)
    record.metrics.add("ecrm", 13.0)
    record.data_object, record.member = "structure:node", "cost"
    label = "structure:node.cost"
    for table, key in (
        (r.functions, "main"),
        (r.functions_incl, "main"),
        (r.caller_callee, ("_start", "main")),
        (r.lines, ("main", 7)),
        (r.data_objects, "structure:node"),
        (r.data_members, DataObjectKey("structure:node", 8, "cost", "long")),
        (r.cache_lines, 0x2000),
        (r.pages, ("heap", 0x2000)),
        (r.cache_line_objects, (0x2000, label)),
        (r.page_objects, ("heap", 0x2000, label)),
        (r.threads, 1),
        (r.cache_line_writers, (0x2000, 1)),
    ):
        table[key].add("ecrm", 13.0)
    r.address_samples["ecrm"].append([0x2008, 13.0])
    r.latency_samples["ldlat"].append([120, 1.0])
    r.line_bytes = 64
    r.machine_totals = {"cycles": 1000}
    r.segments = [("heap", 0x2000, 0x1000, 8192)]
    r.allocations = [(0x2008, 64, 10, -1, 0x1000)]
    r.counter_info = [
        {"name": "ecrm", "interval": 13, "backtrack": True, "register": 1}
    ]
    return r


#: the cache payload of ``_one_row_everywhere()`` — the wire format
PINNED_PAYLOAD = (
    '{"version": 3, "clock_hz": 900000000.0, "code_len": 12, '
    '"metric_ids": ["user_cpu", "ecrm"], '
    '"total": {"user_cpu": 211.0, "ecrm": 13.0}, '
    '"pcs": [[4112, {"ecrm": 13.0}, false, "structure:node", "cost"]], '
    '"functions": [["main", {"ecrm": 13.0}]], '
    '"functions_incl": [["main", {"ecrm": 13.0}]], '
    '"caller_callee": [["_start", "main", {"ecrm": 13.0}]], '
    '"lines": [["main", 7, {"ecrm": 13.0}]], '
    '"data_objects": [["structure:node", {"ecrm": 13.0}]], '
    '"data_members": [["structure:node", 8, "cost", "long", '
    '{"ecrm": 13.0}]], '
    '"address_samples": {"ecrm": [[8200, 13.0]]}, '
    '"latency_samples": {"ldlat": [[120, 1.0]]}, '
    '"line_bytes": 64, '
    '"cache_lines": [[8192, {"ecrm": 13.0}]], '
    '"pages": [["heap", 8192, {"ecrm": 13.0}]], '
    '"cache_line_objects": [[8192, "structure:node.cost", {"ecrm": 13.0}]], '
    '"page_objects": [["heap", 8192, "structure:node.cost", '
    '{"ecrm": 13.0}]], '
    '"threads": [[1, {"ecrm": 13.0}]], '
    '"cache_line_writers": [[8192, 1, {"ecrm": 13.0}]], '
    '"machine_totals": {"cycles": 1000}, '
    '"segments": [["heap", 8192, 4096, 8192]], '
    '"allocations": [[8200, 64, 10, -1, 4096]], '
    '"counter_info": [{"name": "ecrm", "interval": 13, "backtrack": true, '
    '"register": 1}], '
    '"incomplete": false, "incomplete_reason": ""}'
)


class TestSchema:
    def test_every_metric_vector_table_is_declared_once(self):
        fresh = ReducedData(None, 1e8)
        tables = [
            name for name, value in vars(fresh).items()
            if isinstance(value, defaultdict)
            and value.default_factory is MetricVector
        ]
        declared = Counter(table.attr for table in TABLES)
        assert set(declared) == set(tables)
        assert set(declared.values()) == {1}

    def test_metric_vector_pickles_as_itself(self):
        vector = MetricVector({"ecrm": 3.0})
        copy = pickle.loads(pickle.dumps(vector))
        assert type(copy) is MetricVector and copy == vector
        assert copy["absent"] == 0.0 and "absent" in copy


class TestWireFormat:
    def test_payload_bytes_are_pinned(self):
        assert json.dumps(_one_row_everywhere().to_payload()) == PINNED_PAYLOAD

    def test_pinned_payload_round_trips(self):
        rebuilt = ReducedData.from_payload(json.loads(PINNED_PAYLOAD))
        assert json.dumps(rebuilt.to_payload()) == PINNED_PAYLOAD
        assert rebuilt.data_members == {
            DataObjectKey("structure:node", 8, "cost", "long"): {"ecrm": 13.0}
        }
        assert rebuilt.lines[("main", 7)]["ecrm"] == 13.0

    def test_canonical_payload_sorts_every_table_by_key(self):
        a, b = _one_row_everywhere(), _one_row_everywhere()
        for table in TABLES:
            (key,) = getattr(b, table.attr)
            vector = getattr(b, table.attr).pop(key)
            getattr(b, table.attr)[_smaller(key)] = vector
        ab = canonical_json(a.merged_with(b).canonical_payload())
        ba = canonical_json(b.merged_with(a).canonical_payload())
        assert ab == ba


def _smaller(key):
    """A key that sorts before ``key``, with the same field types."""
    if isinstance(key, tuple):
        return tuple(map(_smaller, key))
    return key - 1 if isinstance(key, int) else "!" + key


class TestDecoderFailsClosed:
    @pytest.mark.parametrize("field, mutate", PAYLOAD_MUTATION_PARAMS)
    def test_damage_raises_analysis_error_naming_the_field(self, field,
                                                           mutate):
        payload = json.loads(PINNED_PAYLOAD)
        mutate(payload)
        with pytest.raises(AnalysisError, match=field):
            ReducedData.from_payload(payload)

    @pytest.mark.parametrize("payload", [None, [], "payload", 3])
    def test_non_object_payload(self, payload):
        with pytest.raises(AnalysisError, match="not an object"):
            ReducedData.from_payload(payload)

    def test_other_version_is_refused(self):
        payload = json.loads(PINNED_PAYLOAD)
        payload["version"] = 2
        with pytest.raises(AnalysisError, match="v2 != v3"):
            ReducedData.from_payload(payload)

    @pytest.mark.parametrize("field, value", [
        ("clock_hz", "fast"), ("code_len", 1.5), ("line_bytes", True),
        ("incomplete", 0), ("incomplete_reason", None),
        ("metric_ids", ["ecrm", 1]), ("counter_info", ["ecrm"]),
        ("machine_totals", {"cycles": "many"}), ("segments", [["heap"]]),
        ("allocations", [[1, 2, 3, 4, "site"]]),
        ("latency_samples", {"ldlat": [[120, None]]}),
        ("data_members", [["structure:node", "8", "cost", "long", {}]]),
        ("threads", [[True, {"ecrm": 1.0}]]),
    ])
    def test_every_field_is_type_checked(self, field, value):
        payload = json.loads(PINNED_PAYLOAD)
        payload[field] = value
        with pytest.raises(AnalysisError, match=field):
            ReducedData.from_payload(payload)

    @pytest.mark.parametrize("field", list(json.loads(PINNED_PAYLOAD))[1:])
    def test_every_field_is_required(self, field):
        payload = json.loads(PINNED_PAYLOAD)
        del payload[field]
        with pytest.raises(AnalysisError, match=f"{field} is missing"):
            ReducedData.from_payload(payload)
