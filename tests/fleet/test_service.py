"""The ingest service: exactly-once merging, degradation, quarantine,
timeouts, transient-fault absorption, cross-window queries, and damaged
aggregates."""

import json
import threading

import pytest

from repro.analyze.model import ReducedData
from repro.analyze.reduce import merge_reduced, reduce_path
from repro.errors import StoreCorrupt
from repro.faults import FaultPlan
from repro.fleet import FleetService
from repro.fleet.fsck import FSCK_OK, FSCK_PROBLEMS, fsck_store
from repro.fleet.retry import RetryPolicy
from repro.fleet.spool import (
    QUARANTINE_IO_ERROR,
    QUARANTINE_TIMEOUT,
    QUARANTINE_UNDECODABLE,
    pending,
)
from repro.fleet.store import aggregate_path, list_aggregates, wal_records
from repro.ioutil import canonical_json

from tests.conftest import (
    MISTYPED_HWC_FIELDS,
    MISTYPED_INFO_FIELDS,
    PAYLOAD_MUTATION_PARAMS,
    tamper_info,
    tamper_journal_line,
)

from .conftest import quarantine_facts


class TestIngest:
    def test_two_experiments_merge_into_one_aggregate(self, fleet_root,
                                                      fresh_experiments):
        service = FleetService(fleet_root, owner="w1")
        for name in ("a", "b"):
            assert service.submit(fresh_experiments[name]).ok
        outcomes = service.drain()
        assert [o.status for o in outcomes] == ["merged", "merged"]

        rows = service.query()
        assert len(rows) == 1
        assert rows[0]["experiments"] == 2
        assert rows[0]["incomplete"] == 0

        # the aggregate equals an offline merge of the same reductions
        expected = merge_reduced([
            reduce_path(fresh_experiments["a"], use_cache=False).detach(),
            reduce_path(fresh_experiments["b"], use_cache=False).detach(),
        ]).canonical_payload()
        from repro.fleet.store import list_aggregates

        ((_token, record),) = list_aggregates(service.paths)
        assert record["payload"] == expected
        # drain leaves no unresolved WAL state behind
        records, torn = wal_records(service.paths)
        assert records == [] and torn == 0

    def test_injected_duplicate_alias_merges_exactly_once(
            self, fleet_root, fresh_experiments):
        plan = FaultPlan(seed=1, duplicate_submit_prob=1.0)
        service = FleetService(fleet_root, owner="w1", fault_plan=plan)
        service.submit(fresh_experiments["a"])
        plan.duplicate_submit_prob = 0.0  # only the first submit forks

        outcomes = FleetService(fleet_root, owner="w2").drain()
        assert sorted(o.status for o in outcomes) == ["duplicate", "merged"]
        rows = FleetService(fleet_root).query()
        assert rows[0]["experiments"] == 1

    def test_killed_experiment_degrades_to_incomplete(self, fleet_root,
                                                      fresh_experiments):
        service = FleetService(fleet_root, owner="w1")
        service.submit(fresh_experiments["killed"])
        (outcome,) = service.drain()
        assert outcome.status == "merged"
        assert outcome.incomplete

        rows = service.query()
        assert rows[0]["incomplete"] == 1
        from repro.fleet.store import list_aggregates

        ((_token, record),) = list_aggregates(service.paths)
        (meta,) = record["experiments"].values()
        assert meta["incomplete"]
        assert meta["name"].endswith("(Incomplete)")
        rebuilt = ReducedData.from_payload(record["payload"])
        assert rebuilt.incomplete
        assert "SimulatedCrash" in rebuilt.incomplete_reason

    def test_undecodable_experiment_is_quarantined_not_fatal(
            self, fleet_root, fresh_experiments):
        (fresh_experiments["b"] / "program.pkl").unlink()
        service = FleetService(fleet_root, owner="w1")
        good = service.submit(fresh_experiments["a"])
        bad = service.submit(fresh_experiments["b"])
        outcomes = {o.sub_id: o for o in service.drain()}

        assert outcomes[good.sub_id].status == "merged"
        assert outcomes[bad.sub_id].status == "quarantined"
        assert outcomes[bad.sub_id].reason == QUARANTINE_UNDECODABLE
        assert quarantine_facts(fleet_root) == {
            (bad.sub_id, QUARANTINE_UNDECODABLE)
        }
        assert FleetService(fleet_root).query()[0]["experiments"] == 1

    @pytest.mark.parametrize("field,value", MISTYPED_HWC_FIELDS)
    def test_mistyped_journal_line_degrades_not_fatal(
            self, fleet_root, fresh_experiments, field, value):
        # a valid-JSON line of the wrong types under a re-sealed manifest:
        # the decoder skips it, so the submission merges as incomplete
        # instead of raising out of the drain loop
        tamper_journal_line(fresh_experiments["a"], "hwc0.jsonl", field, value)
        service = FleetService(fleet_root, owner="w1")
        service.submit(fresh_experiments["a"])
        (outcome,) = service.drain()
        assert outcome.status == "merged"
        assert outcome.incomplete
        assert service.query()[0]["incomplete"] == 1

    @pytest.mark.parametrize("field,value", MISTYPED_INFO_FIELDS[:3])
    def test_mistyped_info_never_reaches_the_store(
            self, fleet_root, fresh_experiments, field, value):
        # a mistyped info.json under a re-sealed manifest must not commit
        # an aggregate the decoder rejects (that would stop every later
        # drain and query): salvage reduces it over the info defaults
        tamper_info(fresh_experiments["a"], field, value)
        service = FleetService(fleet_root, owner="w1")
        service.submit(fresh_experiments["a"])
        (outcome,) = service.drain()
        assert (outcome.status, outcome.incomplete) == ("merged", True)
        service.submit(fresh_experiments["b"])
        (outcome,) = service.drain()
        assert outcome.status == "merged"
        (row,) = service.query()
        assert (row["experiments"], row["incomplete"]) == (2, 1)
        assert fsck_store(fleet_root)[1] == FSCK_OK

    def test_deadline_quarantines_with_timeout_code(self, fleet_root,
                                                    fresh_experiments):
        clock = [0.0]

        def ticking():
            clock[0] += 10.0  # every step-boundary check burns 10s
            return clock[0]

        service = FleetService(fleet_root, owner="w1", timeout=5.0,
                               clock=ticking)
        result = service.submit(fresh_experiments["a"])
        (outcome,) = service.drain()
        assert outcome.status == "quarantined"
        assert outcome.reason == QUARANTINE_TIMEOUT
        assert quarantine_facts(fleet_root) == {
            (result.sub_id, QUARANTINE_TIMEOUT)
        }

    def test_transient_eio_is_retried_through(self, fleet_root,
                                              fresh_experiments):
        sleeps = []
        plan = FaultPlan(seed=1, transient_eio_prob=1.0)
        service = FleetService(fleet_root, owner="w1", fault_plan=plan,
                               sleep=sleeps.append)
        service.submit(fresh_experiments["a"])
        (outcome,) = service.drain()
        assert outcome.status == "merged"
        assert plan.stats["eio_faults"] > 0  # faults fired...
        assert sleeps                        # ...and were backed off past

    def test_exhausted_retries_quarantine_as_io_error(self, fleet_root,
                                                      fresh_experiments):
        plan = FaultPlan(seed=1, transient_eio_prob=1.0)
        service = FleetService(
            fleet_root, owner="w1", fault_plan=plan,
            retry_policy=RetryPolicy(attempts=1),  # no second chances
        )
        result = service.submit(fresh_experiments["a"])
        (outcome,) = service.drain()
        assert outcome.status == "quarantined"
        assert outcome.reason == QUARANTINE_IO_ERROR
        assert quarantine_facts(fleet_root) == {
            (result.sub_id, QUARANTINE_IO_ERROR)
        }


class TestConcurrency:
    def test_concurrent_producers_dedup_to_one_ingest(self, fleet_root,
                                                      fresh_experiments):
        """Many producers racing the same experiment: at most one copy
        spools, and exactly one ingests."""
        results = []

        def producer():
            service = FleetService(fleet_root, owner="producer")
            results.append(service.submit(fresh_experiments["a"]))

        threads = [threading.Thread(target=producer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        submitted = [r for r in results if r.status == "submitted"]
        duplicates = [r for r in results if r.status == "duplicate"]
        assert len(submitted) == 1
        assert len(duplicates) == 5

        outcomes = FleetService(fleet_root, owner="w1").drain()
        assert [o.status for o in outcomes] == ["merged"]
        assert FleetService(fleet_root).query()[0]["experiments"] == 1

    def test_racing_workers_never_double_ingest(self, fleet_root,
                                                fresh_experiments):
        service = FleetService(fleet_root, owner="seed")
        for name in ("a", "b", "killed"):
            service.submit(fresh_experiments[name])

        all_outcomes = []
        lock = threading.Lock()

        def worker(name):
            outcomes = FleetService(fleet_root, owner=name).drain()
            with lock:
                all_outcomes.extend(outcomes)

        threads = [threading.Thread(target=worker, args=(f"w{i}",))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        merged = [o for o in all_outcomes if o.status == "merged"]
        assert len(merged) + sum(
            1 for o in all_outcomes if o.status == "duplicate") >= 3
        rows = FleetService(fleet_root).query()
        assert rows[0]["experiments"] == 3  # every experiment exactly once


class TestQueryAndDiff:
    def test_cross_window_diff_ranks_share_movement(self, fleet_root,
                                                    fresh_experiments):
        service = FleetService(fleet_root, owner="w1")
        service.submit(fresh_experiments["a"], window="2026-07")
        service.submit(fresh_experiments["b"], window="2026-08")
        service.drain()

        (diff,) = service.diff("2026-07", "2026-08", metric="ecstall",
                               top=5)
        assert diff.rows and len(diff.rows) <= 5
        deltas = [abs(row.delta) for row in diff.rows]
        assert deltas == sorted(deltas, reverse=True)  # ranked by |delta|
        for row in diff.rows:
            assert 0.0 <= row.share_a <= 1.0
            assert 0.0 <= row.share_b <= 1.0

    def test_diff_requires_both_windows(self, fleet_root,
                                        fresh_experiments):
        service = FleetService(fleet_root, owner="w1")
        service.submit(fresh_experiments["a"], window="only")
        service.drain()
        assert service.diff("only", "missing") == []

    def test_serve_drains_until_idle(self, fleet_root, fresh_experiments):
        service = FleetService(fleet_root, owner="w1",
                               sleep=lambda _s: None)
        service.submit(fresh_experiments["a"])
        service.submit(fresh_experiments["b"])
        assert service.serve(poll_interval=0.0) == 2
        assert service.serve(poll_interval=0.0) == 0  # idle now


class TestDamagedAggregate:
    """A stored aggregate whose payload fails the decoder is store damage:
    ``StoreCorrupt`` for its token, named by ``fsck``, and never blamed on
    the submission being merged into it."""

    @staticmethod
    def _damage_window(service, window, mutate) -> str:
        (token,) = [token for token, record in list_aggregates(service.paths)
                    if record["key"]["window"] == window]
        file = aggregate_path(service.paths, token)
        record = json.loads(file.read_text())
        mutate(record["payload"])
        file.write_text(canonical_json(record))
        return token

    @pytest.mark.parametrize("field, mutate", PAYLOAD_MUTATION_PARAMS)
    def test_damage_stops_drain_query_and_diff(
            self, fleet_root, fresh_experiments, field, mutate):
        service = FleetService(fleet_root, owner="w1")
        service.submit(fresh_experiments["a"], window="w1")
        service.submit(fresh_experiments["b"], window="w2")
        service.drain()
        token = self._damage_window(service, "w1", mutate)
        incoming = service.submit(fresh_experiments["b"], window="w1")
        assert incoming.ok

        with pytest.raises(StoreCorrupt, match=f"{token}.*{field}"):
            service.drain()
        assert pending(service.paths) == [incoming.entry]
        assert quarantine_facts(fleet_root) == set()
        with pytest.raises(StoreCorrupt, match=token):
            service.query()
        with pytest.raises(StoreCorrupt, match=token):
            service.diff("w1", "w2")

        text, code = fsck_store(fleet_root)
        assert code == FSCK_PROBLEMS
        assert f"{token}: payload does not rebuild" in text
