"""Spool-directory intake: how experiments enter the fleet service.

Producers never write into the aggregate store — they *submit*: the
experiment directory is copied into a private staging area and then
published into the spool with one atomic rename, so a consumer can never
observe a half-copied experiment (a producer dying mid-submit leaves
only invisible staging garbage that ``fsck`` sweeps).

Layout under one fleet root::

    <root>/
      spool/
        tmp/        staging: in-progress submissions, invisible to workers
        incoming/   published submissions, one directory per entry:
                      <entry>/experiment/   the experiment copy
                      <entry>/submission.json  id + aggregate-key fields
        claims/     <entry>.claim markers (the idempotent claim protocol)
      quarantine/   entries that could not be ingested, each with a
                    reason.json carrying a machine-readable reason code
      store/        the WAL-backed aggregate store (see fleet.store)

Dedup is keyed by **submission id** — a digest of the experiment's
manifest checksum table, so re-submitting byte-identical data (a
retrying producer, a mirrored collector) lands on the same entry name
and is dropped at the door; a duplicate that slips past (published under
an alias while the first copy was in flight) is still ingested exactly
once, because the aggregate ledger is checked again under the merge
lock (see :mod:`repro.fleet.store`).

The claim protocol is create-exclusive: a worker owns an entry while
``claims/<entry>.claim`` exists and is fresh.  Claims are leases, not
locks — a worker that dies holding one leaves a stale claim that any
other worker may break after ``claim_ttl`` seconds, which is what makes
every ingestion step retryable after a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..collect.experiment import CACHE_DIR_NAME, MANIFEST_NAME, Experiment
from ..errors import SpoolError
from ..ioutil import atomic_write_text, canonical_json, fsync_dir, sha256_file

#: quarantine reason codes (machine-readable, stable)
QUARANTINE_UNDECODABLE = "undecodable"          # no usable program/metadata
QUARANTINE_BAD_SUBMISSION = "bad-submission"    # submission.json missing/corrupt
QUARANTINE_TIMEOUT = "timeout"                  # ingest deadline exceeded
QUARANTINE_IO_ERROR = "io-error"                # retries exhausted on I/O
QUARANTINE_PROGRAM_MISMATCH = "program-mismatch"  # cannot merge into its key

REASON_CODES = (
    QUARANTINE_UNDECODABLE,
    QUARANTINE_BAD_SUBMISSION,
    QUARANTINE_TIMEOUT,
    QUARANTINE_IO_ERROR,
    QUARANTINE_PROGRAM_MISMATCH,
)

SUBMISSION_FILE = "submission.json"
EXPERIMENT_DIR = "experiment"

#: default lease on a claim before another worker may break it
DEFAULT_CLAIM_TTL = 600.0


class FleetPaths:
    """The directory layout of one fleet root."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.spool = self.root / "spool"
        self.tmp = self.spool / "tmp"
        self.incoming = self.spool / "incoming"
        self.claims = self.spool / "claims"
        self.quarantine = self.root / "quarantine"
        self.store = self.root / "store"
        self.aggregates = self.store / "aggregates"
        self.locks = self.store / "locks"
        self.wal = self.store / "wal.jsonl"

    def ensure(self) -> "FleetPaths":
        for directory in (self.tmp, self.incoming, self.claims,
                          self.quarantine, self.aggregates, self.locks):
            directory.mkdir(parents=True, exist_ok=True)
        return self


# ------------------------------------------------------------ submission

def submission_id(experiment_dir) -> str:
    """Content identity of one experiment directory (the dedup key).

    Prefers the manifest's per-file checksum table (cheap: the recorder
    already paid for the hashing); an unsealed directory — crashed
    producer, pre-manifest data — falls back to hashing the files
    themselves, so byte-identical damage still dedups.
    """
    path = Path(experiment_dir)
    manifest = Experiment.read_manifest(path)
    if manifest is not None:
        basis = {
            "format_version": manifest.get("format_version", 0),
            "files": manifest.get("files", {}),
        }
    else:
        files = {}
        for file in sorted(path.iterdir()):
            if file.is_file() and file.suffix != ".tmp":
                files[file.name] = sha256_file(file)
        basis = {"files": files}
    text = canonical_json(basis)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def entry_name(sub_id: str, window: str) -> str:
    """Spool entry name for one (submission, window) pair.

    The window rides in the name so the same experiment can feed two
    different rolling windows without tripping the spool-level dedup;
    within one window, byte-identical submissions collide by design.
    """
    if window == "all":
        return sub_id
    return f"{sub_id}.{re.sub(r'[^A-Za-z0-9_-]', '_', window)[:24]}"


def derive_key_fields(experiment_dir, workload: Optional[str] = None,
                      program: Optional[str] = None) -> dict:
    """Aggregate-key fields for one experiment (overridable labels).

    ``program`` defaults to the program image's checksum prefix (so two
    builds never silently share an aggregate), ``workload`` to the
    experiment's recorded name, and the counter set to the sorted
    counter names (plus ``clock`` when clock profiling ran).
    """
    path = Path(experiment_dir)
    if program is None:
        manifest = Experiment.read_manifest(path)
        entry = (manifest or {}).get("files", {}).get("program.pkl")
        if isinstance(entry, dict) and entry.get("sha256"):
            program = entry["sha256"][:12]
        elif (path / "program.pkl").exists():
            program = sha256_file(path / "program.pkl")[:12]
        else:
            program = "unknown"
    counters = []
    name = path.stem
    info_file = path / "info.json"
    if info_file.exists():
        try:
            info = json.loads(info_file.read_text(errors="replace"))
            counters = sorted(
                c.get("name", "?") for c in info.get("counters", [])
            )
            if info.get("clock_interval_cycles"):
                counters.insert(0, "clock")
            if info.get("config_name"):
                name = info["config_name"] or name
        except (ValueError, TypeError, AttributeError):
            pass
    if workload is None:
        workload = name
    return {
        "program": program,
        "workload": workload,
        "counters": "+".join(counters) or "none",
    }


@dataclass
class SubmitResult:
    """Outcome of one submission."""

    sub_id: str
    entry: str = ""        # entry name in incoming/ ("" when not published)
    status: str = "submitted"  # submitted / duplicate / torn
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "submitted"


def _copy_experiment(source: Path, target: Path) -> None:
    """Copy an experiment directory, skipping derived/transient files."""
    target.mkdir(parents=True)
    for file in sorted(source.iterdir()):
        if file.name == CACHE_DIR_NAME and file.is_dir():
            continue  # derived data; the service re-reduces
        if file.suffix == ".tmp":
            continue
        if file.is_file():
            shutil.copy2(file, target / file.name)


def submit(root, experiment_dir, window: str = "all",
           workload: Optional[str] = None, program: Optional[str] = None,
           fault_plan=None) -> SubmitResult:
    """Atomically drop one experiment directory into the spool.

    Stage into ``spool/tmp``, then publish with a single rename; a
    duplicate (same submission id already spooled or already ingested
    into the window's aggregate) is reported, not copied again.
    """
    paths = FleetPaths(root).ensure()
    source = Path(experiment_dir)
    if not source.is_dir():
        raise SpoolError(f"no experiment directory at {source}")
    sub_id = submission_id(source)
    entry = entry_name(sub_id, window)
    result = SubmitResult(sub_id=sub_id, entry=entry)

    torn, extra_dup = (False, False)
    if fault_plan is not None:
        torn, extra_dup = fault_plan.submit_faults()

    from .store import window_ledger_has  # late import: store layers on spool

    if (paths.incoming / entry).exists():
        result.status = "duplicate"
        result.detail = "already spooled"
        result.entry = ""
        return result
    if window_ledger_has(paths, sub_id, window):
        result.status = "duplicate"
        result.detail = "already ingested"
        result.entry = ""
        return result

    record = {
        "id": sub_id,
        "window": window,
        "name": source.stem,
        **derive_key_fields(source, workload=workload, program=program),
    }

    def _stage(name: str) -> Path:
        staging = paths.tmp / f"{name}.{os.getpid()}.{time.time_ns()}"
        _copy_experiment(source, staging / EXPERIMENT_DIR)
        atomic_write_text(
            staging / SUBMISSION_FILE, json.dumps(record, sort_keys=True)
        )
        return staging

    staging = _stage(entry)
    if torn:
        # the producer "dies" before the publishing rename: the staged
        # copy stays invisible in spool/tmp for fsck to sweep
        result.status = "torn"
        result.detail = "producer died before publish (injected)"
        result.entry = ""
        return result
    try:
        os.replace(staging, paths.incoming / entry)
    except OSError as error:
        shutil.rmtree(staging, ignore_errors=True)
        if (paths.incoming / entry).exists():
            result.status = "duplicate"
            result.detail = "lost the publish race"
            result.entry = ""
            return result
        raise SpoolError(f"publish failed for {entry}: {error}") from error
    fsync_dir(paths.incoming)

    if extra_dup:
        # duplicate-submission fault: publish the same payload again under
        # an alias, bypassing the spool-level dedup — the merge-time
        # ledger must still ingest it exactly once
        alias = f"{entry}~dup{time.time_ns() % 100000}"
        staging = _stage(alias)
        os.replace(staging, paths.incoming / alias)
        result.detail = f"duplicate alias {alias} injected"
    return result


# ----------------------------------------------------------------- claims

def claim(paths: FleetPaths, entry: str, owner: str,
          claim_ttl: float = DEFAULT_CLAIM_TTL, now=time.time) -> bool:
    """Try to take the lease on one spool entry.

    Create-exclusive, so concurrent workers race safely; a stale claim
    (its holder died more than ``claim_ttl`` ago) is broken and re-taken.
    """
    claim_file = paths.claims / f"{entry}.claim"
    record = json.dumps(
        {"owner": owner, "pid": os.getpid(), "time": now()}
    )
    for _attempt in range(2):
        try:
            fd = os.open(claim_file, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = now() - claim_file.stat().st_mtime
            except OSError:
                continue  # holder just released/broke it; retry once
            if age <= claim_ttl:
                return False
            claim_file.unlink(missing_ok=True)  # break the stale lease
            continue
        with os.fdopen(fd, "w") as stream:
            stream.write(record)
        return True
    return False


def release(paths: FleetPaths, entry: str) -> None:
    """Give the lease back (after completion, quarantine, or failure)."""
    (paths.claims / f"{entry}.claim").unlink(missing_ok=True)


def complete(paths: FleetPaths, entry: str) -> None:
    """Remove a fully ingested entry from the spool and drop its claim."""
    target = paths.incoming / entry
    if target.exists():
        shutil.rmtree(target, ignore_errors=True)
    release(paths, entry)


def quarantine_entry(paths: FleetPaths, entry: str, reason: str,
                     detail: str = "", sub_id: str = "") -> Path:
    """Move one entry out of the ingest path, with a reason code.

    Quarantined inputs never poison the store and never block the drain
    loop; the reason code plus detail make the damage diagnosable and
    ``fsck --fleet`` can later retire entries that were superseded.
    """
    source = paths.incoming / entry
    target = paths.quarantine / entry
    if target.exists():
        shutil.rmtree(target, ignore_errors=True)
    if source.exists():
        os.replace(source, target)
    else:
        target.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        target / "reason.json",
        json.dumps(
            {"code": reason, "detail": detail, "id": sub_id},
            sort_keys=True,
        ),
    )
    release(paths, entry)
    return target


def quarantined(paths: FleetPaths) -> list:
    """(entry, reason code, detail, sub id) for every quarantined input."""
    rows = []
    if not paths.quarantine.is_dir():
        return rows
    for entry in sorted(paths.quarantine.iterdir()):
        if not entry.is_dir():
            continue
        reason_file = entry / "reason.json"
        code, detail, sub_id = "unknown", "", ""
        if reason_file.exists():
            try:
                record = json.loads(reason_file.read_text(errors="replace"))
                code = record.get("code", "unknown")
                detail = record.get("detail", "")
                sub_id = record.get("id", "")
            except ValueError:
                code = "unreadable-reason"
        rows.append((entry.name, code, detail, sub_id))
    return rows


def pending(paths: FleetPaths) -> list:
    """Spool entries awaiting ingest, in deterministic (sorted) order."""
    if not paths.incoming.is_dir():
        return []
    return sorted(p.name for p in paths.incoming.iterdir() if p.is_dir())


def read_submission(paths: FleetPaths, entry: str) -> dict:
    """The entry's submission record; raises :class:`SpoolError` when the
    record is missing or undecodable (quarantined as ``bad-submission``)."""
    file = paths.incoming / entry / SUBMISSION_FILE
    try:
        record = json.loads(file.read_text(errors="replace"))
    except (OSError, ValueError) as error:
        raise SpoolError(f"{entry}: bad submission record: {error}") from error
    if not isinstance(record, dict) or "id" not in record:
        raise SpoolError(f"{entry}: submission record has no id")
    return record


__all__ = [
    "DEFAULT_CLAIM_TTL",
    "EXPERIMENT_DIR",
    "FleetPaths",
    "MANIFEST_NAME",
    "QUARANTINE_BAD_SUBMISSION",
    "QUARANTINE_IO_ERROR",
    "QUARANTINE_PROGRAM_MISMATCH",
    "QUARANTINE_TIMEOUT",
    "QUARANTINE_UNDECODABLE",
    "REASON_CODES",
    "SUBMISSION_FILE",
    "SubmitResult",
    "claim",
    "complete",
    "derive_key_fields",
    "entry_name",
    "pending",
    "quarantine_entry",
    "quarantined",
    "read_submission",
    "release",
    "submission_id",
    "submit",
]
