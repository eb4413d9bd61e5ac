"""Crash-safe JSONL journal for the autotune search.

The same write-ahead discipline as the fleet store, scaled down: every
completed unit of search work (the run's meta header, one trial's
measurement, one round's accept decision, the final result) is appended
as ONE canonical JSON line via :func:`repro.ioutil.append_line` with an
fsync, so a search killed at any instant loses at most the trial that
was in flight — never a recorded one.

Records are canonical (sorted keys, compact separators, no timestamps or
host facts), which gives the resume guarantee the CI smoke asserts: a
search killed after trial *k* and resumed appends byte-for-byte the same
lines an uninterrupted search would have written, so the recovered
journal is byte-identical to a clean one.

A kill *during* an append can leave a torn final line; :meth:`recover`
detects it (undecodable or unterminated tail) and truncates it away with
an atomic rewrite before the search continues.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import AutotuneError
from ..ioutil import append_line, atomic_write_text
from ..ioutil import canonical_json as canonical_line


class SearchJournal:
    """Append-only JSONL journal under the search output directory."""

    FILENAME = "journal.jsonl"

    def __init__(self, outdir) -> None:
        self.outdir = Path(outdir)
        self.path = self.outdir / self.FILENAME

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, record: dict) -> None:
        """Durably append one completed record."""
        if "type" not in record:
            raise AutotuneError(f"journal record without a type: {record!r}")
        self.outdir.mkdir(parents=True, exist_ok=True)
        append_line(self.path, canonical_line(record), durable=True)

    def read(self) -> list:
        """Parse every intact record; a torn tail line is ignored."""
        records, _torn = self._scan()
        return records

    def recover(self) -> list:
        """Like :meth:`read`, but physically truncates a torn tail so
        subsequent appends continue a clean file."""
        records, torn = self._scan()
        if torn:
            atomic_write_text(
                self.path,
                "".join(canonical_line(r) + "\n" for r in records),
                durable=True,
            )
        return records

    def _scan(self):
        if not self.path.exists():
            return [], False
        data = self.path.read_bytes().decode("utf-8", errors="replace")
        records: list = []
        torn = False
        lines = data.split("\n")
        # a clean file ends with "\n", so the final split element is ""
        terminated, tail = lines[:-1], lines[-1]
        for index, line in enumerate(terminated):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index == len(terminated) - 1 and not tail:
                    # torn final line that still got its newline flushed
                    torn = True
                    break
                raise AutotuneError(
                    f"{self.path}: undecodable journal line {index + 1}"
                ) from None
            if not isinstance(record, dict) or "type" not in record:
                raise AutotuneError(
                    f"{self.path}: journal line {index + 1} is not a record"
                )
            records.append(record)
        if tail:
            torn = True  # kill mid-write: no trailing newline
        return records, torn


__all__ = ["SearchJournal", "canonical_line"]
