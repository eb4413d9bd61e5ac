"""Durable, atomic file primitives shared across the recording, caching,
and fleet-ingestion layers.

Every on-disk artifact that must never be seen half-written goes through
one of these helpers:

* :func:`atomic_write_text` / :func:`atomic_write_bytes` — write to a
  unique temp file in the same directory, then :func:`os.replace` into
  place, so readers observe either the old contents or the new, never a
  torn prefix.  With ``durable=True`` the data is fsynced before the
  rename and the directory entry is fsynced after it, so the rename
  itself survives a power cut (the write-ahead-log commit discipline);
* :func:`append_line` — one O_APPEND write of a single line (optionally
  fsynced), the journal/WAL append primitive: concurrent appenders from
  different processes never interleave within a line;
* :func:`sha256_file` — streaming file checksum, the identity primitive
  behind experiment manifests and fleet dedup keys;
* :func:`canonical_json` — the one key-sorted, whitespace-free JSON form
  every journal, WAL and dedup key is written in.

The unique temp names (pid + counter) make concurrent writers of the
same target safe: the loser's rename simply overwrites the winner's
whole file, never mixes with it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path

_tmp_counter = itertools.count()


def fsync_dir(path: Path) -> None:
    """Flush a directory entry (rename durability) where the OS allows."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _tmp_name(path: Path) -> Path:
    return path.with_name(
        f"{path.name}.{os.getpid()}.{next(_tmp_counter)}.tmp"
    )


def atomic_write_bytes(path, data: bytes, durable: bool = False) -> None:
    """Write via unique temp file + rename; fsync data and directory when
    ``durable``."""
    path = Path(path)
    tmp = _tmp_name(path)
    try:
        with open(tmp, "wb") as stream:
            stream.write(data)
            if durable:
                stream.flush()
                os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if durable:
        fsync_dir(path.parent)


def atomic_write_text(path, text: str, durable: bool = False) -> None:
    """Text flavor of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(), durable=durable)


def append_line(path, line: str, durable: bool = False) -> None:
    """Append one line in a single O_APPEND write (concurrent-safe)."""
    data = (line + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)


def sha256_file(path) -> str:
    """Streaming SHA-256 of one file."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def canonical_json(record) -> str:
    """Key-sorted JSON without whitespace: equal records, equal bytes."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


__all__ = [
    "append_line",
    "canonical_json",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_dir",
    "sha256_file",
]
