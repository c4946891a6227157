"""Checkpoint journals: crash-safe sweep progress for ``/v1/jobs``.

A :class:`SweepCheckpoint` is an append-only JSONL file in a directory
the caller names (the job store gives every job its own), keyed by a
SHA-256 content hash of the *sweep spec* — the sweep's name plus every
parameter that shapes its point grid. Two runs over the same spec share
a journal; changing any parameter changes the digest, the filename and
therefore the journal, so a resume can never mix incompatible runs.

File layout::

    {"format": "repro-sweep-journal/1", "name": ..., "spec_sha256": ...}
    {"index": 0, "status": "ok", "attempts": 1, "elapsed_s": ..., "value": "<b64 pickle>"}
    {"index": 3, "status": "failed", "attempts": 3, "error": "ValueError(...)", ...}

Durability contract:

* the header is written atomically (tmp + ``os.replace`` + fsync, via
  :mod:`repro.core.atomicio`), so a journal either exists whole or not
  at all;
* each record append is flushed and fsync'd before the engine moves on,
  so a completed point survives any later crash;
* a crash *mid-append* leaves at most one truncated trailing line,
  which the loader detects and drops — the journal is self-healing.

The engine journals only completed (``"ok"``) points. Journals written
by earlier builds may also hold ``"failed"``, ``"timed_out"`` or
``"crashed"`` records; those still load and their points re-run.
Values round-trip through pickle (base64-wrapped inside the JSON), so
restored points are bit-identical to freshly computed ones — the
property a resumed job's byte-identical result rests on. Treat
journals like any local pickle: data you wrote, not data you downloaded.

The record codec (:func:`dump_record` / :func:`load_record`: canonical
JSON plus a CRC32 of the body) and the ``flock`` primitive
(:class:`FileLock`) are shared with the job store in
:mod:`repro.serve.jobs`, whose ``repro-job-journal/1`` event journals
use the same line format.

Single-writer discipline: opening a journal takes an advisory
``flock`` on a ``.lock`` sidecar, so two concurrent opens of the same
checkpoint fail fast with :class:`~repro.core.errors.CheckpointError`
instead of interleaving appends. The lock dies with its holder (the
kernel releases ``flock`` on process exit), which is the stale-lock
story: a sidecar left behind by a crashed run does not block the next
one — it is detected, reported in the lock file, and reclaimed.
Reclaim is *same-host only*: the sidecar records ``host`` alongside
``pid``, and a sidecar written by a different machine is never treated
as stale — ``flock`` visibility does not span hosts on shared storage,
and a foreign pid existing (or not) on *this* host says nothing about
the real owner.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import socket
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover - Windows: advisory locking disabled
    fcntl = None  # type: ignore[assignment]

from repro.core.atomicio import atomic_write_text
from repro.core.errors import CheckpointError

__all__ = [
    "FileLock",
    "JOURNAL_FORMAT",
    "JournalEntry",
    "JournalLock",
    "SweepCheckpoint",
    "dump_record",
    "load_record",
    "spec_digest",
]

#: Schema tag written into (and required of) every journal header.
JOURNAL_FORMAT = "repro-sweep-journal/1"

def spec_digest(name: str, spec: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``(name, spec)``."""
    canonical = json.dumps(
        {"name": name, "spec": spec}, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class FileLock:
    """An exclusive, non-blocking advisory ``flock`` on one file.

    The lock follows the open file description, so two threads of one
    process conflict exactly like two processes do, and the kernel frees
    it when the holder dies — which is what lets a later run (or a
    sibling job runner) take over from a crashed owner. Off POSIX there
    is no ``fcntl`` and :meth:`acquire` always succeeds.
    """

    def __init__(self, path: "str | os.PathLike"):
        self.path = Path(path)
        #: The open handle while held; the lock lives as long as it does.
        self.handle: Any = None

    def acquire(self) -> bool:
        """Take the lock; ``False`` means a live holder already has it."""
        handle = open(self.path, "a+", encoding="utf-8")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                return False
        self.handle = handle
        return True

    def release(self) -> None:
        """Drop the lock and close the handle (idempotent)."""
        if self.handle is None:
            return
        if fcntl is not None:
            try:
                fcntl.flock(self.handle.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - file removed underneath us
                pass
        self.handle.close()
        self.handle = None


class JournalLock:
    """Advisory single-writer lock on a journal's ``.lock`` sidecar.

    A :class:`FileLock`: acquisition fails immediately when another
    *live* process holds the lock, and the kernel releases it
    automatically when the holder exits — so a crashed run can never
    wedge future resumes. The sidecar records the holder's host, pid and
    start time; on contention that metadata is quoted in the
    :class:`CheckpointError`, and on reclaim of a stale sidecar (file
    present, lock free — the previous holder died) the stale holder's
    pid is remembered on :attr:`reclaimed_from`.

    Reclaim is refused when the sidecar was written by a *different
    host*: ``flock`` state lives in one kernel, so on shared storage a
    foreign holder can look free locally while being very much alive —
    and pids collide across machines, making "that pid is gone here"
    meaningless. A cross-host sidecar therefore always raises
    :class:`CheckpointError` and must be removed by hand once the
    owning host is confirmed dead. Sidecars without a recorded host
    (written before the field existed) reclaim as before.
    """

    def __init__(self, journal_path: "str | os.PathLike"):
        self.path = Path(str(journal_path) + ".lock")
        self._lock = FileLock(self.path)
        #: pid recorded in a stale sidecar this acquisition reclaimed.
        self.reclaimed_from: "int | None" = None

    @property
    def held(self) -> bool:
        """True while this process holds the lock."""
        return self._lock.handle is not None

    def acquire(self) -> "JournalLock":
        """Take the lock or raise :class:`CheckpointError` naming the holder."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        stale = self._read_holder()
        if not self._lock.acquire():
            holder = self._read_holder()
            detail = (
                f" (held by {self._describe_holder(holder)} since {holder['started']})"
                if holder
                else ""
            )
            raise CheckpointError(
                f"checkpoint journal {self.path.stem!r} is locked by another "
                f"open of the same checkpoint{detail}; wait for it to close or "
                f"remove {self.path} if that process is truly gone"
            )
        if stale:
            owner_host = stale.get("host")
            if owner_host is not None and owner_host != socket.gethostname():
                self._lock.release()
                raise CheckpointError(
                    f"checkpoint journal {self.path.stem!r} is locked by "
                    f"{self._describe_holder(stale)} on a different host; "
                    f"flock state does not span hosts, so this run cannot "
                    f"tell a dead owner from a live one — remove {self.path} "
                    f"only after confirming that host's run is gone"
                )
            self.reclaimed_from = stale.get("pid")
        handle = self._lock.handle
        handle.seek(0)
        handle.truncate()
        handle.write(
            json.dumps(
                {
                    "host": socket.gethostname(),
                    "pid": os.getpid(),
                    "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
                },
                sort_keys=True,
            )
            + "\n"
        )
        handle.flush()
        return self

    @staticmethod
    def _describe_holder(holder: "Mapping[str, Any] | None") -> str:
        """A ``host:pid`` label for lock diagnostics (tolerates old payloads)."""
        if not holder:
            return "an unknown process"
        host = holder.get("host")
        pid = holder.get("pid")
        return f"pid {pid}" if host is None else f"{host}:{pid}"

    def _read_holder(self) -> "dict[str, Any] | None":
        """The sidecar's recorded holder metadata, if parseable."""
        try:
            record = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def release(self) -> None:
        """Drop the lock, leaving an empty sidecar (safe to call twice).

        The sidecar is truncated rather than unlinked: removing the
        path while others may be opening it would let two new runs lock
        *different* inodes under the same name. An empty sidecar with a
        free lock is simply a journal nobody is writing.
        """
        handle = self._lock.handle
        if handle is None:
            return
        handle.seek(0)
        handle.truncate()
        handle.flush()
        self._lock.release()


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """One journalled point outcome, decoded."""

    index: int
    status: str
    attempts: int
    elapsed_s: float
    error: "str | None"
    value: Any


class SweepCheckpoint:
    """An open journal: load prior progress, append new outcomes.

    Use :meth:`open` (or the context-manager form) rather than the
    constructor; it derives the path from the spec digest, validates any
    existing file's header and leaves an append handle ready.
    """

    def __init__(self, path: "str | os.PathLike", name: str, spec: Any):
        self.path = Path(path)
        self.name = name
        self.digest = spec_digest(name, spec)
        self._entries: dict[int, JournalEntry] = {}
        self._handle: Any = None
        self._lock: "JournalLock | None" = None

    @classmethod
    def open(cls, name: str, spec: Any, *, directory: "str | os.PathLike") -> "SweepCheckpoint":
        """Open (or create) the journal for ``(name, spec)`` under ``directory``.

        Takes the journal's advisory :class:`JournalLock` first, so a
        second concurrent open of the same checkpoint fails fast with
        :class:`~repro.core.errors.CheckpointError` rather than
        interleaving appends into the same file.
        """
        digest = spec_digest(name, spec)
        checkpoint = cls(Path(directory) / f"{name}-{digest[:16]}.jsonl", name, spec)
        lock = JournalLock(checkpoint.path).acquire()
        try:
            checkpoint._ensure_file()
            checkpoint._handle = open(checkpoint.path, "a", encoding="utf-8")
        except BaseException:
            lock.release()
            raise
        checkpoint._lock = lock
        return checkpoint

    def _ensure_file(self) -> None:
        """Validate an existing journal or atomically start a fresh one."""
        if self.path.exists():
            entries = self._read_entries()
            if entries is not None:
                self._entries = entries
                return
        header = json.dumps(
            {"format": JOURNAL_FORMAT, "name": self.name, "spec_sha256": self.digest},
            sort_keys=True,
        )
        atomic_write_text(self.path, header + "\n")
        self._entries = {}

    def _read_entries(self) -> "dict[int, JournalEntry] | None":
        """Parse the journal; ``None`` means the header is unusable."""
        lines = self.path.read_text(encoding="utf-8").splitlines()
        if not lines:
            return None
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            return None
        if not isinstance(header, dict):
            return None
        if header.get("format") != JOURNAL_FORMAT or header.get("spec_sha256") != self.digest:
            return None
        entries: dict[int, JournalEntry] = {}
        for line in lines[1:]:
            entry = _decode_record(line)
            if entry is None:
                # A truncated tail (crash mid-append) or a corrupt
                # middle record (bit rot, caught by the per-record
                # CRC): drop just that record — its point re-runs —
                # and keep restoring everything after it.
                continue
            entries[entry.index] = entry
        return entries

    def load(self) -> dict[int, JournalEntry]:
        """Completed (``status == "ok"``) entries, keyed by point index."""
        return {
            index: entry
            for index, entry in self._entries.items()
            if entry.status == "ok"
        }

    @property
    def completed(self) -> int:
        """How many points this journal already holds values for."""
        return len(self.load())

    def record(self, outcome: Any) -> None:
        """Append one freshly computed outcome, flushed and fsync'd.

        Restored (``"skipped"``) outcomes are not re-journalled — they
        are already on disk from the run that computed them. The record
        keeps the ``attempts`` and ``error`` fields earlier builds
        wrote, so journals stay readable across builds.
        """
        if self._handle is None:
            raise ValueError(f"checkpoint {self.path} is not open")
        if outcome.status == "skipped":
            return
        record = {
            "index": outcome.index,
            "status": "ok",
            "attempts": 1,
            "elapsed_s": outcome.elapsed_s,
            "error": None,
            "value": base64.b64encode(pickle.dumps(outcome.value)).decode("ascii"),
        }
        self._handle.write(dump_record(record))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._entries[outcome.index] = JournalEntry(
            outcome.index, "ok", 1, outcome.elapsed_s, None, outcome.value
        )

    def close(self) -> None:
        """Release the append handle and the advisory lock (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._lock is not None:
            self._lock.release()
            self._lock = None

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _record_crc(body: "Mapping[str, Any]") -> int:
    """CRC32 of a record body's canonical JSON (sans the ``crc`` key)."""
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


def dump_record(body: "Mapping[str, Any]") -> str:
    """One journal line: ``body`` plus its ``crc``, as sorted-key JSON.

        >>> dump_record({"index": 0})
        '{"crc": 3470326675, "index": 0}\\n'
    """
    return json.dumps({**body, "crc": _record_crc(body)}, sort_keys=True) + "\n"


def load_record(line: str) -> "dict[str, Any] | None":
    """A journal line back into its body; ``None`` if it is not one.

    A record that parses as JSON but fails its checksum (a flipped bit
    mid-file, not just a truncated tail) is rejected like unparseable
    text, so the caller drops that record instead of trusting a silently
    corrupted one. Legacy records without a ``crc`` are accepted.

        >>> load_record(dump_record({"index": 0}))
        {'index': 0}
        >>> load_record('{"crc": 1, "index": 0}') is None
        True
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    crc = record.pop("crc", None)
    if crc is not None and crc != _record_crc(record):
        return None
    return record


def _decode_record(line: str) -> "JournalEntry | None":
    """One sweep record back into a :class:`JournalEntry`; None if bad."""
    record = load_record(line)
    if record is None or not isinstance(record.get("index"), int):
        return None
    status = record.get("status")
    # "crashed" is no longer produced, but older journals still carry it.
    if status not in ("ok", "failed", "timed_out", "crashed"):
        return None
    value = None
    if status == "ok":
        try:
            value = pickle.loads(base64.b64decode(record["value"]))
        except Exception:
            return None  # stale pickle (code drift) — recompute instead
    return JournalEntry(
        index=record["index"],
        status=status,
        attempts=int(record.get("attempts", 1)),
        elapsed_s=float(record.get("elapsed_s", 0.0)),
        error=record.get("error"),
        value=value,
    )
