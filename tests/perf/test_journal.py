"""The checkpoint journal's durability and self-healing contracts."""

import json
import pickle
import socket

import pytest

from repro.core.atomicio import atomic_write_bytes, atomic_write_text
from repro.core.errors import CheckpointError
from repro.perf import (
    JournalEntry,
    JournalLock,
    PointResult,
    SweepCheckpoint,
    spec_digest,
)
from repro.perf.journal import (
    JOURNAL_FORMAT,
    FileLock,
    dump_record,
    load_record,
)


def _ok(index, value):
    return PointResult(index=index, point=index, value=value, elapsed_s=0.25)


def _failed_line(index):
    """A failed-point record as builds with sweep failure policies wrote it."""
    return dump_record(
        {
            "index": index,
            "status": "failed",
            "attempts": 3,
            "elapsed_s": 0.1,
            "error": "ValueError('boom')",
            "value": None,
        }
    )


class TestSpecDigest:
    def test_digest_is_stable_and_spec_sensitive(self):
        assert spec_digest("s", {"n": 16}) == spec_digest("s", {"n": 16})
        assert spec_digest("s", {"n": 16}) != spec_digest("s", {"n": 17})
        assert spec_digest("s", {"n": 16}) != spec_digest("t", {"n": 16})

    def test_digest_ignores_key_order(self):
        assert spec_digest("s", {"a": 1, "b": 2}) == spec_digest("s", {"b": 2, "a": 1})


class TestRecordCodec:
    """One line format for both journals, byte-compatible with old files."""

    #: A sweep record and a job event exactly as earlier builds wrote them.
    SWEEP_LINE = (
        '{"attempts": 1, "crc": 457916474, "elapsed_s": 0.5, "error": null, '
        '"index": 3, "status": "ok", "value": "gARLCS4="}'
    )
    JOB_LINE = '{"crc": 4218352474, "event": "started", "ts": 2.5}'

    def test_dump_record_writes_the_committed_line_format(self):
        sweep_body = {
            "index": 3, "status": "ok", "attempts": 1,
            "elapsed_s": 0.5, "error": None, "value": "gARLCS4=",
        }
        assert dump_record(sweep_body) == self.SWEEP_LINE + "\n"
        assert dump_record({"event": "started", "ts": 2.5}) == self.JOB_LINE + "\n"

    def test_load_record_checks_the_crc(self):
        assert load_record(self.JOB_LINE) == {"event": "started", "ts": 2.5}
        assert load_record(self.JOB_LINE.replace("2.5", "3.5")) is None
        assert load_record('{"event": "started"}') == {"event": "started"}  # legacy
        assert load_record("[1, 2]") is None
        assert load_record('{"event": "sta') is None


class TestPoolJournals:
    """Journals written while sweeps could run on a process pool stay readable."""

    #: A ``jobs=2, on_error="skip"`` journal over ``range(8)`` whose point 3
    #: killed its worker, exactly as that build wrote it.
    NAME = "chaos-170b29429309ecea.jsonl"
    HEADER = (
        '{"format": "repro-sweep-journal/1", "name": "chaos", '
        '"spec_sha256": "170b29429309ecead7b9380bb66746c9393bfaa5f2dec80238053a53ec04c4cc"}'
    )
    RECORDS = (
        '{"attempts": 1, "crc": 2248479196, "elapsed_s": 2.6311001420253888e-05, "error": null, "index": 0, "status": "ok", "value": "gARLAC4="}',
        '{"attempts": 1, "crc": 4190865233, "elapsed_s": 2.969001798192039e-06, "error": null, "index": 1, "status": "ok", "value": "gARLAS4="}',
        '{"attempts": 1, "crc": 337509025, "elapsed_s": 1.8600003386382014e-06, "error": null, "index": 2, "status": "ok", "value": "gARLBC4="}',
        '{"attempts": 1, "crc": 1888612074, "elapsed_s": 1.6261001292150468e-05, "error": null, "index": 4, "status": "ok", "value": "gARLEC4="}',
        '{"attempts": 1, "crc": 2694334194, "elapsed_s": 2.553999365773052e-06, "error": null, "index": 5, "status": "ok", "value": "gARLGS4="}',
        '{"attempts": 1, "crc": 297950450, "elapsed_s": 2.844000846380368e-06, "error": null, "index": 6, "status": "ok", "value": "gARLJC4="}',
        '{"attempts": 1, "crc": 116095779, "elapsed_s": 3.2339994504582137e-06, "error": null, "index": 7, "status": "ok", "value": "gARLMS4="}',
        '{"attempts": 1, "crc": 3791846151, "elapsed_s": 0.0, "error": "BrokenProcessPool(\'A process in the process pool was terminated abruptly while the future was running or pending.\')", "index": 3, "status": "crashed", "value": null}',
    )

    def test_crashed_record_still_decodes(self):
        from repro.perf.journal import _decode_record

        entry = _decode_record(self.RECORDS[-1])
        assert (entry.index, entry.status, entry.value) == (3, "crashed", None)
        assert entry.error.startswith("BrokenProcessPool(")

    def test_resume_recomputes_only_the_crashed_point(self, tmp_path):
        from repro.perf import sweep

        spec = {"points": 8}
        lines = (self.HEADER, *self.RECORDS)
        (tmp_path / self.NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
        recomputed = []

        def square(x):
            recomputed.append(x)
            return x * x

        result = sweep(square, range(8), journal=("chaos", spec), checkpoint_dir=tmp_path)
        assert recomputed == [3]
        assert list(result) == [x * x for x in range(8)]
        assert result.resumed == 7


class TestFileLock:
    def test_lock_is_exclusive_across_handles_and_releasable(self, tmp_path):
        first, second = FileLock(tmp_path / "x.lock"), FileLock(tmp_path / "x.lock")
        assert first.acquire()
        assert not second.acquire()
        first.release()
        first.release()  # idempotent
        assert second.acquire()
        second.release()


class TestSweepCheckpoint:
    def test_round_trip_restores_only_ok_entries(self, tmp_path):
        spec = {"n": 4}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, {"area": 12.5}))
            with open(checkpoint.path, "a", encoding="utf-8") as handle:
                handle.write(_failed_line(1))
            checkpoint.record(_ok(2, (1, 2.5, "three")))
        reopened = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        done = reopened.load()
        reopened.close()
        assert set(done) == {0, 2}
        assert done[0].value == {"area": 12.5}
        assert done[2].value == (1, 2.5, "three")
        assert isinstance(done[0], JournalEntry)
        assert reopened.completed == 2

    def test_skipped_outcomes_are_not_rejournalled(self, tmp_path):
        with SweepCheckpoint.open("unit", {}, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, 1))
            restored = PointResult(
                index=0, point=0, value=1, elapsed_s=0.0, status="skipped"
            )
            checkpoint.record(restored)
            lines = checkpoint.path.read_text().splitlines()
        assert len(lines) == 2  # header + the one real record

    def test_record_on_a_closed_checkpoint_raises(self, tmp_path):
        checkpoint = SweepCheckpoint.open("unit", {}, directory=tmp_path)
        checkpoint.close()
        checkpoint.close()  # idempotent
        with pytest.raises(ValueError, match="not open"):
            checkpoint.record(_ok(0, 1))

    def test_truncated_tail_is_dropped(self, tmp_path):
        spec = {"n": 4}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, "zero"))
            checkpoint.record(_ok(1, "one"))
            path = checkpoint.path
        # Simulate a crash mid-append: half a JSON record at the tail.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 2, "status": "o')
        reopened = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        done = reopened.load()
        reopened.close()
        assert set(done) == {0, 1}

    def test_header_mismatch_starts_a_fresh_journal(self, tmp_path):
        with SweepCheckpoint.open("unit", {"n": 1}, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, 1))
            path = checkpoint.path
        # Corrupt the header wholesale; reopening must not trust the file.
        content = path.read_text().splitlines()
        content[0] = json.dumps({"format": "something-else/9"})
        path.write_text("\n".join(content) + "\n")
        reopened = SweepCheckpoint.open("unit", {"n": 1}, directory=tmp_path)
        try:
            assert reopened.load() == {}
            header = json.loads(reopened.path.read_text().splitlines()[0])
            assert header["format"] == JOURNAL_FORMAT
        finally:
            reopened.close()

    def test_stale_pickle_truncates_from_there(self, tmp_path):
        spec = {"n": 1}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, 1))
            path = checkpoint.path
        record = {
            "index": 1,
            "status": "ok",
            "attempts": 1,
            "elapsed_s": 0.1,
            "error": None,
            "value": "bm90LXBpY2tsZQ==",  # valid base64, not a pickle
        }
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        reopened = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        done = reopened.load()
        reopened.close()
        assert set(done) == {0}

    def test_unknown_status_is_rejected(self, tmp_path):
        from repro.perf.journal import _decode_record

        assert _decode_record(json.dumps({"index": 0, "status": "maybe"})) is None
        assert _decode_record(json.dumps({"index": "zero", "status": "ok"})) is None
        assert _decode_record(json.dumps([1, 2, 3])) is None
        assert _decode_record("not json") is None


def _corrupt_record(path, index, mutate):
    """Rewrite the journal record for ``index`` through ``mutate``.

    The mutated record is re-serialised as valid JSON with its *original*
    ``crc`` untouched, so only the checksum — not the JSON parser, not the
    pickle decoder — can tell the record went bad.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    for position, line in enumerate(lines[1:], start=1):
        record = json.loads(line)
        if isinstance(record, dict) and record.get("index") == index:
            mutate(record)
            lines[position] = json.dumps(record, sort_keys=True)
            break
    else:  # pragma: no cover - would mean the test setup is wrong
        raise AssertionError(f"no record for index {index} in {path}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestRecordChecksums:
    """Per-record CRCs turn silent bit rot into a drop-and-rerun."""

    def test_bit_rotted_record_is_dropped_but_neighbours_survive(self, tmp_path):
        spec = {"n": 3}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            for index in range(3):
                checkpoint.record(_ok(index, f"value-{index}"))
            path = checkpoint.path

        def flip_a_value_byte(record):
            # A *valid* base64 pickle of a different value: every layer
            # except the CRC would happily accept it.
            import base64

            record["value"] = base64.b64encode(pickle.dumps("tampered")).decode()

        _corrupt_record(path, 1, flip_a_value_byte)
        reopened = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        done = reopened.load()
        reopened.close()
        assert set(done) == {0, 2}
        assert done[0].value == "value-0"
        assert done[2].value == "value-2"

    def test_tampered_metadata_fails_the_crc_too(self, tmp_path):
        spec = {"n": 2}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, "zero"))
            checkpoint.record(_ok(1, "one"))
            path = checkpoint.path
        _corrupt_record(path, 0, lambda record: record.update(attempts=99))
        reopened = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        done = reopened.load()
        reopened.close()
        assert set(done) == {1}

    def test_legacy_record_without_crc_still_loads(self, tmp_path):
        import base64

        spec = {"n": 2}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, "zero"))
            path = checkpoint.path
        legacy = {
            "index": 1,
            "status": "ok",
            "attempts": 1,
            "elapsed_s": 0.1,
            "error": None,
            "value": base64.b64encode(pickle.dumps("one")).decode("ascii"),
        }
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(legacy) + "\n")
        reopened = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        done = reopened.load()
        reopened.close()
        assert set(done) == {0, 1}
        assert done[1].value == "one"

    def test_resume_recomputes_only_the_corrupted_point(self, tmp_path):
        from repro.perf import sweep

        journal = ("unit", {"kind": "crc-resume"})
        sweep(lambda x: x * 10, range(4), journal=journal, checkpoint_dir=tmp_path)
        (path,) = tmp_path.glob("unit-*.jsonl")
        _corrupt_record(path, 2, lambda record: record.update(elapsed_s=1e9))
        recomputed = []

        def traced(x):
            recomputed.append(x)
            return x * 10

        result = sweep(traced, range(4), journal=journal, checkpoint_dir=tmp_path)
        assert list(result.values) == [0, 10, 20, 30]
        assert recomputed == [2]


class TestAtomicWrites:
    def test_atomic_write_text_replaces_content(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        # No stray temp files left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    def test_atomic_write_bytes_creates_parents_file(self, tmp_path):
        target = tmp_path / "nested" / "artifact.bin"
        target.parent.mkdir()
        written = atomic_write_bytes(target, b"\x00\x01")
        assert written == target
        assert target.read_bytes() == b"\x00\x01"

    def test_export_write_csv_is_atomic_and_crlf(self, tmp_path):
        from repro.reporting.export import rows_to_csv, write_csv

        target = tmp_path / "table.csv"
        write_csv(target, ("a", "b"), [(1, 2), (3, 4)])
        data = target.read_bytes()
        assert data == rows_to_csv(("a", "b"), [(1, 2), (3, 4)]).encode()
        assert b"\r\n" in data


class TestJournalLock:
    def test_concurrent_open_fails_fast_with_the_holder(self, tmp_path):
        from repro.core.errors import CheckpointError

        spec = {"n": 1}
        first = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        try:
            with pytest.raises(
                CheckpointError, match="locked by another open of the same checkpoint"
            ) as info:
                SweepCheckpoint.open("unit", spec, directory=tmp_path)
            # The error names the live holder so the operator can find it.
            import os

            assert f"{socket.gethostname()}:{os.getpid()}" in str(info.value)
        finally:
            first.close()

    def test_reopen_after_close_succeeds(self, tmp_path):
        spec = {"n": 1}
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as checkpoint:
            checkpoint.record(_ok(0, 1))
        with SweepCheckpoint.open("unit", spec, directory=tmp_path) as reopened:
            assert set(reopened.load()) == {0}

    def test_different_specs_do_not_contend(self, tmp_path):
        first = SweepCheckpoint.open("unit", {"n": 1}, directory=tmp_path)
        second = SweepCheckpoint.open("unit", {"n": 2}, directory=tmp_path)
        first.close()
        second.close()

    def test_stale_sidecar_is_reclaimed(self, tmp_path):
        from repro.perf import JournalLock

        journal = tmp_path / "unit-cafe.jsonl"
        sidecar = tmp_path / "unit-cafe.jsonl.lock"
        # A crashed run leaves its metadata behind; the kernel released
        # the flock with the dead process, so the next run reclaims it.
        sidecar.write_text('{"pid": 99999999, "started": "2026-01-01T00:00:00"}\n')
        lock = JournalLock(journal).acquire()
        try:
            assert lock.held
            assert lock.reclaimed_from == 99999999
        finally:
            lock.release()
        assert not lock.held

    def test_release_truncates_but_keeps_the_sidecar(self, tmp_path):
        from repro.perf import JournalLock

        lock = JournalLock(tmp_path / "unit-beef.jsonl").acquire()
        assert lock.path.read_text().strip()  # holder metadata recorded
        lock.release()
        assert lock.path.exists()
        assert lock.path.read_text() == ""  # empty sidecar = nobody writing
        lock.release()  # idempotent

    def test_close_releases_the_lock_even_unused(self, tmp_path):
        spec = {"n": 3}
        checkpoint = SweepCheckpoint.open("unit", spec, directory=tmp_path)
        checkpoint.close()
        checkpoint.close()  # idempotent
        SweepCheckpoint.open("unit", spec, directory=tmp_path).close()


class TestJournalLockCrossHost:
    """Stale-lock reclaim must never reach across machines."""

    def test_foreign_host_sidecar_refuses_reclaim(self, tmp_path):
        journal = tmp_path / "unit-d15c.jsonl"
        sidecar = tmp_path / "unit-d15c.jsonl.lock"
        sidecar.write_text(
            json.dumps(
                {"host": "some-other-box", "pid": 4242,
                 "started": "2026-01-01T00:00:00"}
            )
            + "\n"
        )
        lock = JournalLock(journal)
        with pytest.raises(CheckpointError, match="different host") as info:
            lock.acquire()
        # The refusal names the foreign owner and tells the operator
        # what evidence is needed before removing the sidecar by hand.
        assert "some-other-box:4242" in str(info.value)
        assert not lock.held
        # The sidecar is untouched — refusal must not clobber the
        # foreign owner's metadata.
        assert json.loads(sidecar.read_text())["host"] == "some-other-box"

    def test_same_host_dead_pid_is_reclaimed(self, tmp_path):
        journal = tmp_path / "unit-5a3e.jsonl"
        sidecar = tmp_path / "unit-5a3e.jsonl.lock"
        sidecar.write_text(
            json.dumps(
                {"host": socket.gethostname(), "pid": 99999999,
                 "started": "2026-01-01T00:00:00"}
            )
            + "\n"
        )
        lock = JournalLock(journal).acquire()
        try:
            assert lock.held
            assert lock.reclaimed_from == 99999999
        finally:
            lock.release()

    def test_describe_holder_tolerates_every_payload_shape(self):
        describe = JournalLock._describe_holder
        assert describe(None) == "an unknown process"
        assert describe({"pid": 7}) == "pid 7"  # pre-host sidecar
        assert describe({"host": "box", "pid": 7}) == "box:7"
