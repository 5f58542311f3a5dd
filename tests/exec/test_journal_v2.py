"""Journal v2: checksums, sequence numbers, quarantine, fsck, degradation.

Every corruption mode the resilience layer claims to survive
(docs/RESILIENCE.md) gets a test here: torn tails from a process killed
mid-append, CRC bit-flips, binary garbage, empty files, lines without
the envelope, and a full disk mid-campaign.
"""

import json
import os

import pytest

from repro.exec import FsckReport, Journal, fsck_journal
from repro.exec.journal import CRC_KEY, SEQ_KEY, record_crc


def write_v2_journal(path, records):
    """Author a valid v2 journal on disk without going through Journal."""
    journal = Journal(path)
    for record in records:
        journal.append(record)
    journal.close()
    return path


class TestEnvelope:
    def test_records_are_sealed_with_crc_and_seq(self, tmp_path):
        path = write_v2_journal(tmp_path / "j.jsonl", [{"key": "a"}, {"key": "b"}])
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l[SEQ_KEY] for l in lines] == [0, 1]
        for line in lines:
            payload = {k: v for k, v in line.items() if k not in (CRC_KEY, SEQ_KEY)}
            assert line[CRC_KEY] == record_crc(payload)

    def test_envelope_is_stripped_on_read(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"key": "a", "value": 1})
        (record,) = journal.load()
        assert record == {"key": "a", "value": 1}
        assert journal.verified_records == 1

    def test_crc_is_order_insensitive(self):
        assert record_crc({"a": 1, "b": 2}) == record_crc({"b": 2, "a": 1})
        assert record_crc({"a": 1}) != record_crc({"a": 2})

    def test_seq_resumes_across_journal_objects(self, tmp_path):
        path = write_v2_journal(tmp_path / "j.jsonl", [{"key": "a"}, {"key": "b"}])
        reopened = Journal(path)
        reopened.append({"key": "c"})
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l[SEQ_KEY] for l in lines] == [0, 1, 2]


class TestCorruptionRecovery:
    def test_truncated_mid_record_tail_is_quarantined(self, tmp_path):
        """kill -9 mid-append: the torn fragment moves to the sidecar."""
        path = write_v2_journal(tmp_path / "j.jsonl", [{"key": "a"}, {"key": "b"}])
        with open(path, "ab") as handle:
            handle.write(b'{"key": "c", "val')  # no newline: torn write
        journal = Journal(path)
        journal.append({"key": "d"})  # forces tail healing before the write
        assert [r["key"] for r in journal.load()] == ["a", "b", "d"]
        assert journal.corrupt_path.exists()
        assert b'"val' in journal.corrupt_path.read_bytes()
        # The journal itself is whole lines again.
        assert path.read_bytes().endswith(b"\n")

    def test_crc_bitflip_is_detected_and_skipped(self, tmp_path):
        path = write_v2_journal(
            tmp_path / "j.jsonl", [{"key": "a", "value": 1}, {"key": "b", "value": 2}]
        )
        data = path.read_bytes().replace(b'"value": 1', b'"value": 7')
        path.write_bytes(data)
        journal = Journal(path)
        assert [r["key"] for r in journal.load()] == ["b"]
        assert journal.corrupt_lines == 1
        assert journal.verified_records == 1

    def test_binary_garbage_lines_do_not_kill_the_load(self, tmp_path):
        path = write_v2_journal(tmp_path / "j.jsonl", [{"key": "a"}])
        with open(path, "ab") as handle:
            handle.write(b"\x00\xff\xfe garbage \x80\n")
            handle.write(b"\xde\xad\xbe\xef\n")
        journal = Journal(path)
        assert [r["key"] for r in journal.load()] == ["a"]
        assert journal.corrupt_lines == 2

    def test_empty_file_loads_clean(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"")
        journal = Journal(path)
        assert journal.load() == []
        assert journal.corrupt_lines == 0
        report = fsck_journal(path)
        assert report.clean and report.total_lines == 0

    def test_envelope_less_journal_is_corrupt(self, tmp_path):
        """A line without ``_crc`` cannot be verified: it is corrupt."""
        path = tmp_path / "j.jsonl"
        path.write_text('{"key": "a"}\n{"key": "b"}\n')
        journal = Journal(path)
        assert journal.load() == []
        assert journal.verified_records == 0
        assert journal.corrupt_lines == 2

    def test_mixed_v1_v2_journal(self, tmp_path):
        """An envelope-less line among sealed ones is skipped on load and
        quarantined by ``fsck --repair``."""
        path = write_v2_journal(tmp_path / "j.jsonl", [{"key": "v2"}])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "v1"}\n')
        journal = Journal(path)
        assert [r["key"] for r in journal.load()] == ["v2"]
        assert journal.verified_records == 1
        assert journal.corrupt_lines == 1
        report = fsck_journal(path, repair=True)
        assert (report.verified, report.corrupt) == (1, 1)
        assert report.corrupt_line_numbers == [2]
        assert journal.corrupt_path.read_text() == '{"key": "v1"}\n'
        assert fsck_journal(path).clean


class TestAppendFastPath:
    def test_handle_is_reused_across_appends(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"key": 0})
        handle = journal._handle
        for i in range(1, 20):
            journal.append({"key": i})
        assert journal._handle is handle  # O(1): no reopen per append
        assert len(journal.load()) == 20

    def test_external_append_reverifies_the_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"key": "a"})
        with open(path, "ab") as handle:
            handle.write(b'{"torn')  # another writer tears the tail
        journal.append({"key": "b"})
        assert [r["key"] for r in journal.load()] == ["a", "b"]
        assert journal.corrupt_path.exists()

    def test_path_replaced_underneath_is_detected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"key": "a"})
        path.unlink()
        journal.append({"key": "b"})
        assert [r["key"] for r in journal.load()] == ["b"]


class TestDegradation:
    class _FullDiskHandle:
        """A handle whose writes fail like a disk that just filled up."""

        def write(self, data):
            raise OSError(28, "No space left on device")

        def flush(self):  # pragma: no cover - write raises first
            pass

        def fileno(self):  # pragma: no cover - write raises first
            return -1

        def close(self):
            pass

    def test_enospc_degrades_instead_of_crashing(self, tmp_path, capsys):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"key": "a"})
        journal._handle.close()
        journal._handle = self._FullDiskHandle()
        journal.append({"key": "b"})  # must not raise
        assert journal.degraded
        assert "No space left on device" in journal.degraded_reason
        assert "NOT resumable" in capsys.readouterr().err
        # Later appends go straight to memory, and reads see everything.
        journal.append({"key": "c"})
        assert [r["key"] for r in journal.load()] == ["a", "b", "c"]

    def test_unwritable_path_degrades_on_first_append(self, tmp_path, capsys):
        journal = Journal(tmp_path)  # a directory: open("ab") fails
        journal.append({"key": "a"})
        assert journal.degraded
        assert "WARNING" in capsys.readouterr().err
        assert journal.load() == [{"key": "a"}]


class TestClear:
    def test_clear_removes_quarantine_sidecar(self, tmp_path):
        """A fresh campaign must not inherit the old run's quarantine."""
        path = write_v2_journal(tmp_path / "j.jsonl", [{"key": "a"}])
        with open(path, "ab") as handle:
            handle.write(b'{"torn')  # tear the tail...
        journal = Journal(path)
        journal.append({"key": "b"})  # ...healing quarantines it
        assert journal.corrupt_path.exists()
        journal.clear()
        assert not path.exists()
        assert not journal.corrupt_path.exists()

    def test_clear_resets_counters_and_sequence(self, tmp_path):
        path = write_v2_journal(tmp_path / "j.jsonl", [{"key": "a"}])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "v1"}\n')  # envelope-less: corrupt
        journal = Journal(path)
        journal.load()
        assert (journal.verified_records, journal.corrupt_lines) == (1, 1)
        journal.clear()
        assert journal.verified_records == 0
        assert journal.corrupt_lines == 0
        journal.append({"key": "fresh"})
        line = json.loads(path.read_text().splitlines()[0])
        assert line[SEQ_KEY] == 0  # sequence restarts with the new campaign

    def test_clear_in_degraded_memory_mode(self, tmp_path, capsys):
        journal = Journal(tmp_path)  # a directory: first append degrades
        journal.append({"key": "a"})
        assert journal.degraded and journal.load() == [{"key": "a"}]
        capsys.readouterr()
        journal.clear()
        assert not journal.degraded
        assert journal.degraded_reason is None
        assert journal.load() == []  # in-memory records dropped too

    def test_clear_without_artifacts_is_a_noop(self, tmp_path):
        journal = Journal(tmp_path / "never-written.jsonl")
        journal.clear()  # must not raise
        assert journal.load() == []


class TestCounterSnapshot:
    """iter_records() refreshes counters atomically, after full iteration."""

    def _journal_with_one_of_each(self, tmp_path):
        path = write_v2_journal(
            tmp_path / "j.jsonl", [{"key": "a"}, {"key": "b"}]
        )
        with open(path, "ab") as handle:
            handle.write(b'{"key": "v1"}\n')  # corrupt (no envelope)
            handle.write(b"\xde\xad garbage\n")  # corrupt
        return Journal(path)

    def test_partial_iteration_does_not_clobber_counters(self, tmp_path):
        journal = self._journal_with_one_of_each(tmp_path)
        journal.load()
        before = (journal.verified_records, journal.corrupt_lines)
        assert before == (2, 2)
        iterator = journal.iter_records()
        next(iterator)  # consume one record, then abandon the iterator
        assert (journal.verified_records, journal.corrupt_lines) == before

    def test_full_iteration_refreshes_counters(self, tmp_path):
        journal = self._journal_with_one_of_each(tmp_path)
        assert len(list(journal.iter_records())) == 2
        assert journal.verified_records == 2
        assert journal.corrupt_lines == 2

    def test_interleaved_iterations_are_independent(self, tmp_path):
        journal = self._journal_with_one_of_each(tmp_path)
        outer = journal.iter_records()
        next(outer)
        # A nested full pass (e.g. a report while resume is scanning).
        assert len(journal.load()) == 2
        snapshot = (journal.verified_records, journal.corrupt_lines)
        list(outer)  # finishing the outer pass re-lands the same snapshot
        assert (journal.verified_records, journal.corrupt_lines) == snapshot


class TestLastManifest:
    def _manifest(self, run):
        return {"kind": "manifest", "command": "sweep", "run": run}

    def test_latest_manifest_wins(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(self._manifest(1))
        journal.append({"key": "a", "status": "ok"})
        journal.append(self._manifest(2))
        journal.append({"key": "b", "status": "ok"})
        manifest = journal.last_manifest()
        assert manifest is not None and manifest["run"] == 2

    def test_returns_none_without_manifests(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"key": "a"})
        assert journal.last_manifest() is None
        assert Journal(tmp_path / "absent.jsonl").last_manifest() is None

    def test_tail_scan_does_not_touch_counters(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(self._manifest(1))
        journal.append({"key": "a"})
        journal.load()
        before = journal.verified_records
        assert before == 2
        journal.last_manifest()
        assert journal.verified_records == before

    def test_corrupt_tail_is_skipped(self, tmp_path):
        path = write_v2_journal(
            tmp_path / "j.jsonl", [self._manifest(1), {"key": "a"}]
        )
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "manifest", "torn')
        manifest = Journal(path).last_manifest()
        assert manifest is not None and manifest["run"] == 1

    def test_degraded_memory_records_are_seen_first(self, tmp_path, capsys):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(self._manifest(1))
        journal._handle.close()
        journal._handle = TestDegradation._FullDiskHandle()
        journal.append(self._manifest(2))  # lands in memory, degraded
        capsys.readouterr()
        manifest = journal.last_manifest()
        assert manifest is not None and manifest["run"] == 2


class TestFsck:
    def _corrupt_journal(self, tmp_path):
        path = write_v2_journal(
            tmp_path / "j.jsonl", [{"key": i} for i in range(4)]
        )
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"\xde\xad not json\n"  # corrupt record 1 (line 2)
        del lines[2]  # drop record 2 entirely: a sequence gap
        path.write_bytes(b"".join(lines) + b'{"torn')  # and tear the tail
        return path

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fsck_journal(tmp_path / "absent.jsonl")

    def test_clean_journal_reports_clean(self, tmp_path):
        path = write_v2_journal(tmp_path / "j.jsonl", [{"key": "a"}, {"key": "b"}])
        report = fsck_journal(path)
        assert report.clean
        assert (report.verified, report.corrupt) == (2, 0)
        assert not report.torn_tail
        assert "verdict: clean" in report.render()

    def test_fsck_finds_every_corruption_mode(self, tmp_path):
        report = fsck_journal(self._corrupt_journal(tmp_path))
        assert not report.clean
        assert report.verified == 2  # records 0 and 3 survive
        assert report.corrupt == 2  # the bit-rotted line and the torn tail
        assert report.corrupt_line_numbers == [2, 4]
        assert report.torn_tail
        assert report.seq_missing == 2  # seqs 1 and 2 are gone
        assert "NEEDS ATTENTION" in report.render()

    def test_fsck_detects_duplicate_sequence_numbers(self, tmp_path):
        path = write_v2_journal(tmp_path / "j.jsonl", [{"key": "a"}])
        line = path.read_bytes()
        path.write_bytes(line + line)  # replayed record: same _seq twice
        report = fsck_journal(path)
        assert report.seq_duplicates == 1
        assert not report.clean

    def test_repair_quarantines_and_rewrites_atomically(self, tmp_path):
        path = self._corrupt_journal(tmp_path)
        report = fsck_journal(path, repair=True)
        assert report.repaired
        assert report.quarantined == 2
        sidecar = path.with_name(path.name + ".corrupt")
        assert b"\xde\xad" in sidecar.read_bytes()
        assert b'{"torn' in sidecar.read_bytes()
        # The repaired journal is clean apart from the already-lost seqs.
        after = fsck_journal(path)
        assert after.corrupt == 0
        assert not after.torn_tail
        assert after.verified == 2
        # And it loads without complaints.
        journal = Journal(path)
        assert [r["key"] for r in journal.load()] == [0, 3]
        assert journal.corrupt_lines == 0

    def test_repair_is_a_noop_on_clean_journals(self, tmp_path):
        path = write_v2_journal(tmp_path / "j.jsonl", [{"key": "a"}])
        before = path.read_bytes()
        report = fsck_journal(path, repair=True)
        assert not report.repaired
        assert path.read_bytes() == before

    def test_report_as_dict_matches_clean_property(self, tmp_path):
        path = write_v2_journal(tmp_path / "j.jsonl", [{"key": "a"}])
        report = fsck_journal(path)
        as_dict = report.as_dict()
        assert as_dict["clean"] is True
        assert as_dict["path"] == str(path)
        assert isinstance(report, FsckReport)
