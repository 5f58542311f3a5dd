"""Tests for the JSONL checkpoint journal (repro.exec.journal)."""

from repro.exec import Journal


class TestJournal:
    def test_append_load_round_trip(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"key": "a", "value": 1})
        journal.append({"key": "b", "value": [1, 2]})
        assert journal.load() == [
            {"key": "a", "value": 1},
            {"key": "b", "value": [1, 2]},
        ]
        assert journal.corrupt_lines == 0

    def test_half_written_trailing_line_is_skipped(self, tmp_path):
        """The on-disk signature of a process killed mid-append."""
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"key": "a"})
        journal.append({"key": "b"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "c", "val')  # no newline, no closing brace
        assert [r["key"] for r in journal.load()] == ["a", "b"]
        assert journal.corrupt_lines == 1
        # The journal stays appendable after the torn write.
        journal.append({"key": "d"})
        keys = [r["key"] for r in journal.load()]
        assert "d" in keys and "c" not in " ".join(keys)

    def test_non_dict_lines_count_as_corrupt(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"key": "a"})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[1, 2, 3]\n\n")
        journal = Journal(path)
        assert [r["key"] for r in journal.load()] == ["a"]
        assert journal.corrupt_lines == 1

    def test_missing_file_loads_empty(self, tmp_path):
        journal = Journal(tmp_path / "absent.jsonl")
        assert not journal.exists()
        assert journal.load() == []

    def test_clear_removes_file(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"key": "a"})
        assert journal.exists()
        journal.clear()
        assert not journal.exists()
        journal.clear()  # idempotent
