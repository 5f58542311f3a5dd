"""Append-only JSONL checkpoint journal (v2: CRC-sealed, sequenced).

One JSON object per line, flushed (and fsynced when possible) after every
append, so a killed sweep loses at most the record being written.  Since
v2 every appended record is sealed with an envelope:

* ``_crc`` — CRC32 (hex) of the record's canonical JSON, so a fully
  terminated line whose *bytes* were corrupted (bit rot, torn block
  rewrite) is detected instead of trusted;
* ``_seq`` — a monotonic per-journal sequence number, so fsck can report
  lost or duplicated records, not just unparseable ones.

The loader is deliberately forgiving: corrupt lines — unparseable JSON,
non-object lines, lines without the envelope, or CRC mismatches — are
skipped instead of poisoning a resume, and counted in
:attr:`Journal.corrupt_lines`.

Durability of the writer itself:

* appends are O(1): the torn-tail check runs once when the write handle
  is opened (healing any half-written tail into the ``.corrupt``
  sidecar), after which a single handle is kept open with tracked tail
  state; the file is re-verified only when the path is replaced or
  modified underneath us;
* a failing write (``ENOSPC``, permissions yanked, filesystem gone)
  degrades the journal to in-memory mode with one loud stderr warning
  instead of crashing the campaign mid-flight — the run completes, it is
  merely no longer resumable.

``fsck_journal`` audits a journal file (and ``--repair`` rewrites it,
quarantining corrupt lines into the ``.corrupt`` sidecar); the CLI
surface is ``repro journal fsck``.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: Envelope keys added by :meth:`Journal.append` (stripped on load).
CRC_KEY = "_crc"
SEQ_KEY = "_seq"

#: Suffix of the quarantine sidecar holding corrupt line fragments.
CORRUPT_SUFFIX = ".corrupt"


def record_crc(record: Dict[str, Any]) -> str:
    """CRC32 of the record's canonical JSON (envelope keys excluded)."""
    payload = {k: v for k, v in record.items() if k not in (CRC_KEY, SEQ_KEY)}
    body = json.dumps(payload, sort_keys=True, default=str)
    return format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")


def seal_record(record: Dict[str, Any], seq: int) -> Dict[str, Any]:
    """Seal a record with the v2 envelope (``_crc`` + ``_seq``).

    This is the journal's wire format, reused verbatim by the campaign
    service's streamed results (:mod:`repro.serve`): a sealed record is
    one self-verifying JSON line wherever it travels.
    """
    sealed = dict(record)
    sealed[CRC_KEY] = record_crc(record)
    sealed[SEQ_KEY] = seq
    return sealed


def _classify_line(line: str) -> Tuple[str, Optional[Dict[str, Any]]]:
    """One journal line → (``ok``/``corrupt``, record).

    ``ok`` records carried a matching CRC; ``corrupt`` covers unparseable
    JSON, non-object lines, lines without the envelope, and CRC
    mismatches.  The returned record has the envelope keys stripped.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return "corrupt", None
    if not isinstance(record, dict) or record.get(CRC_KEY) != record_crc(record):
        return "corrupt", None
    record = dict(record)
    record.pop(CRC_KEY, None)
    record.pop(SEQ_KEY, None)
    return "ok", record


class Journal:
    """A durable JSONL log keyed by caller-chosen record dicts."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.corrupt_lines = 0
        self.verified_records = 0
        #: True once a write failed and the journal fell back to memory.
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self._handle: Optional[Any] = None
        #: (st_dev, st_ino, size) of the file behind the open handle —
        #: if the on-disk path stops matching, it was replaced or written
        #: behind our back and the tail must be re-verified.
        self._tail_state: Optional[Tuple[int, int, int]] = None
        self._next_seq = 0
        #: Records accepted after degradation (same-process reads only).
        self._memory: List[Dict[str, Any]] = []

    @property
    def corrupt_path(self) -> Path:
        """The quarantine sidecar for corrupt line fragments."""
        return self.path.with_name(self.path.name + CORRUPT_SUFFIX)

    # -- writing ---------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        """Seal ``record`` (CRC + sequence number) and push it to disk.

        Never raises for I/O failures: the first failed write switches
        the journal to in-memory mode (see :attr:`degraded`) with a loud
        stderr warning, so a full disk cannot kill a campaign that was
        otherwise healthy.
        """
        if self.degraded:
            self._memory.append(dict(record))
            return
        try:
            self._ensure_handle()
            sealed = seal_record(record, self._next_seq)
            line = json.dumps(sealed, sort_keys=True, default=str) + "\n"
            assert self._handle is not None
            self._handle.write(line.encode("utf-8"))
            self._handle.flush()
            try:
                os.fsync(self._handle.fileno())
            except OSError:  # pragma: no cover - exotic filesystems
                pass
            self._next_seq += 1
            self._track_tail()
        except OSError as exc:
            self._degrade(record, exc)

    def _ensure_handle(self) -> None:
        """Open (or re-validate) the append handle, healing a torn tail.

        The expensive part — reading the existing file to find the next
        sequence number and any half-written tail — runs once per opened
        handle; afterwards each append only compares ``os.stat`` against
        the tracked tail state, re-opening only when the path was
        replaced or modified underneath us.
        """
        if self._handle is not None:
            try:
                st = os.stat(self.path)
                if (st.st_dev, st.st_ino, st.st_size) == self._tail_state:
                    return
            except OSError:
                pass  # file vanished: fall through and recreate it
            self._close_handle()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._heal_tail()
        self._handle = open(self.path, "ab")
        self._track_tail()

    def _heal_tail(self) -> None:
        """Move a half-written trailing fragment to the corrupt sidecar.

        A run killed mid-append leaves a final line without a newline;
        quarantining it keeps the journal all-terminated-lines so new
        records are never glued onto torn bytes.  Also recovers the next
        sequence number from the intact records.
        """
        if not self.path.exists():
            self._next_seq = 0
            return
        data = self.path.read_bytes()
        newline = data.rfind(b"\n")
        if data and newline != len(data) - 1:
            fragment = data[newline + 1 :]
            with open(self.corrupt_path, "ab") as sidecar:
                sidecar.write(fragment + b"\n")
            with open(self.path, "r+b") as handle:
                handle.truncate(newline + 1)
            data = data[: newline + 1]
        next_seq = 0
        for raw in data.splitlines():
            try:
                record = json.loads(raw.decode("utf-8", errors="replace"))
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and isinstance(record.get(SEQ_KEY), int):
                next_seq = max(next_seq, record[SEQ_KEY] + 1)
        self._next_seq = next_seq

    def _track_tail(self) -> None:
        assert self._handle is not None
        st = os.fstat(self._handle.fileno())
        self._tail_state = (st.st_dev, st.st_ino, st.st_size)

    def _close_handle(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - close-on-full-disk
                pass
            self._handle = None
            self._tail_state = None

    def _degrade(self, record: Dict[str, Any], exc: OSError) -> None:
        """Switch to journal-less in-memory mode after a failed write."""
        self.degraded = True
        self.degraded_reason = f"{type(exc).__name__}: {exc}"
        self._close_handle()
        self._memory.append(dict(record))
        print(
            f"[repro journal] WARNING: cannot write {self.path}"
            f" ({self.degraded_reason}); journaling degraded to in-memory"
            " mode — the campaign will finish but is NOT resumable from"
            " this point",
            file=sys.stderr,
        )

    # -- reading ---------------------------------------------------------

    def load(self) -> List[Dict[str, Any]]:
        """All intact records, skipping corrupt/half-written lines."""
        return list(self.iter_records())

    def _raw_lines(self) -> List[bytes]:
        """The journal file's raw lines (empty when absent/unreadable)."""
        if not self.path.exists():
            return []
        try:
            return self.path.read_bytes().splitlines()
        except OSError:
            return []

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Yield intact records in write order (envelope keys stripped).

        :attr:`corrupt_lines` and :attr:`verified_records` are refreshed as one atomic snapshot
        *after* the iteration completes — a partially consumed (or
        concurrent) iteration never leaves another layer reading
        half-reset counters.  After degradation the in-memory records are
        yielded after whatever is still readable on disk, so a
        same-process report sees the whole campaign.
        """
        corrupt = verified = 0
        for raw in self._raw_lines():
            # Binary garbage must not kill the load: decode lossily,
            # the CRC/JSON checks below reject what isn't a record.
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            status, record = _classify_line(line)
            if status == "corrupt":
                corrupt += 1
            else:
                verified += 1
                yield record  # type: ignore[misc]
        for record in self._memory:
            yield dict(record)
        self.corrupt_lines = corrupt
        self.verified_records = verified

    def last_manifest(self) -> Optional[Dict[str, Any]]:
        """The most recent embedded provenance-manifest record, if any.

        Campaign drivers append a ``{"kind": "manifest", ...}`` record per
        invocation (see :mod:`repro.obs.provenance`); the latest one
        describes the run that wrote most recently.

        Scans the journal from its *tail* and stops at the first manifest
        found, so a mid-campaign call costs one reverse pass over the
        (usually short) suffix instead of re-CRCing the whole file — and
        it never touches the corrupt/verified counters.
        """
        from ..obs.provenance import is_manifest_record

        for memory_record in reversed(self._memory):
            if is_manifest_record(memory_record):
                return dict(memory_record)
        for raw in reversed(self._raw_lines()):
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            status, record = _classify_line(line)
            if status != "corrupt" and is_manifest_record(record):  # type: ignore[arg-type]
                return record
        return None

    def exists(self) -> bool:
        """Whether the journal file is present on disk."""
        return self.path.exists()

    def clear(self) -> None:
        """Delete the journal file *and* its quarantine sidecar.

        A fresh (non-resumed) run must not inherit anything from the
        previous campaign at this path: the ``.corrupt`` sidecar from an
        earlier run would otherwise pollute fsck output and reports of
        the new one.  Degradation state is reset too — a fresh campaign
        gets a fresh shot at the disk (and degrades again, loudly, if the
        filesystem is still broken).
        """
        self._close_handle()
        for artifact in (self.path, self.corrupt_path):
            try:
                artifact.unlink()
            except FileNotFoundError:
                pass
            except OSError:
                # A path that cannot be unlinked (e.g. the degraded
                # "journal is a directory" case) still gets its
                # in-memory state reset below.
                pass
        self._next_seq = 0
        self._memory = []
        self.degraded = False
        self.degraded_reason = None
        self.corrupt_lines = 0
        self.verified_records = 0

    def close(self) -> None:
        """Release the append handle (appends re-open on demand)."""
        self._close_handle()


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------


@dataclass
class FsckReport:
    """Everything ``repro journal fsck`` learned about one journal."""

    path: str
    total_lines: int = 0
    verified: int = 0
    corrupt: int = 0
    torn_tail: bool = False
    seq_duplicates: int = 0
    seq_missing: int = 0
    repaired: bool = False
    quarantined: int = 0
    #: 1-based line numbers of the corrupt lines (diagnostics).
    corrupt_line_numbers: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No corruption, no torn tail, no sequence anomalies."""
        return not (
            self.corrupt or self.torn_tail or self.seq_duplicates or self.seq_missing
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "clean": self.clean,
            "total_lines": self.total_lines,
            "verified": self.verified,
            "corrupt": self.corrupt,
            "torn_tail": self.torn_tail,
            "seq_duplicates": self.seq_duplicates,
            "seq_missing": self.seq_missing,
            "repaired": self.repaired,
            "quarantined": self.quarantined,
            "corrupt_line_numbers": list(self.corrupt_line_numbers),
        }

    def render(self) -> str:
        lines = [
            f"journal fsck: {self.path}",
            f"  lines:              {self.total_lines}",
            f"  verified (v2):      {self.verified}",
            f"  corrupt:            {self.corrupt}"
            + (
                f" (lines {', '.join(map(str, self.corrupt_line_numbers))})"
                if self.corrupt_line_numbers
                else ""
            ),
            f"  torn tail:          {'yes' if self.torn_tail else 'no'}",
            f"  sequence duplicates: {self.seq_duplicates}",
            f"  sequence gaps:      {self.seq_missing} record(s) missing",
        ]
        if self.repaired:
            lines.append(
                f"  repaired: {self.quarantined} corrupt line(s) moved to"
                f" {self.path}{CORRUPT_SUFFIX}"
            )
        if self.repaired:
            verdict = "repaired (journal rewritten clean)"
        elif self.clean:
            verdict = "clean"
        else:
            verdict = "NEEDS ATTENTION"
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def fsck_journal(path: Union[str, Path], repair: bool = False) -> FsckReport:
    """Audit (and optionally repair) a journal file.

    Reports verified/corrupt line counts, a torn tail, and
    sequence-number anomalies (duplicates, gaps — the signature of lost
    records).  With ``repair=True`` the journal is rewritten atomically
    with only its intact lines, and every corrupt line (including a torn
    tail) is appended to the ``.corrupt`` quarantine sidecar.

    Raises ``FileNotFoundError`` when the journal does not exist.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no journal at {path}")
    report = FsckReport(path=str(path))
    data = path.read_bytes()
    report.torn_tail = bool(data) and not data.endswith(b"\n")

    kept: List[bytes] = []
    quarantine: List[bytes] = []
    seqs: List[int] = []
    raw_lines = data.split(b"\n")
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()
    for number, raw in enumerate(raw_lines, start=1):
        text = raw.decode("utf-8", errors="replace").strip()
        if not text:
            continue
        report.total_lines += 1
        status, record = _classify_line(text)
        if status == "corrupt":
            report.corrupt += 1
            report.corrupt_line_numbers.append(number)
            quarantine.append(raw)
            continue
        kept.append(raw)
        report.verified += 1
        try:
            seqs.append(int(json.loads(text)[SEQ_KEY]))
        except (ValueError, KeyError, TypeError):  # pragma: no cover
            pass

    if seqs:
        unique = set(seqs)
        report.seq_duplicates = len(seqs) - len(unique)
        span = max(unique) - min(unique) + 1
        report.seq_missing = span - len(unique)

    if repair and (report.corrupt or report.torn_tail):
        sidecar = path.with_name(path.name + CORRUPT_SUFFIX)
        with open(sidecar, "ab") as handle:
            for raw in quarantine:
                handle.write(raw + b"\n")
        tmp = path.with_name(path.name + ".fsck-tmp")
        with open(tmp, "wb") as handle:
            for raw in kept:
                handle.write(raw + b"\n")
            handle.flush()
            try:
                os.fsync(handle.fileno())
            except OSError:  # pragma: no cover - exotic filesystems
                pass
        os.replace(tmp, path)
        report.repaired = True
        report.quarantined = len(quarantine)
    return report
