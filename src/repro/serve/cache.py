"""Persistent, content-addressed trial-result cache.

A campaign is a set of trials, and every trial's result is — by the
determinism contract the lint layer enforces (DET001/DET002) — a pure
function of ``(task, point, seed)``.  That makes trial results
*cacheable across campaigns*: a sweep resubmitted with an overlapping
grid re-uses every overlapping trial, and a 1000-trial campaign killed
at trial 999 costs one trial to finish.

Key soundness
-------------

The cache key is the canonical JSON of::

    {"task": "module:qualname", "point": {...}, "seed": <int>}

addressed by its SHA-256.  Three deliberate choices:

* **The task is its string reference**, so a callable and its
  ``"module:qualname"`` form hit the same entry (:func:`cache_key_payload`
  applies :func:`repro.parallel.spec.canonical_task_ref`).
* **The engine backend is excluded.**  Backends are exact-parity by
  contract (the vec backend is gated by a cross-backend parity test on
  the canary campaign), so a result computed under ``--backend vec`` is
  byte-identical to the reference engine's and may answer either.
* **Campaign shape is excluded** (grid order, trials-per-point, jobs):
  seeds are derived before dispatch, so the same ``(task, point, seed)``
  triple yields the same result regardless of which campaign asked.
  The seed is the one the value was computed with: a retried success
  is stored under its derived retry seed, never its base seed.

Values are stored *serialised* (the executor's ``default_serialize``
output — plain JSON), which is exactly what journals, streams, and
reports consume; a cached answer is therefore byte-identical to a fresh
one after canonical JSON encoding.

Storage is one file per entry under the cache directory, written with
the atomic tmp-file + ``os.replace`` dance, so a crashed server never
leaves a torn entry.  Each file stores the *full* key payload next to
the value: on read the payload is compared, so even a SHA-256 collision
(or a corrupted file) degrades to a miss, never a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..parallel.spec import TaskRef, canonical_task_ref

def canonical_json(payload: Any) -> str:
    """The one JSON encoding used for keys and stored values."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key_payload(
    task: TaskRef, point: Mapping[str, Any], seed: int
) -> Dict[str, Any]:
    """The identity of one trial result, as a JSON-safe dict."""
    return {"task": canonical_task_ref(task), "point": dict(point), "seed": int(seed)}


def cache_key_digest(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex of the canonical key payload (the entry's address)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of serialised trial values.

    ``max_entries`` bounds the on-disk entry count: inserts beyond it
    evict the least-recently-*used* entries (hits refresh an entry's
    mtime).  ``None`` means unbounded.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.root = Path(root)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    # -- paths -----------------------------------------------------------

    def entry_path(self, digest: str) -> Path:
        """Where an entry lives: fanned out by the first digest byte."""
        return self.root / digest[:2] / f"{digest}.json"

    # -- lookup ----------------------------------------------------------

    def get(
        self, task: TaskRef, point: Mapping[str, Any], seed: int
    ) -> Tuple[bool, Any]:
        """``(hit, value)`` for one trial identity.

        A hit refreshes the entry's mtime (the LRU clock).  Unreadable,
        unparsable, or key-mismatched entries count as misses — the
        stored key payload is always compared, so a hash collision can
        only cost a recomputation, never return a foreign result.
        """
        payload = cache_key_payload(task, point, seed)
        path = self.entry_path(cache_key_digest(payload))
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return False, None
        try:
            entry = json.loads(raw)
        except ValueError:
            self.misses += 1
            return False, None
        if not isinstance(entry, dict) or entry.get("key") != payload:
            self.misses += 1
            return False, None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - mtime refresh is best-effort
            pass
        self.hits += 1
        return True, entry.get("value")

    def contains(
        self, task: TaskRef, point: Mapping[str, Any], seed: int
    ) -> bool:
        """Existence probe that does not touch hit/miss counters."""
        payload = cache_key_payload(task, point, seed)
        return self.entry_path(cache_key_digest(payload)).exists()

    # -- insert ----------------------------------------------------------

    def put(
        self, task: TaskRef, point: Mapping[str, Any], seed: int, value: Any
    ) -> None:
        """Store one *serialised* value atomically (idempotent).

        ``value`` must already be JSON-safe (the executor's serialised
        form); storing re-encodes it canonically, so cached and fresh
        answers are the same bytes after canonical encoding.
        """
        payload = cache_key_payload(task, point, seed)
        digest = cache_key_digest(payload)
        path = self.entry_path(digest)
        body = canonical_json({"key": payload, "value": value})
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        try:
            tmp.write_text(body, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            # Cache writes are an optimisation, never a correctness
            # requirement: a full disk degrades to recomputation.
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stores += 1
        if self.max_entries is not None:
            self.evict(self.max_entries)

    # -- maintenance -----------------------------------------------------

    def entries(self) -> int:
        """Current on-disk entry count."""
        return sum(1 for _ in self.root.glob("??/*.json"))

    def evict(self, keep: int) -> int:
        """Drop least-recently-used entries beyond ``keep``; returns count."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        paths = sorted(
            self.root.glob("??/*.json"),
            key=lambda p: self._mtime(p),
            reverse=True,
        )
        dropped = 0
        for path in paths[keep:]:
            try:
                path.unlink()
                dropped += 1
            except OSError:  # pragma: no cover - concurrent eviction
                pass
        self.evictions += dropped
        return dropped

    @staticmethod
    def _mtime(path: Path) -> float:
        try:
            return path.stat().st_mtime
        except OSError:  # pragma: no cover - racing unlink
            return 0.0

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot plus the on-disk entry count."""
        return {
            "root": str(self.root),
            "entries": self.entries(),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }
