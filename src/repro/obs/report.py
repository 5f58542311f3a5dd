"""Campaign reports: manifest + journal + merged metrics, human-readable.

``repro report <campaign>`` (and :func:`render_campaign_report`) folds the
three observability artifacts of a campaign into one summary:

* the **provenance manifest** (who/what/where: seed, argv, git, versions);
* the **journal** (per-trial outcomes: status counts, attempts, retries,
  corrupt lines);
* **merged metrics** aggregated over the journalled trial values
  (messages/bits/rounds, success rate, and phase timings when the
  campaign ran with profiling enabled).

``<campaign>`` may be either the journal (``.jsonl``) or the manifest
(``.json``); the loader finds the sibling artifact through the embedded
``{"kind": "manifest"}`` record, the manifest's recorded journal path, or
the ``<journal>.manifest.json`` naming convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from .provenance import Manifest, is_manifest_record, load_manifest

#: Journal statuses treated as "the trial produced a value".  "cached"
#: is the campaign service's journal status for a trial answered from
#: its result cache — same serialised value as a fresh run, no execution.
_OK_STATUSES = ("ok", "resumed", "cached")


def is_structural_record(record: Mapping[str, Any]) -> bool:
    """True for embedded non-trial records (manifest, supervisor stats).

    Structural records carry a ``kind`` tag instead of a trial
    ``key``/``status``; they describe the campaign, not a trial.
    """
    try:
        return "kind" in record
    except TypeError:  # pragma: no cover - non-mapping defensive guard
        return False


@dataclass
class Campaign:
    """Everything :func:`render_campaign_report` needs, already loaded."""

    manifest: Optional[Manifest] = None
    records: List[Dict[str, Any]] = field(default_factory=list)
    manifest_path: Optional[Path] = None
    journal_path: Optional[Path] = None
    corrupt_lines: int = 0

    @property
    def trial_records(self) -> List[Dict[str, Any]]:
        """Journal records describing trials (structural records excluded)."""
        return [r for r in self.records if not is_structural_record(r)]

    @property
    def supervisor_records(self) -> List[Dict[str, Any]]:
        """Embedded ``{"kind": "supervisor"}`` stats records, in order."""
        from ..parallel.supervisor import is_supervisor_record

        return [r for r in self.records if is_supervisor_record(r)]


def load_campaign(path: Union[str, Path]) -> Campaign:
    """Load a campaign from its journal *or* manifest path.

    Raises ``FileNotFoundError`` when ``path`` does not exist; a campaign
    missing one of the two artifacts still loads (the report renders what
    is available).
    """
    from ..exec.journal import Journal

    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no campaign artifact at {path}")
    campaign = Campaign()

    def read_journal(journal_path: Path) -> None:
        journal = Journal(journal_path)
        campaign.records = journal.load()
        campaign.corrupt_lines = journal.corrupt_lines
        campaign.journal_path = journal_path
        if campaign.manifest is None:
            for record in campaign.records:
                if is_manifest_record(record):
                    campaign.manifest = Manifest.from_dict(record)
                    campaign.manifest_path = journal_path

    looks_like_manifest = False
    if path.suffix == ".json":
        try:
            manifest = load_manifest(path)
            looks_like_manifest = bool(manifest.command) or bool(manifest.argv)
        except (ValueError, OSError):
            looks_like_manifest = False
        if looks_like_manifest:
            campaign.manifest = manifest
            campaign.manifest_path = path

    if looks_like_manifest:
        # Find the journal: the manifest records it, or strip the
        # ``.manifest.json`` suffix convention.
        candidates = []
        recorded = campaign.manifest.extra.get("journal") if campaign.manifest else None
        if recorded:
            candidates.append(Path(recorded))
            candidates.append(path.parent / Path(recorded).name)
        if path.name.endswith(".manifest.json"):
            candidates.append(path.with_name(path.name[: -len(".manifest.json")]))
        for candidate in candidates:
            if candidate.exists() and candidate != path:
                read_journal(candidate)
                break
    else:
        read_journal(path)
        if campaign.manifest is None:
            sibling = path.with_name(path.name + ".manifest.json")
            if sibling.exists():
                campaign.manifest = load_manifest(sibling)
                campaign.manifest_path = sibling
    return campaign


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def merge_journal_metrics(records: List[Mapping[str, Any]]) -> Dict[str, Any]:
    """Fold the journalled trial values into campaign-level aggregates.

    Works on the serialised (``summary()``-shaped) values the executor
    journals: numeric fields are summed and averaged, booleans become
    rates, and ``phase_seconds`` dicts are summed key-wise.  Trials whose
    value is not a mapping (or that produced none) are skipped.
    """
    values = [
        record["value"]
        for record in records
        if record.get("status") in _OK_STATUSES
        and isinstance(record.get("value"), Mapping)
    ]
    aggregate: Dict[str, Any] = {"trials_with_values": len(values)}
    if not values:
        return aggregate
    numeric: Dict[str, List[float]] = {}
    boolean: Dict[str, List[bool]] = {}
    phase_totals: Dict[str, float] = {}
    for value in values:
        for key, item in value.items():
            if key == "phase_seconds" and isinstance(item, Mapping):
                for phase, seconds in item.items():
                    if isinstance(seconds, (int, float)):
                        phase_totals[phase] = phase_totals.get(phase, 0.0) + float(
                            seconds
                        )
            elif isinstance(item, bool):
                boolean.setdefault(key, []).append(item)
            elif isinstance(item, (int, float)):
                numeric.setdefault(key, []).append(float(item))
    for key, items in sorted(numeric.items()):
        aggregate[key] = {
            "total": round(sum(items), 6),
            "mean": round(sum(items) / len(items), 6),
            "max": round(max(items), 6),
        }
    for key, items in sorted(boolean.items()):
        aggregate[key] = {"rate": round(sum(items) / len(items), 4), "count": len(items)}
    if phase_totals:
        aggregate["phase_seconds"] = {
            phase: round(seconds, 6) for phase, seconds in sorted(phase_totals.items())
        }
    return aggregate


def journal_counts(records: List[Mapping[str, Any]]) -> Dict[str, int]:
    """Status histogram plus retry accounting over trial records."""
    counts: Dict[str, int] = {}
    retries = 0
    for record in records:
        if is_structural_record(record):
            continue
        status = str(record.get("status", "unknown"))
        counts[status] = counts.get(status, 0) + 1
        attempts = record.get("attempts")
        if isinstance(attempts, int) and attempts > 1:
            retries += attempts - 1
    counts["retries"] = retries
    return counts


#: Supervisor counters rendered by the report, in display order.
_SUPERVISOR_COUNTERS = (
    "pool_rebuilds",
    "worker_deaths",
    "hung_chunks",
    "redispatched_chunks",
    "redispatched_trials",
    "abandoned_trials",
    "dispatched_chunks",
)


def merge_supervisor_stats(
    records: List[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Fold embedded supervisor records into campaign totals.

    A resumed campaign appends one stats record per run; the report sums
    the counters and ORs the ``interrupted`` flags.
    """
    totals: Dict[str, Any] = {name: 0 for name in _SUPERVISOR_COUNTERS}
    totals["interrupted"] = False
    totals["runs"] = len(records)
    for record in records:
        for name in _SUPERVISOR_COUNTERS:
            value = record.get(name)
            if isinstance(value, (int, float)):
                totals[name] += int(value)
        totals["interrupted"] = totals["interrupted"] or bool(
            record.get("interrupted")
        )
    return totals


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _render_manifest(manifest: Manifest) -> List[str]:
    git = manifest.git or {}
    sha = git.get("sha") or "<unknown>"
    if git.get("dirty"):
        sha += " (dirty)"
    lines = [
        f"  command:     {manifest.command or '<unknown>'}",
        f"  created:     {manifest.created_at or '<unknown>'}",
        f"  argv:        {' '.join(manifest.argv) or '<unknown>'}",
        f"  master seed: {manifest.master_seed}",
        f"  git:         {sha}"
        + (f" [{git['branch']}]" if git.get("branch") else ""),
        f"  package:     {manifest.package.get('name', 'repro')}"
        f" {manifest.package.get('version') or '<unknown>'}",
        f"  python:      {manifest.python.get('version') or '<unknown>'}"
        f" ({manifest.python.get('implementation') or '?'})",
        f"  machine:     {manifest.machine.get('platform') or '<unknown>'}"
        f" · {manifest.machine.get('cpu_count') or '?'} core(s)",
    ]
    if manifest.config:
        lines.append("  config:")
        for key in sorted(manifest.config):
            lines.append(f"    {key} = {manifest.config[key]!r}")
    return lines


def _render_counts(counts: Mapping[str, int], corrupt: int) -> List[str]:
    retries = counts.get("retries", 0)
    statuses = {k: v for k, v in counts.items() if k != "retries"}
    total = sum(statuses.values())
    lines = [f"  trials journalled: {total}"]
    for status in sorted(statuses):
        lines.append(f"    {status}: {statuses[status]}")
    lines.append(f"  retries (attempts beyond the first): {retries}")
    if corrupt:
        lines.append(f"  corrupt journal lines skipped: {corrupt}")
    return lines


def _render_supervision(totals: Mapping[str, Any]) -> List[str]:
    labels = {
        "pool_rebuilds": "pool rebuilds",
        "worker_deaths": "worker deaths (non-zero exit)",
        "hung_chunks": "hung chunks (missed deadline)",
        "redispatched_chunks": "chunks redispatched",
        "redispatched_trials": "trials redispatched",
        "abandoned_trials": "trials abandoned (recorded failed)",
        "dispatched_chunks": "chunks dispatched",
    }
    lines = []
    runs = totals.get("runs", 0)
    if runs > 1:
        lines.append(f"  supervised runs merged: {runs}")
    for name in _SUPERVISOR_COUNTERS:
        lines.append(f"  {labels[name]}: {totals.get(name, 0)}")
    if totals.get("interrupted"):
        lines.append("  interrupted: yes (SIGINT/SIGTERM; resumable)")
    return lines


def _render_aggregate(aggregate: Mapping[str, Any]) -> List[str]:
    lines = [f"  trials with values: {aggregate.get('trials_with_values', 0)}"]
    for key in sorted(aggregate):
        if key in ("trials_with_values", "phase_seconds"):
            continue
        stats = aggregate[key]
        if not isinstance(stats, Mapping):
            continue
        if "rate" in stats:
            lines.append(f"  {key}: rate {stats['rate']} over {stats['count']} trial(s)")
        else:
            lines.append(
                f"  {key}: total {stats['total']:g}, mean {stats['mean']:g},"
                f" max {stats['max']:g}"
            )
    phases = aggregate.get("phase_seconds")
    if isinstance(phases, Mapping) and phases:
        lines.append("  phase timings (summed over trials):")
        width = max(len(str(p)) for p in phases)
        for phase, seconds in phases.items():
            lines.append(f"    {str(phase).ljust(width)}  {seconds:.6f}s")
    return lines


def render_campaign_report(campaign: Campaign) -> str:
    """Render one campaign into the ``repro report`` text format."""
    title = "campaign report"
    if campaign.manifest is not None and campaign.manifest.command:
        title += f" — {campaign.manifest.command}"
    lines = [title, "=" * len(title), ""]

    lines.append("provenance")
    if campaign.manifest is not None:
        lines.extend(_render_manifest(campaign.manifest))
    else:
        lines.append("  <no manifest found>")
    lines.append("")

    lines.append("journal")
    trial_records = campaign.trial_records
    if campaign.journal_path is not None:
        lines.append(f"  path: {campaign.journal_path}")
    if trial_records or campaign.journal_path is not None:
        lines.extend(
            _render_counts(journal_counts(campaign.records), campaign.corrupt_lines)
        )
    else:
        lines.append("  <no journal found>")
    lines.append("")

    supervisor_records = campaign.supervisor_records
    if supervisor_records:
        lines.append("supervision")
        lines.extend(
            _render_supervision(merge_supervisor_stats(supervisor_records))
        )
        lines.append("")

    lines.append("merged metrics")
    if trial_records:
        lines.extend(_render_aggregate(merge_journal_metrics(trial_records)))
    else:
        lines.append("  <no trial values to merge>")
    return "\n".join(lines) + "\n"
