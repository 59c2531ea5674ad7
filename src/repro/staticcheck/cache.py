"""Content-hash-keyed on-disk cache for the incremental engine.

One JSON document (default ``.staticcheck-cache.json``) maps each linted
file to its content hash, its single-file findings (active and
suppressed) and its :class:`~repro.staticcheck.project.summary.ModuleSummary`.
A warm entry is served — no parse, no single-file rules — when

* the cache was written by the same schema and the same rule set
  (``fingerprint``), and
* the file's own hash matches.

Analyzing a file reads no other file, so a change elsewhere cannot
invalidate its entry.

Project rules always run — they are whole-program — but they consume the
cached summaries, so a warm run re-parses only what changed.  Reference
files (tests, benchmarks) are cached the same way, keyed on content hash
alone.  A corrupt or incompatible cache file is discarded silently: the
cache is an accelerator, never a source of truth.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = ["AnalysisCache", "file_digest"]

# Schema history: 3 added module summaries + dep hashes; 4 added the
# flow-sensitive tier (per-file flow-work counters, and findings that
# depend on cross-file ``# unit:`` annotations — entries from schema 3
# would be silently missing those findings, so they must not be served);
# 5 added the perf tier (per-file perf-work counters and the summaries'
# table of annotated hot functions, which schema-4 summaries lack);
# 6 added the procs tier (per-file procs-work counters and the summaries'
# ``procs`` table — schema-5 summaries carry no process-boundary facts,
# so serving them would silence every procs rule on warm runs);
# 7 added the capacity tier (per-file capacity-work counters, cached
# capacity findings, and the summaries' ``capacity`` table — schema-6
# entries lack the streaming/return-scale/materializer facts the
# streaming-contract rule reads, so they must not be served);
# 8 added the sysmodel tier (per-file sysmodel-work counters and the
# summaries' ``sysmodel`` table — schema-7 entries lack the SystemModel
# hierarchy and flagged-constant facts the contract/leak/dispatch rules
# read, so they must not be served);
# 9 removed the capacity and sysmodel tiers and the procs tier's
# shared-memory segment facts — schema-8 entries carry summary tables and
# work counters this engine no longer reads;
# 10 removed the procs tier and the ``unpicklable-task`` rule — schema-9
# entries carry the summaries' ``procs`` table, per-file procs-work
# counters and cached ``unpicklable-task`` findings;
# 11 removed the ``dtype-upcast``, ``dtype-narrowing``,
# ``broadcast-mismatch``, ``unit-mismatch`` and ``lock-order-cycle``
# rules — schema-10 entries cache findings of those rules, the perf
# tier's array-fixpoint counter and the summaries' lock acquisition
# facts.  Entries stopped recording their import-graph dependencies'
# hashes under the same schema: no single-file rule reads another module,
# so an entry depends only on its own content and the rule set, and
# entries written either way stay valid for engines of either kind;
# 12 removed the perf tier and the summaries' scheduler-registration
# facts — schema-11 entries cache findings of the five vectorization
# rules, per-file perf-work counters, and summaries that carry the
# annotated-hot-function table and ``registrations`` lists.
CACHE_SCHEMA = 12


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rule_fingerprint(rule_ids: list[str], project_rule_ids: list[str]) -> str:
    payload = json.dumps(
        {"schema": CACHE_SCHEMA, "rules": sorted(rule_ids), "project": sorted(project_rule_ids)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class AnalysisCache:
    """Load-mutate-save wrapper around the cache document."""

    def __init__(self, path: Path, fingerprint: str):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.files: dict[str, dict] = {}
        self.references: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    @classmethod
    def load(cls, path: str | Path, fingerprint: str) -> "AnalysisCache":
        cache = cls(Path(path), fingerprint)
        try:
            doc = json.loads(cache.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if not isinstance(doc, dict) or doc.get("schema") != CACHE_SCHEMA:
            return cache
        if doc.get("fingerprint") != fingerprint:
            # Different rule set (or engine schema): nothing is reusable.
            return cache
        files = doc.get("files")
        references = doc.get("references")
        if isinstance(files, dict):
            cache.files = files
        if isinstance(references, dict):
            cache.references = references
        return cache

    # -- lookups -----------------------------------------------------------

    def lookup(self, key: str, digest: str) -> dict | None:
        """A valid entry for ``key``, or None; counts the hit/miss."""
        entry = self.files.get(key)
        if isinstance(entry, dict) and entry.get("hash") == digest:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def lookup_reference(self, key: str, digest: str) -> dict | None:
        entry = self.references.get(key)
        if isinstance(entry, dict) and entry.get("hash") == digest:
            return entry
        return None

    # -- persistence -------------------------------------------------------

    def store(self, key: str, entry: dict) -> None:
        self.files[key] = entry

    def store_reference(self, key: str, entry: dict) -> None:
        self.references[key] = entry

    def save(self, *, keep_only: set[str] | None = None) -> None:
        """Write the cache, dropping entries for files no longer scanned."""
        files = self.files
        references = self.references
        if keep_only is not None:
            files = {k: v for k, v in files.items() if k in keep_only}
            references = {k: v for k, v in references.items() if k in keep_only}
        doc = {
            "schema": CACHE_SCHEMA,
            "fingerprint": self.fingerprint,
            "files": files,
            "references": references,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)
