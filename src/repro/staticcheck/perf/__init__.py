"""Performance tier: hot-path vectorization rules.

The correctness tiers guard *what* the code computes; this package
guards *how fast* it computes it, where no test does: a devectorized
loop returns the same bits, only slower.
:mod:`repro.staticcheck.perf.vectorization` enforces vectorization
invariants on *hot paths* only (see :mod:`repro.staticcheck.perf.hotpath`):
scalar loops over ndarrays, per-item calls to batched APIs, allocations
inside loops, quadratic append/concatenate growth and hidden copies.

Hot paths are derived per file from explicit ``# hotpath:`` annotations
plus a registry of serve/predict/encode entry-point names, closed over
the intra-module call graph — file-local evidence only, so the rules stay
sound under the content-hash incremental cache.  The cross-module half
lives in :class:`~repro.staticcheck.perf.hotpath.HotPathGapRule`, a
project rule that walks call-graph reachability from the entry points and
demands an annotation wherever the per-file derivation would be blind.

Work counters: :data:`COUNTERS` accumulates hot-path effort for the
CLI's ``--statistics`` (snapshot-and-diff around each file analysis,
mirroring :data:`repro.staticcheck.flow.COUNTERS`).
"""

from __future__ import annotations

__all__ = ["COUNTERS", "snapshot_counters"]

#: Process-wide effort counters, surfaced by ``--statistics``.
COUNTERS = {"hot_functions": 0}


def snapshot_counters() -> dict:
    """Copy of the current counter values (diff against a later snapshot)."""
    return dict(COUNTERS)
