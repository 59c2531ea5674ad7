"""Fugaku as a registered :class:`SystemModel` plugin.

This is a *port*, not a move: the machine constants and the Eq. 4/5
counter formulas stay in :mod:`repro.fugaku.system` and
:mod:`repro.fugaku.counters`, and this class only delegates, so every
Fugaku number continues to flow from a single definition site and the
pre-refactor results stay bit-identical.
"""

from __future__ import annotations

from repro.fugaku.counters import (
    counters_from_flops_bytes,
    flops_from_counters,
    moved_bytes_from_counters,
)
from repro.fugaku.system import FUGAKU
from repro.systems.base import SystemModel
from repro.systems.registry import register_system

__all__ = ["FugakuSystem"]


@register_system
class FugakuSystem(SystemModel):
    """RIKEN Fugaku: A64FX nodes, Table I peaks, the F-DATA workload."""

    name = "fugaku"

    @property
    def machine(self):
        """The frozen machine description (a spec dataclass, Table I shape)."""
        return FUGAKU

    def flops_from_counters(self, perf2, perf3):  # unit: perf2=flops, perf3=flops -> flops
        """Eq. 4: scalar ops plus 512-bit SVE ops times four 128-bit slices."""
        return flops_from_counters(perf2, perf3, spec=FUGAKU)

    def moved_bytes_from_counters(self, perf4, perf5):  # unit: perf4=1, perf5=1 -> bytes
        """Eq. 5: CMG-wide bus reads+writes times 256 B over 12 cores."""
        return moved_bytes_from_counters(perf4, perf5, spec=FUGAKU)

    def counters_from_flops_bytes(self, flops, moved_bytes, *, vector_fraction=0.9, read_fraction=0.6):
        """Exact inverse of Eqs. 4-5: synthesize ``perf2..perf5``."""
        return counters_from_flops_bytes(
            flops,
            moved_bytes,
            spec=FUGAKU,
            sve_fraction=vector_fraction,
            read_fraction=read_fraction,
        )

    def peak_gflops_at(self, frequency_ghz):  # unit: frequency_ghz=1 -> gflops/s
        """Node peak at a requested frequency (knees scale with the clock)."""
        return FUGAKU.peak_gflops_node * (frequency_ghz / FUGAKU.frequencies_ghz[-1])

    def workload_config(self, *, scale, seed):
        """This system's synthetic workload mix as a ``WorkloadConfig``."""
        from repro.fugaku.workload import WorkloadConfig

        return WorkloadConfig(scale=scale, seed=seed)
