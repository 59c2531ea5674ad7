"""The :class:`SystemModel` contract: pluggable physical machine models.

ROADMAP item 3: the characterizer was hardwired to Fugaku (A64FX counter
formulas, op_r ≈ 3.3, a single ridge).  This package extracts the
physical model behind an abstract contract so the same online α/β/θ
pipeline runs against any system, and the paper's own generality claim
(§III: "can be seamlessly configured and deployed in other HPC
systems") becomes something the repo can measure.

Every abstract method documents its units in a ``# unit:`` comment on
its ``def`` line, and implementations repeat it verbatim, so a reader
holding any ``SystemModel`` sees that ``flops_from_counters`` returns
flops.  The contract tests in ``tests/systems`` check that every
registered system implements the full contract with matching signatures
and matching ``# unit:`` comments.

Concrete systems register themselves with
:func:`repro.systems.registry.register_system`; every construction site
outside a system's home module goes through
:func:`repro.systems.registry.get_system`.
"""

from __future__ import annotations

import abc

from repro.roofline.model import Roofline

__all__ = ["SystemModel"]


class SystemModel(abc.ABC):
    """One deployed system: counter semantics, peaks, workload habits.

    Subclasses implement the abstract contract below; the derived
    quantities (ridge point, rooflines, the characterizer transform) are
    shared and come for free.
    """

    #: registry key; every concrete system declares a unique lowercase name
    name: str = ""

    # -- the abstract contract (checked by tests/systems) ---------------------

    @property
    @abc.abstractmethod
    def machine(self):
        """The frozen machine description (a spec dataclass, Table I shape)."""

    @abc.abstractmethod
    def flops_from_counters(self, perf2, perf3):  # unit: perf2=flops, perf3=flops -> flops
        """Eq. 4-shaped counter mapping: total FP operations of a job."""

    @abc.abstractmethod
    def moved_bytes_from_counters(self, perf4, perf5):  # unit: perf4=1, perf5=1 -> bytes
        """Eq. 5-shaped counter mapping: total bytes moved to/from memory."""

    @abc.abstractmethod
    def counters_from_flops_bytes(self, flops, moved_bytes, *, vector_fraction=0.9, read_fraction=0.6):
        """Exact inverse of Eqs. 4-5: synthesize ``perf2..perf5``."""

    @abc.abstractmethod
    def peak_gflops_at(self, frequency_ghz):  # unit: frequency_ghz=1 -> gflops/s
        """Node peak at a requested frequency (knees scale with the clock)."""

    @abc.abstractmethod
    def workload_config(self, *, scale, seed):
        """This system's synthetic workload mix as a ``WorkloadConfig``."""

    # -- derived quantities (shared by every system) ---------------------------

    @property
    def peak_gflops_node(self):  # unit: -> gflops/s
        """Node peak FP64 performance in GFlops/s (boost mode)."""
        return self.machine.peak_gflops_node

    @property
    def peak_membw_gbs(self):  # unit: -> gb/s
        """Node peak memory bandwidth in GBytes/s."""
        return self.machine.peak_membw_gbs

    @property
    def frequencies_ghz(self):
        """Frequencies selectable at submission time, GHz, ascending."""
        return self.machine.frequencies_ghz

    @property
    def cores_per_node(self):
        return self.machine.cores_per_node

    @property
    def ridge_point(self):  # unit: -> flops/byte
        """op_r: the minimum operational intensity attaining node peak."""
        return self.machine.peak_gflops_node / self.machine.peak_membw_gbs

    def is_boost(self, frequency_ghz) -> bool:
        """Whether a requested frequency is this system's boost mode."""
        return frequency_ghz >= self.frequencies_ghz[-1]

    def roofline(self) -> Roofline:
        """The single-ceiling node roofline (Eq. 1)."""
        return Roofline(self.peak_gflops_node, self.peak_membw_gbs)

    def counter_transform(self):
        """``perf2..perf5 -> (#flops, #moved_bytes)`` for the characterizer."""

        def transform(perf2, perf3, perf4, perf5):
            return (
                self.flops_from_counters(perf2, perf3),
                self.moved_bytes_from_counters(perf4, perf5),
            )

        return transform

    def generate_trace(self, *, scale: float = 1.0 / 30.0, seed: int = 2024):
        """A synthetic trace of this system's workload at a given scale."""
        from repro.fugaku.workload import WorkloadGenerator

        config = self.workload_config(scale=scale, seed=seed)
        return WorkloadGenerator(config, spec=self.machine).generate()
