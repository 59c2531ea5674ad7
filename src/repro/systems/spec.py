"""Generic machine description consumed by :class:`SystemModel` plugins.

:class:`MachineSpec` generalizes the shape of
:class:`repro.fugaku.system.FugakuSpec` (Table I of the paper) to any
system the framework is deployed on.  The four-counter trace schema
(``perf2..perf5``, the F-DATA columns) is fixed project-wide, so every
machine's counter semantics are parameterized by the same three
constants: the vector-width multiplier behind the Eq. 4 scale factor,
the cache-line size behind Eq. 5, and the per-core replication of the
memory-group-wide bus counters.

The constructor validates the roofline invariants: positive peaks,
ascending frequency ladder, and per-frequency peaks monotone in
frequency (which makes every multi-ceiling knee ``peak(f)/bw`` monotone
in frequency too).  Built-in specs are module constants, so a bad one
fails when :mod:`repro.systems` is imported.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineSpec"]


@dataclass(frozen=True)
class MachineSpec:
    """Static description of one HPC system, mirroring Table I's rows."""

    name: str
    #: Peak FP64 performance of one node in GFlops/s (highest frequency).
    peak_gflops_node: float  # unit: gflops/s
    #: Peak memory bandwidth of one node in GBytes/s.
    peak_membw_gbs: float  # unit: gb/s
    cores_per_node: int
    #: Frequencies selectable at submission time, GHz, ascending; the
    #: last entry is the boost mode.
    frequencies_ghz: tuple[float, ...]
    #: (frequency GHz, node peak GFlops/s) pairs, ascending in both —
    #: the frequency-dependent knee ladder of the multi-ceiling roofline.
    frequency_peaks: tuple[tuple[float, float], ...]
    #: Vector width in bits; the vector-op counter reports ops per
    #: 128-bit slice, hence the Eq. 4 multiplier ``vector_bits / 128``.
    sve_bits: int = 128
    #: Bytes moved per memory bus request (one cache line).
    cache_line_bytes: int = 64  # unit: bytes
    #: Per-core replication factor of the bus counters: cores per memory
    #: group all reporting the group-wide value (1 = no replication).
    cores_per_cmg: int = 1  # unit: 1
    num_nodes: int = 1
    memory_gib_per_node: int = 0

    def __post_init__(self) -> None:
        if self.peak_gflops_node <= 0 or self.peak_membw_gbs <= 0:
            raise ValueError(f"{self.name}: machine peaks must be positive")
        if not self.frequencies_ghz:
            raise ValueError(f"{self.name}: at least one frequency is required")
        if list(self.frequencies_ghz) != sorted(self.frequencies_ghz):
            raise ValueError(f"{self.name}: frequencies_ghz must be ascending")
        if not self.frequency_peaks:
            raise ValueError(f"{self.name}: frequency_peaks must not be empty")
        freqs = [f for f, _ in self.frequency_peaks]
        peaks = [p for _, p in self.frequency_peaks]
        if freqs != sorted(freqs) or peaks != sorted(peaks):
            raise ValueError(
                f"{self.name}: frequency_peaks must be monotone — a higher "
                "clock cannot lower the attainable peak (knee monotonicity)"
            )
        if any(p <= 0 for p in peaks):
            raise ValueError(f"{self.name}: per-frequency peaks must be positive")
        if self.sve_bits < 128 or self.sve_bits % 128:
            raise ValueError(f"{self.name}: sve_bits must be a multiple of 128")
        if self.cache_line_bytes <= 0 or self.cores_per_cmg <= 0:
            raise ValueError(f"{self.name}: counter constants must be positive")

    @property
    def sve_multiplier(self) -> int:  # unit: -> 1
        """Number of 128-bit slices per vector (the Eq. 4 multiplier)."""
        return self.sve_bits // 128

    @property
    def ridge_point(self) -> float:  # unit: -> flops/byte
        """Operational intensity of the roofline ridge, Flops/Byte."""
        return self.peak_gflops_node / self.peak_membw_gbs

    def attainable_gflops(self, operational_intensity: float) -> float:  # unit: operational_intensity=flops/byte -> gflops/s
        """Roofline-attainable performance at a given intensity."""
        if operational_intensity < 0:
            raise ValueError("operational intensity must be non-negative")
        return min(self.peak_gflops_node, self.peak_membw_gbs * operational_intensity)

    def is_boost(self, frequency_ghz: float) -> bool:
        """Whether a requested frequency is the machine's boost mode."""
        return frequency_ghz >= self.frequencies_ghz[-1]

    def peak_gflops_at(self, frequency_ghz: float) -> float:  # unit: frequency_ghz=1 -> gflops/s
        """Node peak at a requested frequency (piecewise-linear ladder)."""
        pairs = self.frequency_peaks
        if frequency_ghz <= pairs[0][0]:
            return pairs[0][1]
        for (f0, p0), (f1, p1) in zip(pairs, pairs[1:]):
            if frequency_ghz <= f1:
                t = (frequency_ghz - f0) / (f1 - f0)
                return p0 + t * (p1 - p0)
        return pairs[-1][1]
