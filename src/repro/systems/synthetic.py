"""Synthetic non-Fugaku systems: distinct knees, distinct workload mixes.

Two machines modeled on the workload-dataset papers in PAPERS.md:

- :class:`SupercloudSystem` — an MIT-Supercloud-like ML/AI datacenter
  node: fat x86 nodes, high compute peak against commodity DDR, so the
  ridge sits at 4.375 Flops/Byte (vs
  Fugaku's 3.30) and a workload dominated by training / inference /
  notebook jobs.
- :class:`IN2P3System` — an IN2P3-CC-like high-throughput computing
  farm: modest per-node peaks, a three-step frequency ladder, and an
  HEP event-processing mix (reconstruction, Monte-Carlo, skims) that is
  overwhelmingly memory-bound with a ridge of 2.62 Flops/Byte.

Both machines keep the project-wide four-counter trace schema
(``perf2..perf5``): the generic Eq. 4/5 formulas are parameterized by
each machine's vector multiplier, cache-line size and counter
replication, so the same characterizer pipeline runs unchanged.  The
knee ladders (``frequency_peaks``) are distinct and validated monotone:
:class:`repro.systems.spec.MachineSpec` checks them when this module is
imported.
"""

from __future__ import annotations

from repro.fugaku.apps import AppArchetype
from repro.fugaku.counters import (
    counters_from_flops_bytes,
    flops_from_counters,
    moved_bytes_from_counters,
)
from repro.systems.base import SystemModel
from repro.systems.registry import register_system
from repro.systems.spec import MachineSpec

__all__ = ["SupercloudSystem", "IN2P3System", "SUPERCLOUD", "IN2P3"]


#: MIT-Supercloud-like ML node: AVX-512 x86, high peak, DDR-bound knee.
SUPERCLOUD = MachineSpec(
    name="supercloud",
    peak_gflops_node=7000.0,
    peak_membw_gbs=1600.0,
    cores_per_node=40,
    frequencies_ghz=(2.5, 3.1),
    frequency_peaks=((2.5, 5645.0), (3.1, 7000.0)),
    sve_bits=256,
    cache_line_bytes=64,
    cores_per_cmg=1,
    num_nodes=480,
    memory_gib_per_node=384,
)

#: IN2P3-CC-like HTC farm node: modest peaks, three-step clock ladder.
IN2P3 = MachineSpec(
    name="in2p3",
    peak_gflops_node=2150.0,
    peak_membw_gbs=820.0,
    cores_per_node=64,
    frequencies_ghz=(2.2, 2.6, 3.0),
    frequency_peaks=((2.2, 1576.0), (2.6, 1863.0), (3.0, 2150.0)),
    sve_bits=512,
    cache_line_bytes=64,
    cores_per_cmg=1,
    num_nodes=1200,
    memory_gib_per_node=256,
)


def build_supercloud_catalog() -> tuple[AppArchetype, ...]:
    """ML/AI datacenter mix (Supercloud ridge: log10(4.375) ≈ 0.641).

    Training and dense-inference archetypes sit above the ridge,
    notebooks / ETL / data loaders far below; the straddlers
    ("gnn-training", "video-analytics") supply the label noise.
    """
    return (
        AppArchetype(
            name="dl-training", domain="machine learning", weight=0.26,
            op_mu=1.05, op_sigma=0.30, job_sigma=0.12, drift_sigma=0.0050,
            eff_alpha=2.6, eff_beta=3.6,
            node_choices=(1, 2, 4, 8, 16), node_probs=(0.35, 0.25, 0.20, 0.12, 0.08),
            duration_mu=9.0, duration_sigma=1.1, power_base_w=420.0,
            environments=("conda/pytorch", "singularity/tf2", "conda/jax"),
            name_tokens=("train", "resnet", "bert", "epoch", "ddp", "finetune"),
        ),
        AppArchetype(
            name="dl-inference", domain="machine learning", weight=0.14,
            op_mu=0.15, op_sigma=0.30, job_sigma=0.13, drift_sigma=0.0045,
            eff_alpha=1.8, eff_beta=6.0,
            node_choices=(1, 2), node_probs=(0.80, 0.20),
            duration_mu=7.2, duration_sigma=1.0, power_base_w=240.0,
            environments=("conda/pytorch", "singularity/triton", "conda/onnx"),
            name_tokens=("infer", "batch", "serve", "score", "embed", "eval"),
        ),
        AppArchetype(
            name="notebook-etl", domain="interactive", weight=0.20,
            op_mu=-1.60, op_sigma=0.45, job_sigma=0.16, drift_sigma=0.0055,
            eff_alpha=1.0, eff_beta=13.0,
            node_choices=(1,), node_probs=(1.0,),
            duration_mu=7.6, duration_sigma=1.2, power_base_w=150.0,
            environments=("conda/py311", "jupyter/lab", "conda/rapids-cpu"),
            name_tokens=("notebook", "etl", "pandas", "load", "explore", "merge"),
        ),
        AppArchetype(
            name="data-loader", domain="data pipelines", weight=0.12,
            op_mu=-2.10, op_sigma=0.40, job_sigma=0.15, drift_sigma=0.0050,
            eff_alpha=1.0, eff_beta=15.0,
            node_choices=(1, 2, 4), node_probs=(0.60, 0.25, 0.15),
            duration_mu=6.9, duration_sigma=1.1, power_base_w=130.0,
            environments=("conda/py311", "singularity/dali", "conda/webdataset"),
            name_tokens=("shard", "decode", "augment", "tfrecord", "stage", "pack"),
        ),
        AppArchetype(
            name="gnn-training", domain="machine learning", weight=0.10,
            op_mu=0.62, op_sigma=0.30, job_sigma=0.15, drift_sigma=0.0060,
            eff_alpha=1.9, eff_beta=5.2,
            node_choices=(1, 2, 4), node_probs=(0.55, 0.30, 0.15),
            duration_mu=8.4, duration_sigma=1.0, power_base_w=300.0,
            environments=("conda/dgl", "conda/pyg", "singularity/graph"),
            name_tokens=("gnn", "sage", "gat", "sample", "hetero", "link"),
        ),
        AppArchetype(
            name="video-analytics", domain="computer vision", weight=0.08,
            op_mu=0.70, op_sigma=0.32, job_sigma=0.15, drift_sigma=0.0055,
            eff_alpha=2.0, eff_beta=5.0,
            node_choices=(1, 2, 8), node_probs=(0.55, 0.30, 0.15),
            duration_mu=8.1, duration_sigma=1.1, power_base_w=280.0,
            environments=("singularity/ffmpeg", "conda/opencv", "conda/pytorch"),
            name_tokens=("decode", "track", "detect", "clip", "frames", "yolo"),
        ),
        AppArchetype(
            name="hpc-sim", domain="engineering", weight=0.10,
            op_mu=1.45, op_sigma=0.30, job_sigma=0.11, drift_sigma=0.0035,
            eff_alpha=3.0, eff_beta=2.6,
            node_choices=(2, 4, 8, 32), node_probs=(0.30, 0.30, 0.25, 0.15),
            duration_mu=8.8, duration_sigma=0.9, power_base_w=380.0,
            environments=("spack/openmpi", "singularity/ansys", "spack/petsc"),
            name_tokens=("fem", "solve", "mesh", "modal", "contact", "assembly"),
        ),
    )


def build_in2p3_catalog() -> tuple[AppArchetype, ...]:
    """HEP high-throughput mix (IN2P3 ridge: log10(2.622) ≈ 0.419).

    Event processing is dominated by pointer-chasing reconstruction and
    I/O-heavy skims (memory-bound); lattice QCD and generator-level
    theory jobs supply the compute-bound tail.
    """
    return (
        AppArchetype(
            name="event-reco", domain="high energy physics", weight=0.30,
            op_mu=-0.95, op_sigma=0.35, job_sigma=0.11, drift_sigma=0.0035,
            eff_alpha=1.4, eff_beta=8.0,
            node_choices=(1,), node_probs=(1.0,),
            duration_mu=8.7, duration_sigma=0.9, power_base_w=180.0,
            environments=("cvmfs/atlas", "cvmfs/cms", "cvmfs/lhcb"),
            name_tokens=("reco", "aod", "derive", "tracking", "calo", "trigger"),
        ),
        AppArchetype(
            name="mc-simulation", domain="high energy physics", weight=0.24,
            op_mu=0.30, op_sigma=0.30, job_sigma=0.14, drift_sigma=0.0050,
            eff_alpha=1.9, eff_beta=5.5,
            node_choices=(1, 2), node_probs=(0.85, 0.15),
            duration_mu=9.2, duration_sigma=0.9, power_base_w=200.0,
            environments=("cvmfs/geant4", "cvmfs/atlas", "cvmfs/belle2"),
            name_tokens=("geant", "simhit", "pileup", "digi", "minbias", "gen"),
        ),
        AppArchetype(
            name="ntuple-skim", domain="high energy physics", weight=0.18,
            op_mu=-1.80, op_sigma=0.40, job_sigma=0.15, drift_sigma=0.0045,
            eff_alpha=1.0, eff_beta=12.0,
            node_choices=(1,), node_probs=(1.0,),
            duration_mu=7.5, duration_sigma=1.1, power_base_w=140.0,
            environments=("cvmfs/root", "conda/uproot", "cvmfs/cms"),
            name_tokens=("skim", "ntuple", "slim", "hadd", "filter", "branch"),
        ),
        AppArchetype(
            name="lattice-qcd", domain="theory", weight=0.10,
            op_mu=1.10, op_sigma=0.28, job_sigma=0.10, drift_sigma=0.0030,
            eff_alpha=3.2, eff_beta=2.4,
            node_choices=(4, 16, 64, 128), node_probs=(0.30, 0.30, 0.25, 0.15),
            duration_mu=9.3, duration_sigma=0.8, power_base_w=260.0,
            environments=("spack/quda-cpu", "spack/openmpi", "spack/grid"),
            name_tokens=("hmc", "prop", "wilson", "ensemble", "cfg", "smear"),
        ),
        AppArchetype(
            name="ml-tagging", domain="machine learning", weight=0.10,
            op_mu=0.55, op_sigma=0.30, job_sigma=0.15, drift_sigma=0.0055,
            eff_alpha=2.0, eff_beta=5.0,
            node_choices=(1, 2), node_probs=(0.75, 0.25),
            duration_mu=8.2, duration_sigma=1.0, power_base_w=220.0,
            environments=("conda/pytorch", "cvmfs/lcg", "conda/xgboost"),
            name_tokens=("btag", "gnn", "train", "flavor", "jet", "score"),
        ),
        AppArchetype(
            name="astro-pipeline", domain="astroparticle", weight=0.08,
            op_mu=-1.30, op_sigma=0.40, job_sigma=0.14, drift_sigma=0.0045,
            eff_alpha=1.2, eff_beta=9.0,
            node_choices=(1, 2, 4), node_probs=(0.60, 0.25, 0.15),
            duration_mu=7.9, duration_sigma=1.1, power_base_w=160.0,
            environments=("cvmfs/km3net", "conda/astropy", "cvmfs/cta"),
            name_tokens=("calib", "shower", "photon", "stack", "catalog", "scan"),
        ),
    )


@register_system
class SupercloudSystem(SystemModel):
    """MIT-Supercloud-like ML datacenter (knee 4.375 Flops/Byte)."""

    name = "supercloud"

    @property
    def machine(self):
        """The frozen machine description (a spec dataclass, Table I shape)."""
        return SUPERCLOUD

    def flops_from_counters(self, perf2, perf3):  # unit: perf2=flops, perf3=flops -> flops
        """Eq. 4 with the AVX-512-as-two-slices multiplier of this machine."""
        return flops_from_counters(perf2, perf3, spec=self.machine)

    def moved_bytes_from_counters(self, perf4, perf5):  # unit: perf4=1, perf5=1 -> bytes
        """Eq. 5 with per-core 64 B line counters (no CMG replication)."""
        return moved_bytes_from_counters(perf4, perf5, spec=self.machine)

    def counters_from_flops_bytes(self, flops, moved_bytes, *, vector_fraction=0.9, read_fraction=0.6):
        """Exact inverse of Eqs. 4-5: synthesize ``perf2..perf5``."""
        return counters_from_flops_bytes(
            flops,
            moved_bytes,
            spec=self.machine,
            sve_fraction=vector_fraction,
            read_fraction=read_fraction,
        )

    def peak_gflops_at(self, frequency_ghz):  # unit: frequency_ghz=1 -> gflops/s
        """Node peak at a requested frequency (piecewise knee ladder)."""
        return self.machine.peak_gflops_at(frequency_ghz)

    def workload_config(self, *, scale, seed):
        """ML/AI mix; ~0.66 M jobs at full scale, early-January downtime."""
        from repro.fugaku.workload import WorkloadConfig

        return WorkloadConfig(
            scale=scale,
            seed=seed,
            full_scale_jobs=660_000,
            maintenance_days=(38, 40),
            catalog=build_supercloud_catalog(),
        )


@register_system
class IN2P3System(SystemModel):
    """IN2P3-CC-like HTC farm (knee 2.622 Flops/Byte)."""

    name = "in2p3"

    @property
    def machine(self):
        """The frozen machine description (a spec dataclass, Table I shape)."""
        return IN2P3

    def flops_from_counters(self, perf2, perf3):  # unit: perf2=flops, perf3=flops -> flops
        """Eq. 4 with this machine's four-slice vector multiplier."""
        return flops_from_counters(perf2, perf3, spec=self.machine)

    def moved_bytes_from_counters(self, perf4, perf5):  # unit: perf4=1, perf5=1 -> bytes
        """Eq. 5 with per-core 64 B line counters (no CMG replication)."""
        return moved_bytes_from_counters(perf4, perf5, spec=self.machine)

    def counters_from_flops_bytes(self, flops, moved_bytes, *, vector_fraction=0.9, read_fraction=0.6):
        """Exact inverse of Eqs. 4-5: synthesize ``perf2..perf5``."""
        return counters_from_flops_bytes(
            flops,
            moved_bytes,
            spec=self.machine,
            sve_fraction=vector_fraction,
            read_fraction=read_fraction,
        )

    def peak_gflops_at(self, frequency_ghz):  # unit: frequency_ghz=1 -> gflops/s
        """Node peak at a requested frequency (three-step clock ladder)."""
        return self.machine.peak_gflops_at(frequency_ghz)

    def workload_config(self, *, scale, seed):
        """HTC/HEP mix; ~1.1 M jobs at full scale, late-February downtime."""
        from repro.fugaku.workload import WorkloadConfig

        return WorkloadConfig(
            scale=scale,
            seed=seed,
            full_scale_jobs=1_100_000,
            maintenance_days=(82, 84),
            jobs_per_template_day=5.0,
            catalog=build_in2p3_catalog(),
        )
