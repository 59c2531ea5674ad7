"""Pluggable physical system models (ROADMAP item 3).

The :class:`SystemModel` contract abstracts one deployed HPC system —
counter→flops/bytes formulas, peak ceilings, frequency ladder, and a
synthetic workload mix — behind a registry, so the same online α/β/θ
pipeline runs on Fugaku and on non-Fugaku machines, and cross-system
transfer can be measured.  Dispatch goes through :func:`get_system`;
``tests/systems`` holds every registered system to the contract
(members, signatures, ``# unit:`` annotations).

Importing this package registers the built-in systems.
"""

from repro.systems.base import SystemModel
from repro.systems.fugaku import FugakuSystem
from repro.systems.registry import available_systems, get_system, register_system
from repro.systems.spec import MachineSpec
from repro.systems.synthetic import IN2P3System, SupercloudSystem

__all__ = [
    "SystemModel",
    "MachineSpec",
    "register_system",
    "get_system",
    "available_systems",
    "FugakuSystem",
    "SupercloudSystem",
    "IN2P3System",
]
