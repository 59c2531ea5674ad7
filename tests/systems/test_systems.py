"""The system-model registry and the Fugaku extraction's bit-identity.

The ``repro.systems`` refactor moved the physical model behind an
abstract contract; these tests pin (a) the registry mechanics, (b) that
every registered plugin really implements the contract, (c) that the
Fugaku port is bit-identical to the legacy ``repro.fugaku`` path — same
trace, same characterization labels, same Table II contingency — and
(d) that the synthetic systems have genuinely distinct knees and specs.
"""

import inspect

import numpy as np
import pytest

from repro.analysis.tables import table2_distribution
from repro.core.job_characterizer import JobCharacterizer
from repro.fugaku.counters import flops_from_counters, moved_bytes_from_counters
from repro.fugaku.system import FUGAKU
from repro.fugaku.workload import generate_trace
from repro.systems import (
    IN2P3System,
    FugakuSystem,
    SupercloudSystem,
    SystemModel,
    available_systems,
    get_system,
    register_system,
)
from repro.systems.spec import MachineSpec
from repro.systems.synthetic import IN2P3, SUPERCLOUD

SCALE = 0.002
SEED = 7

#: every abstract member of the contract, by kind
CONTRACT_METHODS = [
    "flops_from_counters",
    "moved_bytes_from_counters",
    "counters_from_flops_bytes",
    "peak_gflops_at",
    "workload_config",
]


class TestRegistry:
    def test_builtin_systems_are_registered(self):
        assert set(available_systems()) >= {"fugaku", "supercloud", "in2p3"}

    def test_get_system_returns_singleton(self):
        assert get_system("fugaku") is get_system("fugaku")
        assert isinstance(get_system("fugaku"), FugakuSystem)
        assert isinstance(get_system("supercloud"), SupercloudSystem)
        assert isinstance(get_system("in2p3"), IN2P3System)

    def test_unknown_system_raises(self):
        with pytest.raises(KeyError, match="unknown system"):
            get_system("summit")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_system
            class Impostor(FugakuSystem):
                name = "fugaku"

    def test_non_systemmodel_rejected(self):
        with pytest.raises(TypeError):
            register_system(object)


def _unit_annotation(function):
    """The ``# unit:`` comment on a method's ``def`` line, or None."""
    lines = inspect.getsourcelines(function)[0]
    def_line = next(line for line in lines if line.lstrip().startswith("def "))
    _code, marker, annotation = def_line.partition("# unit:")
    return annotation.strip() if marker else None


class TestContract:
    """Every *registered* system honours the contract, not a fixed list."""

    @pytest.mark.parametrize("name", available_systems())
    def test_plugin_implements_contract(self, name):
        system = get_system(name)
        assert isinstance(system, SystemModel)
        # machine is duck-typed (Fugaku keeps its legacy FugakuSpec so the
        # constants never move); the contract is the spec surface below.
        machine = system.machine
        for attr in ("peak_gflops_node", "peak_membw_gbs", "frequencies_ghz", "cores_per_node"):
            assert hasattr(machine, attr), attr
        for method in CONTRACT_METHODS:
            assert callable(getattr(system, method)), method

    @pytest.mark.parametrize("name", available_systems())
    def test_members_match_contract_signatures(self, name):
        """Same parameter names and kinds, property-ness and ``# unit:``
        comment as the abstract member — the ABC only checks that an
        override exists."""
        cls = type(get_system(name))
        for member in sorted(SystemModel.__abstractmethods__):
            contract, impl = getattr(SystemModel, member), getattr(cls, member)
            if isinstance(contract, property):
                assert isinstance(impl, property), member
                continue
            want = [(p.name, p.kind) for p in inspect.signature(contract).parameters.values()]
            got = [(p.name, p.kind) for p in inspect.signature(impl).parameters.values()]
            assert got == want, member
            assert _unit_annotation(impl) == _unit_annotation(contract), member

    @pytest.mark.parametrize("name", available_systems())
    def test_counter_round_trip(self, name):
        """counters_from_flops_bytes inverts the counter->flops/bytes map."""
        system = get_system(name)
        flops = np.array([1e12, 5e13, 2.5e11])
        moved = np.array([4e11, 1e12, 8e10])
        p2, p3, p4, p5 = system.counters_from_flops_bytes(flops, moved)
        back_f = system.flops_from_counters(p2, p3)
        back_m = system.moved_bytes_from_counters(p4, p5)
        np.testing.assert_allclose(back_f, flops, rtol=1e-9)
        np.testing.assert_allclose(back_m, moved, rtol=1e-9)

    @pytest.mark.parametrize("name", available_systems())
    def test_roofline_objects(self, name):
        system = get_system(name)
        roofline = system.roofline()
        assert roofline.ridge_point == pytest.approx(system.ridge_point)

    @pytest.mark.parametrize("name", available_systems())
    def test_peak_gflops_at_is_monotone(self, name):
        system = get_system(name)
        freqs = system.frequencies_ghz
        peaks = [system.peak_gflops_at(f) for f in freqs]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))
        assert peaks[-1] == pytest.approx(system.peak_gflops_node)


class TestFugakuBitIdentity:
    """The extraction must not move a single bit of the Fugaku path."""

    def test_trace_is_bit_identical(self):
        legacy = generate_trace(scale=SCALE, seed=SEED)
        ported = get_system("fugaku").generate_trace(scale=SCALE, seed=SEED)
        assert set(legacy.column_names) == set(ported.column_names)
        for col in legacy.column_names:
            assert np.array_equal(legacy[col], ported[col]), col

    def test_counter_math_is_bit_identical(self):
        rng = np.random.default_rng(0)
        p2, p3 = rng.uniform(1e9, 1e13, 64), rng.uniform(1e9, 1e13, 64)
        p4, p5 = rng.uniform(1e6, 1e10, 64), rng.uniform(1e6, 1e10, 64)
        system = get_system("fugaku")
        assert np.array_equal(
            system.flops_from_counters(p2, p3), flops_from_counters(p2, p3)
        )
        assert np.array_equal(
            system.moved_bytes_from_counters(p4, p5),
            moved_bytes_from_counters(p4, p5),
        )

    def test_characterization_labels_are_bit_identical(self):
        trace = generate_trace(scale=SCALE, seed=SEED)
        legacy = JobCharacterizer().labels_from_trace(trace)
        ported = JobCharacterizer.for_system(get_system("fugaku")).labels_from_trace(
            trace
        )
        assert np.array_equal(legacy, ported)

    def test_table2_contingency_is_bit_identical(self):
        trace = generate_trace(scale=SCALE, seed=SEED)
        legacy = table2_distribution(trace, characterizer=JobCharacterizer())
        ported = table2_distribution(
            trace,
            characterizer=JobCharacterizer.for_system(get_system("fugaku")),
        )
        assert legacy == ported

    def test_ridge_point_unchanged(self):
        assert get_system("fugaku").ridge_point == 3380.0 / 1024.0


class TestSyntheticSystems:
    def test_knees_are_distinct(self):
        ridges = {
            name: get_system(name).ridge_point
            for name in ("fugaku", "supercloud", "in2p3")
        }
        assert len(set(ridges.values())) == 3
        assert ridges["supercloud"] == pytest.approx(
            SUPERCLOUD.peak_gflops_node / SUPERCLOUD.peak_membw_gbs
        )
        assert ridges["in2p3"] == pytest.approx(
            IN2P3.peak_gflops_node / IN2P3.peak_membw_gbs
        )

    @pytest.mark.parametrize("name", ["supercloud", "in2p3"])
    def test_trace_generates_and_labels(self, name):
        system = get_system(name)
        trace = system.generate_trace(scale=SCALE, seed=SEED)
        assert len(trace) > 100
        labels = JobCharacterizer.for_system(system).labels_from_trace(trace)
        # both classes are present: the workload mix straddles the knee
        assert np.unique(labels).size == 2

    def test_workload_mixes_differ(self):
        sc = get_system("supercloud").workload_config(scale=SCALE, seed=SEED)
        i3 = get_system("in2p3").workload_config(scale=SCALE, seed=SEED)
        assert {a.name for a in sc.catalog} != {a.name for a in i3.catalog}

    def test_spec_validation_rejects_bad_declarations(self):
        with pytest.raises(ValueError, match="positive"):
            MachineSpec(
                name="bad",
                peak_gflops_node=-1.0,
                peak_membw_gbs=100.0,
                cores_per_node=4,
                frequencies_ghz=(2.0,),
                frequency_peaks=((2.0, -1.0),),
            )
        with pytest.raises(ValueError, match="ascending"):
            MachineSpec(
                name="bad",
                peak_gflops_node=100.0,
                peak_membw_gbs=100.0,
                cores_per_node=4,
                frequencies_ghz=(2.2, 2.0),
                frequency_peaks=((2.2, 90.0), (2.0, 100.0)),
            )

    def test_boost_detection(self):
        sc = get_system("supercloud")
        assert sc.is_boost(sc.frequencies_ghz[-1])
        assert not sc.is_boost(sc.frequencies_ghz[0])
