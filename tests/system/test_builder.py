"""Unit tests for the system builder (the paper's configuration workflow)."""

import pytest

from repro.config import FrameworkConfig
from repro.fu import (
    ArithmeticUnit,
    FuComputation,
    MinimalFunctionalUnit,
    PipelinedArithmeticUnit,
)
from repro.faults import StateFaultSpec
from repro.hdl import Component, SimulationError
from repro.host import CoprocessorDriver
from repro.isa import Opcode, instructions as ins
from repro.messages import FAST_BUS, SLOW_PROTOTYPE
from repro.system import SystemBuilder, build_system


class Triple(MinimalFunctionalUnit):
    def compute(self, s):
        return FuComputation(data1=(s.op_a * 3) & 0xFFFF_FFFF)


class TestBuilder:
    def test_defaults(self):
        built = SystemBuilder().build()
        assert built.config.word_bits == 32
        assert built.soc.channel_spec.name == "integrated"
        assert len(built.soc.rtm.units) == 2

    def test_with_config_overrides(self):
        built = SystemBuilder(FrameworkConfig(word_bits=64, n_regs=32)).build()
        assert built.config.word_bits == 64
        assert built.config.n_regs == 32

    def test_with_channel(self):
        built = SystemBuilder(channel=SLOW_PROTOTYPE).build()
        assert built.soc.channel_spec is SLOW_PROTOTYPE

    def test_with_units_subset(self):
        built = SystemBuilder(unit_codes=[Opcode.ARITH]).build()
        assert len(built.soc.rtm.units) == 1
        assert isinstance(built.soc.rtm.unit_for(Opcode.ARITH), ArithmeticUnit)

    def test_custom_unit_registration(self):
        built = SystemBuilder(units={0x20: lambda n, w, p: Triple(n, w, p)}).build()
        driver = CoprocessorDriver(built)
        driver.write_reg(1, 14)
        driver.execute(ins.dispatch(0x20, 0, dst1=2, src1=1))
        assert driver.read_reg(2) == 42

    @pytest.mark.parametrize("extra", [
        {"units": {0x20: lambda n, w, p: Triple(n, w, p)}},
        {"fp_units": True},
        {"unit_codes": [Opcode.ARITH]},
    ], ids=["units", "fp_units", "unit_codes"])
    def test_pipelined_config_reaches_every_registry_path(self, extra):
        """The registry resolves from the final config, so extra units, the
        FP family or a code subset never fall back to area-optimised units."""
        built = SystemBuilder(FrameworkConfig(pipelined_units=True), **extra).build()
        assert built.config.pipelined_units
        assert isinstance(built.soc.rtm.unit_for(Opcode.ARITH), PipelinedArithmeticUnit)

    @pytest.mark.parametrize("kwargs, error", [
        ({"backend": "compild"}, SimulationError),
        ({"backend": None}, SimulationError),
        ({"window": 0}, ValueError),
    ], ids=["backend-typo", "backend-none", "window"])
    def test_spec_rejects_bad_values_before_elaboration(self, kwargs, error):
        with pytest.raises(error):
            SystemBuilder(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"n_hosts": 0},
        {"n_hosts": 5},
        {"n_hosts": 2, "reliable": True},
        {"config": FrameworkConfig(reliable_framing=True), "n_hosts": 2},
        {"n_hosts": 2, "state_faults": StateFaultSpec(seed=1)},
        {"n_hosts": 2, "state_protection": True},
    ], ids=["no-hosts", "past-tag-namespace", "reliable", "config-reliable",
            "state-faults", "state-protection"])
    def test_spec_rejects_bad_host_counts_before_elaboration(self, kwargs,
                                                              monkeypatch):
        def elaborated(*_args, **_kwargs):
            raise AssertionError("a component elaborated before validation")

        monkeypatch.setattr(Component, "__init__", elaborated)
        with pytest.raises(ValueError):
            build_system(**kwargs)

    @pytest.mark.parametrize("n_hosts", [1, 2, 4])
    def test_host_count(self, n_hosts):
        soc = SystemBuilder(n_hosts=n_hosts, lint="error").build().soc
        assert len(soc.hosts) == n_hosts
        assert soc.host is soc.hosts[0]
        if n_hosts == 1:
            assert soc.bus is None and soc.host.path == "soc.host"
        else:
            assert soc.bus.hosts is soc.hosts

    def test_build_system_convenience(self):
        built = build_system(FrameworkConfig(n_regs=8), channel=FAST_BUS)
        assert built.config.n_regs == 8
        assert built.soc.channel_spec is FAST_BUS


class TestWordSizeGeneric:
    """'The word size used for the register file is adjustable' (§II)."""

    @pytest.mark.parametrize("bits", [32, 64, 128])
    def test_wide_values_round_trip(self, bits):
        built = build_system(FrameworkConfig(word_bits=bits))
        driver = CoprocessorDriver(built)
        value = (1 << (bits - 1)) | 0xABC
        driver.write_reg(1, value)
        assert driver.read_reg(1) == value

    @pytest.mark.parametrize("bits", [64, 96])
    def test_wide_arithmetic(self, bits):
        built = build_system(FrameworkConfig(word_bits=bits))
        driver = CoprocessorDriver(built)
        a = (1 << bits) - 1
        driver.write_reg(1, a)
        driver.write_reg(2, 5)
        driver.execute(ins.add(3, 1, 2, dst_flag=1))
        assert driver.read_reg(3) == 4  # wrapped
        from repro.isa import FLAG_CARRY

        assert driver.read_flags(1) & FLAG_CARRY


class TestBusyTracking:
    def test_quiescent_after_reset(self):
        built = build_system()
        built.sim.settle()
        assert not built.soc.busy

    def test_busy_during_flight(self):
        built = build_system()
        driver = CoprocessorDriver(built)
        driver.write_reg(1, 1)
        driver.pump(1)
        assert built.soc.busy
        driver.run_until_quiet()
        assert not built.soc.busy
