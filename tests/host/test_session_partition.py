"""Session register partitioning and multi-session sharing."""

import pytest

from repro.config import FrameworkConfig
from repro.host import CoprocessorDriver, OutOfRegisters, Session
from repro.isa import ArithOp
from repro.system import build_system


class TestPartitionedSessions:
    def test_allocation_confined_to_range(self):
        system = build_system(FrameworkConfig(n_regs=16))
        s = Session(system, reg_range=range(8, 16))
        regs = s.alloc_many(8)
        assert all(8 <= r < 16 for r in regs)
        with pytest.raises(OutOfRegisters):
            s.alloc()

    def test_two_sessions_share_one_system(self):
        system = build_system(FrameworkConfig(n_regs=16))
        lo = Session(system, reg_range=range(0, 8), flag_range=range(1, 4))
        hi = Session(system, reg_range=range(8, 16), flag_range=range(4, 8))
        a = lo.put(10)
        b = hi.put(20)
        assert a < 8 <= b
        assert lo.read(a) == 10
        assert hi.read(b) == 20
        # interleaved computation with disjoint registers and flags
        ra = lo.arith(ArithOp.ADD, a, a)
        rb = hi.arith(ArithOp.ADD, b, b)
        assert lo.read(ra) == 20
        assert hi.read(rb) == 40

    def test_out_of_file_range_rejected(self):
        system = build_system(FrameworkConfig(n_regs=8))
        with pytest.raises(ValueError):
            Session(system, reg_range=range(4, 12))

    def test_flag_range_respected(self):
        system = build_system()
        s = Session(system, flag_range=range(2, 4))
        flags = [s.alloc_flag(), s.alloc_flag()]
        assert set(flags) == {2, 3}
        with pytest.raises(OutOfRegisters):
            s.alloc_flag()


class TestSessionsOverMultiHost:
    def test_one_session_per_cpu(self):
        """The full Fig. 1.1 picture: per-CPU sessions on shared hardware."""
        system = build_system(FrameworkConfig(n_regs=16), n_hosts=2)
        s0 = Session(system, reg_range=range(0, 8), flag_range=range(1, 4),
                     driver=CoprocessorDriver(system, cpu=0))
        s1 = Session(system, reg_range=range(8, 16), flag_range=range(4, 8),
                     driver=CoprocessorDriver(system, cpu=1))
        assert s0.compute(ArithOp.ADD, 20, 22) == 42
        assert s1.compute(ArithOp.SUB, 100, 58) == 42
        # interleaved wide arithmetic on both CPUs
        a0 = s0.write_wide(0xFFFF_FFFF_FFFF, 2)
        a1 = s1.write_wide(0x1111_2222_3333, 2)
        b0 = s0.write_wide(1, 2)
        b1 = s1.write_wide(0x0F0F, 2)
        out0, _ = s0.add_wide(a0, b0)
        out1, _ = s1.add_wide(a1, b1)
        assert s0.read_wide(out0) == 0x1_0000_0000_0000
        assert s1.read_wide(out1) == 0x1111_2222_4242
