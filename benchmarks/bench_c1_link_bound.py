"""Experiment C1 — system speed is bounded by link latency + FPGA clock (§III).

"The speed of the system is determined by two factors: the latency of the
communication interface to the host computer, and the clock speed of the
FPGA.  Our implementation used a prototyping board ... only a very slow
connection ... was available.  However, this is not a limitation of the
approach: there are FPGAs that are tightly integrated with processors,
offering extremely high transfer rates."

Reproduced shapes:
* a single write+GET round trip costs orders of magnitude more cycles over
  the prototyping-class link than over an integrated one;
* for a fixed arithmetic workload, the fraction of time attributable to
  the channel collapses as the link improves;
* in real units (115200-baud serial vs PCIe-class vs integrated) the same
  workload spans ~5 orders of magnitude of wall-clock.
"""

import pytest

from conftest import report
from repro.analysis import (
    DEFAULT_CLOCKS,
    INTEGRATED_LINK,
    PCIE_CLASS_LINK,
    SERIAL_PROTOTYPE_LINK,
    format_table,
    measure_issue_rate,
    roundtrip_cycles,
)
from repro.messages import FAST_BUS, INTEGRATED, SLOW_PROTOTYPE
from repro.system import build_system

CHANNELS = (INTEGRATED, FAST_BUS, SLOW_PROTOTYPE)


@pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.name)
def test_c1_roundtrip(benchmark, channel):
    cycles = benchmark.pedantic(
        lambda: roundtrip_cycles(build_system(channel=channel)), rounds=1, iterations=1
    )
    assert cycles > 0


def test_c1_report(benchmark):
    def build():
        rows = []
        for channel in CHANNELS:
            rt = roundtrip_cycles(build_system(channel=channel))
            r = measure_issue_rate(build_system(channel=channel), 32)
            rows.append([channel.name, channel.latency_cycles,
                         channel.cycles_per_word, rt,
                         round(r.cycles_per_instruction, 2)])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    report(
        "C1: link dependence — write+GET round trip and sustained instruction "
        "cost (coprocessor cycles)",
        format_table(
            ["link", "latency (cyc)", "cyc/word", "roundtrip", "cycles/instr"],
            rows,
            title="paper: system speed set by interface latency + FPGA clock",
        ),
    )
    by_name = {r[0]: r for r in rows}
    assert by_name["slow-prototype"][3] > 20 * by_name["integrated"][3]
    assert by_name["slow-prototype"][4] > by_name["integrated"][4]


def test_c1_uart_roundtrip(benchmark):
    """C1c: the prototyping link at bit level — a write+GET round trip over
    a real 8N1 UART wire (divisor 2, i.e. the *fastest* possible serial
    clocking) still costs ~2 orders of magnitude more than the integrated
    fabric, purely from serialising 32-bit words to 40-bit frame times."""
    from repro.config import FrameworkConfig
    from repro.hdl import Component, Simulator
    from repro.host import CoprocessorDriver
    from repro.messages.transceiver import HostPort, Receiver, Transmitter
    from repro.messages.uart import UartLink
    from repro.rtm.rtm import RegisterTransferMachine, _connect

    class SerialSoc(Component):
        def __init__(self):
            super().__init__("soc")
            cfg = FrameworkConfig()
            self.config = cfg
            self.host = HostPort("host", parent=self)
            self.link = UartLink("link", divisor=2, parent=self)
            self.receiver = Receiver("receiver", parent=self)
            self.transmitter = Transmitter("transmitter", parent=self)
            self.rtm = RegisterTransferMachine("rtm", cfg, parent=self)
            _connect(self, self.host.tx, self.link.tx_down.inp)
            _connect(self, self.link.rx_down.out, self.receiver.chan)
            _connect(self, self.receiver.out, self.rtm.words_in)
            _connect(self, self.rtm.words_out, self.transmitter.inp)
            _connect(self, self.transmitter.chan, self.link.tx_up.inp)
            _connect(self, self.link.rx_up.out, self.host.rx)

        @property
        def busy(self):
            return bool(self.host.tx_pending or self.link.tx_down.busy
                        or self.link.tx_up.busy)

    def run():
        soc = SerialSoc()
        sim = Simulator(soc)
        sim.reset()

        class Built:
            pass

        built = Built()
        built.soc, built.sim, built.config = soc, sim, soc.config
        d = CoprocessorDriver(built)
        d.write_reg(1, 42)
        start = d.cycles
        assert d.read_reg(1, max_cycles=500_000) == 42
        return d.cycles - start

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    integrated = roundtrip_cycles(build_system(channel=INTEGRATED))
    report(
        "C1c: bit-level UART (8N1, divisor 2) vs integrated fabric — one "
        "write+GET round trip",
        format_table(["physical layer", "roundtrip cycles"],
                     [["UART wire", cycles], ["integrated", integrated]]),
    )
    assert cycles > 20 * integrated


def test_c1_real_units_report(benchmark):
    """Analytic model over the paper-era real links (the full 115200-baud
    penalty is recovered analytically; the cycle-accurate presets are
    deliberately 64× milder for simulation tractability)."""

    def build():
        clocks = DEFAULT_CLOCKS
        # workload: ship 256 operands + collect 128 results, compute 512 cycles
        words_each_way = (256 * 2, 128 * 2)
        compute_s = clocks.fpga_seconds(512)
        rows = []
        for link in (SERIAL_PROTOTYPE_LINK, PCIE_CLASS_LINK, INTEGRATED_LINK):
            xfer = link.transfer_seconds(words_each_way[0]) + link.transfer_seconds(
                words_each_way[1]
            )
            total = xfer + compute_s
            rows.append([
                link.name,
                f"{xfer * 1e6:.1f}",
                f"{compute_s * 1e6:.1f}",
                f"{100 * xfer / total:.1f}%",
            ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    report(
        "C1b: real-unit link models — transfer vs compute time for a 256-operand "
        "workload (µs)",
        format_table(["link", "transfer µs", "compute µs", "link share"], rows),
    )
    serial_share = float(rows[0][3].rstrip("%"))
    integrated_share = float(rows[-1][3].rstrip("%"))
    assert serial_share > 99.0          # prototyping link: entirely link-bound
    assert integrated_share < 70.0      # integrated: compute is a first-order term
    # the serial link costs ~4 orders of magnitude more wall-clock
    assert float(rows[0][1]) > 1e3 * float(rows[-1][1])
