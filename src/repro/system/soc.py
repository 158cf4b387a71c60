"""The complete coprocessor system (paper Fig. 1: CPU ↔ interface ↔ FUs).

`CoprocessorSystem` is the top-level simulated design:

* a :class:`HostPort` standing in for the CPU side of the I/O channel — or,
  for several CPUs (Fig. 1.1), a :class:`SharedHostBus` with one port each,
* a full-duplex :class:`Link` with configurable latency/bandwidth,
* COTS-style :class:`Receiver`/:class:`Transmitter` modules,
* the :class:`RegisterTransferMachine` with its functional units.

Each host driver (:mod:`repro.host.driver`) talks to one of the ``hosts``
ports; the coprocessor side is the same for any number of CPUs and is
exactly the component diagram of Fig. 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hdl import Component
from ..messages.channel import Link
from ..messages.multihost import SharedHostBus
from ..messages.transceiver import HostPort, Receiver, Transmitter
from ..rtm.rtm import RegisterTransferMachine, _connect

if TYPE_CHECKING:
    from .builder import SystemBuilder


class CoprocessorSystem(Component):
    """Host port(s) + link + transceivers + RTM, fully wired from one spec."""

    def __init__(self, spec: "SystemBuilder", name: str = "soc"):
        super().__init__(name)
        self.config = config = spec.config
        self.channel_spec = spec.channel
        if spec.n_hosts == 1:
            self.bus = None
            host_side = self.host = HostPort("host", parent=self)
            self.hosts = [self.host]
        else:
            host_side = self.bus = SharedHostBus(
                "bus", spec.n_hosts, config.data_words, parent=self
            )
            self.hosts = self.bus.hosts
            self.host = self.hosts[0]
        self.link = Link(
            "link",
            spec.channel,
            parent=self,
            upstream_spec=spec.upstream_channel,
            downstream_faults=spec.faults,
            upstream_faults=spec.upstream_faults,
        )
        self.receiver = Receiver(
            "receiver", parent=self, depth=config.transceiver_fifo_depth
        )
        self.transmitter = Transmitter(
            "transmitter", parent=self, depth=config.transceiver_fifo_depth
        )
        self.rtm = RegisterTransferMachine(
            "rtm", config, registry=spec.unit_registry(),
            unit_codes=spec.unit_codes, state_faults=spec.state_faults,
            state_protection=spec.state_protection, parent=self,
        )

        # host → coprocessor path
        _connect(self, host_side.tx, self.link.downstream.inp)
        _connect(self, self.link.downstream.out, self.receiver.chan)
        _connect(self, self.receiver.out, self.rtm.words_in)
        # coprocessor → host path
        _connect(self, self.rtm.words_out, self.transmitter.inp)
        _connect(self, self.transmitter.chan, self.link.upstream.inp)
        _connect(self, self.link.upstream.out, host_side.rx)

    # -- state-fault domain accessors -------------------------------------------

    @property
    def state_domain(self):
        """The RTM's :class:`~repro.faults.StateFaultPlan` (None unprotected)."""
        return self.rtm.state_domain

    @property
    def mcu(self):
        """The RTM's machine-check unit (None when unprotected)."""
        return self.rtm.mcu

    # -- quiescence check (drivers use this to know when to stop pumping) --------

    @property
    def busy(self) -> bool:
        """True while any word, message or instruction is still in flight."""
        rtm = self.rtm
        return bool(
            any(host.tx_pending for host in self.hosts)
            or (self.bus is not None and self.bus.busy)
            or self.link.downstream.in_flight
            or self.link.upstream.in_flight
            or self.receiver.buffered
            or self.transmitter.buffered
            or rtm.msgbuffer.pending_message is not None
            or rtm.msgbuffer.backlog
            or rtm.msgbuffer._deframer.mid_frame
            or rtm.decoder._full.value
            or rtm.dispatcher.busy
            or rtm.execution._full.value
            or rtm.encoder.queued
            or rtm.serializer.words_pending
            or rtm.lockmgr.locked_count
        )
