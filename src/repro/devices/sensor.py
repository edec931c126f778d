"""Actuators: the physical-interaction end of the spectrum.

An actuator accepts commands and applies them to the environment model,
draining battery per command so that energy depletion faults emerge
organically from workload intensity.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.devices.base import Device, DeviceClass
from repro.network.transport import Network
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceLog


class Actuator(Device):
    """An actuator accepting commands from the network.

    The ``apply`` callback represents the physical effect; the actuator
    records command latency (sent_at -> applied_at) which feeds the
    control-loop latency requirement in experiments.
    """

    ENERGY_PER_ACTUATION = 0.2

    def __init__(
        self,
        device_id: str,
        domain: str = "default",
        location: str = "site0",
        apply: Optional[Callable[[dict], None]] = None,
    ) -> None:
        super().__init__(device_id, DeviceClass.ACTUATOR, domain=domain, location=location)
        self.apply = apply or (lambda _command: None)
        self.commands_applied = 0
        self.last_command: Optional[dict] = None

    def attach(
        self,
        sim: Simulator,
        network: Network,
        metrics: Optional[MetricsRecorder] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        """Register the command handler on the network."""

        def on_command(message) -> None:
            if not self.up:
                return
            if not self.battery.drain(self.ENERGY_PER_ACTUATION):
                return
            command = message.payload or {}
            self.apply(command)
            self.commands_applied += 1
            self.last_command = command
            if metrics is not None:
                issued = command.get("issued_at", message.sent_at)
                metrics.record("actuation.latency", sim.now, sim.now - issued)
            if trace is not None:
                trace.emit(sim.now, "actuation", "applied", subject=self.device_id)

        network.register(self.device_id, "actuator.command", on_command)
