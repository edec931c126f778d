"""Sensors and actuators: the physical-interaction end of the spectrum.

Sensors periodically sample a (simulated) physical signal and push readings
to a sink over the network; actuators accept commands and apply them to the
environment model.  Both drain battery per operation so that energy
depletion faults emerge organically from workload intensity.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.devices.base import Device, DeviceClass
from repro.network.transport import Network
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.rng import derive_seed
from repro.simulation.trace import TraceLog


class Sensor(Device):
    """A periodic-sampling sensor device.

    The signal is a callable of simulated time; by default a seeded
    random-walk, which gives plausible readings without importing any data
    set (offline substitution for real traces, DESIGN.md §1).
    """

    #: Energy cost of one sample+transmit cycle, in battery units.
    ENERGY_PER_SAMPLE = 0.05

    def __init__(
        self,
        device_id: str,
        domain: str = "default",
        location: str = "site0",
        period: float = 1.0,
        signal: Optional[Callable[[float], float]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(device_id, DeviceClass.SENSOR, domain=domain, location=location)
        if period <= 0:
            raise ValueError("sampling period must be positive")
        self.period = period
        self._rng = rng or random.Random(derive_seed(device_id))
        self._walk = 20.0
        self.signal = signal or self._random_walk
        self.sink: Optional[str] = None
        self.samples_sent = 0

    def _random_walk(self, _t: float) -> float:
        self._walk += self._rng.gauss(0.0, 0.5)
        return self._walk

    def start_sampling(
        self,
        sim: Simulator,
        network: Network,
        sink: str,
        metrics: Optional[MetricsRecorder] = None,
        jitter: float = 0.0,
    ) -> None:
        """Begin the periodic sample-and-send loop toward ``sink``."""
        self.sink = sink
        offset = self._rng.uniform(0.0, jitter) if jitter > 0 else 0.0

        def tick(s: Simulator) -> None:
            if self.up:
                value = self.signal(s.now)
                alive = self.battery.drain(self.ENERGY_PER_SAMPLE)
                if alive:
                    network.send(
                        self.device_id,
                        self.sink,
                        "sensor.reading",
                        payload={"device": self.device_id, "value": value, "t": s.now},
                        size_bytes=64,
                    )
                    self.samples_sent += 1
                    if metrics is not None:
                        metrics.increment("sensor.samples")
            # Keep ticking even while down: the device may recover.
            s.schedule(self.period, tick, label=f"sample:{self.device_id}")

        sim.schedule(offset, tick, label=f"sample:{self.device_id}")


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
