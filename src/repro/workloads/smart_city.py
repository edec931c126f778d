"""Smart-city workload: traffic sensing, edge analytics, actuated signals.

The scenario of Fig. 1 in miniature: per-district traffic sensors feed an
edge analytics service which issues timing commands to signal actuators;
a city dashboard aggregates district summaries.  Used by the Fig. 1
artifact (``repro.paper.landscape``) and the smart-city example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.system import IoTSystem
from repro.devices.base import DeviceClass
from repro.devices.sensor import Actuator
from repro.devices.software import Service
from repro.simulation.kernel import Simulator


@dataclass
class SmartCityStats:
    readings_processed: int = 0
    commands_issued: int = 0
    per_district_readings: Dict[int, int] = field(default_factory=dict)


class SmartCityWorkload:
    """Builds and drives the smart-city scenario on an IoTSystem."""

    def __init__(
        self,
        n_districts: int = 3,
        sensors_per_district: int = 4,
        seed: int = 7,
        sensor_period: float = 1.0,
        command_threshold: float = 30.0,
    ) -> None:
        self.n_districts = n_districts
        self.sensors_per_district = sensors_per_district
        self.sensor_period = sensor_period
        self.command_threshold = command_threshold
        self.system = IoTSystem.with_edge_cloud_landscape(
            n_districts, sensors_per_district, seed=seed,
            device_class=DeviceClass.GATEWAY, domain_per_site=True,
        )
        self.stats = SmartCityStats()
        self._traffic_level: Dict[str, float] = {}
        self._actuators: Dict[int, str] = {}
        self._rng = self.system.rngs.stream("traffic")
        self._wire()

    # -- construction ------------------------------------------------------------#
    def _wire(self) -> None:
        for district in range(self.n_districts):
            edge = f"edge{district}"
            analytics = Service(f"traffic-analytics{district}", runtime="python",
                                cpu=300.0, memory=256.0)
            self.system.fleet.get(edge).host(analytics)
            # One signal actuator per district, attached to the edge LAN.
            actuator_id = f"signal{district}"
            self.system.topology.add_link(actuator_id, edge, profile="wireless")
            actuator = Actuator(actuator_id, domain=f"dom{district}",
                                location=f"site{district}")
            self.system.fleet.add(actuator)
            actuator.attach(self.system.sim, self.system.network,
                            metrics=self.system.metrics, trace=self.system.trace)
            self._actuators[district] = actuator_id
            self._register_analytics(district, edge)
            for device_id in self.system.sites[edge]:
                self._traffic_level[device_id] = self._rng.uniform(10.0, 40.0)
                self._start_sensor(district, device_id, edge)

    def _start_sensor(self, district: int, device_id: str, edge: str) -> None:
        sim = self.system.sim
        offset = self._rng.uniform(0.0, self.sensor_period)

        def tick(s: Simulator) -> None:
            device = self.system.fleet.get(device_id)
            if device.up:
                level = self._traffic_level[device_id]
                level = max(0.0, level + self._rng.gauss(0.0, 3.0))
                self._traffic_level[device_id] = level
                self.system.network.send(
                    device_id, edge, f"traffic:{district}",
                    payload={"device": device_id, "level": level, "t": s.now},
                    size_bytes=64,
                )
            s.schedule(self.sensor_period, tick, label=f"traffic:{device_id}")

        sim.schedule(offset, tick, label=f"traffic:{device_id}")

    def _register_analytics(self, district: int, edge: str) -> None:
        def handle(message) -> None:
            device = self.system.fleet.get(edge)
            service = device.stack.service(f"traffic-analytics{district}")
            if not device.up or service is None or service.state.value != "running":
                return
            now = self.system.sim.now
            payload = message.payload
            self.stats.readings_processed += 1
            self.stats.per_district_readings[district] = (
                self.stats.per_district_readings.get(district, 0) + 1
            )
            self.system.metrics.record("city.ingest", now, 1.0)
            self.system.metrics.record("city.latency", now, now - payload["t"])
            # Congestion control: command the district's signal when the
            # reading crosses the threshold.
            if payload["level"] > self.command_threshold:
                self.system.network.send(
                    edge, self._actuators[district], "actuator.command",
                    payload={"plan": "extend-green", "issued_at": now},
                    size_bytes=48,
                )
                self.stats.commands_issued += 1

        self.system.network.register(edge, f"traffic:{district}", handle)

    # -- execution --------------------------------------------------------------- #
    def run(self, horizon: float) -> SmartCityStats:
        self.system.run(until=horizon)
        return self.stats
