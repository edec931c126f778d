"""Energy-grid workload: smart meters, feeder balancing, islanding.

A distribution grid with feeders (edge sites) of smart meters.  Each
feeder's controller balances load by commanding curtailment when demand
exceeds capacity; when the WAN to the utility cloud fails, feeders keep
balancing locally ("islanded" operation) -- decentralized control keeping
a safety-relevant invariant (demand <= capacity) during disruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.system import IoTSystem
from repro.devices.base import DeviceClass
from repro.devices.software import Service


@dataclass
class EnergyStats:
    meter_reports: int = 0
    curtailments: int = 0
    overload_seconds: float = 0.0
    balanced_checks: int = 0
    total_checks: int = 0

    @property
    def balanced_fraction(self) -> float:
        return self.balanced_checks / self.total_checks if self.total_checks else 1.0


class EnergyGridWorkload:
    """Feeders of smart meters balanced by edge controllers."""

    def __init__(
        self,
        n_feeders: int = 3,
        meters_per_feeder: int = 5,
        seed: int = 23,
        report_period: float = 1.0,
        feeder_capacity: float = 100.0,
    ) -> None:
        self.n_feeders = n_feeders
        self.meters_per_feeder = meters_per_feeder
        self.report_period = report_period
        self.feeder_capacity = feeder_capacity
        self.system = IoTSystem.with_edge_cloud_landscape(
            n_feeders, meters_per_feeder, seed=seed,
            device_class=DeviceClass.GATEWAY, domain_per_site=True,
        )
        self.stats = EnergyStats()
        self._rng = self.system.rngs.stream("demand")
        self._demand: Dict[str, float] = {}
        self._curtailed: Dict[str, bool] = {}
        self._feeder_load: Dict[int, Dict[str, float]] = {
            f: {} for f in range(n_feeders)
        }
        self._wire()

    def _wire(self) -> None:
        for feeder in range(self.n_feeders):
            edge = f"edge{feeder}"
            self.system.fleet.get(edge).host(Service(
                f"balancer{feeder}", runtime="python", cpu=200.0))
            self._register_balancer(feeder, edge)
            for meter_id in self.system.sites[edge]:
                base = self._rng.uniform(
                    0.6, 1.1
                ) * self.feeder_capacity / self.meters_per_feeder
                self._demand[meter_id] = base
                self._curtailed[meter_id] = False
                self._start_meter(feeder, meter_id, edge)
        self._start_balance_probe()

    def _start_meter(self, feeder: int, meter_id: str, edge: str) -> None:
        sim = self.system.sim
        offset = self._rng.uniform(0.0, self.report_period)

        def tick(s) -> None:
            device = self.system.fleet.get(meter_id)
            if device.up:
                drift = self._rng.gauss(0.0, 1.5)
                self._demand[meter_id] = max(0.0, self._demand[meter_id] + drift)
                reported = self._demand[meter_id] * (0.5 if self._curtailed[meter_id] else 1.0)
                self.system.network.send(
                    meter_id, edge, f"meter:{feeder}",
                    payload={"meter": meter_id, "load": reported, "t": s.now},
                    size_bytes=48,
                )
            s.schedule(self.report_period, tick, label=f"meter:{meter_id}")

        sim.schedule(offset, tick, label=f"meter:{meter_id}")

    def _register_balancer(self, feeder: int, edge: str) -> None:
        def handle(message) -> None:
            device = self.system.fleet.get(edge)
            service = device.stack.service(f"balancer{feeder}")
            if not device.up or service is None or service.state.value != "running":
                return
            payload = message.payload
            self.stats.meter_reports += 1
            self._feeder_load[feeder][payload["meter"]] = payload["load"]
            total = sum(self._feeder_load[feeder].values())
            if total > self.feeder_capacity:
                # Curtail the largest consumer (a command to the meter).
                target = max(self._feeder_load[feeder],
                             key=lambda m: self._feeder_load[feeder][m])
                if not self._curtailed[target]:
                    self._curtailed[target] = True
                    self.stats.curtailments += 1
                    self.system.trace.emit(
                        self.system.sim.now, "actuation", "curtail",
                        subject=target, feeder=feeder,
                    )
            elif total < 0.8 * self.feeder_capacity:
                # Head-room: lift one curtailment.
                for meter_id in sorted(self._feeder_load[feeder]):
                    if self._curtailed[meter_id]:
                        self._curtailed[meter_id] = False
                        break

        self.system.network.register(edge, f"meter:{feeder}", handle)

    def _start_balance_probe(self) -> None:
        sim = self.system.sim
        period = 0.5

        def probe(s) -> None:
            for feeder in range(self.n_feeders):
                effective = sum(
                    self._demand[m] * (0.5 if self._curtailed[m] else 1.0)
                    for m in self.system.sites[f"edge{feeder}"]
                )
                self.stats.total_checks += 1
                if effective <= self.feeder_capacity * 1.05:
                    self.stats.balanced_checks += 1
                else:
                    self.stats.overload_seconds += period
                self.system.metrics.set_level(
                    f"feeder.balanced:{feeder}", s.now,
                    1.0 if effective <= self.feeder_capacity * 1.05 else 0.0,
                )
            s.schedule(period, probe, label="balance-probe")

        sim.schedule(period, probe, label="balance-probe")

    def surge_demand(self, factor: float, feeder: Optional[int] = None) -> None:
        """Multiply current meter demand (an environmental change, e.g. an
        evening peak).  Restricted to one feeder when given."""
        if factor <= 0:
            raise ValueError("surge factor must be positive")
        meters = (
            self.system.sites[f"edge{feeder}"] if feeder is not None
            else list(self._demand)
        )
        for meter_id in meters:
            self._demand[meter_id] *= factor

    def schedule_surge(self, time: float, factor: float,
                       feeder: Optional[int] = None) -> None:
        """Apply :meth:`surge_demand` at a simulated time."""
        self.system.sim.schedule_at(
            time, lambda _s: self.surge_demand(factor, feeder=feeder),
            label="demand-surge",
        )

    def run(self, horizon: float) -> EnergyStats:
        self.system.run(until=horizon)
        return self.stats
