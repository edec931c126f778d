"""Healthcare workload: wearables, an edge privacy scope, cross-domain research.

The §VI.B closing example made runnable: a patient's phone acts as the
edge device enforcing privacy preferences over wearable data.  Vitals are
PERSONAL; the hospital domain (GDPR) may receive them; a research lab in
another jurisdiction may only receive anonymized aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import IoTSystem
from repro.data.item import DataItem, DataSensitivity
from repro.data.lineage import LineageTracker
from repro.devices.base import Device, DeviceClass
from repro.governance.domains import (
    CCPA,
    GDPR,
    AdministrativeDomain,
    DomainRegistry,
    TrustLevel,
)
from repro.governance.policy import FlowPolicy, PolicyEngine, PrivacyScope


@dataclass
class HealthcareStats:
    vitals_produced: int = 0
    vitals_shared_hospital: int = 0
    flows_denied: int = 0
    anonymized_shared_lab: int = 0


class HealthcareWorkload:
    """Patients with wearables; phone-edge enforces the privacy scope."""

    def __init__(self, n_patients: int = 4, seed: int = 13,
                 vitals_period: float = 2.0) -> None:
        self.n_patients = n_patients
        self.vitals_period = vitals_period
        self.system = IoTSystem(seed=seed)
        self.lineage = LineageTracker()
        self.stats = HealthcareStats()
        self._rng = self.system.rngs.stream("vitals")
        self._build_topology()
        self._build_governance()
        self._wire_sensing()

    # -- construction ----------------------------------------------------------- #
    def _build_topology(self) -> None:
        topo = self.system.topology
        topo.add_node("hospital-server")
        topo.add_node("lab-server")
        topo.add_link("hospital-server", "lab-server", profile="wan")
        self.system.fleet.add(Device("hospital-server", DeviceClass.EDGE,
                                     domain="hospital", location="hospital"))
        self.system.fleet.add(Device("lab-server", DeviceClass.CLOUD,
                                     domain="lab", location="lab"))
        for patient in range(self.n_patients):
            phone = f"phone{patient}"
            wearable = f"wearable{patient}"
            topo.add_node(phone)
            topo.add_node(wearable)
            topo.add_link(wearable, phone, profile="wireless")
            topo.add_link(phone, "hospital-server", profile="cellular")
            self.system.fleet.add(Device(phone, DeviceClass.MOBILE,
                                         domain="patients", location=f"home{patient}"))
            self.system.fleet.add(Device(wearable, DeviceClass.SENSOR,
                                         domain="patients", location=f"home{patient}"))

    def _build_governance(self) -> None:
        registry = DomainRegistry()
        registry.add(AdministrativeDomain("patients", GDPR, TrustLevel.TRUSTED))
        registry.add(AdministrativeDomain("hospital", GDPR, TrustLevel.TRUSTED))
        registry.add(AdministrativeDomain("lab", CCPA, TrustLevel.PARTNER))
        registry.set_mutual_trust("patients", "hospital", TrustLevel.TRUSTED)
        registry.set_mutual_trust("hospital", "lab", TrustLevel.PARTNER)
        self.domains = registry
        self.policy_engine = PolicyEngine(
            registry,
            min_trust=TrustLevel.PARTNER,
            device_domain=lambda d: self.system.fleet.get(d).domain,
            environment_trusted=lambda d: self.system.fleet.get(d).environment_trusted,
        )
        # Each patient's phone manages the privacy scope of their wearables.
        for patient in range(self.n_patients):
            self.policy_engine.add_scope(PrivacyScope(
                name=f"patient{patient}",
                members={f"wearable{patient}", f"phone{patient}",
                         "hospital-server"},
                min_sensitivity=DataSensitivity.PERSONAL,
            ))
        # The lab refuses inbound personal data outright (defense in depth).
        self.policy_engine.set_policy(FlowPolicy(
            device_id="lab-server",
            max_in_sensitivity=DataSensitivity.INTERNAL,
        ))

    # -- sensing / flows ----------------------------------------------------------#
    def _wire_sensing(self) -> None:
        sim = self.system.sim
        for patient in range(self.n_patients):
            self._start_wearable(patient)

    def _start_wearable(self, patient: int) -> None:
        sim = self.system.sim
        wearable = f"wearable{patient}"
        phone = f"phone{patient}"
        offset = self._rng.uniform(0.0, self.vitals_period)

        def tick(s) -> None:
            device = self.system.fleet.get(wearable)
            if device.up:
                item = DataItem(
                    key=f"hr:{patient}", value=60 + self._rng.gauss(10, 8),
                    producer=wearable, domain="patients", created_at=s.now,
                    sensitivity=DataSensitivity.PERSONAL,
                    subject=f"patient{patient}",
                )
                self.lineage.record_created(item, s.now, wearable)
                self.stats.vitals_produced += 1
                self._flow(item, wearable, phone)
            s.schedule(self.vitals_period, tick, label=f"vitals:{wearable}")

        sim.schedule(offset, tick, label=f"vitals:{wearable}")

    def _flow(self, item: DataItem, src: str, dst: str) -> bool:
        """Governed transfer: evaluate, then move or record denial."""
        decision = self.policy_engine.evaluate(item, src, dst, now=self.system.sim.now)
        if not decision.allowed:
            self.stats.flows_denied += 1
            self.lineage.record_denied(item, self.system.sim.now, dst,
                                       self.system.fleet.get(dst).domain,
                                       reason=decision.reason)
            return False
        self.lineage.record_moved(item, self.system.sim.now, dst,
                                  self.system.fleet.get(dst).domain)
        self._on_arrival(item, dst)
        return True

    def _on_arrival(self, item: DataItem, device_id: str) -> None:
        now = self.system.sim.now
        if device_id.startswith("phone"):
            # Phone-edge forwards vitals to the hospital (still in scope)...
            self._flow(item, device_id, "hospital-server")
            return
        if device_id == "hospital-server":
            self.stats.vitals_shared_hospital += 1
            # ...and the hospital shares only anonymized derivations with
            # the research lab.
            anonymized = item.anonymize(producer="hospital-server", created_at=now)
            self.lineage.record_created(anonymized, now, "hospital-server")
            if self._flow(anonymized, "hospital-server", "lab-server"):
                self.stats.anonymized_shared_lab += 1

    def try_raw_export_to_lab(self, item: DataItem) -> bool:
        """Attempt the forbidden flow (used by tests/examples to show the
        policy engine refusing raw personal data across jurisdictions)."""
        return self._flow(item, "hospital-server", "lab-server")

    # -- execution ------------------------------------------------------------ #
    def run(self, horizon: float) -> HealthcareStats:
        self.system.run(until=horizon)
        return self.stats
