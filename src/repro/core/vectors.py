"""Tables 1 and 2 as data: disruption vectors and maturity levels.

The paper's roadmap is a 5x4 matrix: five *disruption vectors* (the rows
implicit in Tables 1-2) by four *maturity levels* ML1-ML4.  This module
encodes the matrix verbatim (cell texts condensed from the paper) plus the
feature flags each level grants.  :data:`MATURITY_FEATURES` is the only
definition of a level.  Its readers: ``MaturityScenario``
(:mod:`repro.core.maturity`) wires its archetype from
``service_placement``, ``failover_replacement``, ``self_healing``,
``data_flows`` and ``data_replication``; :mod:`repro.chaos.compiler` arms its defence stack
from the four defence flags; the ``ablations`` artifact in
:mod:`repro.paper` varies ML4's row.  The other flags have no reader yet
(ROADMAP item 13(a)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple


class DisruptionVector(enum.Enum):
    """The five roadmap dimensions (§III.B)."""

    PERVASIVENESS = "pervasiveness"     # infrastructure openness / utility
    SERVICES = "services"               # service management / deviceless
    VERIFICATION = "verification"       # requirements validation
    OPERATIONS = "operations"           # automation of ops / self-*
    DATA = "data"                       # data flows and governance


class MaturityLevel(enum.IntEnum):
    """ML1-ML4 (§III.B); ordered, so ``ml >= MaturityLevel.ML3`` works."""

    ML1 = 1   # traditional vertically coupled IoT silos
    ML2 = 2   # hybrid IoT-Cloud systems
    ML3 = 3   # edge-centric systems
    ML4 = 4   # resilient IoT systems


#: Condensed cell texts of Tables 1 and 2, keyed (vector, level).
MATURITY_TABLE: Dict[Tuple[DisruptionVector, MaturityLevel], str] = {
    (DisruptionVector.PERVASIVENESS, MaturityLevel.ML1):
        "IoT silos - vertically closed and task-specific IoT infrastructure",
    (DisruptionVector.PERVASIVENESS, MaturityLevel.ML2):
        "Cloud-based platforms for brokering IoT data",
    (DisruptionVector.PERVASIVENESS, MaturityLevel.ML3):
        "Common access to specific types of resources (gateways, cloudlets, microclouds)",
    (DisruptionVector.PERVASIVENESS, MaturityLevel.ML4):
        "Edge infrastructure consumed as a full-fledged utility",
    (DisruptionVector.SERVICES, MaturityLevel.ML1):
        "Business logic bundled and shipped with IoT devices",
    (DisruptionVector.SERVICES, MaturityLevel.ML2):
        "Services decoupled, hard line between IoT and cloud responsibilities",
    (DisruptionVector.SERVICES, MaturityLevel.ML3):
        "Some shared services exist; services are partly managed",
    (DisruptionVector.SERVICES, MaturityLevel.ML4):
        "Deviceless - business logic fully managed and abstracted from infrastructure",
    (DisruptionVector.VERIFICATION, MaturityLevel.ML1):
        "Ad hoc requirements with little to no validation",
    (DisruptionVector.VERIFICATION, MaturityLevel.ML2):
        "Limited verification; parts of the system offer service-level agreements",
    (DisruptionVector.VERIFICATION, MaturityLevel.ML3):
        "Task-specific formal verification possible",
    (DisruptionVector.VERIFICATION, MaturityLevel.ML4):
        "Formally verifiable requirements of both infrastructure and application logic",
    (DisruptionVector.OPERATIONS, MaturityLevel.ML1):
        "Exclusively manual interactions with on-site presence",
    (DisruptionVector.OPERATIONS, MaturityLevel.ML2):
        "Partly automated operations processes, mainly on the Cloud side",
    (DisruptionVector.OPERATIONS, MaturityLevel.ML3):
        "Full automation of specific tasks; manual interactions handled remotely",
    (DisruptionVector.OPERATIONS, MaturityLevel.ML4):
        "Autonomous control, coordination and self-healing",
    (DisruptionVector.DATA, MaturityLevel.ML1):
        "Proprietary, task-specific protocols; isolated data flows",
    (DisruptionVector.DATA, MaturityLevel.ML2):
        "Unidirectional data flows, no explicit support for data governance",
    (DisruptionVector.DATA, MaturityLevel.ML3):
        "Bidirectional Edge-Cloud data flows; governance limited to specific domains",
    (DisruptionVector.DATA, MaturityLevel.ML4):
        "Unconstrained data flows; governance among administrative domains & trust levels",
}

DISRUPTION_VECTORS: List[DisruptionVector] = list(DisruptionVector)


@dataclass(frozen=True)
class MaturityFeatures:
    """The mechanism flags a maturity level grants.

    The *operational semantics* of each table row (readers in the module
    docstring); each defence flag arms one builder, wired once.
    """

    level: MaturityLevel
    # pervasiveness
    has_cloud: bool
    edge_compute: bool
    # services
    service_placement: str          # "bundled" | "cloud" | "edge" | "deviceless"
    failover_replacement: bool      # deviceless re-placement on failure
    # verification
    runtime_monitoring: bool
    design_time_verification: bool
    # operations
    self_healing: str               # "none" | "cloud" | "edge"
    peer_coordination: bool         # gossip/membership/election among edges
    # data
    data_flows: str                 # "isolated" | "unidirectional" | "bidirectional" | "governed"
    data_replication: bool          # CRDT replication among edge peers
    governance_enforced: bool
    edge_anonymization: bool
    # defences (Table 2's mechanisms, as the chaos compiler wires them)
    admission_control: bool         # bounded edge queue
    retry_containment: bool         # retry budget + circuit breaker
    backpressure_offload: bool      # backpressure MAPE loop, cloud offload
    intrusion_response: bool        # auth, identity gate, flood sentry, intrusion loop


MATURITY_FEATURES: Dict[MaturityLevel, MaturityFeatures] = {
    MaturityLevel.ML1: MaturityFeatures(
        level=MaturityLevel.ML1,
        has_cloud=False, edge_compute=False,
        service_placement="bundled", failover_replacement=False,
        runtime_monitoring=False, design_time_verification=False,
        self_healing="none", peer_coordination=False,
        data_flows="isolated", data_replication=False,
        governance_enforced=False, edge_anonymization=False,
        admission_control=False, retry_containment=False,
        backpressure_offload=False, intrusion_response=False,
    ),
    MaturityLevel.ML2: MaturityFeatures(
        level=MaturityLevel.ML2,
        has_cloud=True, edge_compute=False,
        service_placement="cloud", failover_replacement=False,
        runtime_monitoring=True, design_time_verification=False,
        self_healing="cloud", peer_coordination=False,
        data_flows="unidirectional", data_replication=False,
        governance_enforced=False, edge_anonymization=False,
        admission_control=True, retry_containment=False,
        backpressure_offload=False, intrusion_response=False,
    ),
    MaturityLevel.ML3: MaturityFeatures(
        level=MaturityLevel.ML3,
        has_cloud=True, edge_compute=True,
        service_placement="edge", failover_replacement=False,
        runtime_monitoring=True, design_time_verification=True,
        self_healing="edge", peer_coordination=False,
        data_flows="bidirectional", data_replication=False,
        governance_enforced=True, edge_anonymization=False,
        admission_control=True, retry_containment=True,
        backpressure_offload=True, intrusion_response=False,
    ),
    MaturityLevel.ML4: MaturityFeatures(
        level=MaturityLevel.ML4,
        has_cloud=True, edge_compute=True,
        service_placement="deviceless", failover_replacement=True,
        runtime_monitoring=True, design_time_verification=True,
        self_healing="edge", peer_coordination=True,
        data_flows="governed", data_replication=True,
        governance_enforced=True, edge_anonymization=True,
        admission_control=True, retry_containment=True,
        backpressure_offload=True, intrusion_response=True,
    ),
}


def features_of(level: MaturityLevel) -> MaturityFeatures:
    return MATURITY_FEATURES[level]


def table_row(vector: DisruptionVector) -> Dict[MaturityLevel, str]:
    """One row of the combined Tables 1-2."""
    return {ml: MATURITY_TABLE[(vector, ml)] for ml in MaturityLevel}
