"""Runtime self-adaptation: the MAPE-K loop for IoT (paper §VII, Fig. 5).

"(M)onitoring the environment for changes which are reflected in a model,
(A)nalyzing the model for possible requirements violations, (P)lanning
required countermeasures and then (E)xecuting the appropriate actions and
updating the model for the next loop."

The loop is *placeable*: hosting it on the cloud node reproduces the
traditional architecture, hosting one per edge node reproduces the paper's
recommendation ("placing analysis and planning activities on edge
components").  Placement matters because every observation and every
actuation requires network reachability between the loop's host and the
device -- the mechanism behind the Fig. 5 experiment.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DeviceSnapshot": "knowledge",
    "Issue": "knowledge",
    "KnowledgeBase": "knowledge",
    "Action": "actions",
    "ActionResult": "actions",
    "EvictMemberAction": "actions",
    "MigrateServiceAction": "actions",
    "NoopAction": "actions",
    "QuarantineAction": "actions",
    "RebootDeviceAction": "actions",
    "RerouteTrafficAction": "actions",
    "RestartServiceAction": "actions",
    "RotateKeysAction": "actions",
    "ShedLoadAction": "actions",
    "Analyzer": "analyzer",
    "BackpressureAnalyzer": "analyzer",
    "DeviceLivenessAnalyzer": "analyzer",
    "IntrusionAnalyzer": "analyzer",
    "ServiceHealthAnalyzer": "analyzer",
    "SloAlertAnalyzer": "analyzer",
    "StaleKnowledgeAnalyzer": "analyzer",
    "Plan": "planner",
    "Planner": "planner",
    "RuleBasedPlanner": "planner",
    "Executor": "executor",
    "MapeLoop": "mape",
    "InformationSharing": "patterns",
    "RegionalPlanning": "patterns",
    "MdpPlanner": "mdp_planner",
    "RepairModel": "mdp_planner",
    "ConfidenceGatedPlanner": "uncertainty",
    "KnowledgeConfidence": "uncertainty",
    "UncertaintyRegistry": "uncertainty",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
