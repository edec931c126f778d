"""Analyzable models and verification (paper §IV, Fig. 2).

"IoT systems need formally analyzable and verifiable models to enable
reasoning, starting from the early stages of design to models@runtime."
This package provides both halves:

Design time
    * :mod:`repro.modeling.lts` -- labelled transition systems (Kripke
      structures with action-labelled transitions);
    * :mod:`repro.modeling.properties` -- a temporal property language
      (invariants, reachability, leads-to, and finite-trace LTL);
    * :mod:`repro.modeling.checker` -- an explicit-state model checker
      that returns counterexample paths;
    * :mod:`repro.modeling.dtmc` -- discrete-time Markov chains with
      probabilistic reachability / expected steps via linear solves
      (the "stochastic processes or uncertainty quantification" of §IV.B).

Runtime ("models@runtime", §VII)
    * :mod:`repro.modeling.runtime_monitor` -- LTL3-style monitors that
      evaluate the same property objects over live traces, reporting
      satisfied / violated / undetermined verdicts;
    * :mod:`repro.modeling.goals` -- KAOS-style goal models with
      obstacles, linking requirements to the components that realize them.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "LabelledTransitionSystem": "lts",
    "State": "lts",
    "AtomicProposition": "properties",
    "Always": "properties",
    "And": "properties",
    "Eventually": "properties",
    "Implies": "properties",
    "LeadsTo": "properties",
    "Next": "properties",
    "Not": "properties",
    "Or": "properties",
    "Property": "properties",
    "Until": "properties",
    "CheckResult": "checker",
    "ModelChecker": "checker",
    "Dtmc": "dtmc",
    "Goal": "goals",
    "GoalModel": "goals",
    "GoalStatus": "goals",
    "Obstacle": "goals",
    "MonitorVerdict": "runtime_monitor",
    "RuntimeMonitor": "runtime_monitor",
    "TraceStateAdapter": "runtime_monitor",
    "Mdp": "mdp",
    "Transition": "mdp",
    "estimate_availability": "mining",
    "mine_action_success_rates": "mining",
    "mine_availability_dtmc": "mining",
    "SpatialModel": "space",
    "SpatialProposition": "space",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
