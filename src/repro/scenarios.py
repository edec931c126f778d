"""One discoverable registry over every plane's scenarios.

The front door to :mod:`repro.persistence.scenarios`, where one frozen
:class:`Scenario` descriptor per name records the builder *and* what
discovery needs -- owning plane, variants, what ``--quick`` means, whether
it can run monitored, its pass/fail gate.  Each plane's scenario module
registers its own descriptors next to the ``prepare_*`` functions they
wrap; ``python -m repro scenarios list``, the CLI's scenario choices and
the traffic/security gates all read them from here.  Compiled chaos specs
register through the same path (scenario ``"chaos"``), so a declarative
spec and a hand-written scenario are interchangeable everywhere a
scenario name is accepted.
"""

from __future__ import annotations

from typing import List, Optional

from repro.persistence.scenarios import (
    Gate,
    GateVerdict,
    PreparedRun,
    Scenario,
    ScenarioSpec,
    UnknownScenarioError,
    describe_scenario,
    gated_run,
    prepare,
    register_scenario,
    scenario_names,
)

__all__ = [
    "Gate",
    "GateVerdict",
    "PreparedRun",
    "Scenario",
    "ScenarioSpec",
    "UnknownScenarioError",
    "catalog",
    "describe_scenario",
    "gated_run",
    "prepare",
    "register_scenario",
    "scenario_names",
]


def catalog(plane: Optional[str] = None) -> List[Scenario]:
    """Every registered descriptor, optionally filtered by owning plane."""
    return [scenario for scenario in map(describe_scenario, scenario_names())
            if plane in (None, scenario.plane)]
