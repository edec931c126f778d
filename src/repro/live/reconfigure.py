"""Hot-loaded reconfiguration: fault schedules and chaos specs, live.

A running :class:`~repro.live.supervisor.LiveService` accepts *payloads*
-- JSON documents dropped into its ``--reload-dir`` (or handed to
:meth:`~repro.live.supervisor.LiveService.hot_load` directly) -- and
applies them to the simulated system between kernel events:

* ``{"kind": "fault-schedule", "faults": [FaultEvent dicts]}`` schedules
  each fault at ``now + at`` (payload times are offsets from the moment
  the load lands, so an operator never has to know the service's clock).
* ``{"kind": "chaos-spec", "spec": {ChaosSpec dict}}`` compiles the
  declarative spec's *disruption program* -- its fault schedule and, when
  present, its adversary -- onto the running system.  The construction
  axes (topology, workload, traffic, maturity) describe a system to
  build and are rejected as hot-loads make no sense for them; use them
  by starting the service on the ``chaos`` scenario instead.

Determinism contract
--------------------
Applying a payload mutates the journaled event stream (it schedules
kernel events, which consume sequence numbers).  To keep hot-loaded runs
checkpoint/resume/replay-faithful, every application is pinned to its
*fired-count barrier*: the supervisor applies at fired count N and
records ``{"fired": N, "time": T, "payload": ...}`` both in the journal
(a ``reconfig`` record) and in the spec's ``live_loads`` param (embedded
in every subsequent checkpoint).  :func:`register_live_loads` replays
that record via :meth:`~repro.simulation.kernel.Simulator.at_fired`, so
a rebuilt run applies the identical mutation at the identical point in
the event sequence -- same sequence numbers, same digests.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.chaos.compiler import (
    CompileError,
    schedule_adversary,
    schedule_faults,
)
from repro.chaos.spec import FAULT, SPEC, ChaosSpec, FaultEvent
from repro.schema import Field, check


class LiveLoadError(ValueError):
    """A malformed or inapplicable hot-load payload."""


PAYLOAD_KINDS = ("fault-schedule", "chaos-spec")

_KIND = Field("object", fields={
    "kind": Field("string", choices=PAYLOAD_KINDS, label="payload kind")})
#: Each kind's body; fault ``at`` is an offset from load time.
_PAYLOADS = {
    "fault-schedule": Field("object", fields={"faults": Field(
        "list", items=FAULT, rule=lambda faults: None if faults else "is empty")}),
    "chaos-spec": Field("object", fields={"spec": SPEC}),
}


def validate_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Parse-and-check a payload without touching any system.

    Returns the normalized payload dict (plain JSON types only, ready to
    journal).  Raises :class:`LiveLoadError` on anything malformed, so a
    bad file in the reload directory is reported instead of half-applied.
    """
    kind = check(payload, _KIND, "payload", LiveLoadError)["kind"]
    body = check(payload, _PAYLOADS[kind], "payload", LiveLoadError)
    if kind == "fault-schedule":
        return {"kind": kind, "faults": body["faults"]}
    spec = ChaosSpec.from_dict(body["spec"])
    if not spec.faults and spec.adversary.attack == "none":
        raise LiveLoadError(
            "chaos-spec payload has no disruption program (no faults, "
            "no adversary); only disruptions can be hot-loaded")
    return {"kind": kind, "spec": spec.to_dict()}


# --------------------------------------------------------------------------- #
# Application: the chaos compiler's fault and adversary builders, offset
# from load time
# --------------------------------------------------------------------------- #
def apply_payload(system: Any, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Apply a validated payload to ``system`` at the current instant.

    Must be called *between* kernel events (the supervisor and the
    barrier hooks both guarantee this).  Returns a summary dict of what
    was scheduled, for logging and the ``/status`` endpoint.
    """
    payload = validate_payload(payload)
    now = system.sim.now
    try:
        if payload["kind"] == "fault-schedule":
            events = [FaultEvent(**fault) for fault in payload["faults"]]
            faults = schedule_faults(system, events, "live", now)
            return {"kind": "fault-schedule",
                    "scheduled": [fault.name for fault in faults]}
        spec = ChaosSpec.from_dict(payload["spec"])
        names = [fault.name for fault in
                 schedule_faults(system, spec.faults, "live-chaos", now)]
        adversary = schedule_adversary(spec, system, "live-", now)
    except CompileError as exc:
        raise LiveLoadError(str(exc)) from None
    return {"kind": "chaos-spec",
            "scheduled": names + ([adversary] if adversary else []),
            "describe": spec.describe()}


def register_live_loads(system: Any,
                        loads: List[Dict[str, Any]]) -> None:
    """Re-register recorded hot-loads at their fired-count barriers.

    Called by :func:`repro.persistence.scenarios.prepare` (for specs
    whose params carry ``live_loads``) and by the replay engine (for
    journals with ``reconfig`` records).  Each payload re-applies at the
    exact event-sequence point where the live run applied it.
    """
    for load in loads:
        payload = load.get("payload")

        def _apply(_sim: Any, _payload: Any = payload) -> None:
            # A live service journals a load before it applies it; one it
            # then refused is refused the same way here, not fatal.
            try:
                apply_payload(system, _payload)
            except LiveLoadError:
                pass

        system.sim.at_fired(int(load.get("fired", 0)), _apply)
