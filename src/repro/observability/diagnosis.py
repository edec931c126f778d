"""Incident diagnosis: rank the causal chain behind a trigger.

The resilience survey places *diagnosis* between detection and recovery:
knowing that an SLO burned is detection; knowing *which fault arc caused
it through which subsystem* is what makes the recovery actionable.  This
module walks the telemetry a run already records --

* the span tree's fault index (``injection`` spans and their descendant
  counts, via shared trace ids),
* the ``up:*`` / ``reach:*`` level series (what was down at the trigger),
* ``alert``/``slo-breach`` trace events (which objectives burned),

-- and emits a :class:`Diagnosis`: a ranked chain of
:class:`CausalLink`s ordered fault → degraded subsystem → breach.  The
flight recorder embeds the chain in every incident bundle's manifest,
``python -m repro incident show`` prints it, and the HTML report renders
it as the "Incidents" section.

Scores are heuristic but deterministic: an arc still active at the
trigger outranks a recovered one, recency breaks ties, and downstream
impact (spans recorded under the arc's trace) separates a fault that
cascaded from one the system absorbed silently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.schema import Field, check

#: Padding added to the trigger time when selecting trace events, so an
#: event emitted *at* the trigger instant (the breach that fired it) is
#: included despite the trace's half-open window convention.
_EDGE = 1e-9


@dataclass
class CausalLink:
    """One step of a ranked causal chain."""

    kind: str          # "fault" | "degraded" | "breach"
    subject: str
    time: float
    summary: str
    score: float
    trace_id: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "time": self.time,
            "summary": self.summary,
            "score": self.score,
            "trace_id": self.trace_id,
            "detail": dict(self.detail),
        }


_TEXT, _NUMBER = Field("string"), Field("number")
_OPTIONAL_NUMBER = Field("number", required=False)

#: A diagnosis as an incident bundle's manifest carries it.
DIAGNOSIS = Field("object", required=False, fields={
    "trigger_reason": Field("string", required=False),
    "trigger_time": _OPTIONAL_NUMBER, "window": _OPTIONAL_NUMBER,
    "chain": Field("list", required=False, items=Field("object", fields={
        "kind": _TEXT, "subject": _TEXT, "time": _NUMBER, "summary": _TEXT,
        "score": _NUMBER, "trace_id": Field("string", required=False, null=True),
        "detail": Field("object", required=False)}))})


@dataclass
class Diagnosis:
    """A ranked causal chain around one trigger."""

    trigger_reason: str
    trigger_time: float
    window: float
    chain: List[CausalLink] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trigger_reason": self.trigger_reason,
            "trigger_time": self.trigger_time,
            "window": self.window,
            "chain": [link.to_dict() for link in self.chain],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Diagnosis":
        fields = check(data, DIAGNOSIS)
        return cls(**{"trigger_reason": "", "trigger_time": 0.0, "window": 0.0,
                      **fields, "chain": [CausalLink(**link)
                                          for link in fields.get("chain", [])]})

    def table_rows(self) -> List[List[Any]]:
        """``[rank, kind, subject, t, score, summary]`` rows for CLI/HTML."""
        return [[rank + 1, link.kind, link.subject,
                 round(link.time, 3), round(link.score, 3), link.summary]
                for rank, link in enumerate(self.chain)]


def _fault_links(system: Any, start: float, trigger_time: float) -> List[CausalLink]:
    """Score injection spans overlapping the window (span path)."""
    spans = system.spans
    links: List[CausalLink] = []
    for span in spans.select(category="injection"):
        if span.start > trigger_time:
            continue
        end = span.end if span.end is not None else trigger_time
        if end < start:
            continue
        active = span.end is None or span.end >= trigger_time
        downstream = [s for s in spans.select(trace_id=span.trace_id)
                      if s.span_id != span.span_id]
        by_category = Counter(s.category for s in downstream)
        impact = len(downstream)
        score = ((2.0 if active else 1.0)
                 + 1.0 / (1.0 + max(0.0, trigger_time - span.start))
                 + min(impact, 50) / 50.0)
        state = "active at trigger" if active else f"recovered at t={end:g}"
        links.append(CausalLink(
            kind="fault",
            subject=str(span.attrs.get("subject", span.name)),
            time=span.start,
            summary=(f"fault arc {span.name!r} ({state}) with "
                     f"{impact} downstream span(s)"),
            score=round(score, 4),
            trace_id=span.trace_id,
            detail={"status": span.status,
                    "downstream": dict(sorted(by_category.items()))},
        ))
    return links


def _fault_links_from_trace(system: Any, start: float,
                            trigger_time: float) -> List[CausalLink]:
    """Fallback fault scoring from trace events when spans are off."""
    links: List[CausalLink] = []
    recovered = {e.subject: e.time for e in system.trace.select(
        category="recovery", start=start, end=trigger_time + _EDGE)}
    for event in system.trace.select(category="fault", start=start,
                                     end=trigger_time + _EDGE):
        healed_at = recovered.get(event.subject)
        active = healed_at is None or healed_at >= trigger_time
        score = ((2.0 if active else 1.0)
                 + 1.0 / (1.0 + max(0.0, trigger_time - event.time)))
        state = ("active at trigger" if active
                 else f"recovered at t={healed_at:g}")
        links.append(CausalLink(
            kind="fault", subject=event.subject or event.name,
            time=event.time,
            summary=f"fault {event.name!r} ({state})",
            score=round(score, 4),
            detail=dict(event.attrs)))
    return links


def _degraded_links(system: Any, start: float,
                    trigger_time: float) -> List[CausalLink]:
    """Level series (``up:*`` / ``reach:*``) sitting at 0 at the trigger."""
    links: List[CausalLink] = []
    for name in system.metrics.series_names:
        if not (name.startswith("up:") or name.startswith("reach:")):
            continue
        series = system.metrics.series(name)
        if series.kind != "level" or series.value_at(trigger_time) != 0.0:
            continue
        down_since = trigger_time
        for time, value in reversed(series.window(start, trigger_time + _EDGE)):
            if value != 0.0:
                break
            down_since = time
        subject = name.split(":", 1)[1]
        score = 1.0 + 1.0 / (1.0 + max(0.0, trigger_time - down_since))
        links.append(CausalLink(
            kind="degraded", subject=subject, time=down_since,
            summary=f"{name} held at 0 since t={down_since:g}",
            score=round(score, 4),
            detail={"series": name}))
    return links


def _breach_links(system: Any, start: float,
                  trigger_time: float) -> List[CausalLink]:
    """SLO breach alerts inside the window, newest-first."""
    links: List[CausalLink] = []
    for event in system.trace.select(category="alert", name="slo-breach",
                                     start=start, end=trigger_time + _EDGE):
        burn = event.attrs.get("burn_rate")
        measured = event.attrs.get("measured")
        slo_name = event.attrs.get("slo", event.subject)
        bits = [f"SLO {slo_name!r} breached on {event.subject!r}"]
        if measured is not None:
            bits.append(f"measured {measured:.4g}")
        if burn is not None:
            bits.append(f"burn {burn:.3g}x")
        score = 1.0 + 1.0 / (1.0 + max(0.0, trigger_time - event.time))
        links.append(CausalLink(
            kind="breach", subject=event.subject, time=event.time,
            summary=", ".join(bits), score=round(score, 4),
            detail=dict(event.attrs)))
    links.sort(key=lambda link: (-link.score, link.time, link.subject))
    return links


def diagnose(system: Any, trigger_time: float, trigger_reason: str = "",
             window: float = 30.0) -> Diagnosis:
    """Build the ranked causal chain for a trigger at ``trigger_time``.

    The chain is ordered by mechanism class (fault arcs first, then
    degraded subsystems, then breaches) and by score within each class,
    so reading it top-down follows the causal story: what was injected,
    what it took down, which objective burned.
    """
    start = max(0.0, trigger_time - window)
    if system.spans is not None and system.spans.select(category="injection"):
        faults = _fault_links(system, start, trigger_time)
    else:
        faults = _fault_links_from_trace(system, start, trigger_time)
    faults.sort(key=lambda link: (-link.score, link.time, link.subject))
    degraded = _degraded_links(system, start, trigger_time)
    degraded.sort(key=lambda link: (-link.score, link.time, link.subject))
    breaches = _breach_links(system, start, trigger_time)
    return Diagnosis(trigger_reason=trigger_reason,
                     trigger_time=trigger_time, window=window,
                     chain=faults + degraded + breaches)
