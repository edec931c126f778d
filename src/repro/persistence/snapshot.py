"""The Snapshottable protocol and state digests.

Every stateful component that participates in checkpointing implements two
methods:

* ``snapshot_state() -> dict`` -- a JSON-able capture of the component's
  state, including the absolute times of its pending self-scheduled events
  (periodic ticks, probe timeouts).
* ``restore_state(state) -> None`` -- the inverse: rebuild the state and
  *re-register* the pending events with the kernel.  Callbacks are never
  serialized (closures do not survive a process boundary); each component
  owns its own re-registration, which also naturally honors the kernel's
  lazy cancellation -- cancelled events were excluded from the snapshot, so
  they are simply never re-created.

On top of the protocol this module provides canonical JSON hashing
(:func:`state_digest`) and the compact whole-system digest
(:func:`system_digest_state`) that the event journal records at a
configurable cadence.  Digests are the ground truth of the replay
machinery: two runs are "the same run" exactly when their digest chains
match.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Protocol, runtime_checkable


@runtime_checkable
class Snapshottable(Protocol):
    """Structural protocol for checkpointable components."""

    def snapshot_state(self) -> Dict[str, Any]: ...

    def restore_state(self, state: Dict[str, Any]) -> None: ...


def canonical_json(state: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace drift.

    Floats use Python's shortest-round-trip repr, which is bit-stable for
    equal doubles -- the property the digest chain relies on.
    """
    return json.dumps(state, sort_keys=True, separators=(",", ":"),
                      default=_fallback)


def _fallback(value: Any) -> Any:
    # Sets/frozensets and tuples appear in component state; encode
    # deterministically rather than failing.
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"not JSON-serializable for snapshot: {value!r}")


def event_ref(event: Any) -> Any:
    """Serializable reference to a pending kernel event (or None).

    Captures ``(time, priority, seq, label)`` so a component's
    ``restore_state`` can re-register the event with
    :meth:`~repro.simulation.kernel.Simulator.restore_event`, preserving
    the original intra-instant firing order.  Cancelled or fired events
    yield None -- lazy cancellation means they must not be re-created.
    """
    if event is None or not event.pending:
        return None
    return {"t": event.time, "priority": event.priority,
            "seq": event.seq, "label": event.label}


def restore_event_ref(sim: Any, ref: Any, callback: Any) -> Any:
    """Re-register an :func:`event_ref` with ``callback``; None-safe."""
    if ref is None:
        return None
    return sim.restore_event(ref["t"], callback, priority=ref["priority"],
                             seq=ref["seq"], label=ref["label"])


def state_digest(state: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``state``."""
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Whole-system capture
# --------------------------------------------------------------------------- #
def system_digest_state(system) -> Dict[str, Any]:
    """Compact, deterministic fingerprint of an :class:`IoTSystem`.

    Small enough to compute every few events, yet sensitive to every
    divergence channel: the clock and event counters catch scheduling
    drift, RNG stream digests catch draw-order drift, transport counters
    catch message drift, fleet liveness and fault lists catch state drift,
    and metric counters catch adaptation drift.
    """
    sim = system.sim
    stats = system.network.stats
    return {
        "kernel": {
            "now": sim.now,
            "fired": sim.fired_count,
            "next_seq": sim._next_seq,
            "pending": sim.pending_count,
        },
        "rngs": system.rngs.stream_digests(),
        "network": [stats.sent, stats.delivered, stats.dropped_loss,
                    stats.dropped_unreachable, stats.total_latency,
                    stats.dropped_quarantined, stats.dropped_auth,
                    stats.dropped_intercepted],
        "fleet": {d.device_id: bool(d.up) for d in system.fleet.devices},
        "faults": {
            "injected": [f.name for f in system.injector.injected],
            "active": [f.name for f in system.injector.active_faults],
        },
        "counters": dict(system.metrics._counters),
        "trace_len": len(system.trace),
    }


def system_snapshot(system) -> Dict[str, Any]:
    """Full (auditable) system state for a checkpoint file.

    Superset of :func:`system_digest_state`: adds the kernel's pending
    event metadata, complete RNG stream states and per-device detail, so a
    saved checkpoint can be inspected offline and verified field-by-field
    against a replayed run.
    """
    return {
        "kernel": system.sim.snapshot_state(),
        "rngs": system.rngs.snapshot_state(),
        "fleet": system.fleet.snapshot_state(),
        "digest_fields": system_digest_state(system),
    }


def system_digest(system) -> str:
    """The journal/checkpoint digest of a live system."""
    return state_digest(system_digest_state(system))
