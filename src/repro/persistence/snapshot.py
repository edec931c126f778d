"""State digests: the whole-system fingerprint and its canonical hash.

There is one way to restore a run: :meth:`repro.persistence.runner.Run.resume`
rebuilds the scenario from its spec, re-executes it to the checkpoint
barrier and refuses to continue unless the digest there matches.  Nothing
is restored *from* captured state, so this module only fingerprints:

* :func:`system_digest_state` / :func:`system_digest` -- the compact
  whole-system fingerprint the event journal records at a configurable
  cadence and every checkpoint carries (the hash as ``digest``, the fields
  it was computed from as ``state["digest_fields"]``, which a mismatching
  resume reads to say *which* part drifted).  Digests are the ground truth
  of the replay machinery: two runs are "the same run" exactly when their
  digest chains match.
* :func:`canonical_json` / :func:`state_digest` -- the canonical encoding
  and hash it is built on.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict


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


def system_digest(system) -> str:
    """The journal/checkpoint digest of a live system."""
    return state_digest(system_digest_state(system))
