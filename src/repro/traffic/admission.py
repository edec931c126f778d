"""Server-side admission control: refuse early, fail fast.

Admission policies decide whether an arriving request may even enter the
queue.  Rejecting at the door costs one cheap reply; accepting a request
the server cannot finish before the client's deadline costs the full
service time *and* still fails the client -- the mechanism behind
overload collapse.  Policies are intentionally tiny state machines so
MAPE actions can tighten them at runtime (load shedding).
"""

from __future__ import annotations

from typing import Any, Dict


class AdmissionPolicy:
    """Interface: may this request enter the server's queue?"""

    def admit(self, server: Any, payload: Dict[str, Any]) -> bool:
        raise NotImplementedError

    def tighten(self, factor: float) -> None:
        """Shed load: shrink whatever this policy bounds by ``factor``."""


class QueueLengthAdmission(AdmissionPolicy):
    """Admit only while the queue is shorter than ``limit``.

    A queue of length L at service rate mu imposes ~L/mu of waiting on
    the last admitted request; choosing ``limit`` so that L/mu stays
    below the client timeout is what keeps goodput at capacity during
    overload instead of serving only requests that have already timed
    out.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = limit
        self._initial_limit = limit

    def admit(self, server: Any, payload: Dict[str, Any]) -> bool:
        return server.queue_depth < self.limit

    def tighten(self, factor: float) -> None:
        if not 0.0 < factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        self.limit = max(1, int(self.limit * factor))

    def relax(self) -> None:
        self.limit = self._initial_limit
