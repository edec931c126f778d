"""Server-side admission control: refuse early, fail fast.

Admission policies decide whether an arriving request may even enter the
queue.  Rejecting at the door costs one cheap reply; accepting a request
the server cannot finish before the client's deadline costs the full
service time *and* still fails the client -- the mechanism behind
overload collapse.
"""

from __future__ import annotations

from typing import Any, Dict


class AdmissionPolicy:
    """Interface: may this request enter the server's queue?"""

    def admit(self, server: Any, payload: Dict[str, Any]) -> bool:
        raise NotImplementedError


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

    def admit(self, server: Any, payload: Dict[str, Any]) -> bool:
        return server.queue_depth < self.limit
