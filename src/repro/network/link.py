"""Links and latency models.

Latency figures are calibrated to typical magnitudes (DESIGN.md §5): a
low-power wireless hop is milliseconds, a LAN hop sub-millisecond to a few
milliseconds, a WAN/cloud round trip tens to hundreds of milliseconds.
Only these *relative* magnitudes matter for the experiments -- they are
what make "edge-local beats cloud round-trip" (Fig. 1/Fig. 5 experiments)
meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class LinkProfile:
    """Static characteristics of a class of link.

    Attributes
    ----------
    base_latency:
        One-way propagation+processing latency in seconds.
    jitter:
        Uniform jitter amplitude in seconds (latency drawn from
        ``base_latency +- jitter``).
    loss_rate:
        Independent per-message drop probability in [0, 1].
    bandwidth:
        Bytes per second; serialization delay is ``size / bandwidth``.
    """

    name: str
    base_latency: float
    jitter: float = 0.0
    loss_rate: float = 0.0
    bandwidth: float = 1e9

    def __post_init__(self) -> None:
        if self.base_latency < 0:
            raise ValueError(f"negative base latency on {self.name!r}")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss rate {self.loss_rate} out of [0,1] on {self.name!r}")
        if self.bandwidth <= 0:
            raise ValueError(f"non-positive bandwidth on {self.name!r}")
        if self.jitter < 0 or self.jitter > self.base_latency:
            raise ValueError(
                f"jitter {self.jitter} must be within [0, base_latency] on {self.name!r}"
            )


#: Calibrated profiles for the link classes in the Fig. 1 landscape.
LINK_PROFILES: Dict[str, LinkProfile] = {
    # Low-power wireless sensor uplink (e.g. BLE/802.15.4 hop).
    "wireless": LinkProfile("wireless", base_latency=0.008, jitter=0.004, loss_rate=0.01,
                            bandwidth=31_250.0),
    # Local wired/WiFi LAN between gateways, edge nodes, cloudlets.
    "lan": LinkProfile("lan", base_latency=0.002, jitter=0.001, loss_rate=0.0005,
                       bandwidth=12_500_000.0),
    # Metro link from an edge site to a regional aggregation point.
    "metro": LinkProfile("metro", base_latency=0.010, jitter=0.003, loss_rate=0.0005,
                         bandwidth=12_500_000.0),
    # WAN link to a remote cloud region.
    "wan": LinkProfile("wan", base_latency=0.060, jitter=0.020, loss_rate=0.002,
                       bandwidth=125_000_000.0),
    # Cellular uplink for mobile devices.
    "cellular": LinkProfile("cellular", base_latency=0.045, jitter=0.025, loss_rate=0.01,
                            bandwidth=1_250_000.0),
    # Ideal zero-ish link for co-located components (loopback).
    "local": LinkProfile("local", base_latency=0.0001, jitter=0.0, loss_rate=0.0,
                         bandwidth=1e9),
}


class LatencyModel:
    """Draws per-message latency for a profile from a seeded stream."""

    def __init__(self, profile: LinkProfile, rng: random.Random) -> None:
        self.profile = profile
        self._rng = rng
        # Multiplicative degradation applied by fault injection (latency
        # spikes): 1.0 is nominal.
        self.degradation = 1.0

    def sample(self, size_bytes: int = 0) -> Optional[float]:
        """One hop in one call: ``None`` if the message is lost, else its latency.

        Draws the loss then the jitter, in that order; a lost hop draws no
        jitter.  The jitter is ``random.uniform(-j, j)`` written out as its
        defining expression ``a + (b - a) * random()``, and the clamp is
        ``max(0.0, latency)`` as a comparison.
        ``tests/test_message_path_oracles.py`` holds it to a two-call
        loss-then-``uniform`` reference, draw for draw.
        """
        profile = self.profile
        rng = self._rng
        loss_rate = profile.loss_rate
        if loss_rate != 0.0 and rng.random() < loss_rate:
            return None
        jitter = profile.jitter
        latency = ((profile.base_latency
                    + (-jitter + (jitter - -jitter) * rng.random()))
                   * self.degradation + size_bytes / profile.bandwidth)
        return latency if latency > 0.0 else 0.0


class Link:
    """A bidirectional link between two nodes.

    Links can be administratively downed (partition/fault injection) and
    degraded (latency spikes).  Message delivery consults :attr:`up` and the
    latency model at send time.

    :attr:`up` is a notifying property: a link added to a
    :class:`~repro.network.topology.Topology` tells it when its state
    changes, which is what drops the topology's cached routes.
    """

    def __init__(self, a: str, b: str, profile: LinkProfile, rng: random.Random) -> None:
        if a == b:
            raise ValueError(f"self-link on node {a!r}")
        self.a = a
        self.b = b
        self.profile = profile
        self.model = LatencyModel(profile, rng)
        self._up = True
        # Set by Topology.add_link_with_profile; None for a free-standing link.
        self._topology = None

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node!r} not on link {self.a!r}-{self.b!r}")

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, up: bool) -> None:
        up = bool(up)
        if up == self._up:
            return
        self._up = up
        if self._topology is not None:
            self._topology._invalidate()

    def set_up(self, up: bool) -> None:
        self.up = up

    def set_degradation(self, factor: float) -> None:
        """Multiply latency by ``factor`` (fault injection hook)."""
        if factor < 1.0:
            raise ValueError(f"degradation factor {factor} < 1.0")
        self.model.degradation = factor

    def key(self) -> str:
        lo, hi = sorted((self.a, self.b))
        return f"{lo}--{hi}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"Link({self.a!r}<->{self.b!r}, {self.profile.name}, {state})"
