"""Property-based tests on protocol-level invariants: routing validity,
policy monotonicity, window accounting."""

import random as random_module

from hypothesis import given, settings, strategies as st

from repro.data.item import DataItem, DataSensitivity
from repro.governance.domains import (
    CCPA,
    GDPR,
    AdministrativeDomain,
    DomainRegistry,
    TrustLevel,
)
from repro.governance.policy import PolicyEngine, PrivacyScope
from repro.network.topology import Topology
from repro.streams.operators import StreamTuple, WindowAggregateOperator


# --------------------------------------------------------------------------- #
# Topology: routes are valid paths over up links
# --------------------------------------------------------------------------- #
@settings(max_examples=50, deadline=None)
@given(
    n_nodes=st.integers(3, 12),
    edge_seed=st.integers(0, 10_000),
    down_fraction=st.floats(0.0, 0.6),
)
def test_routes_are_valid_up_paths(n_nodes, edge_seed, down_fraction):
    rng = random_module.Random(edge_seed)
    topology = Topology(rng=rng)
    nodes = [f"n{i}" for i in range(n_nodes)]
    for node in nodes:
        topology.add_node(node)
    # A random connected-ish graph: a chain plus random chords.
    for a, b in zip(nodes, nodes[1:]):
        topology.add_link(a, b, profile="lan")
    for _ in range(n_nodes):
        a, b = rng.sample(nodes, 2)
        if topology.link_between(a, b) is None:
            topology.add_link(a, b, profile="lan")
    # Randomly down some links.
    for link in topology.links:
        if rng.random() < down_fraction:
            link.set_up(False)
    src, dst = rng.sample(nodes, 2)
    route = topology.route(src, dst)
    if route is None:
        # Really unreachable: src and dst in different components.
        components = topology.components()
        src_component = next(c for c in components if src in c)
        assert dst not in src_component
    else:
        assert route[0] == src and route[-1] == dst
        for a, b in zip(route, route[1:]):
            link = topology.link_between(a, b)
            assert link is not None and link.up


# --------------------------------------------------------------------------- #
# Policy engine: sensitivity monotonicity
# --------------------------------------------------------------------------- #
def build_engine():
    registry = DomainRegistry()
    registry.add(AdministrativeDomain("src-dom", GDPR, TrustLevel.TRUSTED))
    registry.add(AdministrativeDomain("dst-dom", CCPA, TrustLevel.PARTNER))
    registry.set_mutual_trust("src-dom", "dst-dom", TrustLevel.PARTNER)
    engine = PolicyEngine(
        registry, min_trust=TrustLevel.PARTNER,
        device_domain=lambda d: "src-dom" if d.startswith("s") else "dst-dom",
    )
    engine.add_scope(PrivacyScope("scope", members={"s1"}))
    return engine


@settings(max_examples=60, deadline=None)
@given(
    low=st.sampled_from(list(DataSensitivity)),
    high=st.sampled_from(list(DataSensitivity)),
)
def test_raising_sensitivity_never_unblocks_a_flow(low, high):
    """If a flow is denied at sensitivity L, it is denied at any H >= L
    (all rules are monotone in sensitivity)."""
    if high < low:
        low, high = high, low
    engine = build_engine()
    item_low = DataItem("k", 1, "s1", "src-dom", 0.0, low, subject="x")
    item_high = DataItem("k", 1, "s1", "src-dom", 0.0, high, subject="x")
    decision_low = engine.evaluate(item_low, "s1", "d1")
    decision_high = engine.evaluate(item_high, "s1", "d1")
    if not decision_low.allowed:
        assert not decision_high.allowed


@settings(max_examples=40, deadline=None)
@given(sensitivity=st.sampled_from(list(DataSensitivity)))
def test_intra_device_flow_always_allowed(sensitivity):
    engine = build_engine()
    item = DataItem("k", 1, "s1", "src-dom", 0.0, sensitivity, subject="x")
    assert engine.evaluate(item, "s1", "s1").allowed


# --------------------------------------------------------------------------- #
# Stream windows: every processed tuple lands in exactly one emitted window
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    event_times=st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                         max_size=40).map(sorted),
    window=st.floats(1.0, 20.0, allow_nan=False),
)
def test_window_counts_partition_the_stream(event_times, window):
    op = WindowAggregateOperator.count("cnt", window=window)
    emitted = []
    for t in event_times:
        emitted.extend(op.process(StreamTuple(1.0, t), now=t))
    emitted.extend(op.on_epoch(event_times[-1] + 2 * window))
    assert sum(t.value for t in emitted) == len(event_times)
    # Window boundaries align to multiples of the window length.
    for t in emitted:
        remainder = (t.event_time / window) % 1.0
        assert abs(remainder) < 1e-6 or abs(remainder - 1.0) < 1e-6
