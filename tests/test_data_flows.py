"""Unit tests for data items, lineage, sync and data quality."""

import pytest

from repro.data.item import DataItem, DataSensitivity
from repro.data.lineage import LineageTracker
from repro.data.crdt import GCounter, LWWMap
from repro.data.quality import DataQualityMonitor
from repro.data.sync import ReplicaStore, SyncProtocol, converged
from repro.network.partition import PartitionManager


class TestDataItem:
    def _item(self):
        return DataItem("k", 1, "dev", "dom", 0.0, DataSensitivity.PERSONAL,
                        subject="alice")

    def test_derive_links_parent(self):
        item = self._item()
        derived = item.derive("k2", 2, "edge", "dom", 1.0)
        assert derived.parent_ids == (item.item_id,)
        assert derived.sensitivity == DataSensitivity.PERSONAL
        assert derived.subject == "alice"
        assert derived.is_derived and not item.is_derived

    def test_derive_cannot_lower_sensitivity(self):
        item = self._item()
        with pytest.raises(ValueError):
            item.derive("k2", 2, "edge", "dom", 1.0,
                        sensitivity=DataSensitivity.PUBLIC)

    def test_derive_can_raise_sensitivity(self):
        item = self._item()
        up = item.derive("k2", 2, "edge", "dom", 1.0,
                         sensitivity=DataSensitivity.SENSITIVE)
        assert up.sensitivity == DataSensitivity.SENSITIVE

    def test_anonymize_strips_subject_and_lowers(self):
        item = self._item()
        anonymous = item.anonymize("edge", 1.0)
        assert anonymous.sensitivity == DataSensitivity.PUBLIC
        assert anonymous.subject is None
        assert anonymous.parent_ids == (item.item_id,)

    def test_age(self):
        item = self._item()
        assert item.age(5.0) == 5.0
        assert item.age(-1.0) == 0.0

    def test_unique_ids(self):
        assert self._item().item_id != self._item().item_id


class TestLineage:
    def test_origins_through_derivation_chain(self):
        tracker = LineageTracker()
        root = DataItem("raw", 1, "sensor", "dom", 0.0)
        mid = root.derive("agg", 2, "edge", "dom", 1.0)
        top = mid.derive("report", 3, "cloud", "dom", 2.0)
        for item, t in ((root, 0.0), (mid, 1.0), (top, 2.0)):
            tracker.record_created(item, t, item.producer)
        assert [i.key for i in tracker.origins(top.item_id)] == ["raw"]
        assert root.item_id in tracker.ancestors(top.item_id)
        assert top.item_id in tracker.descendants(root.item_id)

    def test_domains_reached_includes_descendants(self):
        tracker = LineageTracker()
        root = DataItem("raw", 1, "sensor", "dom", 0.0, subject="alice")
        derived = root.derive("agg", 2, "edge", "dom", 1.0)
        tracker.record_created(root, 0.0, "sensor")
        tracker.record_created(derived, 1.0, "edge")
        tracker.record_moved(derived, 2.0, "cloud", "cloud-domain")
        assert tracker.domains_reached(root.item_id) == {"cloud-domain"}
        assert tracker.subject_exposure("alice") == {"cloud-domain"}
        assert tracker.subject_exposure("bob") == set()

    def test_denials_counted(self):
        tracker = LineageTracker()
        item = DataItem("k", 1, "d", "dom", 0.0)
        tracker.record_denied(item, 1.0, "evil", "evil-domain", "blocked")
        assert tracker.denial_count() == 1
        history = tracker.history(item.item_id)
        assert history[0].action == "denied"
        assert history[0].detail == "blocked"


@pytest.fixture
def sync_rig(sim, mesh5, rngs, trace):
    nodes, topology, network = mesh5
    stores = {}
    protocols = {}
    for node in nodes:
        store = ReplicaStore(node)
        store.register("counter", GCounter(node))
        store.register("map", LWWMap(node))
        stores[node] = store
        protocols[node] = SyncProtocol(
            sim, network, store, nodes, rngs.stream(f"sync:{node}"),
            period=0.5, trace=trace,
        )
        protocols[node].start()
    return stores, protocols, network, topology


class TestSync:
    def test_replicas_converge(self, sim, sync_rig):
        stores, _, _, _ = sync_rig
        stores["n1"].get("counter").increment(3)
        stores["n4"].get("counter").increment(2)
        sim.run(until=15.0)
        assert converged(list(stores.values()), "counter")
        assert stores["n2"].get("counter").value == 5

    def test_partition_then_convergence(self, sim, sync_rig, trace):
        stores, _, network, topology = sync_rig
        partitions = PartitionManager(sim, topology, trace=trace)
        partitions.schedule_outage(1.0, 15.0, "n3")
        sim.schedule(5.0, lambda s: stores["n3"].get("counter").increment(7))
        sim.schedule(5.0, lambda s: stores["n1"].get("counter").increment(1))
        sim.run(until=10.0)
        assert stores["n1"].get("counter").value == 1   # n3's write not seen
        sim.run(until=40.0)
        assert converged(list(stores.values()), "counter")
        assert stores["n1"].get("counter").value == 8

    def test_flow_guard_blocks_named_crdt(self, sim, mesh5, rngs, trace):
        nodes, _, network = mesh5
        stores = {n: ReplicaStore(n) for n in nodes[:2]}
        for n, store in stores.items():
            store.register("secret", GCounter(n))

        def guard(src, dst, name):
            if name == "secret":
                return False, "secret data must not sync"
            return True, "ok"

        protocols = {
            n: SyncProtocol(sim, network, stores[n], nodes[:2],
                            rngs.stream(f"s:{n}"), period=0.5,
                            flow_guard=guard, trace=trace)
            for n in nodes[:2]
        }
        for p in protocols.values():
            p.start()
        stores["n1"].get("secret").increment(5)
        sim.run(until=10.0)
        assert stores["n2"].get("secret").value == 0
        assert protocols["n1"].syncs_denied > 0
        assert trace.count(category="governance", name="sync-denied") > 0

    def test_sent_state_is_copy_not_reference(self, sim, mesh5, rngs):
        nodes, _, network = mesh5
        a, b = ReplicaStore("n1"), ReplicaStore("n2")
        a.register("c", GCounter("n1"))
        b.register("c", GCounter("n2"))
        pa = SyncProtocol(sim, network, a, ["n2"], rngs.stream("a"), period=0.5)
        pb = SyncProtocol(sim, network, b, ["n1"], rngs.stream("b"), period=0.5)
        pa.start()
        pb.start()
        a.get("c").increment(1)
        sim.run(until=5.0)
        # Mutating n2's replica must not affect n1's object.
        b.get("c").increment(10)
        assert a.get("c").value == 1

    def test_duplicate_register_raises(self):
        store = ReplicaStore("n")
        store.register("x", GCounter("n"))
        with pytest.raises(ValueError):
            store.register("x", GCounter("n"))

    def test_missing_crdt_raises(self):
        with pytest.raises(KeyError):
            ReplicaStore("n").get("ghost")


class TestDataQuality:
    def test_timeliness_fraction(self, metrics):
        monitor = DataQualityMonitor(metrics)
        monitor.record_transfer("k", 0.0, 0.05)
        monitor.record_transfer("k", 1.0, 1.30)
        assert monitor.timeliness("k", deadline=0.1) == 0.5
        assert monitor.timeliness("ghost", deadline=0.1) is None

    def test_transfer_before_send_raises(self, metrics):
        monitor = DataQualityMonitor(metrics)
        with pytest.raises(ValueError):
            monitor.record_transfer("k", 2.0, 1.0)

    def test_freshness_tracks_newest_production(self, metrics):
        monitor = DataQualityMonitor(metrics)
        monitor.record_update("k", produced_at=1.0, observed_at=2.0)
        monitor.record_update("k", produced_at=0.5, observed_at=3.0)  # stale arrival
        assert monitor.sample_freshness("k", now=4.0) == pytest.approx(3.0)
        assert monitor.mean_freshness("k") == pytest.approx(3.0)
        assert monitor.sample_freshness("ghost", now=4.0) is None

    def test_availability_window(self, metrics):
        monitor = DataQualityMonitor(metrics)
        monitor.set_available("k", 0.0, True)
        monitor.set_available("k", 5.0, False)
        monitor.set_available("k", 8.0, True)
        assert monitor.availability("k", 0.0, 10.0) == pytest.approx(0.7)

    def test_summary(self, metrics):
        monitor = DataQualityMonitor(metrics)
        monitor.record_transfer("k", 0.0, 0.01)
        monitor.set_available("k", 0.0, True)
        monitor.record_update("k", 0.0, 0.0)
        monitor.sample_freshness("k", 1.0)
        summary = monitor.summary(["k"], deadline=0.1, start=0.0, end=1.0)
        assert summary["k"]["timeliness"] == 1.0
        assert summary["k"]["availability"] == 1.0
