"""Sharded federation kernel: mailboxes, lookahead, identity, recovery.

The contract under test (ISSUE: ``repro.shard``): a federated scenario
partitioned across K shard processes must produce results that are a
pure function of the scenario spec — independent of the shard count's
*layout* effects (worker placement, mailbox batching), byte-identical
to the unsharded run at K=1, crash-resumable to the same federation
digest, and replay-verifiable shard by shard.
"""

import json
import os

import pytest

from repro import cli
from repro.persistence import (
    Checkpoint,
    CheckpointError,
    JournalError,
    ScenarioSpec,
    run_scenario,
)
from repro.shard import (
    Envelope,
    ShardedSimulator,
    federation_digest,
    lookahead_barriers,
    manifest_path,
    prepare_smart_city_federated,
    replay_shard,
    shard_paths,
    verify_federation,
)
from repro.shard.gateway import canonical_payload, federation_keys, sign_envelope
from repro.sweep import worker_pool

#: Tiny federation: fast enough for CI, still crossing every window
#: boundary (exchange period = 2 lookahead windows) and — with horizon
#: beyond t=3.0 — delivering personal (k%4==0) envelopes so the
#: residency-governance and payload-canonicalization paths run.  Four
#: domains cycle GDPR/EEA/CCPA/GDPR, so dom3 (GDPR) sends personal
#: payloads to dom2 (CCPA): the disallowed-residency pair.
TINY = dict(domains=4, devices_per_domain=50, sites_per_domain=1,
            gateways_per_site=1, horizon=4.5, max_event_rate=30.0)


def _tiny_spec(**overrides):
    params = dict(TINY)
    params.update(overrides)
    return ScenarioSpec("smart-city-federated", seed=7, params=params)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# --------------------------------------------------------------------------- #
# Envelopes
# --------------------------------------------------------------------------- #
class TestEnvelope:
    def test_roundtrip_through_sorted_json(self):
        env = Envelope(
            src="dom0:cloud", dst="dom1:cloud", kind="fed.telemetry",
            payload={"k": 4, "origin": "dom0", "_personal": True},
            size_bytes=512, src_domain="dom0", dst_domain="dom1",
            sent_at=3.0, arrival=3.375, seq=11, auth="ab" * 8,
            personal=True)
        wire = json.dumps(env.to_dict(), sort_keys=True)
        back = Envelope.from_dict(json.loads(wire))
        assert back == env
        assert back.sort_key == env.sort_key == (3.375, "dom0", 11)

    def test_auth_covers_payload(self):
        keys = federation_keys(7, ["dom0", "dom1"])
        env = Envelope(
            src="dom0:cloud", dst="dom1:cloud", kind="fed.telemetry",
            payload=canonical_payload({"k": 1, "origin": "dom0"}),
            size_bytes=512, src_domain="dom0", dst_domain="dom1",
            sent_at=0.75, arrival=1.125, seq=0)
        tag = sign_envelope(env.body_tuple(), keys["dom0"])
        tampered = Envelope.from_dict(
            {**env.to_dict(), "payload": {"k": 2, "origin": "dom0"}})
        assert sign_envelope(tampered.body_tuple(), keys["dom0"]) != tag
        # Wrong key (another domain impersonating dom0) also fails.
        assert sign_envelope(env.body_tuple(), keys["dom1"]) != tag

    def test_canonical_payload_is_insertion_order_independent(self):
        a = {"k": 4, "origin": "dom0"}
        a["_personal"] = True
        b = {"_personal": True, "origin": "dom0", "k": 4}
        assert repr(canonical_payload(a)) == repr(canonical_payload(b))
        # JSON round-trip (the mailbox file) is a fixed point.
        wired = json.loads(json.dumps(canonical_payload(a), sort_keys=True))
        assert repr(wired) == repr(canonical_payload(a))


# --------------------------------------------------------------------------- #
# Lookahead windows
# --------------------------------------------------------------------------- #
class TestLookaheadBarriers:
    def test_exact_multiple(self):
        barriers = lookahead_barriers(0.375, 3.0)
        assert barriers == [0.375 * j for j in range(1, 9)]
        assert barriers[-1] == 3.0

    def test_partial_final_window(self):
        barriers = lookahead_barriers(0.375, 1.0)
        assert barriers[:2] == [0.375, 0.75]
        assert barriers[-1] == 1.0
        assert len(barriers) == 3

    def test_horizon_shorter_than_window(self):
        assert lookahead_barriers(0.375, 0.2) == [0.2]

    def test_barriers_strictly_increase_to_horizon(self):
        barriers = lookahead_barriers(0.3, 10.0)
        assert all(b < a for b, a in zip(barriers, barriers[1:]))
        assert barriers[-1] == 10.0


# --------------------------------------------------------------------------- #
# Delivery ordering
# --------------------------------------------------------------------------- #
class TestDeliveryOrder:
    def test_cross_shard_pairs_deliver_in_send_order(self, tmp_path):
        """Per (src-domain, dst) pair, mailbox order == send order.

        Constant pair latency + monotone send times + per-source-domain
        sequence numbers make ``sort_key`` order equal send order for
        every pair; the recorded inbox files are the actual injected
        stream, so checking them checks what the kernel saw.
        """
        out = str(tmp_path / "fed")
        ShardedSimulator(_tiny_spec(), shards=2, workers=1,
                         out_dir=out).run()
        for shard in range(2):
            with open(shard_paths(out, shard)["inbox"],
                      encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            envelopes = [env for record in records
                         if record.get("type") == "inbox"
                         for env in record["envelopes"]]
            assert envelopes, "federation exchanged no cross-shard traffic"
            pairs = {}
            for env in envelopes:
                pairs.setdefault((env["src_domain"], env["dst"]),
                                 []).append(env)
            for pair, stream in pairs.items():
                seqs = [env["seq"] for env in stream]
                arrivals = [env["arrival"] for env in stream]
                assert seqs == sorted(seqs), pair
                assert arrivals == sorted(arrivals), pair

    def test_exchanges_land_exactly_on_barriers(self):
        """The scenario's defaults pin sends/arrivals to window edges."""
        prepared = prepare_smart_city_federated(7, dict(TINY))
        lookahead = prepared.aux["lookahead"]
        assert lookahead == 0.375  # binary-exact: 0.25 + 0.125
        # Exchange period is exactly two windows; pair latency 0.375 puts
        # offset-1 arrivals exactly on the next barrier.
        assert 0.75 == 2 * lookahead
        gateway = prepared.aux["federation"]
        assert gateway.pair_latency("dom0", "dom1") == lookahead


# --------------------------------------------------------------------------- #
# Identity and invariance
# --------------------------------------------------------------------------- #
class TestShardIdentity:
    def test_k1_is_byte_identical_to_unsharded(self, tmp_path):
        spec = _tiny_spec()
        ref_journal = str(tmp_path / "ref" / "journal.jsonl")
        os.makedirs(str(tmp_path / "ref"))
        reference = run_scenario(spec, journal_path=ref_journal)

        out = str(tmp_path / "k1")
        result = ShardedSimulator(spec, shards=1, out_dir=out).run()
        assert result.complete
        assert result.shard_stats[0].digest == reference.final_digest
        assert (_read_bytes(shard_paths(out, 0)["journal"])
                == _read_bytes(ref_journal))

    def test_k2_digest_is_stable_across_workers(self, tmp_path):
        spec = _tiny_spec()
        digests = []
        for workers in (1, 2):
            out = str(tmp_path / f"w{workers}")
            result = ShardedSimulator(spec, shards=2, workers=workers,
                                      out_dir=out).run()
            assert result.complete
            digests.append(result.federation_digest)
        assert digests[0] == digests[1]

    def test_governance_counters_fire_cross_shard(self, tmp_path):
        """Policy and residency drops happen identically when sharded."""
        out = str(tmp_path / "fed")
        result = ShardedSimulator(_tiny_spec(), shards=2, workers=1,
                                  out_dir=out).run()
        merged = {}
        for stats in result.shard_stats:
            for name, value in stats.counters.items():
                merged[name] = merged.get(name, 0) + value
        assert merged["shard.fed.sent"] > 0
        assert merged["shard.fed.delivered"] > 0
        # dom0 distrusts dom1 -> policy drops every run; GDPR->personal
        # flows past t=3.0 -> at least one residency drop at horizon 4.5.
        assert merged["shard.fed.dropped_policy"] > 0
        assert merged["shard.fed.dropped_residency"] > 0
        assert "shard.fed.dropped_auth" not in merged

    def test_federation_digest_chains_shard_digests(self, tmp_path):
        out = str(tmp_path / "fed")
        result = ShardedSimulator(_tiny_spec(), shards=2, workers=1,
                                  out_dir=out).run()
        expected = federation_digest(
            result.spec.to_dict(), 2,
            [stats.digest for stats in result.shard_stats])
        assert result.federation_digest == expected
        with open(manifest_path(out), encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["federation_digest"] == expected
        assert manifest["complete"] is True


# --------------------------------------------------------------------------- #
# Crash recovery and replay verification
# --------------------------------------------------------------------------- #
class TestCrashResume:
    def test_killed_run_resumes_to_identical_federation(self, tmp_path):
        spec = _tiny_spec()
        ref_out = str(tmp_path / "ref")
        reference = ShardedSimulator(spec, shards=2, workers=1,
                                     out_dir=ref_out,
                                     checkpoint_every=2).run()

        out = str(tmp_path / "killed")
        killed = ShardedSimulator(spec, shards=2, workers=1, out_dir=out,
                                  checkpoint_every=2,
                                  stop_after_window=5).run()
        assert not killed.complete
        assert killed.federation_digest is None
        for shard in range(2):
            checkpoint = Checkpoint.load(shard_paths(out, shard)["checkpoint"])
            assert sorted(checkpoint.state) == ["shard", "window"]

        resumed = ShardedSimulator.resume(out)
        assert resumed.complete
        assert resumed.resumed_from_window == 4
        assert resumed.federation_digest == reference.federation_digest
        for shard in range(2):
            assert (_read_bytes(shard_paths(out, shard)["journal"])
                    == _read_bytes(shard_paths(ref_out, shard)["journal"]))
            assert (_read_bytes(shard_paths(out, shard)["inbox"])
                    == _read_bytes(shard_paths(ref_out, shard)["inbox"]))

    def test_resume_refuses_completed_runs(self, tmp_path):
        out = str(tmp_path / "fed")
        ShardedSimulator(_tiny_spec(), shards=2, workers=1,
                         out_dir=out).run()
        with pytest.raises(CheckpointError):
            ShardedSimulator.resume(out)

    def test_verify_federation_matches(self, tmp_path):
        out = str(tmp_path / "fed")
        result = ShardedSimulator(_tiny_spec(), shards=2, workers=1,
                                  out_dir=out).run()
        report = verify_federation(out)
        assert report["ok"]
        assert report["shards"] == 2
        assert report["federation_digest"] == result.federation_digest
        assert all(r["ok"] for r in report["reports"])

    def test_verify_federation_flags_tampered_journal(self, tmp_path):
        out = str(tmp_path / "fed")
        ShardedSimulator(_tiny_spec(), shards=2, workers=1,
                         out_dir=out).run()
        journal = shard_paths(out, 1)["journal"]
        with open(journal, encoding="utf-8") as fh:
            lines = fh.readlines()
        record = json.loads(lines[10])
        assert record["type"] == "event"
        record["t"] += 0.5
        lines[10] = json.dumps(record, sort_keys=True,
                               separators=(",", ":")) + "\n"
        with open(journal, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        report = verify_federation(out)
        assert not report["ok"]
        assert not report["reports"][1]["ok"]
        assert report["reports"][0]["ok"]

    def test_replay_of_specless_journal_is_a_journal_error(self, tmp_path):
        # Shard replay shares replay_run's path, classification included.
        paths = shard_paths(str(tmp_path), 0)
        os.makedirs(paths["dir"])
        with open(paths["journal"], "w", encoding="utf-8") as fh:
            fh.write('{"type":"header","version":1,"scenario":{},'
                     '"digest_every":25}\n')
        with pytest.raises(JournalError):
            replay_shard(str(tmp_path), 0)


# --------------------------------------------------------------------------- #
# Worker-count validation (shared worker_pool contract)
# --------------------------------------------------------------------------- #
class TestWorkerValidation:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_pool_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            worker_pool(workers)

    def test_pool_serial_is_none(self):
        assert worker_pool(1) is None

    @pytest.mark.parametrize("workers", [0, -2])
    def test_sharded_simulator_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ShardedSimulator(_tiny_spec(), shards=2, workers=workers)

    def test_sharded_simulator_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            ShardedSimulator(_tiny_spec(), shards=0)

    def test_run_sweep_rejects_nonpositive_workers(self):
        from repro.sweep import run_sweep

        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sweep(lambda x, seed: float(x), grid={"x": [1]},
                      seeds=[0], workers=0)


# --------------------------------------------------------------------------- #
# Observability surfaces
# --------------------------------------------------------------------------- #
class TestShardObservability:
    def test_prometheus_families_and_html_table(self, tmp_path):
        from repro.observability.export import (
            prometheus_text,
            render_html_report,
        )
        from repro.simulation.metrics import MetricsRecorder

        out = str(tmp_path / "fed")
        result = ShardedSimulator(_tiny_spec(), shards=2, workers=1,
                                  out_dir=out).run()
        summary = result.report_summary()

        text = prometheus_text(MetricsRecorder(), shards=summary)
        assert '# TYPE repro_shard_events_total counter' in text
        assert 'repro_shard_events_total{shard="0"}' in text
        assert 'repro_shard_events_total{shard="1"}' in text
        assert "repro_shard_windows_total" in text
        assert 'repro_shard_mailbox_depth_peak{shard="0"}' in text
        assert 'repro_shard_sync_wait_seconds_total{shard="1"}' in text

        html = render_html_report("Federation", None, shards=summary)
        assert "<h2>Shards</h2>" in html
        assert result.federation_digest in html
        assert "dom0" in html and "dom1" in html
        # 'shard run' and 'shard resume' write this page through one
        # document shell: its footer names neither them nor 'report'.
        for verb in ("shard run", "shard resume"):
            assert cli._shard_report(verb, result, out) == 0
            with open(os.path.join(out, "report.html"), encoding="utf-8") as fh:
                written = fh.read()
            assert "<h2>Shards</h2>" in written and written.endswith("</html>")
            assert "python -m repro report" not in written
            assert "Generated by <code>python -m repro</code>" in written

    def test_report_inputs_passthrough(self, tmp_path):
        from repro.observability.export import report_inputs

        prepared = prepare_smart_city_federated(7, dict(TINY))
        prepared.system.run(until=1.0)
        inputs = report_inputs(prepared.system,
                               shards={"rows": [], "shards": 2})
        assert inputs["shards"] == {"rows": [], "shards": 2}
        assert report_inputs(prepared.system)["shards"] is None


# --------------------------------------------------------------------------- #
# Scenario parameter contract
# --------------------------------------------------------------------------- #
class TestFederatedScenario:
    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            prepare_smart_city_federated(7, {"typo": 1})

    def test_needs_two_domains(self):
        with pytest.raises(ValueError, match="2 domains"):
            prepare_smart_city_federated(7, {"domains": 1})

    def test_shard_partition_registers_all_domains(self):
        params = dict(TINY)
        params.update(domains=4, shard=1, shards=2)
        prepared = prepare_smart_city_federated(7, params)
        assert prepared.aux["local_domains"] == ["dom1", "dom3"]
        # Governance and routing still see the whole federation.
        assert prepared.aux["registry"].names == [
            "dom0", "dom1", "dom2", "dom3"]
        assert prepared.aux["devices_total"] == 4 * TINY["devices_per_domain"]
