"""Malicious-client suite: the Section 3.7 defences under actual attack.

Covers the acceptance claims of the client-side adversary subsystem:

* with f abusive clients (watermark abuse, duplicate flooding, bucket
  bias, forged signatures) every correct client's requests complete and
  all nodes deliver identical request sequences,
* every abusive submission class is rejected and counted in the
  client-abuse section of ``scenarios.row`` (watermark rejections,
  absorbed duplicates, signature rejections attributed to the claimed
  victim),
* the out-of-order-completion watermark wedge is fixed client-side
  (failing-before/passing-after regression tests),
* per-client node state stays bounded: delivered filters and signature
  caches are garbage collected below advanced watermarks, watermark
  out-of-order buffers are pruned and capped by the window,
* the machinery composes with wire batching on AND off, and
* the seeded client-abuse gate scenario replays against its golden trace
  (``tests/test_gates.py``).
"""

import json

import pytest

from repro.core.client import Client
from repro.core.config import ISSConfig, NetworkConfig, WorkloadConfig
from repro.core.types import Batch, RequestId
from repro.core.validation import ClientWatermarks
from repro.harness.invariants import check_prefix_identity
from repro.harness.runner import Deployment
from repro.harness.scenarios import (
    CLIENT_ABUSE_WINDOW,
    client_abuse_sweep,
    deployment,
    row,
    watermark_stall,
)
from repro.sim.client_adversary import AbusiveClient
from repro.runtime.faults import (
    CLIENT_BUCKET_BIAS,
    CLIENT_DUPLICATE_FLOOD,
    CLIENT_FORGED_SIGNATURE,
    CLIENT_WATERMARK_ABUSE,
    MaliciousClientSpec,
)
from repro.workload.faults import abusive_clients

from repro.gate.table import GATES


WINDOW = 1024


def abusive_config(num_nodes=4, seed=7, window=WINDOW, **overrides):
    defaults = dict(
        epoch_length=16,
        max_batch_size=64,
        batch_rate=16.0,
        view_change_timeout=5.0,
        epoch_change_timeout=5.0,
        client_watermark_window=window,
        send_client_responses=True,
        random_seed=seed,
    )
    defaults.update(overrides)
    return ISSConfig(num_nodes=num_nodes, **defaults)


def run_abusive(
    config,
    specs,
    duration=8.0,
    rate=300.0,
    num_clients=6,
    drain_time=15.0,
    batch_flush_interval=0.0,
):
    deployment = Deployment(
        config,
        network_config=NetworkConfig(batch_flush_interval=batch_flush_interval),
        workload=WorkloadConfig(
            num_clients=num_clients, total_rate=rate, duration=duration
        ),
        faults=specs,
        drain_time=drain_time,
    )
    return deployment, deployment.run()


def correct_clients(result, specs):
    abusive = {spec.client for spec in specs}
    return [c for c in result.clients if c.client_id not in abusive]


class TestMaliciousClientSpec:
    def test_rejects_unknown_behaviour(self):
        with pytest.raises(ValueError):
            MaliciousClientSpec(client=0, behaviour="tantrum")

    def test_flood_requires_factor(self):
        with pytest.raises(ValueError):
            MaliciousClientSpec(
                client=0, behaviour=CLIENT_DUPLICATE_FLOOD, flood_factor=1
            )

    def test_forgery_requires_victim(self):
        with pytest.raises(ValueError):
            MaliciousClientSpec(client=0, behaviour=CLIENT_FORGED_SIGNATURE)

    def test_forging_own_identity_rejected(self):
        with pytest.raises(ValueError):
            MaliciousClientSpec(
                client=3, behaviour=CLIENT_FORGED_SIGNATURE, victim=3
            )

    def test_builder_counts_down_with_distinct_victims(self):
        specs = abusive_clients(2, 8, behaviour=CLIENT_FORGED_SIGNATURE)
        assert [spec.client for spec in specs] == [7, 6]
        assert [spec.victim for spec in specs] == [0, 1]
        assert len({spec.victim for spec in specs}) == 2

    def test_builder_rejects_all_clients_abusive(self):
        with pytest.raises(ValueError):
            abusive_clients(4, 4)

    def test_builder_victims_are_always_correct_clients(self):
        """Victims must come from the correct-client range even when the
        abusers outnumber the correct clients (regression: victim == abuser
        used to crash the builder at higher counts)."""
        specs = abusive_clients(4, 7, behaviour=CLIENT_FORGED_SIGNATURE)
        abusers = {spec.client for spec in specs}
        assert abusers == {6, 5, 4, 3}
        for spec in specs:
            assert spec.victim not in abusers
            assert spec.victim < 7 - 4  # drawn from the correct ids only
        specs = abusive_clients(5, 6, behaviour=CLIENT_FORGED_SIGNATURE)
        assert all(spec.victim == 0 for spec in specs)  # one correct client

    def test_deployment_rejects_out_of_range_client(self):
        config = abusive_config()
        with pytest.raises(ValueError):
            Deployment(
                config,
                workload=WorkloadConfig(num_clients=4, total_rate=100.0, duration=1.0),
                faults=[MaliciousClientSpec(client=9)],
            )

    def test_deployment_rejects_duplicate_specs_for_one_client(self):
        config = abusive_config()
        with pytest.raises(ValueError):
            Deployment(
                config,
                workload=WorkloadConfig(num_clients=4, total_rate=100.0, duration=1.0),
                faults=[
                    MaliciousClientSpec(client=3, behaviour=CLIENT_WATERMARK_ABUSE),
                    MaliciousClientSpec(client=3, behaviour=CLIENT_DUPLICATE_FLOOD),
                ],
            )

    def test_harness_builds_abusive_subclass(self):
        config = abusive_config()
        deployment = Deployment(
            config,
            workload=WorkloadConfig(num_clients=4, total_rate=100.0, duration=1.0),
            faults=[MaliciousClientSpec(client=3)],
        )
        assert isinstance(deployment.clients[3], AbusiveClient)
        assert not isinstance(deployment.clients[0], AbusiveClient)
        assert deployment.faults_of(MaliciousClientSpec) == [MaliciousClientSpec(client=3)]
        assert deployment.injector.abusive_client_for(3) is deployment.clients[3]


class TestWatermarkAbuse:
    def test_far_out_rejected_gaps_stall_only_the_abuser(self):
        config = abusive_config()
        specs = abusive_clients(1, 6, behaviour=CLIENT_WATERMARK_ABUSE)
        deployment, result = run_abusive(config, specs)
        abuse = row(deployment, result)["client_abuse"]
        abuser = specs[0].client
        stats = abuse["abusers"][abuser]
        per_client = abuse["per_client"]
        # The attack ran: far-out timestamps and deliberate gaps were sent...
        assert stats["out_of_window_sent"] > 0 and stats["gaps_left"] > 0
        # ...every far-out submission was rejected at the watermark window
        # (each one hits all nodes at least once, so counts dominate sends)...
        assert (
            per_client[abuser]["outside_watermarks"] >= stats["out_of_window_sent"]
        )
        # ...the gaps pin the abuser's own low watermark inside the window...
        for node in result.nodes:
            assert node.watermarks.low_watermark(abuser) < config.client_watermark_window
        # ...while correct clients advance and complete everything.
        for client in correct_clients(result, specs):
            assert client.requests_completed == client.requests_submitted
            assert result.nodes[0].watermarks.low_watermark(client.client_id) > 0
        assert check_prefix_identity(result.nodes) == []

    def test_delayed_start_behaves_honestly_first(self):
        config = abusive_config()
        spec = MaliciousClientSpec(
            client=5, behaviour=CLIENT_WATERMARK_ABUSE, start_time=4.0
        )
        deployment, result = run_abusive(config, [spec], duration=8.0)
        abuser = deployment.clients[5]
        assert abuser.abuse_active
        assert abuser.out_of_window_sent > 0
        # Honest-phase submissions before t=4 completed like anyone's.
        assert abuser.requests_completed > 0
        assert check_prefix_identity(result.nodes) == []

    def test_out_of_order_buffers_bounded_and_pruned(self):
        """Gap-leavers cannot inflate node memory beyond the window."""
        config = abusive_config(window=128)
        specs = abusive_clients(1, 6, behaviour=CLIENT_WATERMARK_ABUSE)
        deployment, result = run_abusive(config, specs)
        for node in result.nodes:
            # Only clients with an open gap may hold a buffer, and no buffer
            # can outgrow the window (the window rejects anything beyond).
            assert node.watermarks.tracked_gap_clients() <= len(specs)
            assert node.watermarks.out_of_order_entries() <= 128


class TestDuplicateFlood:
    @pytest.mark.parametrize("flush_interval", [0.0, 0.02], ids=["unbatched", "batched"])
    def test_flood_absorbed_without_double_delivery(self, flush_interval):
        config = abusive_config()
        specs = abusive_clients(
            1, 6, behaviour=CLIENT_DUPLICATE_FLOOD, flood_factor=4
        )
        deployment, result = run_abusive(
            config, specs, batch_flush_interval=flush_interval
        )
        abuse = row(deployment, result)["client_abuse"]
        abuser = specs[0].client
        stats = abuse["abusers"][abuser]
        assert stats["duplicates_sent"] > 0
        # The nodes absorbed and counted the flood...
        assert abuse["per_client"][abuser]["duplicates"] > 0
        # ...and no request was delivered twice at any node.
        for node in result.nodes:
            rids = [
                request.rid
                for sn in range(node.log.first_undelivered)
                for entry in [node.log.entry(sn)]
                if isinstance(entry, Batch)
                for request in entry.requests
            ]
            assert len(rids) == len(set(rids))
        # The flooder's own (valid) requests still complete — flooding buys
        # nothing and costs nothing but bandwidth.
        assert stats["requests_completed"] == stats["requests_submitted"]
        for client in correct_clients(result, specs):
            assert client.requests_completed == client.requests_submitted
        assert check_prefix_identity(result.nodes) == []

    def test_flood_only_adds_traffic(self):
        """Flooding inflates wire messages, never what anyone delivers."""
        clean_dep, clean = run_abusive(abusive_config(), [])
        specs = abusive_clients(1, 6, behaviour=CLIENT_DUPLICATE_FLOOD, flood_factor=5)
        noisy_dep, noisy = run_abusive(abusive_config(), specs)
        assert (
            noisy_dep.network.stats.messages_sent
            > clean_dep.network.stats.messages_sent
        )
        assert check_prefix_identity(noisy.nodes) == []


class TestBucketBias:
    def test_bias_bounded_by_window_and_hash(self):
        config = abusive_config(window=512)
        target = 3
        specs = [
            MaliciousClientSpec(
                client=5, behaviour=CLIENT_BUCKET_BIAS, target_bucket=target
            )
        ]
        deployment, result = run_abusive(config, specs, duration=10.0)
        abuse = row(deployment, result)["client_abuse"]
        stats = abuse["abusers"][5]
        assert stats["biased_sent"] > 0
        # Only ~1/|B| of the window's timestamps map to the target bucket —
        # after that the skipped timestamps wedge the abuser out of the
        # window, so the accepted bias is bounded by the exact per-(client,
        # target) capacity the window leaves (≈ window / |B|).
        from repro.sim.client_adversary import bias_capacity

        bound = bias_capacity(
            5, target, config.client_watermark_window, config.num_buckets
        )
        assert 0 < stats["requests_completed"] <= bound
        assert bound <= config.client_watermark_window // config.num_buckets + 8
        # The overflow was rejected at the watermark window and counted.
        assert abuse["per_client"][5]["outside_watermarks"] > 0
        # Correct clients — including any mapping to the target bucket — are
        # unharmed.
        for client in correct_clients(result, specs):
            assert client.requests_completed == client.requests_submitted
        assert check_prefix_identity(result.nodes) == []

    def test_payload_cannot_move_a_request_between_buckets(self):
        """The bucket hash covers c||t only: payload crafting is a no-op."""
        from repro.core.buckets import bucket_of

        rid = RequestId(client=1, timestamp=7)
        assert bucket_of(rid, 64) == bucket_of(rid, 64)
        # bucket_of takes no payload at all — the strongest statement of
        # Section 3.7's payload exclusion; the mixing value is fixed at
        # RequestId construction.
        assert rid._mix == RequestId(client=1, timestamp=7)._mix


class TestForgedSignatures:
    def test_forgeries_rejected_and_attributed_to_victim(self):
        config = abusive_config()
        specs = abusive_clients(1, 6, behaviour=CLIENT_FORGED_SIGNATURE)
        victim = specs[0].victim
        deployment, result = run_abusive(config, specs)
        abuse = row(deployment, result)["client_abuse"]
        stats = abuse["abusers"][specs[0].client]
        assert stats["forged_sent"] > 0
        # Every forgery was rejected at the signature check, attributed to
        # the claimed (victim) identity — the only one nodes can observe.
        per_client = abuse["per_client"]
        assert per_client[victim]["bad_signature"] >= stats["forged_sent"]
        # The impersonated victim is unharmed: its own requests complete.
        victim_client = result.clients[victim]
        assert victim_client.requests_completed == victim_client.requests_submitted
        # Nothing forged was ever delivered: no forged timestamp (descending
        # from the window top) appears in any node's delivered filter or log.
        assert check_prefix_identity(result.nodes) == []
        for node in result.nodes:
            assert node.validator.stats.bad_signature >= stats["forged_sent"]


class TestMixedAbuseAndReplicaFaults:
    def test_two_behaviours_plus_batching(self):
        """Several abusive clients with different behaviours compose."""
        config = abusive_config()
        specs = [
            MaliciousClientSpec(client=5, behaviour=CLIENT_WATERMARK_ABUSE),
            MaliciousClientSpec(client=4, behaviour=CLIENT_DUPLICATE_FLOOD),
        ]
        deployment, result = run_abusive(
            config, specs, batch_flush_interval=0.02
        )
        abuse = row(deployment, result)["client_abuse"]
        assert abuse["adversaries"] == {
            5: CLIENT_WATERMARK_ABUSE,
            4: CLIENT_DUPLICATE_FLOOD,
        }
        assert abuse["per_client"][5]["outside_watermarks"] > 0
        assert abuse["per_client"][4]["duplicates"] > 0
        for client in correct_clients(result, specs):
            assert client.requests_completed == client.requests_submitted
        assert check_prefix_identity(result.nodes) == []

    def test_abusive_client_with_crashed_node(self):
        """Client abuse composes with a replica crash fault."""
        from repro.runtime.faults import CrashSpec

        config = abusive_config(seed=11)
        specs = abusive_clients(1, 6, behaviour=CLIENT_WATERMARK_ABUSE)
        deployment = Deployment(
            config,
            workload=WorkloadConfig(num_clients=6, total_rate=300.0, duration=10.0),
            faults=[*specs, CrashSpec(node=3, trigger="at-time", time=3.0)],
            drain_time=12.0,
        )
        result = deployment.run()
        live = [node for node in result.nodes if not node.crashed]
        assert check_prefix_identity(live) == []
        for client in correct_clients(result, specs):
            assert client.requests_completed == client.requests_submitted


class TestBoundedClientState:
    def test_delivered_filter_and_signature_cache_are_collected(self):
        """Long-run growth of per-client node state is bounded by GC at
        epoch transitions (the PR's unbounded-growth bugfix)."""
        config = abusive_config()
        deployment, result = run_abusive(
            abusive_config(), [], duration=15.0, rate=400.0
        )
        for node in result.nodes:
            delivered_total = node.delivered_count()
            assert delivered_total > 0
            # Without GC the filter would hold every delivered id.
            assert node.client_state_gc_entries > 0
            assert len(node.buckets.delivered) < delivered_total
            # The signature memo lets go of a request at delivery.
            assert len(node.key_store._verified) < delivered_total
            # Everything below each client's low watermark is gone.
            for client in result.clients:
                low = node.watermarks.low_watermark(client.client_id)
                for ts in range(low):
                    rid = RequestId(client=client.client_id, timestamp=ts)
                    assert not node.buckets.is_delivered(rid)

    def test_recovery_replay_also_collects_client_state(self):
        """A restarted node must not re-retain the whole pre-crash delivered
        history: the recovery fast-forward applies the same watermark GC as
        live epoch transitions (regression: replay used to skip it)."""
        from repro.runtime.faults import CrashSpec, RestartSpec

        config = abusive_config(seed=11)
        deployment = Deployment(
            config,
            workload=WorkloadConfig(num_clients=6, total_rate=400.0, duration=14.0),
            faults=[
                CrashSpec(node=1, trigger="at-time", time=8.0),
                RestartSpec(node=1, time=11.0),
            ],
            drain_time=12.0,
        )
        result = deployment.run()
        restarted = result.nodes[1]
        assert restarted.delivered_count() > 0
        # The replayed prefix completed epochs, so recovery itself must have
        # collected the watermark-covered ranges out of the rebuilt filters.
        assert restarted.client_state_gc_entries > 0
        assert len(restarted.buckets.delivered) < restarted.delivered_count()

    def test_gcd_resubmission_still_reacked_not_readded(self):
        """A resubmission of a delivered-and-collected request must be
        re-acknowledged from the watermark, never re-enter a queue."""
        config = abusive_config()
        deployment, result = run_abusive(config, [], duration=8.0)
        node = result.nodes[0]
        client = result.clients[0]
        low = node.watermarks.low_watermark(client.client_id)
        assert low > 0
        rid = RequestId(client=client.client_id, timestamp=0)
        assert not node.buckets.is_delivered(rid)  # GC'd
        duplicates_before = node.duplicate_requests.get(client.client_id, 0)
        pending_before = node.pending_requests()
        # Replay the client's very first (delivered, GC'd) request.
        first = next(
            sn_entry
            for sn in range(node.log.first_undelivered)
            for sn_entry in [node.log.entry(sn)]
            if isinstance(sn_entry, Batch)
            and any(r.rid == rid for r in sn_entry.requests)
        )
        request = next(r for r in first.requests if r.rid == rid)
        assert node.submit_request(request) is False
        assert node.pending_requests() == pending_before
        assert node.duplicate_requests[client.client_id] == duplicates_before + 1


class TestScenarios:
    def test_client_abuse_sweep_rows(self):
        rows = client_abuse_sweep(
            behaviours=(CLIENT_WATERMARK_ABUSE, CLIENT_FORGED_SIGNATURE),
            abusive_counts=(0, 2),
            duration=6.0,
            rate=300.0,
        )
        assert [r["client_behaviour"] for r in rows] == [
            "none",
            CLIENT_WATERMARK_ABUSE,
            CLIENT_FORGED_SIGNATURE,
        ]
        for figures in rows:
            assert figures["all_complete"], figures
            assert figures["prefixes_identical"], figures
            assert figures["abuse_contained"], figures
        attacked = [r for r in rows if r["abusive"]]
        assert all(r["rejections_total"] > 0 for r in attacked)

    def test_watermark_stall_row(self):
        figures = watermark_stall(duration=6.0, drain_time=8.0)
        assert figures["abuser_stalled"]
        assert figures["correct_lows_advanced"]
        assert figures["all_complete"]
        assert figures["prefixes_identical"]
        assert figures["out_of_order_bounded"]
        assert figures["gc_entries_total"] > 0

    def test_forged_signature_needs_client_signatures(self):
        """Signature-free (Raft CFT) configurations reject the pairing
        instead of silently delivering forgeries, and the sweep skips it."""
        with pytest.raises(ValueError):
            deployment(
                "raft",
                4,
                abusive_clients(1, 8, behaviour=CLIENT_FORGED_SIGNATURE),
                rate=300.0,
                duration=5.0,
            )
        rows = client_abuse_sweep(
            protocol="raft",
            behaviours=(CLIENT_DUPLICATE_FLOOD, CLIENT_FORGED_SIGNATURE),
            abusive_counts=(1,),
            duration=5.0,
            rate=300.0,
        )
        assert [r["client_behaviour"] for r in rows] == [CLIENT_DUPLICATE_FLOOD]

    def test_point_supports_hotstuff(self):
        dep = deployment(
            "hotstuff",
            4,
            abusive_clients(1, 8, behaviour=CLIENT_DUPLICATE_FLOOD),
            rate=400.0,
            duration=6.0,
            drain_time=10.0,
            client_watermark_window=CLIENT_ABUSE_WINDOW,
            send_client_responses=True,
        )
        figures = row(dep, dep.run())
        assert figures["client_behaviour"] == CLIENT_DUPLICATE_FLOOD
        assert figures["all_complete"], figures
        assert figures["prefixes_identical"], figures
        assert figures["abuse_contained"], figures


class TestClientAbuseSmokeGolden:
    def test_golden_trace_file_is_well_formed(self):
        golden = json.loads(GATES["client-abuse"].golden_path.read_text())
        assert golden["trace_len"] > 0
        assert len(golden["trace_sha256"]) == 64
        assert golden["watermark_rejections"] > 0
        assert golden["forgeries_rejected"] > 0
        assert golden["duplicates_absorbed"] > 0
