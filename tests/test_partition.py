"""Partitioned federation: every partition count reproduces one pinned run.

The contract mirrors ``tests/test_parallel_campaign.py``: splitting a
federated run across independent simulation partitions is an execution
detail, so the ``FederatedReport`` routing/failover/fidelity numbers must
be *identical* — not approximately equal — at every partition count and on
both partition backends.

The reference is pinned as SHA-256 digests of ``repr`` of each key.  They
were recorded on the shared-kernel federation (every cell on one
simulator), which the partitioned runs matched bit for bit, just before
that kernel was removed; the partitioned kernel must keep reproducing it.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.analysis.runtime import canonical_rows
from repro.core.config import FederationConfig, PrestoConfig
from repro.core.federation import FederatedSystem, partition_cells
from repro.radio.link import LinkConfig
from repro.scenarios import CampaignRunner
from repro.serving import ServingConfig
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import QueryWorkloadConfig, ShardedWorkloadGenerator

DURATION_S = 4 * 3600.0


def make_trace(n_sensors=8):
    config = IntelLabConfig(
        n_sensors=n_sensors, duration_s=DURATION_S, epoch_s=31.0
    )
    return IntelLabGenerator(config, seed=7).generate()


def fast_config():
    return PrestoConfig(
        sample_period_s=31.0,
        refit_interval_s=3 * 3600.0,
        min_training_epochs=128,
    )


def run_federated(
    partitions, backend="inline", serving=None, kill=True, replica_coding="full"
):
    trace = make_trace()
    federation = FederationConfig(
        n_proxies=4,
        replication_factor=1,
        replica_coding=replica_coding,
        coding_k=2,
        coding_n=2,
        partitions=partitions,
        partition_backend=backend,
    )
    system = FederatedSystem(
        trace,
        config=fast_config(),
        federation=federation,
        seed=3,
        serving=serving,
    )
    generator = ShardedWorkloadGenerator(
        [list(shard) for shard in system.shards],
        QueryWorkloadConfig(arrival_rate_per_s=1 / 120.0),
        rng=np.random.default_rng(11),
    )
    queries = generator.generate(0.0, DURATION_S)
    if kill:
        system.schedule_failure("proxy3", 2.5 * 3600.0)
    return system.run(queries, duration_s=DURATION_S)


def report_key(report):
    """Everything the federation measures, exact — no tolerances."""
    return (
        report.cross_proxy_hops,
        report.replica_hits,
        report.failovers,
        report.unroutable,
        report.replica_syncs,
        report.fault_staleness_s,
        report.failover_mean_error,
        report.failover_max_error,
        report.sensor_energy_j,
        report.proxy_energy_j,
        tuple(report.per_sensor_energy_j),
        report.pushes,
        report.cold_pushes,
        report.batches,
        report.pulls,
        report.pull_failures,
        report.packets_sent,
        report.delivery_ratio,
        report.model_refits,
        report.cache_size,
        report.cache_insertions,
        tuple(answer.latency_s for answer in report.answers),
        tuple(
            answer.value if answer.value is not None else None
            for answer in report.answers
        ),
        tuple(answer.source for answer in report.answers),
    )


def digest(key):
    return hashlib.sha256(repr(key).encode()).hexdigest()


#: ``digest(report_key(run_federated(...)))`` of the shared-kernel run
REFERENCE_DIGEST = "ff01b46830b1856f7e0df0282f7fd27173fd87249c3da81fb4614fd01571ed1c"

#: ``sha256(canonical_rows(name, jobs=1))`` of the shared-kernel campaign,
#: whose federated rows recorded ``n_partitions`` 1.0; both scenarios arm
#: standing queries, and adversarial timing stages loss bursts
SCENARIO_ROWS_DIGESTS = {
    "event storm": "7792702a0a84fc71a9df8ecb111b6e961723e9a2f6b215c2bab6d25e75c6c896",
    "adversarial timing": "6f9eb0285d3a2274b5486c20f3aefd5f3d8b985d06c9fcf998eb630de6533c1a",
}


class TestPartitionEquivalence:
    @pytest.mark.parametrize("partitions", [1, 2, 4])
    def test_partition_counts_match_shared_kernel(self, partitions):
        assert digest(report_key(run_federated(partitions))) == REFERENCE_DIGEST

    def test_process_backend_matches_shared_kernel(self):
        report = run_federated(4, backend="process")
        assert digest(report_key(report)) == REFERENCE_DIGEST

    def test_partitioned_report_records_partition_count(self):
        report = run_federated(2)
        assert report.n_partitions == 2
        assert run_federated(1).n_partitions == 1

    def test_none_partitions_rejected(self):
        with pytest.raises(ValueError, match="partitions"):
            FederationConfig(partitions=None)

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_ROWS_DIGESTS))
    @pytest.mark.parametrize(
        "partitions, backend", [(1, "inline"), (2, "inline"), (2, "process")]
    )
    def test_scenario_rows_match_shared_kernel(
        self, monkeypatch, scenario, partitions, backend
    ):
        # The smoke campaign federates 2 proxies, so 2 partitions is the
        # most it can split into.
        configure = CampaignRunner._federation_config

        def partitioned(runner, spec):
            return dataclasses.replace(
                configure(runner, spec),
                partitions=partitions,
                partition_backend=backend,
            )

        monkeypatch.setattr(CampaignRunner, "_federation_config", partitioned)
        rows = json.loads(canonical_rows(scenario, jobs=1))
        federated = [row for row in rows if row["harness"] == "federated"]
        assert federated
        for row in federated:
            assert row["n_partitions"] == partitions
            row["n_partitions"] = 1.0
        text = json.dumps(rows, sort_keys=True, indent=None, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            SCENARIO_ROWS_DIGESTS[scenario]
        )

    def test_partition_cells_contiguous_and_total(self):
        assign = partition_cells(10, 3)
        assert sorted(cell for block in assign for cell in block) == list(range(10))
        for block in assign:
            assert block == list(range(block[0], block[0] + len(block)))
        with pytest.raises(ValueError):
            partition_cells(4, 5)


class TestCodedSyncAccounting:
    """Per-sync byte/energy accounting is a partition-invariant ledger.

    The coding report's radio/flash joules are derived from the bytes
    each partition actually shipped, so splitting the kernel must leave
    every ledger field untouched — in both coding modes.
    """

    CODING_FIELDS = (
        "payload_bytes",
        "shipped_bytes",
        "full_copy_bytes",
        "decodes",
        "irrecoverable",
        "sync_radio_j",
        "sync_flash_j",
    )

    @pytest.mark.parametrize("replica_coding", ["full", "rs"])
    def test_sync_joules_match_across_partitioning(self, replica_coding):
        whole = run_federated(1, replica_coding=replica_coding).coding
        split = run_federated(2, replica_coding=replica_coding).coding
        assert whole.mode == split.mode == replica_coding
        for field in self.CODING_FIELDS:
            assert getattr(split, field) == getattr(whole, field), field
        assert whole.shipped_bytes > 0
        assert whole.sync_radio_j > 0
        assert whole.sync_flash_j > 0

    def test_full_mode_ledger_is_identity(self):
        # In full mode the counterfactual equals what was shipped: the
        # savings fraction reads 0 and the ledger is a pure byte meter.
        coding = run_federated(1).coding
        assert coding.shipped_bytes == coding.full_copy_bytes
        assert coding.bytes_saved_fraction == 0.0


class TestServingDeterminism:
    def test_serving_identical_across_backends_at_fixed_partitions(self):
        serving = ServingConfig(offered_qps=40.0, duration_s=120.0)
        inline = run_federated(4, backend="inline", serving=serving).serving
        process = run_federated(4, backend="process", serving=serving).serving
        assert inline is not None and process is not None
        assert inline.p99_latency_s == process.p99_latency_s
        assert inline.memo_hit_rate == process.memo_hit_rate
        assert inline.n_queries == process.n_queries

    def test_serving_metrics_are_recorded(self):
        serving = ServingConfig(offered_qps=40.0, duration_s=120.0)
        report = run_federated(2, serving=serving, kill=False)
        summary = report.summary()
        assert summary["serving_queries"] > 0
        assert (
            summary["serving_p50_s"]
            <= summary["serving_p95_s"]
            <= summary["serving_p99_s"]
        )
        assert 0.0 <= summary["serving_memo_hit_rate"] <= 1.0
        assert report.serving.distinct_users > 0

    def test_saturation_grows_p99(self):
        # memo_ttl_s=0 disables the cross-batch memo and a 50 ms service
        # time puts one partition's capacity (20/s) below the deduplicated
        # miss rate at high load, so the heavy run queues without bound.
        light = run_federated(
            1,
            serving=ServingConfig(
                offered_qps=4.0,
                duration_s=120.0,
                memo_ttl_s=0.0,
                service_time_s=0.05,
            ),
            kill=False,
        ).serving
        heavy = run_federated(
            1,
            serving=ServingConfig(
                offered_qps=2_000.0,
                duration_s=120.0,
                memo_ttl_s=0.0,
                service_time_s=0.05,
            ),
            kill=False,
        ).serving
        assert heavy.p99_latency_s > 10.0 * light.p99_latency_s
        assert heavy.utilization > light.utilization


class TestFaultTimeValidation:
    """Fault times are checked when scheduled, whatever the partitioning."""

    def make_system(self, partitions):
        # partitions=None leaves the config default
        federation = FederationConfig(
            n_proxies=4,
            replication_factor=1,
            **({} if partitions is None else {"partitions": partitions}),
        )
        return FederatedSystem(
            make_trace(), config=fast_config(), federation=federation, seed=3
        )

    @pytest.mark.parametrize("partitions", [None, 2])
    @pytest.mark.parametrize("at_s", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_bad_fault_times_rejected_at_call(self, partitions, at_s):
        system = self.make_system(partitions)
        with pytest.raises(ValueError, match="fault time"):
            system.schedule_failure("proxy1", at_s)
        with pytest.raises(ValueError, match="fault time"):
            system.schedule_recovery("proxy1", at_s)
        with pytest.raises(ValueError, match="fault time"):
            system.schedule_link_change(at_s, LinkConfig(loss_probability=0.5))

    @pytest.mark.parametrize("partitions", [None, 2])
    def test_fault_past_horizon_is_accepted_and_never_fires(self, partitions):
        late = self.make_system(partitions)
        late.schedule_failure("proxy1", 10 * DURATION_S)
        late.schedule_link_change(10 * DURATION_S, LinkConfig(loss_probability=0.9))
        baseline = self.make_system(partitions).run([], duration_s=DURATION_S)
        # repr: the failover error fields are NaN when nothing failed over
        assert repr(report_key(late.run([], duration_s=DURATION_S))) == repr(
            report_key(baseline)
        )
