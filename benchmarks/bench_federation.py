"""Section 5 scaling — the directory-routed multi-proxy federation.

Two sweeps over one deployment trace:

* **proxy count**: shard the same sensors across 1..P cells and check that
  federating costs nothing in energy (cells are independent stars) while
  routing stays O(log P) hops per query;
* **replication factor**: kill a wireless proxy mid-run and measure what
  replication bought — with ``replication_factor=0`` every query to the dead
  shard fails, with one wired replica the answered fraction stays above the
  no-replication baseline (the acceptance scenario for the federation).
"""

from __future__ import annotations

import numpy as np

from conftest import bench_scale, format_table, write_result
from repro.core import FederatedSystem, FederationConfig, PrestoConfig
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import QueryWorkloadConfig, ShardedWorkloadGenerator

SEED = 91
PROXY_COUNTS_SMALL = (1, 2, 4)
PROXY_COUNTS_PAPER = (1, 2, 4, 8)
REPLICATION_FACTORS = (0, 1, 2)


def make_trace(scale: str):
    n_sensors = 8 if scale == "small" else 16
    duration = 0.5 * 86_400.0 if scale == "small" else 2 * 86_400.0
    config = IntelLabConfig(n_sensors=n_sensors, duration_s=duration, epoch_s=31.0)
    return IntelLabGenerator(config, seed=SEED).generate()


def presto_config():
    return PrestoConfig(
        sample_period_s=31.0,
        refit_interval_s=3 * 3600.0,
        min_training_epochs=128,
    )


def run_federation(trace, federation, kill=None, kill_at=None, rate=1 / 300.0):
    system = FederatedSystem(
        trace, presto_config(), federation=federation, seed=SEED
    )
    workload = ShardedWorkloadGenerator(
        system.shards,
        QueryWorkloadConfig(arrival_rate_per_s=rate),
        np.random.default_rng(SEED + 1),
    )
    queries = workload.generate(3600.0, trace.config.duration_s)
    if kill is not None:
        system.schedule_failure(kill, kill_at)
    return system, system.run(queries=queries)


class TestProxyCountSweep:
    def test_sharding_scales(self):
        scale = bench_scale()
        trace = make_trace(scale)
        counts = PROXY_COUNTS_PAPER if scale == "paper" else PROXY_COUNTS_SMALL
        rows = []
        by_count = {}
        for n_proxies in counts:
            federation = FederationConfig(
                n_proxies=n_proxies, shard_policy="contiguous", replication_factor=1
            )
            _, report = run_federation(trace, federation)
            by_count[n_proxies] = report
            rows.append(
                [
                    str(n_proxies),
                    f"{report.sensor_energy_per_day_j:.2f}",
                    f"{report.mean_latency_s * 1000:.1f}",
                    f"{report.answered_fraction:.3f}",
                    f"{report.mean_error:.3f}",
                    f"{report.mean_routing_hops:.2f}",
                ]
            )
        write_result(
            "federation_proxy_sweep",
            format_table(
                ["proxies", "E/day (J)", "lat (ms)", "answered", "err", "hops/query"],
                rows,
                "Federation vs proxy count (contiguous shards, rf=1)",
            ),
        )
        # Sharding must not change what the sensors do: fleet energy is the
        # sum of independent cells, within a few percent across P.
        energies = [r.sensor_energy_j for r in by_count.values()]
        assert max(energies) < min(energies) * 1.05
        # Every configuration keeps answering nearly everything.
        assert all(r.answered_fraction > 0.9 for r in by_count.values())
        # Routing cost stays logarithmic-ish: a handful of hops, not O(P).
        assert all(r.mean_routing_hops < 8 for r in by_count.values())

    def test_benchmark_federated_run(self, benchmark):
        trace = make_trace("small")
        federation = FederationConfig(n_proxies=4, replication_factor=1)

        def run_once():
            return run_federation(trace, federation, rate=1 / 600.0)[1]

        report = benchmark.pedantic(run_once, rounds=1, iterations=1)
        assert report.n_proxies == 4


class TestFailover:
    def test_replication_keeps_answering(self):
        """Killing a wireless proxy: replication keeps the answered fraction
        above the no-replication baseline (the paper's Section 5 motivation
        for replicating wireless-proxy caches onto wired proxies)."""
        scale = bench_scale()
        trace = make_trace(scale)
        kill_at = 0.6 * trace.config.duration_s
        rows = []
        results = {}
        for rf in REPLICATION_FACTORS:
            federation = FederationConfig(
                n_proxies=4, shard_policy="contiguous", replication_factor=rf
            )
            system, report = run_federation(
                trace, federation, kill="proxy3", kill_at=kill_at
            )
            dead = set(system.shards[system.proxy_names.index("proxy3")])
            post = [
                a
                for a in report.answers
                if a.query.sensor in dead and a.query.arrival_time > kill_at
            ]
            post_answered = (
                float(np.mean([a.answered for a in post])) if post else 0.0
            )
            results[rf] = (report, post_answered)
            rows.append(
                [
                    str(rf),
                    f"{report.answered_fraction:.3f}",
                    f"{post_answered:.3f}",
                    str(report.failovers),
                    f"{report.replica_hit_rate:.2f}",
                    str(report.unroutable),
                ]
            )
        write_result(
            "federation_failover",
            format_table(
                [
                    "repl factor",
                    "answered",
                    "dead-shard answered",
                    "failovers",
                    "replica hits",
                    "unroutable",
                ],
                rows,
                "Wireless proxy killed at 60% of the run (4 proxies)",
            ),
        )
        no_repl, no_repl_post = results[0]
        # Without replication the dead shard goes dark...
        assert no_repl_post == 0.0
        assert no_repl.replica_hit_rate == 0.0
        # ...with a wired replica the federation keeps answering for it.
        for rf in (1, 2):
            report, post_answered = results[rf]
            assert report.answered_fraction > no_repl.answered_fraction
            assert post_answered > 0.0
            assert report.replica_hits > 0
