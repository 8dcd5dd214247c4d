"""Campus federation: sharded proxies, directory routing, mesh failover.

Run:  python examples/campus_federation.py

Section 5 scaled up: a campus monitors four buildings, each with its own
PRESTO proxy cell.  Two buildings have wired backhaul; two sit on an 802.11
mesh.  One :class:`FederatedSystem` runs all four cells in a single virtual
timeline:

* sensors are sharded contiguously (one building per proxy) and queries
  address *global* sensor ids, routed to the owning proxy through a skip
  graph (hops counted and charged as latency);
* every hour the mesh proxies replicate their hot summary-cache entries and
  model trackers onto a wired proxy, per the cache directory's plan;
* mid-afternoon the mesh in building 3 goes down — queries for its sensors
  transparently fail over to the wired replica, which answers from the
  state replicated before the outage.
"""

import numpy as np

from repro.core import FederatedSystem, FederationConfig, PrestoConfig
from repro.traces import (
    IntelLabConfig,
    IntelLabGenerator,
    QueryWorkloadConfig,
    ShardedWorkloadGenerator,
)

N_SENSORS = 8          # two per building
DURATION_S = 0.75 * 86_400.0
OUTAGE_S = 0.6 * DURATION_S


def main() -> None:
    trace_config = IntelLabConfig(
        n_sensors=N_SENSORS, duration_s=DURATION_S, epoch_s=31.0
    )
    trace = IntelLabGenerator(trace_config, seed=51).generate()
    federation = FederationConfig(
        n_proxies=4,
        shard_policy="contiguous",
        replication_factor=1,
        wired_fraction=0.5,
    )
    system = FederatedSystem(
        trace,
        PrestoConfig(
            sample_period_s=31.0,
            refit_interval_s=3 * 3600.0,
            min_training_epochs=128,
        ),
        federation=federation,
        seed=52,
    )
    print("campus shard map:")
    for building, (name, shard) in enumerate(zip(system.proxy_names, system.shards)):
        tier = "wired" if system.directory.proxy(name).wired else "802.11 mesh"
        print(f"  building {building}: {name} ({tier}), sensors {shard}")
    print(f"replication plan: {system.replication_plan}")

    workload = ShardedWorkloadGenerator(
        system.shards,
        QueryWorkloadConfig(arrival_rate_per_s=1 / 240.0),
        np.random.default_rng(53),
    )
    queries = workload.generate(3600.0, DURATION_S)
    mesh_proxy = system.proxy_names[-1]
    system.schedule_failure(mesh_proxy, OUTAGE_S)
    report = system.run(queries=queries)

    print(f"\n{len(report.answers)} campus-wide queries, "
          f"{100 * report.answered_fraction:.1f}% answered, "
          f"mean error {report.mean_error:.2f} C, "
          f"~{report.mean_routing_hops:.1f} routing hops/query")
    print(f"fleet energy: {report.sensor_energy_per_day_j:.2f} J/sensor-day "
          f"across {report.n_proxies} cells")

    dead = set(system.shards[-1])
    post = [
        a
        for a in report.answers
        if a.query.sensor in dead and a.query.arrival_time > OUTAGE_S
    ]
    served = sum(a.answered for a in post)
    print(f"\nmesh outage in building 3 at t={OUTAGE_S / 3600.0:.1f} h: "
          f"{report.failovers} failover queries, "
          f"{served}/{len(post)} answered from the wired replica "
          f"({report.replica_syncs} replica syncs before/after)")
    for answer in post[:3]:
        status = "ok" if answer.answered else "failed"
        print(f"  sensor {answer.query.sensor} at "
              f"t={answer.query.arrival_time / 3600.0:5.2f} h -> {status} "
              f"({answer.source.value}, {1000 * answer.latency_s:.0f} ms)")


if __name__ == "__main__":
    main()
