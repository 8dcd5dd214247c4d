"""Directory-routed multi-proxy federation.

Section 5 of the paper anticipates deployments with many proxies: sensors
are partitioned across cells, an order-preserving index routes queries to
the proxy owning a sensor, and "caches and prediction models at the
wireless proxies may need to be further replicated at the wired proxies to
enable low-latency query responses".  This module is that deployment story
as one harness:

* :func:`partition_sensors` shards a deployment trace across N proxies
  (contiguous/spatial blocks, round-robin, or variance-balanced);
* every cell is stamped out by :class:`~repro.core.system.CellBuilder` and
  runs in one of ``FederationConfig.partitions`` **independent simulation
  partitions** (``0`` for one per core).  No partition reads another's
  state: queries are pre-routed to their owner's partition and the fault
  timeline is replayed on every partition's directory copy, so each one
  runs its whole horizon alone, in-process or on a
  ``ProcessPoolExecutor``;
* query routing resolves the owning proxy through a skip graph over
  contiguous ownership runs (O(log P) hops, counted and charged as routing
  latency) and consults the :class:`~repro.index.directory.CacheDirectory`
  when the owner is dead;
* wireless proxies' hot summary-cache tails and model trackers are
  replicated to wired proxies on a sync period, and failover answers are
  served from that replicated state — *only* from it, so availability
  experiments measure what replication actually bought.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

import numpy as np

from repro.coding import CodingCounters, CodingReport, FragmentStore, serialize_payload
from repro.core.cache import CacheSnapshot
from repro.core.config import FederationConfig, PrestoConfig
from repro.core.continuous import ContinuousQuery, Notification
from repro.core.push import ProxyModelTracker
from repro.core.queries import AnswerSource, QueryAnswer
from repro.core.system import CellBuilder, PrestoCell, SystemReport, ground_truth
from repro.index.directory import CacheDirectory
from repro.index.skipgraph import SkipGraph
from repro.radio.link import LinkConfig
from repro.serving.config import ServingConfig, ServingReport
from repro.serving.frontend import BackendSegments, ServingFrontend
from repro.simulation.kernel import Simulator
from repro.simulation.process import PeriodicTask
from repro.simulation.randomness import RandomStreams
from repro.sync.clock import ClockModel
from repro.traces.intel_lab import TraceSet
from repro.traces.workload import Query, QueryKind


def partition_sensors(
    trace: TraceSet, n_proxies: int, policy: str
) -> list[list[int]]:
    """Assign the trace's global sensor ids to *n_proxies* shards.

    ``contiguous``
        Spatial blocks of neighbouring ids — one proxy per floor/hallway,
        the paper's deployment sketch.
    ``round_robin``
        Sensor ``i`` goes to proxy ``i % n_proxies`` — maximally interleaved,
        the stress case for routing.
    ``balanced``
        Greedy bin packing by per-sensor signal variance: a proxy's load
        tracks push traffic, which tracks variability, so high-variance
        sensors are spread first.

    Every shard is returned sorted ascending; shard ``k`` belongs to proxy
    ``k``.
    """
    n = trace.n_sensors
    if n_proxies < 1:
        raise ValueError(f"need >= 1 proxy, got {n_proxies}")
    if n_proxies > n:
        raise ValueError(f"{n_proxies} proxies for {n} sensors")
    if policy == "contiguous":
        shards = [list(map(int, block)) for block in np.array_split(np.arange(n), n_proxies)]
    elif policy == "round_robin":
        shards = [list(range(k, n, n_proxies)) for k in range(n_proxies)]
    elif policy == "balanced":
        variance = np.nan_to_num(np.nanvar(trace.values, axis=1), nan=0.0)
        order = np.argsort(-variance, kind="stable")
        loads = [0.0] * n_proxies
        shards = [[] for _ in range(n_proxies)]
        for sensor in order:
            lightest = min(range(n_proxies), key=lambda k: (loads[k], k))
            shards[lightest].append(int(sensor))
            loads[lightest] += float(variance[sensor])
        shards = [sorted(shard) for shard in shards]
    else:
        raise ValueError(f"unknown shard policy {policy!r}")
    if any(not shard for shard in shards):
        raise ValueError(f"policy {policy!r} produced an empty shard")
    return shards


def partition_cells(n_cells: int, k: int) -> list[list[int]]:
    """Assign cell ids to *k* simulation partitions (contiguous blocks).

    Contiguous blocks keep each partition's ownership runs contiguous too,
    so pre-routing a query to its owner's partition is a single floor
    lookup.  ``k`` must not exceed ``n_cells`` (no partition may be empty).
    """
    if not 1 <= k <= n_cells:
        raise ValueError(f"need 1 <= partitions <= {n_cells} cells, got {k}")
    return [
        [int(cell) for cell in block]
        for block in np.array_split(np.arange(n_cells), k)
    ]


@dataclass(frozen=True)
class _CellMeta:
    """Static identity of one cell — everything routing needs besides state.

    Shipped to every partition so each holds the *full* membership map
    (directory registrations, skip-graph keys) while building only its own
    cells.
    """

    cell_id: int
    name: str
    wired: bool
    response_latency_s: float


@dataclass
class FederatedCell:
    """One proxy cell plus its place in the federation."""

    cell_id: int
    cell: PrestoCell
    sensor_ids: list[int]          # sorted global ids; local i <-> sensor_ids[i]

    @property
    def name(self) -> str:
        """The cell's proxy name (the directory / routing key)."""
        return self.cell.proxy.name

    def to_local(self, global_sensor: int) -> int:
        """Translate a global sensor id into this cell's local numbering."""
        position = bisect.bisect_left(self.sensor_ids, global_sensor)
        if (
            position == len(self.sensor_ids)
            or self.sensor_ids[position] != global_sensor
        ):
            raise ValueError(f"sensor {global_sensor} not in cell {self.name}")
        return position

    def to_global(self, local_sensor: int) -> int:
        """Translate a local sensor index back to the global id."""
        return self.sensor_ids[local_sensor]


@dataclass
class SensorReplica:
    """Replicated hot state of one sensor at sync time.

    ``entries`` is a columnar :class:`CacheSnapshot` — replica queries
    aggregate over its arrays directly; row iteration stays available for
    consumers that want :class:`~repro.core.cache.CacheEntry` views.
    """

    entries: CacheSnapshot
    tracker: ProxyModelTracker | None
    synced_at_s: float


@dataclass
class ProxyReplica:
    """One wired proxy's copy of a wireless proxy's caches and models."""

    owner: str                     # the wireless proxy replicated from
    host: str                      # the wired proxy holding the copy
    sensors: dict[int, SensorReplica] = field(default_factory=dict)
    syncs: int = 0


@dataclass(frozen=True)
class FailoverEvent:
    """One proxy death and how stale its replicated state was at that instant.

    ``replica_staleness_s`` is the age of the newest *entry* any live host
    holds for the dead proxy — the horizon beyond which failover answers
    must extrapolate.  It compounds sync lag with model-driven push
    suppression (a well-predicted sensor legitimately ships nothing for
    hours), so it bounds answer extrapolation depth, not sync recency.
    ``inf`` when nothing was replicated (no plan, or death before the
    first sync): failover then has nothing to serve from.
    """

    proxy: str
    at_s: float
    replica_staleness_s: float


@dataclass
class FederatedReport(SystemReport):
    """A :class:`SystemReport` aggregated across cells, plus routing metrics."""

    n_proxies: int = 1
    shard_policy: str = "contiguous"
    replication_factor: int = 0
    cross_proxy_hops: int = 0      # total skip-graph hops over all queries
    replica_hits: int = 0          # failover queries answered from a replica
    failovers: int = 0             # queries whose owning proxy was dead
    unroutable: int = 0            # queries with no live server at all
    replica_syncs: int = 0
    fault_staleness_s: tuple[float, ...] = ()   # one entry per proxy death
    failover_mean_error: float = float("nan")   # |answer - truth| over failovers
    failover_max_error: float = float("nan")
    cell_reports: list[SystemReport] = field(default_factory=list)
    n_partitions: int = 1          # simulation partitions the run executed on
    serving: ServingReport | None = None        # front-end tier, when enabled
    coding: CodingReport | None = None          # replica-sync byte/decode ledger

    @property
    def mean_routing_hops(self) -> float:
        """Average skip-graph hops per routed query (NaN with no queries)."""
        if not self.answers:
            return float("nan")
        return self.cross_proxy_hops / len(self.answers)

    @property
    def replica_hit_rate(self) -> float:
        """Fraction of failover queries a replica could answer.

        NaN when no failovers happened — a run without proxy deaths is no
        evidence about replication (same convention as
        :attr:`SystemReport.answered_fraction`).
        """
        if self.failovers == 0:
            return float("nan")
        return self.replica_hits / self.failovers

    @property
    def max_replica_staleness_s(self) -> float:
        """Worst replica age across the run's proxy deaths (NaN: no deaths)."""
        if not self.fault_staleness_s:
            return float("nan")
        return max(self.fault_staleness_s)

    def summary(self) -> dict[str, float]:
        """Flat dict: the single-cell summary plus routing metrics."""
        base = super().summary()
        base.update(
            {
                "n_proxies": float(self.n_proxies),
                "mean_routing_hops": self.mean_routing_hops,
                "replica_hit_rate": self.replica_hit_rate,
                "failovers": float(self.failovers),
                "unroutable": float(self.unroutable),
                "max_replica_staleness_s": self.max_replica_staleness_s,
                "failover_mean_error": self.failover_mean_error,
                "n_partitions": float(self.n_partitions),
            }
        )
        if self.serving is not None:
            base.update(self.serving.summary())
        if self.coding is not None:
            base.update(self.coding.summary())
        return base


class _RoutingCore:
    """Directory-routed query answering shared by the coordinator and partitions.

    Both :class:`FederatedSystem` (the coordinator) and
    :class:`_CellPartition` (one simulation partition) expose the same
    member names — ``federation``, ``config``, ``trace``, ``sim``,
    ``directory``, ``_owners``, ``_by_name``, ``_replicas``,
    ``replication_plan``, the routing counters and ``_query_log`` — so one
    implementation of routing, failover answering and replica syncing
    serves both.  The coordinator builds no cells (its ``_by_name`` is
    empty); a partition's ``_by_name`` holds only its own cells, and every
    query is pre-routed to its owner's partition, so the owner (or its
    replicas' metadata) is always resolvable locally.
    """

    # -- replication ----------------------------------------------------------------

    def _proxy_alive(self, name: str) -> bool:
        """Directory liveness, in predicate form for the fragment store."""
        return self.directory.proxy(name).alive

    @property
    def _syncs_state(self) -> bool:
        """Whether this core has any replica state to ship on the cadence."""
        if self._fragments is not None:
            return bool(self.replication_plan)
        return bool(self._replicas)

    def _snapshot_owner(self, owner: str, now: float) -> dict[int, SensorReplica]:
        """One owner's hot state at sync time (shared by both coding modes)."""
        hot = self.federation.hot_entries_per_sensor
        fc = self._by_name[owner]
        snapshot: dict[int, SensorReplica] = {}
        for local, global_id in enumerate(fc.sensor_ids):
            tail, tracker = fc.cell.proxy.export_replica_state(local, hot)
            if not tail and tracker is None:
                continue
            snapshot[global_id] = SensorReplica(
                entries=tail, tracker=tracker, synced_at_s=now
            )
        return snapshot

    def _sync_replicas(self) -> None:
        """Ship each live wireless proxy's hot state to its wired replicas.

        A replica only ever holds state from *before* a failure — sync skips
        dead owners (nothing to ship) and dead hosts (nowhere to ship).
        Each owner is snapshotted once per sync; in ``full`` mode the
        (immutable) snapshot object is shared by all its replica hosts, in
        ``rs`` mode its serialized form is striped into fragments and only
        the live hosts' fragments are shipped.  Either way the serialized
        payload and shipped bytes land in the coding ledger — fragment
        bytes replace full-copy bytes in the per-sync radio/flash
        accounting, which is the byte claim ``bench_coding`` gates.
        """
        now = self.sim.now
        fed = self.federation
        for owner, hosts in self.replication_plan.items():
            if not self.directory.proxy(owner).alive:
                continue
            if self._fragments is not None:
                if not self._fragments.live_slots(owner, self._proxy_alive):
                    continue
                snapshot = self._snapshot_owner(owner, now)
                payload = serialize_payload(snapshot)
                shipped, live_hosts = self._fragments.sync(
                    owner, payload, self._proxy_alive
                )
                self._coding.payload_bytes += len(payload)
                self._coding.shipped_bytes += shipped
                self._coding.full_copy_bytes += len(payload) * min(
                    fed.coding_n - fed.coding_k + 1, live_hosts
                )
                self.replica_syncs += live_hosts
                continue
            live_replicas = [
                self._replicas[(host, owner)]
                for host in hosts
                if self.directory.proxy(host).alive
            ]
            if not live_replicas:
                continue
            snapshot = self._snapshot_owner(owner, now)
            payload = serialize_payload(snapshot)
            shipped = len(payload) * len(live_replicas)
            self._coding.payload_bytes += len(payload)
            self._coding.shipped_bytes += shipped
            self._coding.full_copy_bytes += shipped
            for replica in live_replicas:
                replica.sensors.update(snapshot)
                replica.syncs += 1
                self.replica_syncs += 1

    def _replica_staleness(self, proxy_name: str) -> float:
        """Age of the newest entry live hosts hold for *proxy_name* now.

        In ``rs`` mode the newest entry is read off the reconstructed
        snapshot (decodable generations merged oldest-first); while >= k
        fragments of the latest generation survive, this equals the
        full-copy answer for the same host liveness.
        """
        newest = float("-inf")
        if self._fragments is not None:
            merged = self._fragments.reconstruct(proxy_name, self._proxy_alive)
            for state in (merged or {}).values():
                if state.entries:
                    newest = max(newest, state.entries[-1].timestamp)
        else:
            for host in self.replication_plan.get(proxy_name, []):
                if not self.directory.proxy(host).alive:
                    continue
                replica = self._replicas.get((host, proxy_name))
                if replica is None:
                    continue
                for state in replica.sensors.values():
                    if state.entries:
                        newest = max(newest, state.entries[-1].timestamp)
        if newest == float("-inf"):
            return float("inf")
        return max(self.sim.now - newest, 0.0)

    # -- query routing ----------------------------------------------------------------

    def route_query(self, query: Query) -> QueryAnswer:
        """Route one global query to its owner or a live replica and log it.

        Queries enter the federation at the skip graph's entry node.  When
        the floor search ends there (``hops == 0`` — always, with a single
        proxy), the query is served where it arrived and pays nothing
        beyond the cell's own processing; otherwise it pays the routing
        hops *plus* the serving proxy's nominal response latency — which is
        what makes a live 802.11-mesh proxy slow (0.25 s class) and a
        wired replica taking over for it *faster*, the Section 5 argument
        for replicating onto wired proxies.
        """
        fed = self.federation
        if not 0 <= query.sensor < self.trace.n_sensors:
            self.unroutable += 1
            answer = QueryAnswer(
                query=query, value=None, source=AnswerSource.FAILED, latency_s=0.0
            )
            self._query_log.append((query, answer))
            return answer
        owner_name, hops = self._owners.floor_value(float(query.sensor))
        self.cross_proxy_hops += hops
        routing_latency = hops * fed.hop_latency_s
        owner = self.directory.proxy(owner_name)
        if owner.alive:
            if hops > 0:
                routing_latency += owner.response_latency_s
            fc = self._by_name[owner_name]
            local = fc.cell.run_query(self._rewrite(query, fc))
            answer = QueryAnswer(
                query=query,
                value=local.value,
                source=local.source,
                latency_s=local.latency_s + routing_latency,
                believed_std=local.believed_std,
                sensor_energy_j=local.sensor_energy_j,
                pulled_bytes=local.pulled_bytes,
            )
        else:
            self.failovers += 1
            self._failover_positions.append(len(self._query_log))
            answer = self._failover_answer(query, owner_name, routing_latency)
        self._query_log.append((query, answer))
        return answer

    @staticmethod
    def _rewrite(query: Query, fc: FederatedCell) -> Query:
        """Rewrite a global query into the cell's local sensor numbering."""
        return dataclasses.replace(query, sensor=fc.to_local(query.sensor))

    def _failover_answer(
        self, query: Query, owner_name: str, routing_latency: float
    ) -> QueryAnswer:
        """Answer for a dead owner from the best live replica, or fail."""
        best = self.directory.best_server(query.sensor)
        base_latency = self.config.proxy_processing_s + routing_latency
        if best is None or best.name == owner_name:
            self.unroutable += 1
            return QueryAnswer(
                query=query,
                value=None,
                source=AnswerSource.FAILED,
                latency_s=base_latency,
            )
        if self._fragments is not None:
            merged = self._fragments.reconstruct(owner_name, self._proxy_alive)
            if merged is None:
                # Fewer than k fragments survive in every generation: the
                # stripe is lost and failover degrades to the unroutable
                # path, exactly as if no replica host were left.
                self._coding.irrecoverable += 1
                self.unroutable += 1
                return QueryAnswer(
                    query=query,
                    value=None,
                    source=AnswerSource.FAILED,
                    latency_s=base_latency,
                )
            state = merged.get(query.sensor)
        else:
            replica = self._replicas[(best.name, owner_name)]
            state = replica.sensors.get(query.sensor)
        latency = base_latency + best.response_latency_s
        estimate = self._replica_estimate(state, query) if state else None
        if estimate is None:
            return QueryAnswer(
                query=query,
                value=None,
                source=AnswerSource.FAILED,
                latency_s=latency,
            )
        value, std, source = estimate
        self.replica_hits += 1
        return QueryAnswer(
            query=query,
            value=value,
            source=source,
            latency_s=latency,
            believed_std=std,
        )

    def _replica_estimate(
        self, state: SensorReplica, query: Query
    ) -> tuple[float, float, AnswerSource] | None:
        """Best-effort answer from replicated state frozen at sync time."""
        period = self.config.sample_period_s
        if query.kind is QueryKind.NOW:
            last = state.entries[-1] if state.entries else None
            if last is None:
                return None
            steps = int(round((query.arrival_time - last.timestamp) / period))
            if state.tracker is not None and steps >= 1:
                value, std = state.tracker.forecast_value(steps)
                return value, max(std, last.std), AnswerSource.PREDICTION
            # No model replicated: serve the last synced value, widened by
            # its age (random-walk growth at the push tolerance scale).
            staleness = self.config.push_delta * np.sqrt(max(steps, 0) / 3.0)
            return last.value, last.std + staleness, AnswerSource.PREDICTION
        if query.kind is QueryKind.PAST_POINT:
            position = state.entries.nearest(query.target_time, tolerance_s=period)
            if position is None:
                return None
            best_entry = state.entries[position]
            source = (
                AnswerSource.CACHE if best_entry.is_actual else AnswerSource.PREDICTION
            )
            return best_entry.value, best_entry.std, source
        start = min(query.target_time, query.arrival_time)
        end = min(start + query.window_s, query.arrival_time)
        window = state.entries.window_slice(start, end)
        data = state.entries.values[window]
        if data.size == 0:
            return None
        worst_std = float(state.entries.stds[window].max())
        if query.aggregate == "mean":
            value = float(np.mean(data))
        elif query.aggregate == "min":
            value = float(np.min(data))
        else:
            value = float(np.max(data))
        all_actual = bool(state.entries.actual_mask()[window].all())
        source = AnswerSource.CACHE if all_actual else AnswerSource.PREDICTION
        return value, worst_std, source


def _plan_directory(
    federation: FederationConfig,
    cell_meta: list[_CellMeta],
    shards: list[list[int]],
) -> tuple[CacheDirectory, dict[str, list[str]]]:
    """The cluster's cache directory and its replication (or fragment) plan.

    Planning records replica hosts in the directory, so the coordinator and
    every partition each plan on their own copy; the spread is
    deterministic, so every copy holds the same plan.
    """
    directory = CacheDirectory(replication_factor=federation.replication_factor)
    for meta in cell_meta:
        directory.register_proxy(
            meta.name, wired=meta.wired, response_latency_s=meta.response_latency_s
        )
        directory.publish_cache(meta.name, set(shards[meta.cell_id]))
    if federation.replica_coding == "rs":
        plan = directory.plan_fragment_placement(
            federation.coding_k, federation.coding_n
        )
    else:
        plan = directory.plan_replication()
    return directory, plan


def _ownership(
    shards: list[list[int]], cell_meta: list[_CellMeta], seed: int
) -> tuple[dict[int, str], SkipGraph]:
    """Flat sensor -> owner map plus the skip graph routing over it.

    The skip graph has one node per contiguous run of sensors owned by the
    same proxy, so "who owns sensor s" is a floor search — O(log P) for
    contiguous shards, never a dict scan.  It draws from the seed's
    ``federation.skipgraph`` stream, so the coordinator and every partition
    hold graphs with identical structure and hop counts.
    """
    owner_of = {
        sensor: cell_meta[cell_id].name
        for cell_id, ids in enumerate(shards)
        for sensor in ids
    }
    owners = SkipGraph(rng=RandomStreams(seed=seed).get("federation.skipgraph"))
    for sensor in range(len(owner_of)):
        if sensor == 0 or owner_of[sensor] != owner_of[sensor - 1]:
            owners.insert(float(sensor), owner_of[sensor])
    return owner_of, owners


class FederatedSystem(_RoutingCore):
    """A cluster of PRESTO cells behind one directory-routed query front.

    With ``n_proxies=1`` this degenerates to exactly the single-cell
    :class:`~repro.core.system.PrestoSystem` (same seed, same trace — same
    energy, latency and answers), which is the correctness anchor for
    everything the federation adds.

    Proxy death is modelled at the routing layer: a dead proxy's cell keeps
    simulating (its in-simulation state is what the proxy *would* hold, and
    is what a recovered proxy resumes with), but queries can no longer reach
    it — they fail over to the lowest-latency wired proxy holding a replica,
    which answers **only** from the state replicated before the failure.

    The cells themselves are built and run inside the simulation partitions
    at :meth:`run` time; this object is the coordinator that plans, routes
    queries to partitions and merges their results.
    """

    def __init__(
        self,
        trace: TraceSet,
        config: PrestoConfig | None = None,
        federation: FederationConfig | None = None,
        seed: int = 0,
        model_clocks: bool = False,
        clock_model: ClockModel | None = None,
        serving: ServingConfig | None = None,
    ) -> None:
        self.trace = trace
        self.federation = federation or FederationConfig()
        fed = self.federation
        self.shards = partition_sensors(trace, fed.n_proxies, fed.shard_policy)
        self.seed = int(seed)
        self.model_clocks = model_clocks
        self.clock_model = clock_model
        self.serving = serving
        self.n_partitions = fed.resolve_partitions()
        self.sim = Simulator()
        self.streams = RandomStreams(seed=seed)
        self.config = CellBuilder(config=config).resolve_config(trace)
        self._cell_meta = [
            _CellMeta(
                cell_id=cell_id,
                name=f"proxy{cell_id}",
                wired=cell_id < fed.n_wired,
                response_latency_s=(
                    fed.wired_latency_s
                    if cell_id < fed.n_wired
                    else fed.wireless_latency_s
                ),
            )
            for cell_id in range(fed.n_proxies)
        ]
        self._by_name: dict[str, FederatedCell] = {}

        # Cluster-wide cache placement and replication planning.  Replicas
        # and fragments are owner-local to the partitions; the inline
        # backend absorbs them into this view after each partition runs.
        self.directory, self.replication_plan = _plan_directory(
            fed, self._cell_meta, self.shards
        )
        self._coding = CodingCounters()
        self._replicas: dict[tuple[str, str], ProxyReplica] = {}
        self._fragments: FragmentStore | None = (
            FragmentStore(fed.coding_k, fed.coding_n, self.replication_plan)
            if fed.replica_coding == "rs"
            else None
        )
        self._owner_map, self._owners = _ownership(
            self.shards, self._cell_meta, self.seed
        )

        self.cross_proxy_hops = 0
        self.replica_hits = 0
        self.failovers = 0
        self.unroutable = 0
        self.replica_syncs = 0
        self.failover_events: list[FailoverEvent] = []
        #: (global sensor, notification) pairs of the standing queries, in
        #: cell order — filled by :meth:`run`
        self.notifications: list[tuple[int, Notification]] = []
        self._query_log: list[tuple[Query, QueryAnswer]] = []
        self._failover_positions: list[int] = []
        self._failures: list[tuple[float, str]] = []
        self._recoveries: list[tuple[float, str]] = []
        self._link_events: list[tuple[float, LinkConfig, tuple[int, ...] | None]] = []
        self._standing: list[ContinuousQuery] = []

    # -- membership & failure injection -------------------------------------------

    @property
    def proxy_names(self) -> list[str]:
        """All proxy names, cell order (wired first)."""
        return [meta.name for meta in self._cell_meta]

    def owner_of(self, sensor: int) -> str:
        """Resolve the owning proxy of a global sensor id (skip-graph route)."""
        name, _ = self._owners.floor_value(float(sensor))
        return name

    def fail_proxy(self, proxy_name: str) -> None:
        """Take a proxy offline right now (queries start failing over).

        Records a :class:`FailoverEvent` with the replica staleness at the
        instant of death — how far back the newest replicated entry sits,
        the extrapolation horizon cascading-failure scenarios chart
        against the sync interval (see :class:`FailoverEvent` for what the
        age does and does not include).
        """
        self._validate_proxy(proxy_name)
        self.failover_events.append(
            FailoverEvent(
                proxy=proxy_name,
                at_s=self.sim.now,
                replica_staleness_s=self.replica_staleness_s(proxy_name),
            )
        )
        self.directory.mark_down(proxy_name)

    def replica_staleness_s(self, proxy_name: str) -> float:
        """Age of the newest entry live hosts hold for *proxy_name* now.

        ``inf`` when no live host holds any replicated entry for the proxy
        — replication was unplanned, never synced, or every host is dead.
        The age is bounded by ``replica_sync_interval_s`` (plus the cache
        tail's own lag) while syncs keep completing, which is what the
        ``staleness_vs_sync`` scenario sweep charts against replication
        cost.
        """
        self._validate_proxy(proxy_name)
        return self._replica_staleness(proxy_name)

    def recover_proxy(self, proxy_name: str) -> None:
        """Bring a proxy back online."""
        self._validate_proxy(proxy_name)
        self.directory.mark_up(proxy_name)

    def _validate_proxy(self, proxy_name: str) -> None:
        if not any(meta.name == proxy_name for meta in self._cell_meta):
            raise ValueError(
                f"unknown proxy {proxy_name!r}; have {self.proxy_names}"
            )

    @staticmethod
    def _fault_time(at_s: float) -> float:
        """*at_s* as a float, rejecting NaN, infinite and negative times.

        Finite times at or past the run horizon stay legal: they are
        accepted here and simply never fire.
        """
        at = float(at_s)
        if not math.isfinite(at) or at < 0.0:
            raise ValueError(f"fault time must be finite and >= 0, got {at_s!r}")
        return at

    def schedule_failure(self, proxy_name: str, at_s: float) -> None:
        """Kill *proxy_name* at virtual time *at_s* during :meth:`run`."""
        self._validate_proxy(proxy_name)
        self._failures.append((self._fault_time(at_s), proxy_name))

    def schedule_recovery(self, proxy_name: str, at_s: float) -> None:
        """Recover *proxy_name* at virtual time *at_s* during :meth:`run`."""
        self._validate_proxy(proxy_name)
        self._recoveries.append((self._fault_time(at_s), proxy_name))

    def schedule_link_change(
        self,
        at_s: float,
        link_config: LinkConfig,
        cell_indices: tuple[int, ...] | list[int] | None = None,
    ) -> None:
        """Swap the radio link config of the targeted cells at *at_s*.

        The change is recorded and each partition replays it on its own
        kernel before any cell task is armed, so it wins equal-time ties
        against the cells' own events.  ``cell_indices=None`` targets
        every cell.
        """
        at = self._fault_time(at_s)
        cells = tuple(int(c) for c in cell_indices) if cell_indices is not None else None
        if cells is not None:
            for cell_id in cells:
                if not 0 <= cell_id < self.federation.n_proxies:
                    raise ValueError(f"cell index {cell_id} out of range")
        self._link_events.append((at, link_config, cells))

    def arm_standing_query(self, query: ContinuousQuery) -> None:
        """Register a standing query on global sensor ``query.sensor``.

        The owning cell's proxy evaluates it from the start of :meth:`run`;
        its firings land in :attr:`notifications`.
        """
        if not 0 <= query.sensor < self.trace.n_sensors:
            raise ValueError(
                f"standing query on sensor {query.sensor}; have "
                f"{self.trace.n_sensors} sensors"
            )
        self._standing.append(query)

    # -- replication ----------------------------------------------------------------

    def replica_for(self, host: str, owner: str) -> ProxyReplica:
        """The replica of *owner* held at *host* (KeyError if not planned).

        Replicas are owner-local to their partitions; the inline backend
        absorbs them into this coordinator view after each partition runs,
        while the process backend does not ship them back at all (answer
        content is unaffected — failovers are served inside the owner's
        partition).
        """
        return self._replicas[(host, owner)]

    # -- main entry ---------------------------------------------------------------------

    def run(
        self,
        queries: list[Query] | None = None,
        duration_s: float | None = None,
    ) -> FederatedReport:
        """Replay the trace across all cells, routing *queries* globally.

        Cells execute on independent per-partition kernels.  Every query is
        pre-routed (hop-free flat map) to the partition that owns its
        sensor, and the partition re-resolves ownership on its own
        skip-graph copy.  Fault events are replayed on every partition's
        directory copy at identical virtual times, which keeps liveness
        consistent without mid-run communication; replica syncs are
        owner-local.  The merged log is ordered by each query's global
        firing rank — the (time, seq) order of one kernel holding every
        query — so the report is identical at every partition count and
        on both backends.
        """
        queries = queries or []
        horizon = float(
            duration_s if duration_s is not None else self.trace.config.duration_s
        )
        fed = self.federation
        initial_down = tuple(
            meta.name
            for meta in self._cell_meta
            if not self.directory.proxy(meta.name).alive
        )
        assign = partition_cells(fed.n_proxies, self.n_partitions)
        partition_of_sensor = [0] * self.trace.n_sensors
        for p, cell_ids in enumerate(assign):
            for cell_id in cell_ids:
                for sensor in self.shards[cell_id]:
                    partition_of_sensor[sensor] = p
        routed: dict[int, list[tuple[int, Query]]] = {p: [] for p in range(len(assign))}
        oob: list[tuple[int, Query, QueryAnswer]] = []
        order = sorted(
            range(len(queries)), key=lambda i: queries[i].arrival_time
        )
        position = 0
        for i in order:
            query = queries[i]
            if query.arrival_time >= horizon:
                continue
            if not 0 <= query.sensor < self.trace.n_sensors:
                # Unroutable before it ever reaches a partition — same
                # answer route_query produces, logged at its firing rank.
                answer = QueryAnswer(
                    query=query,
                    value=None,
                    source=AnswerSource.FAILED,
                    latency_s=0.0,
                )
                oob.append((position, query, answer))
            else:
                routed[partition_of_sensor[query.sensor]].append((position, query))
            position += 1
        context = _PartitionContext(
            trace=self.trace,
            config=self.config,
            federation=fed,
            seed=self.seed,
            model_clocks=self.model_clocks,
            clock_model=self.clock_model,
            shards=[list(ids) for ids in self.shards],
            cell_meta=list(self._cell_meta),
            horizon=horizon,
            failures=[(at, name) for at, name in self._failures if at < horizon],
            recoveries=[(at, name) for at, name in self._recoveries if at < horizon],
            initial_down=initial_down,
            link_events=list(self._link_events),
            standing=list(self._standing),
        )
        prerun_events = list(self.failover_events)
        results: list[_PartitionResult] | None = None
        if len(assign) > 1 and fed.partition_backend in ("auto", "process"):
            results = self._run_process(context, assign, routed)
        if results is None:
            results = self._run_inline(context, assign, routed)
        report = self._merge_partitions(horizon, results, oob, prerun_events)
        return self._attach_serving(
            report, horizon, initial_down, partition_of_sensor
        )

    def _run_inline(
        self,
        context: _PartitionContext,
        assign: list[list[int]],
        routed: dict[int, list[tuple[int, Query]]],
    ) -> list[_PartitionResult]:
        """In-process backend: run each partition to the horizon in turn.

        Partitions never read each other's state, so running them one
        after another gives the same results as the process pool.  Each
        partition's replicas and fragments are absorbed into the
        coordinator's view once it has finished.
        """
        results = []
        for p, cell_ids in enumerate(assign):
            part = _CellPartition(context, cell_ids, routed[p])
            results.append(part.run())
            self._replicas.update(part._replicas)
            if self._fragments is not None and part._fragments is not None:
                self._fragments.absorb(part._fragments)
        return results

    def _run_process(
        self,
        context: _PartitionContext,
        assign: list[list[int]],
        routed: dict[int, list[tuple[int, Query]]],
    ) -> list[_PartitionResult] | None:
        """Process-pool backend: one whole-horizon task per partition.

        The shared context (trace included) ships once per worker via the
        pool initializer; each task carries only its cell ids and
        pre-routed queries.  Returns ``None`` on any pool failure so the
        caller falls back to the inline backend — results are identical,
        only wall-clock differs.
        """
        k = len(assign)
        try:
            with ProcessPoolExecutor(
                max_workers=min(k, os.cpu_count() or 1),
                initializer=_partition_pool_init,
                initargs=(context,),
            ) as pool:
                futures = {
                    pool.submit(_partition_pool_run, (cell_ids, routed[p])): p
                    for p, cell_ids in enumerate(assign)
                }
                results: list[_PartitionResult | None] = [None] * k
                for future in as_completed(futures):
                    results[futures[future]] = future.result()
            assert all(result is not None for result in results)
            return results  # type: ignore[return-value]
        except Exception:
            return None

    def _failover_errors(
        self, truths: list[float | None]
    ) -> tuple[float, float]:
        """(mean, max) |answer - truth| over answered failover queries.

        This is the replica-answer fidelity bound: how far serving from
        state frozen at the last sync diverged from the dead cell's
        in-simulation truth.  NaN when no failover produced a comparable
        answer.
        """
        errors = []
        for position in self._failover_positions:
            answer = self._query_log[position][1]
            truth = truths[position]
            if answer.value is None or truth is None or np.isnan(truth):
                continue
            errors.append(abs(answer.value - truth))
        if not errors:
            return float("nan"), float("nan")
        return float(np.mean(errors)), float(np.max(errors))

    def _merge_partitions(
        self,
        horizon: float,
        results: list[_PartitionResult],
        oob: list[tuple[int, Query, QueryAnswer]],
        prerun_events: list[FailoverEvent],
    ) -> FederatedReport:
        """Fold partition results into coordinator state and one report.

        Partitions hold contiguous ascending blocks of cells and *results*
        is in partition order, so concatenating their per-cell lists gives
        cell order.
        """
        entries: list[tuple[int, Query, QueryAnswer, bool]] = [
            (pos, query, answer, False) for pos, query, answer in oob
        ]
        for result in results:
            entries.extend(result.log)
        entries.sort(key=lambda entry: entry[0])
        self._query_log = [(query, answer) for _, query, answer, _ in entries]
        self._failover_positions = [
            i for i, (_, _, _, is_failover) in enumerate(entries) if is_failover
        ]
        self.cross_proxy_hops += sum(r.cross_proxy_hops for r in results)
        self.replica_hits += sum(r.replica_hits for r in results)
        self.failovers += sum(r.failovers for r in results)
        self.unroutable += sum(r.unroutable for r in results) + len(oob)
        self.replica_syncs += sum(r.replica_syncs for r in results)
        for result in results:
            self._coding.absorb(result.coding)
        fault_events = sorted(
            (index, event) for result in results for index, event in result.fault_events
        )
        self.failover_events = prerun_events + [event for _, event in fault_events]
        self.notifications = [pair for r in results for pair in r.notifications]
        cell_reports = [report for r in results for report in r.cell_reports]
        packets = [counts for r in results for counts in r.packets]

        answers = [answer for _, answer in self._query_log]
        truths = [ground_truth(self.trace, query) for query, _ in self._query_log]
        failover_mean_error, failover_max_error = self._failover_errors(truths)
        by_category: dict[str, float] = {}
        for report in cell_reports:
            for category, joules in report.sensor_energy_by_category.items():
                by_category[category] = by_category.get(category, 0.0) + joules
        per_sensor = [0.0] * self.trace.n_sensors
        for ids, report in zip(self.shards, cell_reports):
            for local, global_id in enumerate(ids):
                per_sensor[global_id] = report.per_sensor_energy_j[local]
        packets_sent = sum(sent for sent, _ in packets)
        packets_delivered = sum(delivered for _, delivered in packets)
        return FederatedReport(
            duration_s=horizon,
            n_sensors=self.trace.n_sensors,
            answers=answers,
            truths=truths,
            sensor_energy_j=sum(r.sensor_energy_j for r in cell_reports),
            sensor_energy_by_category=by_category,
            proxy_energy_j=sum(r.proxy_energy_j for r in cell_reports),
            per_sensor_energy_j=per_sensor,
            pushes=sum(r.pushes for r in cell_reports),
            cold_pushes=sum(r.cold_pushes for r in cell_reports),
            batches=sum(r.batches for r in cell_reports),
            pulls=sum(r.pulls for r in cell_reports),
            pull_failures=sum(r.pull_failures for r in cell_reports),
            packets_sent=packets_sent,
            delivery_ratio=(
                packets_delivered / packets_sent if packets_sent else 1.0
            ),
            model_refits=sum(r.model_refits for r in cell_reports),
            cache_size=sum(r.cache_size for r in cell_reports),
            cache_insertions=sum(r.cache_insertions for r in cell_reports),
            cache_refinements=sum(r.cache_refinements for r in cell_reports),
            cache_evictions=sum(r.cache_evictions for r in cell_reports),
            archive_aged_segments=sum(
                r.archive_aged_segments for r in cell_reports
            ),
            archive_worst_level=max(
                (r.archive_worst_level for r in cell_reports), default=0
            ),
            segments_offloaded=sum(r.segments_offloaded for r in cell_reports),
            offload_bytes=sum(r.offload_bytes for r in cell_reports),
            remote_reads=sum(r.remote_reads for r in cell_reports),
            # Sensor-count-weighted mean: cells score their own sensors'
            # readings, which are (near-)uniform across the fleet.
            archive_fidelity_retained=(
                sum(r.archive_fidelity_retained * r.n_sensors for r in cell_reports)
                / max(1, sum(r.n_sensors for r in cell_reports))
            ),
            flash_capacity_bytes=sum(r.flash_capacity_bytes for r in cell_reports),
            n_proxies=self.federation.n_proxies,
            shard_policy=self.federation.shard_policy,
            replication_factor=self.federation.replication_factor,
            cross_proxy_hops=self.cross_proxy_hops,
            replica_hits=self.replica_hits,
            failovers=self.failovers,
            unroutable=self.unroutable,
            replica_syncs=self.replica_syncs,
            fault_staleness_s=tuple(
                event.replica_staleness_s for event in self.failover_events
            ),
            failover_mean_error=failover_mean_error,
            failover_max_error=failover_max_error,
            cell_reports=cell_reports,
            n_partitions=self.n_partitions,
            coding=self._coding_report(),
        )

    def _coding_report(self) -> CodingReport:
        """The run's replica-sync byte ledger, priced at the node profile.

        Shipped bytes are charged once on the radio (backhaul transmit)
        and once on the host flash (fragment/copy write) at the profile's
        per-byte rates — so in ``rs`` mode fragment bytes replace
        full-copy bytes in both energy terms.
        """
        fed = self.federation
        profile = self.config.node_profile
        counters = self._coding
        return CodingReport(
            mode=fed.replica_coding,
            k=fed.coding_k,
            n=fed.coding_n,
            payload_bytes=counters.payload_bytes,
            shipped_bytes=counters.shipped_bytes,
            full_copy_bytes=counters.full_copy_bytes,
            decodes=counters.decodes,
            irrecoverable=counters.irrecoverable,
            sync_radio_j=counters.shipped_bytes * profile.radio.tx_energy_per_byte_j,
            sync_flash_j=counters.shipped_bytes * profile.flash.write_energy_per_byte_j,
        )

    # -- serving front-end ----------------------------------------------------------

    def _attach_serving(
        self,
        report: FederatedReport,
        horizon: float,
        initial_down: tuple[str, ...],
        partition_of_sensor: list[int],
    ) -> FederatedReport:
        """Run the query-serving front-end model against this run's topology.

        The front-end is an analytic tier layered over the federation's
        *static* routing facts (ownership, hop counts, response latencies,
        the fault timeline) — it draws its own Zipf-skewed user traffic
        from a dedicated coordinator stream, so the serving numbers are
        identical whichever partition backend executed the cells.
        """
        if self.serving is None:
            return report
        n = self.trace.n_sensors
        resp = {meta.name: meta.response_latency_s for meta in self._cell_meta}
        owner_names = [self._owner_map[sensor] for sensor in range(n)]
        hops = np.array(
            [self._owners.search(float(sensor)).hops for sensor in range(n)],
            dtype=np.int64,
        )

        # Piecewise-constant backend cost: one segment per fault-timeline
        # state.  A miss pays processing + routing hops + the serving
        # proxy's response latency; with the owner dead it is served by the
        # lowest-latency live replica host, or not at all.
        alive = {
            meta.name: meta.name not in initial_down for meta in self._cell_meta
        }
        proc = self.config.proxy_processing_s
        hop_latency = self.federation.hop_latency_s
        # In rs mode a dead owner is only servable while >= coding_k of its
        # fragment slots sit on live hosts (enough to decode); a whole copy
        # needs just one live host.
        need_hosts = (
            self.federation.coding_k
            if self.federation.replica_coding == "rs"
            else 1
        )

        def snapshot() -> tuple[np.ndarray, np.ndarray]:
            latency = np.empty(n, dtype=np.float64)
            served = np.ones(n, dtype=bool)
            for sensor in range(n):
                owner = owner_names[sensor]
                base = proc + float(hops[sensor]) * hop_latency
                if alive[owner]:
                    latency[sensor] = base + (
                        resp[owner] if hops[sensor] > 0 else 0.0
                    )
                    continue
                hosts = [
                    host
                    for host in self.replication_plan.get(owner, [])
                    if alive[host]
                ]
                if len(hosts) >= need_hosts:
                    best = min(hosts, key=lambda host: (resp[host], host))
                    latency[sensor] = base + resp[best]
                else:
                    latency[sensor] = base
                    served[sensor] = False
            return latency, served

        changes: list[tuple[float, str, bool]] = [
            (at, name, False) for at, name in self._failures if at < horizon
        ]
        changes += [
            (at, name, True) for at, name in self._recoveries if at < horizon
        ]
        changes.sort(key=lambda change: change[0])  # stable: fails stay first
        boundaries = [0.0]
        states = [snapshot()]
        index = 0
        while index < len(changes):
            at = changes[index][0]
            while index < len(changes) and changes[index][0] == at:
                _, name, up = changes[index]
                alive[name] = up
                index += 1
            boundaries.append(at)
            states.append(snapshot())
        segments = BackendSegments(
            starts=np.asarray(boundaries, dtype=np.float64),
            latencies=np.stack([latency for latency, _ in states]),
            served=np.stack([served for _, served in states]),
        )
        frontend = ServingFrontend(
            config=self.serving,
            n_sensors=n,
            n_partitions=self.n_partitions,
            partition_of_sensor=np.array(partition_of_sensor, dtype=np.int64),
            segments=segments,
            rng=self.streams.get("serving.traffic"),
        )
        report.serving = frontend.run(horizon)
        return report


@dataclass(frozen=True)
class _PartitionContext:
    """Everything a partition needs besides its own cell ids and queries.

    Shipped once per pool worker (the trace dominates the payload) and
    shared read-only by the inline backend.
    """

    trace: TraceSet
    config: PrestoConfig
    federation: FederationConfig
    seed: int
    model_clocks: bool
    clock_model: ClockModel | None
    shards: list[list[int]]
    cell_meta: list[_CellMeta]
    horizon: float
    failures: list[tuple[float, str]]       # filtered to < horizon, original order
    recoveries: list[tuple[float, str]]
    initial_down: tuple[str, ...]
    link_events: list[tuple[float, LinkConfig, tuple[int, ...] | None]]
    standing: list[ContinuousQuery]         # global sensor ids


@dataclass
class _PartitionResult:
    """What one partition reports back for merging (picklable)."""

    log: list[tuple[int, Query, QueryAnswer, bool]]   # (global rank, q, a, failover?)
    fault_events: list[tuple[int, FailoverEvent]]     # keyed by failure index
    cross_proxy_hops: int
    replica_hits: int
    failovers: int
    unroutable: int
    replica_syncs: int
    coding: CodingCounters
    cell_reports: list[SystemReport]                  # cell order
    packets: list[tuple[int, int]]                    # (sent, delivered), cell order
    notifications: list[tuple[int, Notification]]     # (global sensor, n), cell order


class _CellPartition(_RoutingCore):
    """One simulation partition: a block of cells on a private kernel.

    Holds the *full* federation membership (directory registrations, skip
    graph, replication plan) so routing and failover resolve locally, but
    builds and advances only its own cells.  The fault timeline is replayed
    on the local directory copy at exact virtual times, which keeps
    liveness consistent with every other partition without mid-run
    communication; the partition owning a dying cell additionally records
    the :class:`FailoverEvent` (its replicas are local, so the staleness it
    measures is exact).  Model-update ids come from the partition's own
    counter, drawn in event order over its cells.
    """

    def __init__(
        self,
        context: _PartitionContext,
        cell_ids: list[int],
        queries: list[tuple[int, Query]],
    ) -> None:
        self.context = context
        self.trace = context.trace
        self.federation = context.federation
        self.config = context.config
        self.sim = Simulator()
        builder = CellBuilder(
            config=context.config,
            model_clocks=context.model_clocks,
            clock_model=context.clock_model,
        )
        self.cells: list[FederatedCell] = []
        for cell_id in cell_ids:
            ids = context.shards[cell_id]
            cell = builder.build(
                context.trace.subset(ids),
                self.sim,
                RandomStreams(seed=context.seed + cell_id),
                proxy_name=f"proxy{cell_id}",
            )
            self.cells.append(
                FederatedCell(cell_id=cell_id, cell=cell, sensor_ids=list(ids))
            )
        self._by_name = {fc.name: fc for fc in self.cells}

        # Each partition keeps only its *local* owners' share of the plan:
        # it is the one syncing their replicas and reconstructing their
        # stripes.
        fed = context.federation
        self.directory, full_plan = _plan_directory(
            fed, context.cell_meta, context.shards
        )
        self.replication_plan = {
            owner: hosts
            for owner, hosts in full_plan.items()
            if owner in self._by_name
        }
        self._coding = CodingCounters()
        self._replicas: dict[tuple[str, str], ProxyReplica] = {}
        self._fragments: FragmentStore | None = None
        if fed.replica_coding == "rs":
            self._fragments = FragmentStore(
                fed.coding_k, fed.coding_n, self.replication_plan
            )
        else:
            self._replicas = {
                (host, owner): ProxyReplica(owner=owner, host=host)
                for owner, hosts in self.replication_plan.items()
                for host in hosts
            }
        for name in context.initial_down:
            self.directory.mark_down(name)
        self._owner_map, self._owners = _ownership(
            context.shards, context.cell_meta, context.seed
        )

        self.cross_proxy_hops = 0
        self.replica_hits = 0
        self.failovers = 0
        self.unroutable = 0
        self.replica_syncs = 0
        self._query_log: list[tuple[Query, QueryAnswer]] = []
        self._failover_positions: list[int] = []
        self._fault_events: list[tuple[int, FailoverEvent]] = []
        self._queries = queries
        self._sync_task: PeriodicTask | None = None

    def run(self) -> _PartitionResult:
        """Run the partition over the whole horizon and package its result."""
        self.setup()
        self.sim.run_until(self.context.horizon)
        return self.finish()

    def setup(self) -> None:
        """Arm standing queries and the partition's event queue.

        Standing queries are registered first, before any cell task runs.
        Events are armed as link changes first (so a staged burst wins
        equal-time ties), then cell tasks, then the replica-sync cadence,
        then the fault timeline, then the partition's pre-routed queries —
        the same relative order at every partition count.
        """
        context = self.context
        for query in context.standing:
            fc = self._by_name.get(self._owner_map[query.sensor])
            if fc is not None:
                fc.cell.proxy.continuous.register(
                    dataclasses.replace(query, sensor=fc.to_local(query.sensor))
                )
        for at_s, link_config, cell_indices in context.link_events:
            networks = [
                fc.cell.network
                for fc in self.cells
                if cell_indices is None or fc.cell_id in cell_indices
            ]
            if networks:
                self.sim.schedule(
                    at_s,
                    lambda nets=networks, cfg=link_config: [
                        net.set_link_config_all(cfg) for net in nets
                    ],
                )
        for fc in self.cells:
            fc.cell.start_tasks()
        if self._syncs_state:
            interval = context.federation.replica_sync_interval_s
            self._sync_task = PeriodicTask(
                self.sim, interval, self._sync_replicas, start_offset=interval
            )
            self._sync_task.start()
        for index, (at_s, name) in enumerate(context.failures):
            self.sim.schedule(
                at_s, lambda n=name, i=index: self._apply_failure(n, i)
            )
        for at_s, name in context.recoveries:
            self.sim.schedule(at_s, lambda n=name: self.directory.mark_up(n))
        for _, query in self._queries:
            self.sim.schedule(
                query.arrival_time, lambda q=query: self.route_query(q)
            )

    def _apply_failure(self, name: str, failure_index: int) -> None:
        """Replay one death: every partition marks the directory; only the
        dead cell's own partition measures replica staleness (exact — its
        replicas live here) and records the event for the merged report."""
        if name in self._by_name:
            self._fault_events.append(
                (
                    failure_index,
                    FailoverEvent(
                        proxy=name,
                        at_s=self.sim.now,
                        replica_staleness_s=self._replica_staleness(name),
                    ),
                )
            )
        self.directory.mark_down(name)

    def finish(self) -> _PartitionResult:
        """Tear down tasks, finalise cells and package the mergeable result."""
        horizon = self.context.horizon
        for fc in self.cells:
            fc.cell.stop_tasks()
        if self._sync_task is not None:
            self._sync_task.stop()
        for fc in self.cells:
            fc.cell.finalise(horizon)
        assert len(self._query_log) == len(self._queries)
        failover_set = set(self._failover_positions)
        log = [
            (self._queries[i][0], query, answer, i in failover_set)
            for i, (query, answer) in enumerate(self._query_log)
        ]
        if self._fragments is not None:
            self._coding.decodes = self._fragments.decodes
        return _PartitionResult(
            log=log,
            fault_events=self._fault_events,
            cross_proxy_hops=self.cross_proxy_hops,
            replica_hits=self.replica_hits,
            failovers=self.failovers,
            unroutable=self.unroutable,
            replica_syncs=self.replica_syncs,
            coding=self._coding,
            cell_reports=[fc.cell.report(horizon) for fc in self.cells],
            packets=[
                (fc.cell.network.packets_sent, fc.cell.network.packets_delivered)
                for fc in self.cells
            ],
            notifications=[
                (fc.to_global(notification.sensor), notification)
                for fc in self.cells
                for notification in fc.cell.proxy.continuous.notifications
            ],
        )


#: per-worker shared context for the process backend (set by the initializer)
_PARTITION_POOL_STATE: dict[str, _PartitionContext] = {}


def _partition_pool_init(context: _PartitionContext) -> None:
    _PARTITION_POOL_STATE["context"] = context


def _partition_pool_run(
    task: tuple[list[int], list[tuple[int, Query]]],
) -> _PartitionResult:
    cell_ids, queries = task
    return _CellPartition(_PARTITION_POOL_STATE["context"], cell_ids, queries).run()
