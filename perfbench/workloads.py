"""The benchmark's workloads, built through the public API from a seed.

Each workload is a ``setup(seed, scale) -> Case`` function.  Set-up is
everything before the timed ``run``: trace generation, query generation and
system construction.  ``Case.run()`` replays the pre-built inputs as one
batch job and returns an :class:`Outcome` holding the modelled report
numbers, the correctness verdict and a fingerprint of the simulated
statistics.

``scale="tiny"`` shrinks every horizon for the benchmark's own test; the
benchmark itself always runs ``scale="full"``.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core import PrestoConfig, PrestoSystem
from repro.core.config import FederationConfig
from repro.core.federation import FederatedSystem
from repro.core.queries import AnswerSource
from repro.core.system import PrestoCell, SystemReport
from repro.energy.constants import SAMPLE_ACQUIRE_CYCLES
from repro.serving.config import ServingConfig
from repro.traces import (
    IntelLabConfig,
    IntelLabGenerator,
    QueryWorkloadConfig,
    QueryWorkloadGenerator,
)
from repro.traces.workload import ShardedWorkloadGenerator

DAY_S = 86_400.0
EPOCH_S = 31.0

#: horizon (days) per workload and scale
HORIZON_DAYS = {
    "ingest": {"full": 1.0, "tiny": 0.1},
    "query": {"full": 1.0, "tiny": 0.1},
    "federation": {"full": 0.5, "tiny": 0.1},
}


@dataclass
class Outcome:
    """What one ``Case.run()`` produced, reduced to what the benchmark reports."""

    sensor_epochs: int
    attempted: int
    failed: int
    modelled: dict[str, float]
    fingerprint: str
    violations: list[str]
    #: program counters the traced run reports (exact per seed)
    counters: dict[str, float]


@dataclass
class Case:
    """A set-up workload: call :meth:`run` exactly once."""

    run: Callable[[], Outcome]
    #: the public entry point a top-level query call enters through,
    #: as (class, method name)
    query_entry: tuple[type, str]


# -- report reduction -----------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _check_report(report: SystemReport, where: str) -> list[str]:
    """Physical invariants every report must satisfy."""
    bad: list[str] = []
    categories = report.sensor_energy_by_category
    negative = sorted(k for k, v in categories.items() if v < 0)
    if negative:
        bad.append(f"{where}: negative energy in {negative}")
    total = sum(categories.values())
    if not math.isclose(total, report.sensor_energy_j, rel_tol=1e-9, abs_tol=1e-12):
        bad.append(f"{where}: energy categories sum {total!r} != total {report.sensor_energy_j!r}")
    fractions = {
        "success_rate": report.success_rate,
        "answered_fraction": report.answered_fraction,
        "delivery_ratio": report.delivery_ratio,
        "archive_fidelity_retained": report.archive_fidelity_retained,
    }
    for name, value in fractions.items():
        if not math.isnan(value) and not 0.0 <= value <= 1.0:
            bad.append(f"{where}: {name}={value!r} outside [0, 1]")
    if len(report.answers) != len(report.truths):
        bad.append(f"{where}: {len(report.answers)} answers vs {len(report.truths)} truths")
    return bad


def _answer_digest(report: SystemReport) -> list[list]:
    return [
        [a.query.query_id, a.source.value, repr(a.value), repr(a.latency_s)]
        for a in report.answers
    ]


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sampled_epochs(report: SystemReport, config: PrestoConfig) -> int:
    """Readings the fleet acquired, recovered from the ``cpu.sample`` meter."""
    per_sample = config.node_profile.cpu.energy_for_cycles(SAMPLE_ACQUIRE_CYCLES)
    return int(round(report.sensor_energy_by_category.get("cpu.sample", 0.0) / per_sample))


def _modelled(report: SystemReport) -> dict[str, float]:
    """The paper's modelled outcomes (deterministic per seed)."""
    latencies = [a.latency_s for a in report.answers]
    return {
        "success_rate": report.success_rate,
        "mean_abs_error": report.mean_error,
        "sensor_j_per_day": report.sensor_energy_per_day_j,
        "sim_latency_p50_s": _percentile(latencies, 50),
        "sim_latency_p99_s": _percentile(latencies, 99),
    }


def _counters(report: SystemReport) -> dict[str, float]:
    """Program-side counters the traced run reports per layer."""
    local = (AnswerSource.CACHE, AnswerSource.PREDICTION, AnswerSource.SPATIAL)
    counters = {
        "pushes": report.pushes + report.cold_pushes,
        "refits": report.model_refits,
        "packets": report.packets_sent,
        "delivered": report.delivery_ratio * report.packets_sent,
        "cache_inserts": report.cache_insertions,
        "cache_evictions": report.cache_evictions,
        "aged_segments": report.archive_aged_segments,
        "offloaded_segments": report.segments_offloaded,
        "local_answers": sum(1 for a in report.answers if a.source in local),
        "queries": len(report.answers),
    }
    return {k: float(v) for k, v in counters.items()}


def _failed(report: SystemReport) -> int:
    return sum(1 for a in report.answers if a.source is AnswerSource.FAILED)


# -- single-cell workloads ------------------------------------------------------


def _trace(n_sensors: int, days: float, seed: int):
    config = IntelLabConfig(n_sensors=n_sensors, duration_s=days * DAY_S, epoch_s=EPOCH_S)
    return IntelLabGenerator(config, seed=seed).generate()


def _now_queries(rate_per_s: float) -> QueryWorkloadConfig:
    """NOW queries only: a PAST target after a proxy death or into aged-out
    data has no answer, and the benchmark's workloads must not fail."""
    return QueryWorkloadConfig(
        arrival_rate_per_s=rate_per_s,
        now_fraction=1.0,
        past_point_fraction=0.0,
        past_range_fraction=0.0,
        past_agg_fraction=0.0,
    )


def _single_cell_case(
    trace, config: PrestoConfig, queries, seed: int, model_clocks: bool
) -> Case:
    system = PrestoSystem(trace, config, seed=seed, model_clocks=model_clocks)
    horizon = trace.config.duration_s
    issued = sum(1 for q in queries if q.arrival_time < horizon)
    expected_epochs = trace.n_sensors * trace.n_epochs

    def run() -> Outcome:
        report = system.run(queries=queries)
        violations = _check_report(report, "cell")
        sampled = _sampled_epochs(report, config)
        if sampled != expected_epochs:
            violations.append(f"sampled {sampled} sensor-epochs, expected {expected_epochs}")
        if len(report.answers) != issued:
            violations.append(f"{len(report.answers)} answers for {issued} queries")
        return Outcome(
            sensor_epochs=expected_epochs,
            attempted=len(report.answers),
            failed=_failed(report),
            modelled=_modelled(report),
            fingerprint=_digest([report.summary(), _answer_digest(report)]),
            violations=violations,
            counters=_counters(report),
        )

    return Case(run=run, query_entry=(PrestoCell, "run_query"))


def setup_ingest(seed: int, scale: str = "full") -> Case:
    """Write path: sample, model check, push, clock sync, cache insert, archive."""
    days = HORIZON_DAYS["ingest"][scale]
    trace = _trace(16, days, seed)
    config = PrestoConfig(
        sample_period_s=EPOCH_S,
        refit_interval_s=6 * 3600.0,
        flash_capacity_bytes=12 * 1024,
        flash_capacity_skew=0.5,
        storage_policy="greedy_offload",
    )
    workload = QueryWorkloadGenerator(
        n_sensors=16,
        config=_now_queries(1 / 60.0),
        rng=np.random.default_rng(seed + 1),
    )
    queries = workload.generate(3600.0, trace.config.duration_s)
    return _single_cell_case(trace, config, queries, seed + 2, model_clocks=True)


def setup_query(seed: int, scale: str = "full") -> Case:
    """Read path: NOW/PAST queries over a cache too small for day-old targets."""
    days = HORIZON_DAYS["query"][scale]
    trace = _trace(6, days, seed)
    config = PrestoConfig(
        sample_period_s=EPOCH_S,
        refit_interval_s=6 * 3600.0,
        cache_entries_per_sensor=512,
    )
    workload = QueryWorkloadGenerator(
        n_sensors=6,
        config=QueryWorkloadConfig(
            arrival_rate_per_s=0.125,
            precision=0.5,
            now_fraction=0.4,
            past_point_fraction=0.3,
            past_range_fraction=0.15,
            past_agg_fraction=0.15,
        ),
        rng=np.random.default_rng(seed + 1),
    )
    queries = workload.generate(3600.0, trace.config.duration_s)
    return _single_cell_case(trace, config, queries, seed + 2, model_clocks=False)


# -- federation -----------------------------------------------------------------


def setup_federation(seed: int, scale: str = "full") -> Case:
    """Routing, coded failover, replica sync, lockstep partitions and serving."""
    days = HORIZON_DAYS["federation"][scale]
    trace = _trace(16, days, seed)
    horizon = trace.config.duration_s
    config = PrestoConfig(sample_period_s=EPOCH_S, refit_interval_s=6 * 3600.0)
    federation = FederationConfig(
        n_proxies=8,
        replication_factor=2,
        replica_coding="rs",
        coding_k=2,
        coding_n=3,
        replica_sync_interval_s=300.0,
        hot_entries_per_sensor=256,
        partitions=2,
        partition_backend="inline",
    )
    system = FederatedSystem(
        trace,
        config,
        federation=federation,
        seed=seed + 2,
        serving=ServingConfig(offered_qps=200.0),
    )
    # proxies 4..7 are the wireless half; kill two of them mid-run
    system.schedule_failure("proxy7", 0.5 * horizon)
    system.schedule_failure("proxy5", 0.75 * horizon)
    workload = ShardedWorkloadGenerator(
        system.shards,
        _now_queries(0.3),
        np.random.default_rng(seed + 1),
    )
    queries = workload.generate(3600.0, horizon)
    issued = sum(1 for q in queries if q.arrival_time < horizon)
    expected_epochs = trace.n_sensors * trace.n_epochs

    def run() -> Outcome:
        report = system.run(queries=queries)
        violations = _check_report(report, "federation")
        for cell_index, cell in enumerate(report.cell_reports):
            violations += _check_report(cell, f"cell{cell_index}")
        sampled = _sampled_epochs(report, config)
        if sampled != expected_epochs:
            violations.append(f"sampled {sampled} sensor-epochs, expected {expected_epochs}")
        if len(report.answers) != issued:
            violations.append(f"{len(report.answers)} answers for {issued} queries")
        coding, serving = report.coding, report.serving
        if report.failovers <= 0:
            violations.append("no failovers")
        if coding is None or coding.decodes <= 0:
            violations.append("no decodes")
        if coding is None or coding.irrecoverable != 0:
            violations.append("irrecoverable fragment losses")
        if serving is None or not 0.0 <= serving.memo_hit_rate <= 1.0:
            violations.append("serving memo hit rate outside [0, 1]")
        if not math.isnan(report.replica_hit_rate) and not 0 <= report.replica_hit_rate <= 1:
            violations.append(f"replica hit rate {report.replica_hit_rate!r} outside [0, 1]")
        modelled = _modelled(report)
        modelled["serving_p99_s"] = serving.p99_latency_s if serving else float("nan")
        counters = _counters(report)
        counters.update(
            {
                "route_hops": float(report.cross_proxy_hops),
                "failovers": float(report.failovers),
                "replica_hits": float(report.replica_hits),
                "replica_syncs": float(report.replica_syncs),
                "coding_payload_bytes": float(coding.payload_bytes) if coding else 0.0,
                "coding_shipped_bytes": float(coding.shipped_bytes) if coding else 0.0,
                "coding_full_copy_bytes": float(coding.full_copy_bytes) if coding else 0.0,
                "serving_queries": float(serving.n_queries) if serving else 0.0,
                "serving_memo_hit_rate": float(serving.memo_hit_rate) if serving else 0.0,
            }
        )
        return Outcome(
            sensor_epochs=expected_epochs,
            attempted=len(report.answers),
            failed=_failed(report),
            modelled=modelled,
            fingerprint=_digest([report.summary(), _answer_digest(report)]),
            violations=violations,
            counters=counters,
        )

    return Case(run=run, query_entry=(FederatedSystem, "route_query"))


WORKLOADS: dict[str, Callable[..., Case]] = {
    "ingest": setup_ingest,
    "query": setup_query,
    "federation": setup_federation,
}
