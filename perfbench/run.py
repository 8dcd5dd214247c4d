"""Repository benchmark: PRESTO simulator workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 36 --trace 0

``--trace 0`` measures with tracing off and prints the gated end-to-end
metrics; ``--trace 1`` wraps each layer's public entry points (see
``tracer.py``) and prints the per-layer metrics.  The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the detail (sample counts, ungated
host and modelled metrics, the fingerprint).  See ``perfbench/README.md``.

Every repetition runs in a fresh interpreter (``--child``), so no state
leaks from one repetition into the next and each one pays what a user's
own run pays.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: the seed results are quoted on, and one kept back to recheck claims
DEFAULT_SEED = 1
HELD_OUT_SEED = 9173

#: untraced repetitions per run at least, so ``setup_s`` is a median of 3
MIN_REPETITIONS = 3

#: a repetition that takes longer than this is a failure
CHILD_TIMEOUT_S = 150.0

#: layers every workload runs, so their self time is never zero
CORE_LAYERS = (
    "simulation",
    "sensor",
    "push",
    "sync",
    "proxy.receive",
    "proxy.query",
    "prediction",
    "radio",
    "storage",
)


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set this process or any reaped child reached (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def _per_rep_quantile(reps: list[dict], q: float) -> float:
    """Median over repetitions of each one's *q*-quantile query time."""
    return statistics.median(_quantile(rep["query_s"], q) for rep in reps)


def _ratio(numerator: float, denominator: float) -> float:
    """*numerator* / *denominator*, 0 when there is no base."""
    return numerator / denominator if denominator else 0.0


# -- one repetition, in a child interpreter ----------------------------------------


def repetition(workload: str, seed: int, traced: bool, scale: str) -> dict:
    """Set up and run *workload* once; everything the parent aggregates."""
    from tracer import LayerTracer, QueryTimer
    from workloads import WORKLOADS

    if not traced:
        started = time.perf_counter()
        case = WORKLOADS[workload](seed, scale=scale)
        setup_s = time.perf_counter() - started
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        with QueryTimer(case.query_entry) as timer:
            outcome = case.run()
        wall_s = time.perf_counter() - wall0
        cpu_s = _cpu_s() - cpu0
        layers = None
    else:
        # Build inside the tracer: bound methods the system captures at
        # construction must already be the wrappers.
        with LayerTracer() as tracer:
            started = time.perf_counter()
            case = WORKLOADS[workload](seed, scale=scale)
            setup_s = time.perf_counter() - started
            tracer.start()
            cpu0 = _cpu_s()
            wall0 = time.perf_counter()
            outcome = case.run()
            wall_s = time.perf_counter() - wall0
            cpu_s = _cpu_s() - cpu0
        layers = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "events": tracer.events,
            "estimates_returned": tracer.estimates_returned,
            "total_s": tracer.total_s,
        }
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "query_s": [] if traced else timer.samples_s,
        "sensor_epochs": outcome.sensor_epochs,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "modelled": outcome.modelled,
        "fingerprint": outcome.fingerprint,
        "violations": outcome.violations,
        "counters": outcome.counters,
        "layers": layers,
    }


def spawn(workload: str, seed: int, traced: bool, scale: str = "full") -> dict:
    """Run one :func:`repetition` in a fresh interpreter and wait for it."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
        "--child",
        "--scale", scale,
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"repetition exited with {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


# -- aggregation in the parent ---------------------------------------------------


class Run:
    """One benchmark run: repetitions of a seed and the correctness verdict."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.reps: list[dict] = []
        self.violations: list[str] = []

    def add(self, traced: bool) -> dict:
        rep = spawn(self.workload, self.seed, traced)
        if self.reps and rep["fingerprint"] != self.reps[0]["fingerprint"]:
            self.violations.append(
                f"repetition {len(self.reps)} of seed {self.seed} changed the fingerprint"
            )
        self.violations += rep["violations"]
        self.reps.append(rep)
        return rep

    def repeat(self, traced: bool, seconds: float, at_least: int = 1) -> list[dict]:
        """Repetitions until *seconds* have elapsed and *at_least* ran."""
        started = time.perf_counter()
        batch = [self.add(traced)]
        while len(batch) < at_least or time.perf_counter() - started < seconds:
            batch.append(self.add(traced))
        return batch

    @property
    def attempted(self) -> int:
        return sum(rep["attempted"] for rep in self.reps)

    @property
    def failed(self) -> int:
        return sum(rep["failed"] for rep in self.reps)

    @property
    def fingerprint(self) -> str:
        return self.reps[0]["fingerprint"]

    @property
    def modelled(self) -> dict[str, float]:
        return self.reps[0]["modelled"]


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from untraced repetitions."""
    reps = run.repeat(False, seconds, at_least=MIN_REPETITIONS)
    setups = [rep["setup_s"] for rep in reps]
    timed = min(len(rep["query_s"]) for rep in reps)
    if timed < 1000:
        run.violations.append(f"only {timed} timed queries in a repetition; p99 needs >= 1000")
    rates = [rep["sensor_epochs"] / rep["cpu_s"] for rep in reps]
    modelled = run.modelled
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (_median(reps, "peak_rss_mb"), "MiB"),
        "success_rate": (modelled["success_rate"], "ratio"),
        "sensor_j_per_day": (modelled["sensor_j_per_day"], "J"),
    }
    # Reported but not gated: on a shared VM, host timings swing with load
    # by more than any allowed bound, and the rest are missing, constant or
    # too seed-dependent on some workload (see README.md).
    ungated = {
        "wall_s": (_median(reps, "wall_s"), "s"),
        "sensor_epochs_per_cpu_s": (statistics.median(rates), "1/s"),
        "query_host_p50_ms": (1e3 * _per_rep_quantile(reps, 0.50), "ms"),
        "query_host_p99_ms": (1e3 * _per_rep_quantile(reps, 0.99), "ms"),
        "mean_abs_error": (modelled["mean_abs_error"], "C"),
        "sim_latency_p50_s": (modelled["sim_latency_p50_s"], "s"),
        "sim_latency_p99_s": (modelled["sim_latency_p99_s"], "s"),
    }
    if "serving_p99_s" in modelled:
        ungated["serving_p99_s"] = (modelled["serving_p99_s"], "s")
    detail = {
        "repetitions": len(reps),
        "setup_s_samples": setups,
        "wall_s_samples": [rep["wall_s"] for rep in reps],
        "cpu_s_samples": [rep["cpu_s"] for rep in reps],
        "query_host_samples_per_repetition": timed,
        "ungated": _as_metrics(ungated),
    }
    return metrics, detail


def trace(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced repetition, then traced ones."""
    from tracer import HARNESS, LAYERS

    started = time.perf_counter()
    untraced = run.add(False)
    reps = run.repeat(True, seconds - (time.perf_counter() - started))
    layers = [*LAYERS, HARNESS]
    busy = {
        layer: statistics.median(rep["layers"]["self_s"].get(layer, 0.0) for rep in reps)
        for layer in layers
    }
    total = sum(busy.values())
    cpu = _median(reps, "cpu_s")
    spans = reps[-1]["layers"]
    if any(rep["layers"]["calls"] != spans["calls"] for rep in reps):
        run.violations.append("traced repetitions of one seed made different calls")
    c = reps[-1]["counters"]

    def count(*labels: str) -> int:
        return sum(spans["calls"].get(label, 0) for label in labels)

    samples = count("sensor.on_sample", "sensor.on_missed_sample")
    exchanges = count("sync.record_exchange")
    sync_reads = count("sync.estimate_for", "sync.correct", "sync.project")
    estimates = count("prediction.best_estimate")
    metrics: dict[str, tuple[float, str]] = {}
    for layer in CORE_LAYERS:
        metrics[f"{layer}.self_s"] = (busy[layer], "s")
    metrics["cache.write_self_s"] = (busy["cache.write"], "s")
    metrics["cache.read_self_s"] = (busy["cache.read"], "s")
    for layer in layers:
        metrics[f"{layer}.self_pct"] = (100.0 * _ratio(busy[layer], total), "%")
    counts = {
        "simulation.events": spans["events"],
        "sensor.samples": samples,
        "push.model_steps": count("push.process", "push.advance_silent", "push.apply_push"),
        "sync.exchanges": exchanges,
        "sync.reads": sync_reads,
        "proxy.receive.calls": count("proxy.on_receive"),
        "cache.inserts": c["cache_inserts"],
        "cache.reads": count(*(f"cache.{n}" for _, names in LAYERS["cache.read"] for n in names)),
        "cache.evictions": c["cache_evictions"],
        "proxy.query.calls": count("proxy.process_query"),
        "prediction.estimates": estimates,
        "prediction.refits": c["refits"],
        "radio.packets": c["packets"],
        "storage.range_reads": count("storage.read_range"),
        "storage.aged_segments": c["aged_segments"],
        "storage.offloaded_segments": c["offloaded_segments"],
        "federation.route.hops": c.get("route_hops", 0.0),
        "federation.route.failovers": c.get("failovers", 0.0),
        "federation.sync.rounds": c.get("replica_syncs", 0.0),
        "coding.encodes": count("coding.rs_encode"),
        "coding.decodes": count("coding.rs_decode"),
        "serving.queries": c.get("serving_queries", 0.0),
    }
    for name, value in counts.items():
        metrics[name] = (float(value), "count")
    metrics["federation.sync.payload_bytes"] = (c.get("coding_payload_bytes", 0.0), "B")
    ratios = {
        "push.push_ratio": _ratio(c["pushes"], samples),
        "sync.reads_per_exchange": _ratio(sync_reads, exchanges),
        "proxy.query.local_ratio": _ratio(c["local_answers"], c["queries"]),
        "prediction.accept_ratio": _ratio(spans["estimates_returned"], estimates),
        "radio.delivery_ratio": _ratio(c["delivered"], c["packets"]),
        "federation.route.replica_hit_ratio": _ratio(
            c.get("replica_hits", 0.0), c.get("failovers", 0.0)
        ),
        "coding.shipped_to_full_ratio": _ratio(
            c.get("coding_shipped_bytes", 0.0), c.get("coding_full_copy_bytes", 0.0)
        ),
        "serving.memo_hit_rate": c.get("serving_memo_hit_rate", 0.0),
    }
    for name, value in ratios.items():
        metrics[name] = (float(value), "ratio")
    metrics["trace.cpu_s"] = (cpu, "s")
    metrics["trace.overhead_s"] = (cpu - untraced["cpu_s"], "s")
    metrics["trace.attributed_pct"] = (100.0 * _ratio(total - busy[HARNESS], cpu), "%")
    detail = {
        "traced_repetitions": len(reps),
        "untraced_cpu_s": untraced["cpu_s"],
        "self_s": busy,
        "calls": dict(sorted(spans["calls"].items())),
    }
    return metrics, detail


def _as_metrics(metrics: dict[str, tuple[float, str]]) -> dict[str, dict]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.child:
        print(json.dumps(repetition(args.workload, args.seed, bool(args.trace), args.scale)))
        return 0
    run = Run(args.workload, args.seed)
    metrics, detail = (trace if args.trace else measure)(run, args.seconds)
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "fingerprint": run.fingerprint,
            "violations": run.violations[:20],
        }
    )
    correct = not run.violations
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": _as_metrics(metrics),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
