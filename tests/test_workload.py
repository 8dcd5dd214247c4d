"""Unit tests for the query workload generator."""

import hashlib

import numpy as np
import pytest

from repro.traces.workload import (
    Query,
    QueryKind,
    QueryWorkloadConfig,
    QueryWorkloadGenerator,
    ShardedWorkloadGenerator,
)

NAN = float("nan")
INF = float("inf")
ALL_NOW = dict(now_fraction=1.0, past_point_fraction=0.0,
               past_range_fraction=0.0, past_agg_fraction=0.0)
ALL_PAST = dict(now_fraction=0.0, past_point_fraction=0.4,
                past_range_fraction=0.3, past_agg_fraction=0.3)
SHARDS = [[0, 1, 2], [3, 4, 5, 6], [7], [8, 9, 10, 11, 12]]


class TestQueryValidation:
    def test_valid_query(self):
        q = Query(
            query_id=0, kind=QueryKind.NOW, sensor=1, arrival_time=10.0,
            target_time=10.0,
        )
        assert q.precision > 0

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            Query(0, QueryKind.NOW, 1, 10.0, 10.0, precision=0.0)

    def test_range_needs_window(self):
        with pytest.raises(ValueError):
            Query(0, QueryKind.PAST_RANGE, 1, 10.0, 5.0, window_s=0.0)

    def test_unknown_aggregate(self):
        with pytest.raises(ValueError):
            Query(0, QueryKind.PAST_AGG, 1, 10.0, 5.0, window_s=10.0,
                  aggregate="median")


class TestWorkloadConfig:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            QueryWorkloadConfig(now_fraction=0.9, past_point_fraction=0.3,
                                past_range_fraction=0.0, past_agg_fraction=0.0)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryWorkloadConfig(arrival_rate_per_s=0.0)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: QueryWorkloadConfig(arrival_rate_per_s=NAN), id="rate-nan"),
            pytest.param(lambda: QueryWorkloadConfig(arrival_rate_per_s=INF), id="rate-inf"),
            pytest.param(lambda: QueryWorkloadConfig(arrival_rate_per_s=-1.0), id="rate-negative"),
            pytest.param(
                lambda: QueryWorkloadConfig(
                    now_fraction=1.2, past_point_fraction=-0.2,
                    past_range_fraction=0.0, past_agg_fraction=0.0,
                ),
                id="mix-negative",
            ),
            pytest.param(
                lambda: QueryWorkloadConfig(now_fraction=NAN, past_point_fraction=0.0),
                id="mix-nan",
            ),
            pytest.param(lambda: QueryWorkloadConfig(zipf_exponent=NAN), id="zipf-nan"),
            pytest.param(lambda: QueryWorkloadConfig(zipf_exponent=-INF), id="zipf-inf"),
            pytest.param(lambda: QueryWorkloadConfig(past_horizon_s=-1.0), id="horizon-negative"),
            pytest.param(lambda: QueryWorkloadConfig(past_horizon_s=NAN), id="horizon-nan"),
            pytest.param(lambda: QueryWorkloadConfig(window_s=0.0), id="window-zero"),
            pytest.param(
                lambda: QueryWorkloadConfig(
                    now_fraction=0.9, past_point_fraction=0.0,
                    past_range_fraction=0.0, past_agg_fraction=0.1, window_s=-5.0,
                ),
                id="agg-window-negative",
            ),
            pytest.param(
                lambda: ShardedWorkloadGenerator(SHARDS, shard_weights=[1.0, NAN, 1.0, 1.0]),
                id="shard-weight-nan",
            ),
            pytest.param(
                lambda: ShardedWorkloadGenerator(SHARDS, shard_weights=[1.0, INF, 1.0, 1.0]),
                id="shard-weight-inf",
            ),
        ],
    )
    def test_bad_config_rejected_at_construction(self, build):
        with pytest.raises(ValueError):
            build()

    def test_window_unused_without_window_queries(self):
        config = QueryWorkloadConfig(
            now_fraction=0.5, past_point_fraction=0.5,
            past_range_fraction=0.0, past_agg_fraction=0.0, window_s=0.0,
        )
        queries = QueryWorkloadGenerator(3, config).generate(0.0, 100_000.0)
        assert queries and all(q.window_s == 0.0 for q in queries)

    @pytest.mark.parametrize("interval", [(-1.0, 10.0), (NAN, 10.0), (0.0, NAN), (0.0, INF)])
    def test_bad_interval_rejected(self, interval):
        with pytest.raises(ValueError):
            QueryWorkloadGenerator(3).generate(*interval)


def _stream_digest(queries):
    digest = hashlib.sha256()
    for q in queries:
        digest.update(
            f"{q.query_id},{q.kind.value},{q.sensor},{q.arrival_time!r},"
            f"{q.target_time!r},{q.window_s!r},{q.precision!r},{q.aggregate}\n".encode()
        )
    return digest.hexdigest()


#: name -> (seed, config overrides, n_sensors or shards, shard weights,
#: query count, SHA-256 of the stream).  The digests were recorded from
#: per-draw ``Generator.choice``/``uniform`` sampling; a change to the
#: order or kind of RNG draws changes them.
PINNED_STREAMS = {
    "default_mix": (1, {}, 10, None, 1999,
                    "cad4bfed89e60db158a79f96f0412fd108604dbf1896addd3030c5b6734e87a1"),
    "all_now": (2, ALL_NOW, 10, None, 2135,
                "3ba02a3eb7fbd65bda59367e069aedee0fa885181c4d2cd718f3cea13a20810a"),
    "all_past": (3, ALL_PAST, 10, None, 1995,
                 "b5389ccf02440dd8277fa0d5c195fbb6626973979eed6b224610cf0fcaf71645"),
    "one_sensor": (4, {}, 1, None, 1984,
                   "d603df535e20ca0d38a12f97c4ef8b6c594fa8032e6bbce5329dd057ecc7ce85"),
    "uniform_shards": (5, {}, SHARDS, None, 2046,
                       "b46c6bab1f0f83307a5cafecae071a49bbaafcb677c1734459ad1d9c1f6a4f20"),
    "weighted_shards": (6, {}, SHARDS, [0.0, 3.0, 1.0, 0.0], 1966,
                        "5b429fd0562658c2f6859bb1476de49d999c988da7e03cb73cd4470a7e3b6273"),
}


def _pinned_stream(name):
    seed, overrides, layout, weights, _, _ = PINNED_STREAMS[name]
    config = QueryWorkloadConfig(arrival_rate_per_s=0.05, **overrides)
    rng = np.random.default_rng(seed)
    if isinstance(layout, int):
        generator = QueryWorkloadGenerator(layout, config, rng)
    else:
        generator = ShardedWorkloadGenerator(layout, config, rng, weights)
    return generator.generate(0.0, 40_000.0)


class TestPinnedStreams:
    @pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
    def test_stream_matches_recorded_digest(self, name):
        *_, count, digest = PINNED_STREAMS[name]
        queries = _pinned_stream(name)
        assert len(queries) == count, name
        assert _stream_digest(queries) == digest, name

    def test_zero_weight_shards_never_targeted(self):
        targeted = {q.sensor for q in _pinned_stream("weighted_shards")}
        assert targeted <= set(SHARDS[1]) | set(SHARDS[2])
        assert targeted & set(SHARDS[1]) and targeted & set(SHARDS[2])


class TestGeneration:
    def make(self, rate=1 / 60.0, seed=0, **kwargs):
        config = QueryWorkloadConfig(arrival_rate_per_s=rate, **kwargs)
        return QueryWorkloadGenerator(10, config, np.random.default_rng(seed))

    def test_arrivals_ordered_and_in_range(self):
        queries = self.make().generate(100.0, 10_000.0)
        times = [q.arrival_time for q in queries]
        assert times == sorted(times)
        assert all(100.0 <= t < 10_000.0 for t in times)

    def test_poisson_rate_approximate(self):
        queries = self.make(rate=0.1, seed=1).generate(0.0, 100_000.0)
        assert len(queries) == pytest.approx(10_000, rel=0.1)

    def test_mix_fractions_respected(self):
        queries = self.make(rate=0.05, seed=2).generate(0.0, 200_000.0)
        now = sum(q.kind is QueryKind.NOW for q in queries)
        assert now / len(queries) == pytest.approx(0.6, abs=0.05)

    def test_zipf_popularity_skew(self):
        queries = self.make(rate=0.05, seed=3).generate(0.0, 200_000.0)
        counts = np.bincount([q.sensor for q in queries], minlength=10)
        assert counts[0] > 2 * counts[5]

    def test_past_queries_target_history(self):
        queries = self.make(seed=4).generate(0.0, 50_000.0)
        for q in queries:
            if q.kind is not QueryKind.NOW:
                assert q.target_time <= q.arrival_time
                assert q.target_time >= 0.0

    def test_window_queries_have_windows(self):
        queries = self.make(seed=5).generate(0.0, 100_000.0)
        for q in queries:
            if q.kind in (QueryKind.PAST_RANGE, QueryKind.PAST_AGG):
                assert q.window_s > 0

    def test_deterministic_given_rng_seed(self):
        a = self.make(seed=7).generate(0.0, 10_000.0)
        b = self.make(seed=7).generate(0.0, 10_000.0)
        assert [(q.arrival_time, q.sensor) for q in a] == [
            (q.arrival_time, q.sensor) for q in b
        ]

    def test_ids_unique_and_sequential(self):
        queries = self.make(seed=8).generate(0.0, 10_000.0)
        assert [q.query_id for q in queries] == list(range(len(queries)))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            self.make().generate(10.0, 10.0)

    def test_precision_jitter_bounded(self):
        queries = self.make(seed=9).generate(0.0, 100_000.0)
        for q in queries:
            assert 0.3 <= q.precision <= 0.7  # 0.5 +/- 25% + floor
