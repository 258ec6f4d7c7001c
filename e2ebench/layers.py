"""Per-layer metrics: span totals of a traced window plus counter deltas.

Every workload reports every per-layer metric; a layer the workload does
not exercise reads 0, which is the prediction for it ("no change").
"""

from __future__ import annotations

from typing import Any, Mapping

#: name -> (unit, better), in the order BENCHMARK.json lists them.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "serve.decode_us": ("us", "lower"),
    "serve.encode_us": ("us", "lower"),
    "serve.dispatch_hop_us": ("us", "lower"),
    "serve.execute_op_us": ("us", "lower"),
    "serve.wire_us": ("us", "lower"),
    "serve.engine_share": ("ratio", "higher"),
    "datalog.parse_us": ("us", "lower"),
    "datalog.parse_calls_per_op": ("count", "lower"),
    "datalog.render_us": ("us", "lower"),
    "datalog.render_calls_per_op": ("count", "lower"),
    "session.cache_hit_rate": ("ratio", "higher"),
    "session.keys_built_per_op": ("count", "lower"),
    "session.key_build_us": ("us", "lower"),
    "session.chase_lookup_us": ("us", "lower"),
    "session.decide_self_us": ("us", "lower"),
    "equivalence.test_us": ("us", "lower"),
    "equivalence.tests_per_op": ("count", "lower"),
    "chase.sound_chase_ms": ("ms", "lower"),
    "chase.tgd_search.share": ("ratio", "lower"),
    "chase.egd_search.share": ("ratio", "lower"),
    "chase.af_test.share": ("ratio", "lower"),
    "chase.index_build.share": ("ratio", "lower"),
    "chase.step_apply.share": ("ratio", "lower"),
    "chase.steps_per_chase": ("count", "lower"),
    "chase.rounds_per_chase": ("count", "lower"),
    "chase.index_builds_per_step": ("count", "lower"),
    "chase.triggers_examined_per_step": ("count", "lower"),
    "chase.af_tests_per_chase": ("count", "lower"),
    "chase.af_memo_hit_rate": ("ratio", "higher"),
    "chase.deps_skipped_ratio": ("ratio", "higher"),
    "core.match_us": ("us", "lower"),
    "core.kernel_searches_per_chase": ("count", "lower"),
    "core.index_hit_rate": ("ratio", "higher"),
    "core.extension_probes_per_chase": ("count", "lower"),
    "core.plan_cache_hit_rate": ("ratio", "higher"),
    "reformulation.chases_per_op": ("count", "lower"),
    "reformulation.cache_hits_per_op": ("count", "higher"),
    "reformulation.chase_share": ("ratio", "lower"),
    "reformulation.containment_share": ("ratio", "lower"),
    "reformulation.results_per_op": ("count", "higher"),
    "incremental.resumed_ratio": ("ratio", "higher"),
    "incremental.steps_saved_per_delta": ("count", "higher"),
    "incremental.resume_ms": ("ms", "lower"),
    "incremental.cold_fallback_ms": ("ms", "lower"),
    "store.load_s": ("s", "lower"),
    "store.put_us": ("us", "lower"),
    "store.get_us": ("us", "lower"),
    "store.hit_rate": ("ratio", "higher"),
    "store.bytes_per_write": ("bytes", "lower"),
    "store.file_bytes_end": ("bytes", "lower"),
    "trace.overhead_p50_ms": ("ms", "lower"),
    "trace.overhead_ops_per_s": ("1/s", "higher"),
}

#: Layer -> the end-to-end metrics and workloads its numbers should move,
#: among the workloads BENCHMARK.json keeps.  Stated before any
#: optimisation, so a later claim names its layer here.
LAYER_MOVES: dict[str, str] = {
    "serve": "p50_ms, p99_ms on delta-churn",
    "datalog": "p50_ms on delta-churn",
    "session": "p50_ms on delta-churn; ops_per_s on reformulate",
    "equivalence": "p50_ms on reformulate",
    "chase": "ops_per_s, p50_ms on reformulate; p50_ms on delta-churn",
    "core": "ops_per_s on reformulate",
    "reformulation": "ops_per_s on reformulate",
    "incremental": "p50_ms, ops_per_s on delta-churn",
    "store": "setup_s, p99_ms on delta-churn",
    "trace": "nothing: the cost of tracing itself",
}


#: The self-time shares of the outer chase, in the order they are printed.
CHASE_PHASES = ("tgd_search", "egd_search", "af_test", "index_build", "step_apply")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sum_stats(snapshots: list[Mapping[str, Any]]) -> dict[str, dict[str, float]]:
    """Sum the numeric leaves of several ``Session.stats()`` snapshots."""
    total: dict[str, dict[str, float]] = {}
    for snapshot in snapshots:
        for section, values in snapshot.items():
            if not isinstance(values, Mapping):
                continue
            bucket = total.setdefault(section, {})
            for key, value in values.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    bucket[key] = bucket.get(key, 0) + value
    return total


def stats_delta(before: Mapping[str, Any], after: Mapping[str, Any]) -> dict[str, dict[str, float]]:
    """``after - before`` per numeric counter (absent counters read 0)."""
    delta: dict[str, dict[str, float]] = {}
    for section, values in after.items():
        if not isinstance(values, Mapping):
            continue
        old = before.get(section, {})
        delta[section] = {
            key: value - old.get(key, 0)
            for key, value in values.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
    return delta


def layer_metrics(
    totals: Mapping[str, Mapping[str, float]],
    delta: Mapping[str, Mapping[str, float]],
    ops: int,
    extra: Mapping[str, float],
) -> dict[str, float]:
    """Every per-layer metric from span *totals*, counter *delta* and *extra*.

    *extra* carries what only the workload can measure (wire time, engine
    share, results per op, store file sizes, tracing overhead).
    """

    def span(name: str, field: str = "total") -> float:
        return float(totals.get(name, {}).get(field, 0.0))

    def mean_us(name: str) -> float:
        return 1e6 * _ratio(span(name), span(name, "calls"))

    cache = delta.get("chase_cache", {})
    profile = delta.get("profile", {})
    plans = delta.get("plan_cache", {})
    incremental = delta.get("incremental", {})
    store = delta.get("store", {})
    runs = profile.get("runs", 0)
    steps = profile.get("steps", profile.get("tgd_steps", 0) + profile.get("egd_steps", 0))
    chase_time = span("chase.sound_chase") + span("incremental.resume")
    lookups = span("session.chase", "calls") + span("session.chase.hit", "calls")
    reformulate = span("session.reformulate")
    reformulate_calls = span("session.reformulate", "calls")
    scans = span("chase.tgd_search.scans", "calls") + span("chase.egd_search.scans", "calls")
    skipped = profile.get("dependencies_skipped", 0)
    af_tests = profile.get("assignment_fixing_tests", 0)
    af_hits = profile.get("assignment_fixing_cache_hits", 0)
    deltas = incremental.get("deltas_applied", 0)

    out = {name: 0.0 for name in LAYER_METRICS}
    out.update(
        {
            "serve.decode_us": mean_us("serve.decode"),
            "serve.encode_us": mean_us("serve.encode"),
            "serve.dispatch_hop_us": 1e6 * _ratio(
                span("serve.dispatch") - span("serve.execute_op"), span("serve.dispatch", "calls")
            ),
            "serve.execute_op_us": mean_us("serve.execute_op"),
            "datalog.parse_us": mean_us("datalog.parse"),
            "datalog.parse_calls_per_op": _ratio(span("datalog.parse", "calls"), ops),
            "datalog.render_us": mean_us("datalog.render"),
            "datalog.render_calls_per_op": _ratio(span("datalog.render", "calls"), ops),
            "session.cache_hit_rate": _ratio(
                cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
            ),
            "session.keys_built_per_op": _ratio(profile.get("cache_keys_built", 0), ops),
            "session.key_build_us": 1e6 * _ratio(
                profile.get("key_build_time", 0.0), profile.get("cache_keys_built", 0)
            ),
            "session.chase_lookup_us": mean_us("session.chase.hit"),
            "session.decide_self_us": 1e6 * _ratio(
                span("session.decide", "self"), span("session.decide", "calls")
            ),
            "equivalence.test_us": mean_us("equivalence.test"),
            "equivalence.tests_per_op": _ratio(span("equivalence.test", "calls"), ops),
            "chase.sound_chase_ms": 1e3 * _ratio(
                span("chase.sound_chase"), span("chase.sound_chase", "calls")
            ),
            "chase.steps_per_chase": _ratio(steps, runs),
            "chase.rounds_per_chase": _ratio(profile.get("rounds", 0), runs),
            "chase.index_builds_per_step": _ratio(span("chase.index_build", "calls"), steps),
            "chase.triggers_examined_per_step": _ratio(profile.get("triggers_examined", 0), steps),
            "chase.af_tests_per_chase": _ratio(af_tests, runs),
            "chase.af_memo_hit_rate": _ratio(af_hits, af_tests + af_hits),
            "chase.deps_skipped_ratio": _ratio(skipped, skipped + scans),
            "core.match_us": mean_us("core.match"),
            "core.kernel_searches_per_chase": _ratio(profile.get("kernel_searches", 0), runs),
            "core.index_hit_rate": _ratio(profile.get("index_hits", 0), profile.get("index_lookups", 0)),
            "core.extension_probes_per_chase": _ratio(profile.get("extension_probes", 0), runs),
            "core.plan_cache_hit_rate": _ratio(
                plans.get("hits", 0), plans.get("hits", 0) + plans.get("misses", 0)
            ),
            "incremental.resumed_ratio": _ratio(incremental.get("resumed_runs", 0), deltas),
            "incremental.steps_saved_per_delta": _ratio(incremental.get("steps_saved", 0), deltas),
            "incremental.resume_ms": 1e3 * _ratio(
                span("incremental.resume"), span("incremental.resume", "calls")
            ),
            "incremental.cold_fallback_ms": 1e3 * _ratio(
                span("incremental.cold_fallback"), span("incremental.cold_fallback", "calls")
            ),
            "store.load_s": _ratio(span("store.load"), span("store.load", "calls")),
            "store.put_us": mean_us("store.put"),
            "store.get_us": mean_us("store.get"),
            "store.hit_rate": _ratio(store.get("hits", 0), store.get("hits", 0) + store.get("misses", 0)),
        }
    )
    for phase in CHASE_PHASES:
        out[f"chase.{phase}.share"] = _ratio(span(f"chase.{phase}", "self"), chase_time)
    if reformulate_calls:
        out["reformulation.chases_per_op"] = _ratio(lookups, ops)
        out["reformulation.cache_hits_per_op"] = _ratio(cache.get("hits", 0), ops)
        out["reformulation.chase_share"] = _ratio(
            span("session.chase") + span("session.chase.hit"), reformulate
        )
        out["reformulation.containment_share"] = _ratio(
            span("equivalence.test") + span("reformulation.isomorphism"), reformulate
        )
    out.update(extra)
    return out
