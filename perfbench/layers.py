"""Per-layer figures of a traced pass (``--trace 1``).

Join-layer figures (``core``, ``sorting``, ``sweep``) are per ledger
join and ``fastpath`` figures per memory join.  Buffer-pool and
window-query figures cover the workload's closed loop; durability
figures (codec, fsync, WAL, snapshot, compaction, recovery) cover the
durable phase of service-query, per request or per acknowledged
mutation (``*_per_ack``), and read zero on batch-join.  ``split.*``
are end-to-end figures by op type, taken from the untraced pass that
precedes the traced one.
"""

from __future__ import annotations

from passes import Pass
from tracing import SpanLog

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    log: SpanLog, traced: Pass, plain: Pass, names: list[str]
) -> dict[str, float]:
    """The per-layer figures ``names`` (BENCHMARK.json's list)."""
    facts = traced.facts
    joins = log.section_runs["bench.ledger_join"]
    memory_joins = log.section_runs["bench.memory_join"]
    ledger_span, memory_span = "bench.ledger_join", "bench.memory_join"
    loop = log.sections.get("bench.loop", {})
    durable = log.sections.get("bench.durable_loop", {})
    ledger = log.sections.get(ledger_span, {})
    memory = log.sections.get(memory_span, {})
    ops = facts["loop_ops"]
    durable_ops = facts.get("durable_ops", 0)
    acks = facts.get("acks", 0)
    phase_ios = facts["phase_ios"]

    in_loop = log.during("bench.loop")
    loop_queries = [
        (start, end, parent)
        for name, start, end, parent, _ in log.spans
        if name == "index.window_query" and in_loop(start)
    ]
    windows = [  # window requests, not the window_query inside a point_query
        end - start
        for start, end, parent in loop_queries
        if parent < 0 or log.spans[parent][0] != "index.point_query"
    ]
    own = log.self_times()
    service_spans = {
        row[4]: (row[2] - row[1], own[i])
        for i, row in enumerate(log.spans)
        if row[0].startswith("service.") and row[4] >= 0
    }
    admission = [wait for _, wait in service_spans.values()]
    rpc = [
        (end - start) - service_spans[rid][0]
        for name, start, end, _, rid in log.spans
        if name.startswith("client.") and rid in service_spans
    ]
    compactions = log.durations("index.compact")
    syncs = durable.get("storage.wal_sync.calls", 0)

    layers = {
        "core.partition_s": sum(log.durations("core.partition", ledger_span)) / joins,
        "core.scan_s": log.total_self("core.scan", ledger_span) / joins,
        "core.pairs_per_mbr_test": _ratio(facts["ledger_pairs"], facts["mbr_tests"]),
        "sweep.sweep_s": sum(log.durations("sweep.sweep", ledger_span)) / joins,
        "sweep.calls": ledger.get("sweep.sweep.calls", 0) / joins,
        "sorting.sort_s": log.total_self("sorting.sort", ledger_span) / joins,
        "sorting.passes": ledger.get("sorting.passes", 0) / joins,
        "fastpath.columnar_s": sum(log.durations("fastpath.columnar", memory_span))
        / memory_joins,
        "fastpath.kernel_s": sum(log.durations("fastpath.kernel", memory_span)) / memory_joins,
        "fastpath.pairs_per_candidate": _ratio(
            facts["memory_pairs"] * memory_joins, memory.get("fastpath.candidates", 0)
        ),
        "storage.charge_cpu_calls": ledger.get("storage.charge_cpu_calls", 0) / joins,
        "storage.page_ios": facts["page_ios"],
        "storage.partition_ios": phase_ios.get("partition", 0),
        "storage.sort_ios": phase_ios.get("sort", 0),
        "storage.join_ios": phase_ios.get("join", 0),
        "storage.buffer_fetches": _ratio(loop.get("storage.buffer_fetches", 0), ops),
        "storage.buffer_hit_ratio": _ratio(
            loop.get("storage.buffer_hits", 0), loop.get("storage.buffer_fetches", 0)
        ),
        "storage.codec_calls": _ratio(durable.get("storage.codec.calls", 0), durable_ops),
        "storage.codec_s": _ratio(durable.get("storage.codec.s", 0.0), durable_ops),
        "storage.fsyncs_per_ack": _ratio(durable.get("storage.fsyncs", 0), acks),
        "storage.wal_appends_per_ack": _ratio(durable.get("storage.wal_appends", 0), acks),
        "storage.wal_bytes_per_ack": _ratio(durable.get("storage.wal_bytes", 0), acks),
        "storage.wal_sync_ms": _ratio(durable.get("storage.wal_sync.s", 0.0) * 1e3, syncs),
        "storage.snapshot_bytes_per_ack": _ratio(durable.get("storage.snapshot_bytes", 0), acks),
        "storage.write_bytes_per_user_byte": _ratio(
            facts.get("loop_write_bytes", 0), facts.get("user_bytes", 0)
        ),
        "storage.recovery_replayed": facts.get("recovery_replayed", 0),
        "service.window_query_ms": _mean(windows) * 1e3,
        "service.pages_per_query": _ratio(
            loop.get("index.window_fetches", 0), len(loop_queries)
        ),
        "service.self_join_s": _mean(log.durations("index.self_join", ledger_span)),
        "service.compaction_s": _mean(compactions),
        "service.compactions": len(compactions),
        "service.compaction_bytes": _ratio(log.counts["index.compaction_bytes"], len(compactions)),
        "service.admission_wait_ms": _mean(admission) * 1e3,
        "service.rpc_ms": _mean(rpc) * 1e3,
        "obs.tracing_overhead": traced.work_s / plain.work_s - 1.0,
    }
    for name in names:
        if name.startswith("split."):
            layers[name] = plain.split.get(name[len("split."):], 0.0)
    return {name: layers[name] for name in names}
