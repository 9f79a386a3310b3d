"""service-query: the resident index behind its JSON-lines TCP front end,
then a durable phase of acknowledged mutations on a WAL-backed store.

The server runs in this process, on the event loop its clients use (as
``benchmarks/bench_service.py`` does), with the shipped
``ServiceConfig``.  Two connections each run a closed loop: a
connection sends its next request only after the reply to the last one
arrived.  Latency is the client's round trip, reply parse included.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import shutil
import time
from collections import Counter
from pathlib import Path
from typing import Any

from common import (
    PAGE_RECORDS,
    RECORD_BYTES,
    BoxTable,
    blocked_oracle,
    bytes_written,
    directory_bytes,
    ledger_delta,
    log_uniform_squares,
    median,
    peak_rss_mb,
    percentile,
    slice_medians,
    timed_repeats,
)
from passes import Pass, scope
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.api import spatial_join
from repro.join.dataset import SpatialDataset
from repro.service import JoinService, PersistentIndex, ServiceServer
from tracing import SpanLog

CONNECTIONS = 2
WINDOW = 0.01  # window side: 1% x 1% of the unit square
QUERY_ENTITIES = 24_000
MUTATE_ENTITIES = 5_000
# Shares of the run's seconds: the query loop, then the durable loop.  The
# rest goes to set-up, the repeated joins and the reopens.
QUERY_SHARE = 0.4
DURABLE_SHARE = 0.2
REPLY_LIMIT = 1 << 26  # a join reply carries every pair on one line
SLICE_SECONDS = 2.0

FLUSH_POLICY = (
    "as shipped: WAL fsync after every append; index-snapshot.json "
    "rewritten with fsync + rename before every ack; background "
    "compactor at 256 delta records"
)


class Connection:
    """One closed-loop JSON-lines client; keeps every exchange."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        number: int,
        log: SpanLog | None,
    ) -> None:
        self.reader, self.writer = reader, writer
        self.number = number
        self.log = log
        self.sent = 0
        self.socket_bytes = 0
        self.exchanges: list[tuple[str, float, float, dict, dict]] = []

    async def ask(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request["op"]
        span = None
        if self.log is not None:
            rid = self.number * 10_000_000 + self.sent
            request["rid"] = rid
            self.log.request_id.set(rid)
            span = self.log.open(f"client.{op}")
        self.sent += 1
        line = json.dumps(request).encode() + b"\n"
        start = time.perf_counter()
        self.writer.write(line)
        await self.writer.drain()
        reply = await self.reader.readline()
        response = json.loads(reply)
        end = time.perf_counter()
        if span is not None:
            self.log.close(*span)
        self.socket_bytes += len(line) + len(reply)
        self.exchanges.append((op, start, end, request, response))
        return response

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _connect(address: tuple[str, int], number: int, log: SpanLog | None) -> Connection:
    reader, writer = await asyncio.open_connection(*address, limit=REPLY_LIMIT)
    return Connection(reader, writer, number, log)


async def _closed_loop(connections, client, seconds: float, timed: tuple[str, ...]):
    """Run ``client`` on every connection for ``seconds``; returns the
    loop cut into slices of ``SLICE_SECONDS`` by request start, each as
    (slice seconds, requests it started, latencies in ms of those whose
    op is in ``timed``).  The last slice runs until the last reply."""
    start = time.perf_counter()
    await asyncio.gather(*(client(conn, start + seconds) for conn in connections))
    elapsed = time.perf_counter() - start
    count = max(1, int(seconds // SLICE_SECONDS))
    width = seconds / count
    ops = [0] * count
    latencies: list[list[float]] = [[] for _ in range(count)]
    for conn in connections:
        for op, begin, end, _, _ in conn.exchanges:
            slot = min(count - 1, int((begin - start) / width))
            ops[slot] += 1
            if op in timed:
                latencies[slot].append((end - begin) * 1e3)
    widths = [width] * (count - 1) + [elapsed - width * (count - 1)]
    return list(zip(widths, ops, latencies))


def _window(rng: random.Random) -> dict[str, Any]:
    xlo, ylo = rng.random() * (1.0 - WINDOW), rng.random() * (1.0 - WINDOW)
    return {"op": "window", "xlo": xlo, "ylo": ylo, "xhi": xlo + WINDOW, "yhi": ylo + WINDOW}


def _latencies(exchanges, ops: tuple[str, ...]) -> list[float]:
    return [(end - start) * 1e3 for op, start, end, _, _ in exchanges if op in ops]


def _p50_p95(prefix: str, values: list[float]) -> dict[str, float]:
    return {f"{prefix}_p50_ms": percentile(values, 50), f"{prefix}_p95_ms": percentile(values, 95)}


def _check_status(out: Pass, exchanges) -> None:
    for op, _, _, request, response in exchanges:
        good = response.get("ok") if op in ("insert", "delete") else response.get("status") == "ok"
        if not good:
            out.fail(f"{op} {request} answered {response}")


def _cold_joins(out: Pass, log: SpanLog | None, index: PersistentIndex, at_least: int):
    """Repeated self joins straight on the index; returns (pairs, walls,
    ledger delta of the last), failing the pass if the ledger moves."""
    stats = index.storage.stats
    deltas = []

    def join():
        before = stats.snapshot()
        with scope(log, "bench.ledger_join"):
            pairs = index.self_join()
        deltas.append(ledger_delta(before, stats.snapshot()))
        return pairs

    walls, pairs = timed_repeats(join, at_least=at_least)
    if len({json.dumps(delta.to_dict(), sort_keys=True) for delta in deltas}) != 1:
        out.fail(f"{len(deltas)} self joins of one index recorded different ledgers")
    return pairs, walls, deltas[-1]


def _joins(out: Pass, log: SpanLog | None, index: PersistentIndex, dataset: SpatialDataset):
    """Direct self joins of ``index`` and memory-mode self joins of its
    set ``dataset``; returns (ledger pairs, walls, ledger delta, memory
    pairs, walls)."""
    pairs, walls, delta = _cold_joins(out, log, index, at_least=2)

    def memory_join():
        with scope(log, "bench.memory_join"):
            return spatial_join(dataset, dataset, mode="memory").pairs

    memory_walls, memory_pairs = timed_repeats(memory_join)
    return pairs, walls, delta, memory_pairs, memory_walls


def _join_facts(index: PersistentIndex, delta, pairs) -> dict[str, Any]:
    return {
        "ledger_pairs": len(pairs),
        "mbr_tests": delta.cpu_ops.get("mbr_test", 0),
        "page_ios": delta.total_ios,
        "phase_ios": {"join": delta.total_ios},
        "sim_response_s": index.storage.cost_model.response_time(delta),
    }


def _pages(index: PersistentIndex, entities: list[Entity]) -> int:
    """Level-file pages holding ``entities`` (one file per level)."""
    per_level = Counter(index.assigner.level(entity.mbr) for entity in entities)
    return sum(-(-count // PAGE_RECORDS) for count in per_level.values())


# -- service-query --------------------------------------------------------


def run(seed: int, seconds: float, log: SpanLog | None, workdir: Path) -> Pass:
    """The query loop (the gated figures), then the durable phase."""
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = asyncio.run(_run_query(seed, seconds * QUERY_SHARE, log))
        asyncio.run(_run_durable(out, seed, seconds * DURABLE_SHARE, log, workdir))
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


async def _run_query(seed: int, seconds: float, log: SpanLog | None) -> Pass:
    out = Pass()
    entities = log_uniform_squares(QUERY_ENTITIES, seed)
    setups, index = timed_repeats(
        lambda: PersistentIndex(entities), dispose=PersistentIndex.close
    )
    dataset = SpatialDataset("live", entities)
    # Half the join samples before the loop and half after, so a slow
    # stretch of the host weighs on one half only.
    try:
        before_loop = _joins(out, log, index, dataset)
    except BaseException:
        index.close()
        raise
    service = JoinService(index)
    server = ServiceServer(service)
    address = await server.start()
    try:
        connections = [await _connect(address, n, log) for n in range(CONNECTIONS)]

        async def client(conn: Connection, deadline: float) -> None:
            rng = random.Random(seed * 1009 + conn.number)
            while time.perf_counter() < deadline:
                if rng.random() < 0.5:
                    await conn.ask({"op": "point", "x": rng.random(), "y": rng.random()})
                else:
                    await conn.ask(_window(rng))

        with scope(log, "bench.loop"):
            slices = await _closed_loop(connections, client, seconds, ("point", "window"))
        rss = peak_rss_mb()
        exchanges = [e for conn in connections for e in conn.exchanges]

        stats = index.storage.stats
        before = stats.snapshot()
        with scope(log, "bench.join_op"):
            reply = await connections[0].ask({"op": "join"})
        served_ledger = ledger_delta(before, stats.snapshot()).to_dict()
        join_wall = connections[0].exchanges[-1][2] - connections[0].exchanges[-1][1]
        for conn in connections:
            await conn.close()
    finally:
        await server.stop()
    try:
        after_loop = _joins(out, log, index, dataset)
    finally:
        index.close()
    early_pairs, early_walls, early_delta, early_memory_pairs, early_memory_walls = before_loop
    pairs, join_walls, delta, memory_pairs, memory_walls = after_loop
    join_walls += early_walls
    memory_walls += early_memory_walls
    if not early_delta.to_dict() == served_ledger == delta.to_dict():
        out.fail("the join op and the direct self joins recorded different ledgers")
    if early_pairs != pairs or early_memory_pairs != memory_pairs:
        out.fail("self joins before and after the query loop differ")

    _check_status(out, exchanges)
    _check_status(out, [connections[0].exchanges[-1]])
    table = BoxTable(entities)
    for op, _, _, request, response in exchanges:
        if op == "point":
            expected = table.window(request["x"], request["y"], request["x"], request["y"])
        else:
            expected = table.window(request["xlo"], request["ylo"], request["xhi"], request["yhi"])
        if response.get("eids") != expected:
            got = len(response.get("eids") or [])
            out.fail(f"{op} {request} returned {got} ids, expected {len(expected)}")
    served = frozenset(tuple(pair) for pair in reply.get("pairs") or ())
    oracle = blocked_oracle(dataset, dataset, self_join=True)
    if served != oracle:
        out.fail(f"join op returned {len(served)} pairs, oracle {len(oracle)}")
    if pairs != oracle:
        out.fail(f"direct self join returned {len(pairs)} pairs, oracle {len(oracle)}")
    if memory_pairs != oracle:
        out.fail(f"memory self join returned {len(memory_pairs)} pairs, oracle {len(oracle)}")
    out.attempted = len(exchanges) + 3  # + join op, direct and memory self joins

    facts = _join_facts(index, delta, pairs)
    out.ledger = json.dumps(
        {"ledger": delta.to_dict(), "sim_response_s": facts["sim_response_s"]}, sort_keys=True
    )
    loop = slice_medians(slices)
    out.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        **loop,
        "ledger_pairs_per_s": len(pairs) / median(join_walls),
        "memory_pairs_per_s": len(oracle) / median(memory_walls),
        "sim_response_s": facts["sim_response_s"],
    }
    out.split = {
        **_p50_p95("point", _latencies(exchanges, ("point",))),
        **_p50_p95("window", _latencies(exchanges, ("window",))),
        "join_s": join_wall,
    }
    out.work_s = 1.0 / loop["ops_per_s"]
    out.facts = {
        **facts,
        "memory_pairs": len(oracle),
        "loop_ops": len(exchanges),
    }
    out.sizes = {
        "entities": len(entities),
        "index_pages": _pages(index, entities),
        "buffer_frames": index.storage.config.buffer_pages,
        "connections": CONNECTIONS,
        "ops": len(exchanges),
    }
    return out


# -- durable phase ---------------------------------------------------------


async def _run_durable(
    out: Pass, seed: int, seconds: float, log: SpanLog | None, workdir: Path
) -> None:
    """Acknowledged mutations beside windows on a WAL-backed store; adds
    the per-layer durability figures to ``out`` (none of them gated)."""
    entities = log_uniform_squares(MUTATE_ENTITIES, seed)
    index = PersistentIndex(entities, data_dir=str(workdir / "store"))
    data_dir = index.data_dir
    pages = _pages(index, entities)
    os.sync()  # the store's creation must not run into the loop
    try:
        connections, slices, written = await _mutate_loop(seed, seconds, log, index)
        live_count = len(index)
    finally:
        index.close()
    space = directory_bytes(data_dir)
    exchanges = [e for conn in connections for e in conn.exchanges]
    _check_status(out, exchanges)
    model = _check_epochs(out, entities, exchanges)
    reopens, recovery = _check_reopened(out, data_dir, model)
    out.attempted += len(exchanges) + 2  # + live set and self join after reopen

    acks = [e for e in exchanges if e[0] in ("insert", "delete")]
    socket_bytes = sum(conn.socket_bytes for conn in connections)
    out.split.update(
        {
            **_p50_p95("ack", _latencies(exchanges, ("insert", "delete"))),
            **_p50_p95("durable_window", _latencies(exchanges, ("window",))),
            "durable_ops_per_s": len(exchanges) / sum(width for width, _, _ in slices),
            "reopen_s": median(reopens),
            "space_amp": space / (live_count * RECORD_BYTES),
        }
    )
    out.facts.update(
        {
            "durable_ops": len(exchanges),
            "acks": len(acks),
            "user_bytes": len(acks) * RECORD_BYTES,
            "loop_write_bytes": written - socket_bytes,
            "recovery_replayed": recovery.replayed_records,
        }
    )
    out.sizes["durable"] = {
        "entities": [len(entities), live_count],
        "index_pages": pages,
        "buffer_frames": index.storage.config.buffer_pages,
        "connections": CONNECTIONS,
        "ops": len(exchanges),
        "acks": len(acks),
    }


async def _mutate_loop(seed: int, seconds: float, log: SpanLog | None, index: PersistentIndex):
    """The closed loop, then a final compaction; returns (connections,
    slices, bytes written during the loop)."""
    service = JoinService(index)
    server = ServiceServer(service)
    address = await server.start()
    try:
        connections = [await _connect(address, n, log) for n in range(CONNECTIONS)]

        async def client(conn: Connection, deadline: float) -> None:
            rng = random.Random(seed * 1009 + conn.number)
            owned: list[int] = []
            next_eid = (conn.number + 1) * 10_000_000
            while time.perf_counter() < deadline:
                choice = rng.random()
                if choice < 0.2 and owned:
                    eid = owned.pop(rng.randrange(len(owned)))
                    await conn.ask({"op": "delete", "eid": eid})
                elif 0.2 <= choice < 0.4:
                    await conn.ask(_window(rng))
                else:
                    side = math.exp(rng.uniform(math.log(5e-4), math.log(2e-2)))
                    x, y = rng.random() * (1.0 - side), rng.random() * (1.0 - side)
                    reply = await conn.ask(
                        {"op": "insert", "eid": next_eid, "xlo": x, "ylo": y,
                         "xhi": x + side, "yhi": y + side}
                    )
                    if reply.get("ok"):
                        owned.append(next_eid)
                    next_eid += 1

        written = bytes_written()
        with scope(log, "bench.durable_loop"):
            slices = await _closed_loop(connections, client, seconds, ("insert", "delete"))
        written = bytes_written() - written
        for conn in connections:
            await conn.close()
        await service.compact()
    finally:
        await server.stop()
    return connections, slices, written


def _check_reopened(out: Pass, data_dir: Path, model: list[Entity]):
    """Reopen the closed store; check its live set and self join against
    the model.  Returns (reopen walls, the first reopen's recovery)."""
    index = PersistentIndex.open(str(data_dir))
    recovery = index.storage.backend.last_recovery
    index.close()
    reopens, index = timed_repeats(
        lambda: PersistentIndex.open(str(data_dir)), dispose=PersistentIndex.close
    )
    try:
        boxes = sorted(_box(e) for e in index.live_entities())
        if boxes != sorted(_box(e) for e in model):
            out.fail(f"reopened store holds {len(boxes)} entities, model {len(model)}")
        pairs = index.self_join()
    finally:
        index.close()
    dataset = SpatialDataset("live", model)
    expected = blocked_oracle(dataset, dataset, self_join=True)
    if pairs != expected:
        out.fail(f"reopened self join returned {len(pairs)} pairs, oracle {len(expected)}")
    return reopens, recovery


def _box(entity: Entity) -> tuple[int, float, float, float, float]:
    return (entity.eid, entity.mbr.xlo, entity.mbr.ylo, entity.mbr.xhi, entity.mbr.yhi)


def _check_epochs(out: Pass, seeded: list[Entity], exchanges) -> list[Entity]:
    """Replay the acknowledged mutations in epoch order and check every
    window answer against the live set at the epoch it reports.
    Returns the final live set."""
    mutations = []
    inserted: list[Entity] = []
    for op, _, _, request, response in exchanges:
        if op == "insert":
            box = Rect(request["xlo"], request["ylo"], request["xhi"], request["yhi"])
            inserted.append(Entity(request["eid"], box))
        if op in ("insert", "delete") and response.get("ok"):
            mutations.append((response["epoch"], op, request["eid"]))
    epochs = [epoch for epoch, _, _ in mutations]
    if len(set(epochs)) != len(epochs):
        out.fail("two acknowledged mutations share an epoch")
    table = BoxTable(seeded + inserted)
    for entity in inserted:
        table.live[table.row_of[entity.eid]] = False
    mutations.sort()
    windows = sorted(
        (
            (response.get("epoch", -1), request, response)
            for op, _, _, request, response in exchanges
            if op == "window"
        ),
        key=lambda window: window[0],
    )
    applied = 0
    for epoch, request, response in windows:
        while applied < len(mutations) and mutations[applied][0] <= epoch:
            _, op, eid = mutations[applied]
            table.live[table.row_of[eid]] = op == "insert"
            applied += 1
        expected = table.window(request["xlo"], request["ylo"], request["xhi"], request["yhi"])
        if response.get("eids") != expected:
            got = len(response.get("eids") or [])
            out.fail(f"window at epoch {epoch} returned {got} ids, expected {len(expected)}")
    for _, op, eid in mutations[applied:]:
        table.live[table.row_of[eid]] = op == "insert"
    by_eid = {entity.eid: entity for entity in seeded + inserted}
    return [by_eid[int(eid)] for eid in table.eids[table.live]]
