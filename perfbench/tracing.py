"""The traced run: an in-memory span log and the wrappers that feed it.

``repro.obs.Tracer`` keeps one span stack per tracer, so the spans of
interleaved asyncio tasks (two client connections, their server
handlers, the background compactor) would close out of order.  This
log keeps the open span per task in a context variable instead; spans
of one service request carry the request id the client put on the
wire.

``install`` wraps the public functions of each layer where their
callers look them up (``s3j.py`` imports ``partition_levels`` by name,
so the wrapper replaces ``repro.core.s3j.partition_levels``) and
returns the undo.  Calls that run per record or per page (the ledger's
``charge_cpu``, codec encode/decode, buffer fetches, fsync, WAL
append/sync) feed counters and timers instead of spans, so the log
stays small.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import json
import os
import time
import types
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from common import bytes_written

_perf = time.perf_counter


class SpanLog:
    """Spans as ``[name, start, end, parent, request id]`` rows plus
    named counters; ``-1`` means no parent / no request."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.sections: dict[str, Counter[str]] = {}
        self.section_runs: Counter[str] = Counter()
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self.request_id: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_request", default=-1
        )

    def open(self, name: str) -> tuple[int, contextvars.Token[int]]:
        index = len(self.spans)
        self.spans.append(
            [name, _perf(), 0.0, self._current.get(), self.request_id.get()]
        )
        return index, self._current.set(index)

    def close(self, index: int, token: contextvars.Token[int]) -> None:
        self.spans[index][2] = _perf()
        self._current.reset(token)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index, token = self.open(name)
        try:
            yield index
        finally:
            self.close(index, token)

    @contextmanager
    def section(self, name: str) -> Iterator[int]:
        """A span that also accumulates the counter deltas it covers
        (only for stretches where no other task runs)."""
        before = Counter(self.counts)
        with self.span(name) as index:
            yield index
        delta = self.sections.setdefault(name, Counter())
        for key, value in self.counts.items():
            if value != before.get(key, 0):
                delta[key] += value - before.get(key, 0)
        self.section_runs[name] += 1

    # -- derived figures --------------------------------------------------

    def during(self, section: str | None) -> Callable[[float], bool]:
        """A test of whether a span starts while a span named ``section``
        is open; time, not parentage, so spans of the server's tasks
        count toward the client section that caused them."""
        if section is None:
            return lambda start: True
        windows = [(s, e) for n, s, e, _, _ in self.spans if n == section]
        return lambda start: any(s <= start <= e for s, e in windows)

    def durations(self, name: str, during: str | None = None) -> list[float]:
        inside = self.during(during)
        return [
            end - start for n, start, end, _, _ in self.spans if n == name and inside(start)
        ]

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover
        (children of one span run one after another in its task)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (end - start) - covered[i]
            for i, (_, start, end, _, _) in enumerate(self.spans)
        ]

    def total_self(self, name: str, during: str | None = None) -> float:
        own, inside = self.self_times(), self.during(during)
        return sum(
            own[i] for i, row in enumerate(self.spans) if row[0] == name and inside(row[1])
        )

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines (times relative to the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        [index, name, round(start - origin, 7),
                         round(end - origin, 7), parent, rid]
                    )
                )
                handle.write("\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# -- wrappers ------------------------------------------------------------


def _spanned(log: SpanLog, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index, token = log.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(index, token)

    return wrapper


def _spanned_generator(
    log: SpanLog, name: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    """A sweep yields lazily; drain it inside the span so the span
    covers the sweep's work and not its caller's per-pair callback."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index, token = log.open(name)
        try:
            pairs = list(fn(*args, **kwargs))
        finally:
            log.close(index, token)
        log.counts[name + ".calls"] += 1
        return iter(pairs)

    return wrapper


def _spanned_async(
    log: SpanLog, name: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        index, token = log.open(name)
        try:
            return await fn(*args, **kwargs)
        finally:
            log.close(index, token)

    return wrapper


def _timer(log: SpanLog, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    counts = log.counts

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[name + ".s"] += _perf() - start
            counts[name + ".calls"] += 1

    return wrapper


def _counter(log: SpanLog, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    counts = log.counts

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(log: SpanLog) -> Callable[[], None]:
    """Wrap every measured layer entry point; returns the undo."""
    import repro.core.s3j as s3j
    import repro.core.sync_scan as sync_scan
    import repro.fastpath.join as fastpath_join
    import repro.obs.fileio as fileio
    import repro.service.scan as service_scan
    import repro.service.server as server
    from repro.fastpath.columnar import ColumnarDataset
    from repro.service.api import JoinService
    from repro.service.index import SNAPSHOT_FILE, PersistentIndex
    from repro.sorting.external_sort import ExternalSorter
    from repro.storage.backend import MemoryBackend
    from repro.storage.buffer import BufferPool
    from repro.storage.durable import DurableBackend
    from repro.storage.iostats import IOStats
    from repro.storage.records import StructCodec
    from repro.storage.wal import WriteAheadLog

    undo: list[tuple[object, str, object]] = []
    counts = log.counts

    def patch(owner: object, attr: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[attr]
        undo.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    # core, sweep, sorting
    patch(s3j, "partition_levels", lambda f: _spanned(log, "core.partition", f))
    patch(s3j, "synchronized_scan", lambda f: _spanned(log, "core.scan", f))
    for owner, attr in (
        (sync_scan, "sweep_intersections"),
        (service_scan, "sweep_intersections"),
        (service_scan, "sweep_self_intersections"),
    ):
        patch(owner, attr, lambda f: _spanned_generator(log, "sweep.sweep", f))

    def sort(fn: Callable[..., Any]) -> Callable[..., Any]:
        spanned = _spanned(log, "sorting.sort", fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = spanned(*args, **kwargs)
            counts["sorting.passes"] += result.total_passes
            return result

        return wrapper

    patch(ExternalSorter, "sort", sort)

    # fastpath
    patch(ColumnarDataset, "from_dataset", lambda f: _spanned(log, "fastpath.columnar", f))

    def kernel(fn: Callable[..., Any]) -> Callable[..., Any]:
        spanned = _spanned(log, "fastpath.kernel", fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = spanned(*args, **kwargs)
            counts["fastpath.candidates"] += len(result[0])
            return result

        return wrapper

    patch(fastpath_join, "forward_sweep_pairs", kernel)

    # storage: ledger, buffer pool, codec, durability
    patch(IOStats, "charge_cpu", lambda f: _counter(log, "storage.charge_cpu_calls", f))
    patch(MemoryBackend, "read_page", lambda f: _counter(log, "storage.backend_reads", f))
    patch(DurableBackend, "read_page", lambda f: _counter(log, "storage.backend_reads", f))

    def fetch(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            reads = counts["storage.backend_reads"]
            frame = fn(*args, **kwargs)
            counts["storage.buffer_fetches"] += 1
            if counts["storage.backend_reads"] == reads:
                counts["storage.buffer_hits"] += 1
            return frame

        return wrapper

    patch(BufferPool, "fetch", fetch)
    patch(StructCodec, "encode", lambda f: _timer(log, "storage.codec", f))
    patch(StructCodec, "decode", lambda f: _timer(log, "storage.codec", f))
    patch(os, "fsync", lambda f: _counter(log, "storage.fsyncs", f))

    def wal_append(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            before = self.bytes_appended
            result = fn(self, *args, **kwargs)
            counts["storage.wal_appends"] += 1
            counts["storage.wal_bytes"] += self.bytes_appended - before
            return result

        return wrapper

    patch(WriteAheadLog, "append", wal_append)
    patch(WriteAheadLog, "sync", lambda f: _timer(log, "storage.wal_sync", f))

    def snapshot_write(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(path: Any, *args: Any, **kwargs: Any) -> Any:
            result = fn(path, *args, **kwargs)
            if Path(path).name == SNAPSHOT_FILE:
                counts["storage.snapshot_writes"] += 1
                counts["storage.snapshot_bytes"] += os.path.getsize(path)
            return result

        return wrapper

    patch(fileio, "atomic_write_json", snapshot_write)

    # service: resident index and front end
    def window_query(fn: Callable[..., Any]) -> Callable[..., Any]:
        spanned = _spanned(log, "index.window_query", fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            fetches = counts["storage.buffer_fetches"]
            result = spanned(*args, **kwargs)
            counts["index.window_fetches"] += counts["storage.buffer_fetches"] - fetches
            return result

        return wrapper

    def compact(fn: Callable[..., Any]) -> Callable[..., Any]:
        spanned = _spanned(log, "index.compact", fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            written = bytes_written()
            result = spanned(*args, **kwargs)
            counts["index.compaction_bytes"] += bytes_written() - written
            return result

        return wrapper

    patch(PersistentIndex, "window_query", window_query)
    patch(PersistentIndex, "compact", compact)
    for attr in ("point_query", "self_join", "insert", "delete"):
        patch(PersistentIndex, attr, lambda f, a=attr: _spanned(log, f"index.{a}", f))
    for attr in ("point", "window", "join", "insert", "delete"):
        patch(JoinService, attr, lambda f, a=attr: _spanned_async(log, f"service.{a}", f))

    # The server parses each request line with json.loads; the shim
    # lifts the client's request id into the handler task's context.
    def loads(data: Any, *args: Any, **kwargs: Any) -> Any:
        request = json.loads(data, *args, **kwargs)
        if isinstance(request, dict) and "rid" in request:
            log.request_id.set(int(request["rid"]))
        return request

    shim = types.SimpleNamespace(loads=loads, dumps=json.dumps)
    patch(server, "json", lambda _: shim)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
