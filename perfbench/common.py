"""Helpers shared by the three workloads: inputs, answer checks, host
figures.

Everything here runs outside the timed regions.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.join.result import Pair, canonical_pairs
from repro.storage.iostats import PhaseStats
from repro.storage.manager import DEFAULT_PAGE_SIZE
from repro.storage.records import EntityDescriptorCodec
from repro.verify.oracle import oracle_pairs

RECORD_BYTES = EntityDescriptorCodec().record_size
"""48 B: one entity descriptor, the user payload of one live entity."""

PAGE_RECORDS = EntityDescriptorCodec().records_per_page(DEFAULT_PAGE_SIZE)
"""85 descriptors per 4 KB page."""

REPEAT_SECONDS = 2.0
"""Repeated measurements (set-ups, cold joins, reopens) keep going for
at least this long, so one short stall moves one sample of a median."""

ORACLE_BLOCK = 1000
"""Rows of A per brute-force block: a 1000 x 24000 boolean mask is
24 MB, so the oracle's peak memory stays bounded."""


def log_uniform_squares(
    count: int, seed: int, first_eid: int = 0
) -> list[Entity]:
    """``count`` squares with log-uniform sides in [5e-4, 2e-2] at
    uniform positions, so they spread over several Filter-Tree levels."""
    rng = np.random.default_rng(seed)
    sides = np.exp(rng.uniform(math.log(5e-4), math.log(2e-2), size=count))
    xlo = rng.uniform(0.0, 1.0, size=count) * (1.0 - sides)
    ylo = rng.uniform(0.0, 1.0, size=count) * (1.0 - sides)
    return [
        Entity(first_eid + i, Rect(float(x), float(y), float(x + s), float(y + s)))
        for i, (x, y, s) in enumerate(zip(xlo, ylo, sides))
    ]


def blocked_oracle(
    dataset_a: SpatialDataset, dataset_b: SpatialDataset, self_join: bool
) -> frozenset[Pair]:
    """``repro.verify.oracle.oracle_pairs`` over row blocks of A.

    Each block is its own data set object, so every call is a non-self
    join; a self join is canonicalized once at the end."""
    raw: set[Pair] = set()
    entities = dataset_a.entities
    for start in range(0, len(entities), ORACLE_BLOCK):
        block = SpatialDataset("oracle-block", entities[start : start + ORACLE_BLOCK])
        raw |= oracle_pairs(block, dataset_b)
    return canonical_pairs(raw, self_join)


class BoxTable:
    """Brute-force window filter over a fixed entity table, with a
    live mask for sets that change over time."""

    def __init__(self, entities: Iterable[Entity]) -> None:
        rows = [(e.eid, e.mbr.xlo, e.mbr.ylo, e.mbr.xhi, e.mbr.yhi) for e in entities]
        self.eids = np.array([row[0] for row in rows], dtype=np.int64)
        boxes = np.array([row[1:] for row in rows], dtype=np.float64).reshape(-1, 4)
        self.xlo, self.ylo, self.xhi, self.yhi = boxes.T
        self.row_of = {int(eid): row for row, eid in enumerate(self.eids)}
        self.live = np.ones(len(rows), dtype=bool)

    def window(self, xlo: float, ylo: float, xhi: float, yhi: float) -> list[int]:
        """Sorted eids of live boxes meeting the closed window."""
        mask = (
            self.live
            & (self.xlo <= xhi)
            & (xlo <= self.xhi)
            & (self.ylo <= yhi)
            & (ylo <= self.yhi)
        )
        return sorted(self.eids[mask].tolist())


def ledger_delta(before: PhaseStats, after: PhaseStats) -> PhaseStats:
    """The ledger counters recorded between two snapshots."""
    ops = {
        op: after.cpu_ops.get(op, 0) - before.cpu_ops.get(op, 0)
        for op in after.cpu_ops
    }
    return PhaseStats(
        page_reads=after.page_reads - before.page_reads,
        page_writes=after.page_writes - before.page_writes,
        random_reads=after.random_reads - before.random_reads,
        random_writes=after.random_writes - before.random_writes,
        buffer_hits=after.buffer_hits - before.buffer_hits,
        cpu_ops={op: count for op, count in ops.items() if count},
    )


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def timed_repeats(
    action: Callable[[], Any],
    dispose: Callable[[Any], None] | None = None,
    at_least: int = 3,
) -> tuple[list[float], Any]:
    """Run ``action`` at least ``at_least`` times and for at least
    ``REPEAT_SECONDS``; returns the wall time of each run and the last
    result.  ``dispose`` releases every earlier result."""
    walls: list[float] = []
    end = time.perf_counter() + REPEAT_SECONDS
    while True:
        start = time.perf_counter()
        result = action()
        walls.append(time.perf_counter() - start)
        if len(walls) >= at_least and time.perf_counter() >= end:
            return walls, result
        if dispose is not None:
            dispose(result)


def slice_medians(slices: list[tuple[float, int, list[float]]]) -> dict[str, float]:
    """``ops_per_s``, ``p50_ms`` and ``p95_ms`` as medians over slices
    of the closed loop, each slice given as (seconds, ops completed,
    latencies in ms of the ops its percentiles cover).  A stall that
    hits one slice moves one sample of each median, not the figure."""
    slices = [one for one in slices if one[2]]
    return {
        "ops_per_s": median([ops / seconds for seconds, ops, _ in slices]),
        "p50_ms": median([percentile(lat, 50) for _, _, lat in slices]),
        "p95_ms": median([percentile(lat, 95) for _, _, lat in slices]),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bytes_written() -> int:
    """``wchar`` from ``/proc/self/io``: bytes this process passed to
    write calls, files and sockets alike."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def directory_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
