"""batch-join: S3J over two uniform-square sets, ledger and memory mode.

The inputs are shaped like the paper's UN1-UN2 pair (Fig. 8a): 20,000
squares per side at coverage 0.4 and 0.9.  At 85 descriptors per page
the inputs span 472 pages against a buffer pool of 10% of that (48
frames), so the external sort merges for real.  One round of the
closed loop is one ledger-mode join followed by four memory-mode joins
on the same inputs; a memory join is ~12x faster, and repeating it
keeps its median steady.  Each round is one slice of the loop figures,
so ``p50_ms`` is a memory join and ``p95_ms`` close to a ledger join.
"""

from __future__ import annotations

import json
import time

from common import (
    PAGE_RECORDS,
    blocked_oracle,
    median,
    peak_rss_mb,
    slice_medians,
    timed_repeats,
)
from passes import Pass, scope
from repro.datagen.uniform import uniform_squares_by_coverage
from repro.join.api import default_storage_config, spatial_join
from tracing import SpanLog

ENTITIES = 20_000
COVERAGE_A, COVERAGE_B = 0.4, 0.9
MEMORY_JOINS_PER_ROUND = 4


def _inputs(seed: int):
    a = uniform_squares_by_coverage(ENTITIES, COVERAGE_A, seed=2 * seed, name="UN1")
    b = uniform_squares_by_coverage(ENTITIES, COVERAGE_B, seed=2 * seed + 1, name="UN2")
    return a, b


def _ledger_record(result) -> str:
    """The ledger of one join as canonical JSON: per-phase counters,
    page I/Os and simulated seconds."""
    metrics = result.metrics
    return json.dumps(
        {
            "phases": {name: s.to_dict() for name, s in sorted(metrics.phases.items())},
            "page_ios": metrics.total_ios,
            "sim_response_s": metrics.response_time,
        },
        sort_keys=True,
    )


def run(seed: int, seconds: float, log: SpanLog | None) -> Pass:
    out = Pass()
    setups, (a, b) = timed_repeats(lambda: _inputs(seed))

    ledger_walls: list[float] = []
    memory_walls: list[float] = []
    rounds: list[tuple[float, int, list[float]]] = []  # (seconds, ops, op ms)
    ledger_result = None
    memory_pairs = None

    def join(mode: str, latencies: list[float]):
        start = time.perf_counter()
        result = spatial_join(a, b, mode=mode)
        wall = time.perf_counter() - start
        latencies.append(wall * 1e3)
        (ledger_walls if mode == "ledger" else memory_walls).append(wall)
        return result

    deadline = time.perf_counter() + seconds
    with scope(log, "bench.loop"):
        while time.perf_counter() < deadline or not rounds:
            round_start = time.perf_counter()
            latencies: list[float] = []
            with scope(log, "bench.ledger_join"):
                result = join("ledger", latencies)
            record = _ledger_record(result)
            if ledger_result is None:
                ledger_result, out.ledger = result, record
            elif record != out.ledger:
                out.fail(f"ledger join {len(ledger_walls)} recorded a different ledger")
            if result.pairs != ledger_result.pairs:
                out.fail(f"ledger join {len(ledger_walls)} returned a different pair set")
            for _ in range(MEMORY_JOINS_PER_ROUND):
                with scope(log, "bench.memory_join"):
                    memory_pairs = join("memory", latencies).pairs
                if memory_pairs != ledger_result.pairs:
                    out.fail(f"memory join {len(memory_walls)} differs from ledger mode")
            rounds.append((time.perf_counter() - round_start, len(latencies), latencies))
    rss = peak_rss_mb()

    ops = sum(count for _, count, _ in rounds)
    out.attempted = ops + 1  # + the oracle check
    oracle = blocked_oracle(a, b, self_join=False)
    if oracle != ledger_result.pairs:
        out.fail(
            f"ledger pairs ({len(ledger_result.pairs)}) differ from the "
            f"oracle ({len(oracle)})"
        )
    if memory_pairs != oracle:
        out.fail("memory pairs differ from the oracle")

    pairs = len(ledger_result.pairs)
    metrics = ledger_result.metrics
    out.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        **slice_medians(rounds),
        "ledger_pairs_per_s": pairs / median(ledger_walls),
        "memory_pairs_per_s": pairs / median(memory_walls),
        "sim_response_s": metrics.response_time,
    }
    out.split = {"join_s": median(ledger_walls)}
    out.work_s = median(ledger_walls) + median(memory_walls)
    out.facts = {
        "loop_ops": ops,
        "ledger_pairs": pairs,
        "memory_pairs": pairs,
        "mbr_tests": metrics.phases["join"].cpu_ops.get("mbr_test", 0),
        "page_ios": metrics.total_ios,
        "phase_ios": {name: metrics.phase_ios(name) for name in metrics.phase_names},
    }
    out.sizes = {
        "entities": [len(a), len(b)],
        "input_pages": -(-len(a) // PAGE_RECORDS) + -(-len(b) // PAGE_RECORDS),
        "buffer_frames": default_storage_config(a, b).buffer_pages,
        "ledger_joins": len(ledger_walls),
        "memory_joins": len(memory_walls),
    }
    return out
