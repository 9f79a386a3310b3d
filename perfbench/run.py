"""Benchmark of the three S3J paths: a batch join, resident queries over
TCP and durable acknowledged mutations (a phase of the service run).

    python3 perfbench/run.py --workload batch-join --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced then traced, and prints the per-layer metrics
of the traced pass plus the tracing overhead between the two.  Every
answer is checked; the last stdout line is the JSON result, and the
exit code is non-zero when any check fails.  Spans, results and ledger
records go under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SPEC = ROOT / "BENCHMARK.json"  # workload and metric names, with units


def _calibration_s() -> float:
    """Median time of a fixed pure-Python + numpy loop, recorded with
    every result so host speed can be compared; never a metric."""
    import numpy as np

    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        values = np.arange(1_000_000, dtype=np.float64)
        for _ in range(10):
            values = np.sqrt(values * 1.0001 + 1.0)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    path = path.resolve()
    best, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1]
            inside = path == Path(mount) or str(path).startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, fields[2]
    return kind


def _host(flush_policy: str) -> dict:
    import numpy

    OUT.mkdir(parents=True, exist_ok=True)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "durable_filesystem": _filesystem(OUT),
        "flush_policy": flush_policy,
        "calibration_s": _calibration_s(),
    }


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_ledger_record(workload: str, seed: int, record: str) -> str | None:
    """Every run of one seed on one source tree must record the same
    ledger; the first run's record is kept for the later ones."""
    path = OUT / "ledger" / _source_digest() / f"{workload}-{seed}.json"
    if path.exists():
        if path.read_text(encoding="utf-8") != record:
            return f"ledger differs from the earlier run recorded in {path}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(record, encoding="utf-8")
    return None


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import batch
    import serving
    from layers import layer_metrics
    from tracing import SpanLog, install

    workdir = OUT / f"store-{os.getpid()}"
    runners = {
        "batch-join": batch.run,
        "service-query": lambda seed, seconds, log: serving.run(seed, seconds, log, workdir),
    }
    run = runners[args.workload]
    host = _host(serving.FLUSH_POLICY)
    os.sync()  # earlier runs' writeback must not run into this one
    plain = run(args.seed, args.seconds, None)
    passes = [plain]
    if args.trace:
        log = SpanLog()
        restore = install(log)
        try:
            traced = run(args.seed, args.seconds, log)
        finally:
            restore()
        passes.append(traced)
        log.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")
        listed = spec["per_layer"]
        values = layer_metrics(log, traced, plain, [m["name"] for m in listed])
    else:
        listed, values = spec["end_to_end"], plain.metrics
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    failures = [failure for one in passes for failure in one.failures]
    if plain.ledger is not None:
        if any(one.ledger != plain.ledger for one in passes):
            failures.append("the traced pass recorded a different ledger")
        mismatch = _check_ledger_record(args.workload, args.seed, plain.ledger)
        if mismatch:
            failures.append(mismatch)

    result = {
        "correct": not failures,
        "attempted": sum(one.attempted for one in passes),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "sizes": plain.sizes,
        "split": plain.split,
        "failures": failures[:50],
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    for failure in failures[:20]:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(json.dumps({"host": host, "sizes": plain.sizes, "split": plain.split}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
