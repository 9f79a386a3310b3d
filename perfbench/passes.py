"""What one pass of a workload hands back to ``run.py``."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager

from tracing import SpanLog


@dataclass
class Pass:
    """One pass: end-to-end metrics, answer-check failures and the
    facts the per-layer figures are normalised by."""

    metrics: dict[str, float] = field(default_factory=dict)
    split: dict[str, float] = field(default_factory=dict)
    facts: dict[str, Any] = field(default_factory=dict)
    sizes: dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    ledger: str | None = None  # canonical JSON of a seed-deterministic ledger
    work_s: float = 0.0  # seconds per unit of work, for tracing overhead

    def fail(self, message: str) -> None:
        self.failures.append(message)


def scope(log: SpanLog | None, name: str) -> ContextManager[Any]:
    """``log.section(name)`` on a traced pass, nothing otherwise."""
    return log.section(name) if log is not None else nullcontext()
