"""Fault matching and the four run metrics.

Conventions, with k the final timeslot index and l the fault sequence
length. A fault instance is matched at the single slot where its query
solves, so l is 1 for every task; it is the module constant `L`, not a
parameter:

- fault rate      FR  = |{t in [l, k) : faults matched at t}| / (k - l)
- avg fault count AFC = sum over t in [l, k] of |matched(t)|, divided by the
                        number of faulty slots in that window (0 if none)
- normalized      NFC = total faults over [l, k] divided by the same total
                        for a seed-matched dry run (unavailable when the dry
                        total is zero)
- read/write      RWR = successful reads / successful state-changing
                        operations (unavailable when there are no writes)

The fault trace records the terminal dataset's faults as well; FR's window
excludes the terminal slot so an always-faulty run scores exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .rdf import Dataset
from .sparql import EvalContext, Query, binding_key, eval_query
from .trace import FaultTrace, OperationRecord

L = 1  # the fault sequence length, and so the first scored slot


@dataclass(frozen=True)
class FaultQuery:
    """A query whose distinct solutions are the fault instances of one task."""

    id: str
    query: Query


def match_faults(d: Dataset, fq: FaultQuery, ctx: EvalContext | None = None,
                 start: list[dict] | None = None) -> frozenset[str]:
    """Distinct solution keys of one fault query against one snapshot;
    with `start`, of the query's pattern joined onto those solutions."""
    result = eval_query(d, fq.query, ctx, start)
    if isinstance(result, bool):
        return frozenset(("true",)) if result else frozenset()
    return frozenset(binding_key(sol) for sol in result)


def fault_rate(trace: FaultTrace) -> float:
    if trace.k <= L:
        raise ValueError(f"run too short for sequence length {L}")
    faulty = sum(1 for t in range(L, trace.k) if trace.matched(t))
    return faulty / (trace.k - L)


def average_fault_count(trace: FaultTrace) -> float:
    counts = [len(trace.matched(t)) for t in range(L, trace.k + 1)]
    faulty = sum(1 for c in counts if c)
    if faulty == 0:
        return 0.0
    return sum(counts) / faulty


def total_faults(trace: FaultTrace) -> int:
    return sum(len(trace.matched(t)) for t in range(L, trace.k + 1))


def normalized_fault_count(trace: FaultTrace, dry: FaultTrace) -> float | None:
    denominator = total_faults(dry)
    if denominator == 0:
        return None
    return total_faults(trace) / denominator


def read_write_ratio(reads: int, writes: int) -> float | None:
    """RWR from `operation_counts`; None without writes."""
    return reads / writes if writes else None


def operation_counts(ops: list[OperationRecord]) -> tuple[int, int]:
    selected = [op for op in ops if op.ok]
    reads = sum(1 for op in selected if op.is_read)
    return reads, len(selected) - reads


def audit_write_deltas(ops: list[OperationRecord]) -> list[str]:
    """Violations of the one-graph-per-write contract."""
    problems = []
    for i, op in enumerate(ops):
        if op.is_read or not op.ok:
            continue
        if len(op.delta_graphs) > 1:
            problems.append(f"op {i}: delta names {len(op.delta_graphs)} graphs")
        elif op.delta_graphs and op.delta_graphs != (op.target,):
            problems.append(f"op {i}: delta {op.delta_graphs} outside target")
    return problems


@dataclass
class MetricsReport:
    fault_rate: float
    average_fault_count: float
    normalized_fault_count: float | None
    read_write_ratio: float | None
    reads: int
    writes: int
    total_faults: int
    dry_total_faults: int | None
    per_slot_counts: list[int] = field(default_factory=list)
    valid: bool = True
    notes: str = ""

    def rows(self) -> list[tuple[str, str]]:
        def fmt(value):
            return "unavailable" if value is None else repr(value)

        return [
            ("fault_rate", repr(self.fault_rate)),
            ("average_fault_count", repr(self.average_fault_count)),
            ("normalized_fault_count", fmt(self.normalized_fault_count)),
            ("read_write_ratio", fmt(self.read_write_ratio)),
            ("reads", str(self.reads)),
            ("writes", str(self.writes)),
            ("total_faults", str(self.total_faults)),
            ("dry_total_faults", fmt(self.dry_total_faults)),
            ("valid", str(self.valid).lower()),
        ]


def compute_metrics(trace: FaultTrace, dry: FaultTrace | None,
                    ops: list[OperationRecord], valid: bool = True,
                    notes: str = "") -> MetricsReport:
    reads, writes = operation_counts(ops)
    return MetricsReport(
        fault_rate=fault_rate(trace),
        average_fault_count=average_fault_count(trace),
        normalized_fault_count=(normalized_fault_count(trace, dry)
                                if dry is not None else None),
        read_write_ratio=read_write_ratio(reads, writes),
        reads=reads,
        writes=writes,
        total_faults=total_faults(trace),
        dry_total_faults=total_faults(dry) if dry is not None else None,
        per_slot_counts=trace.counts(),
        valid=valid,
        notes=notes,
    )


def write_metrics_tsv(report: MetricsReport, path: str | Path) -> None:
    lines = ["metric\tvalue"] + [f"{name}\t{value}" for name, value in report.rows()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_metrics_tsv(path: str | Path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text().splitlines()[1:]:
        if line.strip():
            name, value = line.split("\t", 1)
            out[name] = value
    return out
