"""Fault matching and the four run metrics.

`match_faults` solves one fault query against one snapshot and is the
reference. A `FaultCheck` matches one fault query at every slot of a run
and gives the same keys, paying only for what changed since its last
match.

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
from datetime import datetime
from pathlib import Path

from .rdf import Dataset
from .sparql import EvalContext, Filter, Query, element_state, eval_query, \
    eval_stable, read_predicates, split_query
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
    return eval_query(d, fq.query, ctx, start, keys=True)


class FaultCheck:
    """One fault query matched at each slot of a run; every match equals
    `match_faults` with that slot's context.

    A match reuses the last result while the index entries of every
    predicate the query reads are the same objects. Otherwise it splits
    the query. Each pattern and GRAPH block has a state, the index maps it
    looks up (`sparql.element_state`), and becomes volatile the first time
    its state differs between two evaluations; it never leaves. The stable
    part, the elements that never changed, with the filters over their
    variables, is solved once per volatile set and kept; each evaluation
    joins the rest of the query onto its solutions. A dry TC6 day solves
    its stable part once, not in every slot where only `rdf:value` moved.
    The whole query is evaluated when its read predicates are unknown or
    its stable part would be a growing cross product (`eval_stable`).
    """

    def __init__(self, fq: FaultQuery, rng: object | None = None):
        self.fq = fq
        self.rng = rng
        self.reads = read_predicates(fq.query)
        self.entries: tuple | None = None  # of `reads`, at the last match
        self.result: frozenset[str] = frozenset()
        self.elements = tuple(el for el in fq.query.pattern.elements
                              if not isinstance(el, Filter))
        self.states: tuple | None = None  # of `elements`, at the last evaluation
        self.volatile: frozenset = frozenset()
        self.split: tuple | None = None  # (rest query, stable solutions)

    def match(self, ds: Dataset, iteration: int,
              sim_time: datetime | None = None) -> frozenset[str]:
        if self.reads is not None:
            # Entries are immutable and shared across versions while their
            # triples stay the same (see `rdf`), so the same entry objects
            # mean the same solutions.
            entries = tuple(ds.pred_entries(p) for p in self.reads)
            if self.entries is not None and all(
                    a is b for a, b in zip(self.entries, entries)):
                return self.result
            self.entries = entries
        ctx = EvalContext(rng=self.rng, iteration=iteration, op_id=f"fault:{self.fq.id}",
                          sim_time=sim_time)
        if self.reads is None:
            return match_faults(ds, self.fq, ctx)
        states = tuple(element_state(ds, el) for el in self.elements)
        if self.states is not None:
            volatile = self.volatile | {
                el for el, old, new in zip(self.elements, self.states, states)
                if any(a is not b for a, b in zip(old, new))}
            if volatile != self.volatile:
                self.volatile = volatile
                split = split_query(self.fq.query, volatile)
                rows = None if split is None else eval_stable(ds, split[0], ctx)
                self.split = None if rows is None else (FaultQuery(self.fq.id, split[1]), rows)
        self.states = states
        fq, rows = self.split or (self.fq, None)
        self.result = match_faults(ds, fq, ctx, start=rows)
        return self.result


def fault_rate(trace: FaultTrace) -> float:
    if trace.k <= L:
        raise ValueError(f"run too short for sequence length {L}")
    faulty = sum(1 for c in trace.counts()[L:trace.k] if c)
    return faulty / (trace.k - L)


def average_fault_count(trace: FaultTrace) -> float:
    counts = trace.counts()[L:trace.k + 1]
    faulty = sum(1 for c in counts if c)
    if faulty == 0:
        return 0.0
    return sum(counts) / faulty


def total_faults(trace: FaultTrace) -> int:
    return sum(trace.counts()[L:trace.k + 1])


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
