"""Run trace records: agent operations, per-timeslot fault solutions, and
their tab-separated persistence formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True, slots=True)
class OperationRecord:
    """One HTTP operation against the live dataset."""

    timeslot: int
    method: str
    target: str
    status: int
    payload_bytes: int = 0
    agent: str = ""
    delta_graphs: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def is_read(self) -> bool:
        return self.method == "GET"


@dataclass
class FaultTrace:
    """Per-timeslot fault query solutions for one run.

    `slots[t]` maps fault query id to the distinct solution keys at timeslot
    t, for t in 0..k. A fault instance (id, key) is matched at t when the
    key is among that query's solutions at t.
    """

    k: int
    slots: list[dict[str, frozenset[str]]] = field(default_factory=list)

    def counts(self) -> list[int]:
        """The number of fault instances matched at each timeslot. Query
        ids are a slot's keys, so no two queries' instances coincide."""
        return [sum(map(len, slot.values())) for slot in self.slots]


OPS_HEADER = ("timeslot", "method", "target", "status",
              "payload_bytes", "agent", "delta_graphs")
FAULTS_HEADER = ("timeslot", "fault_id", "binding_key")


def write_ops_tsv(ops: list[OperationRecord], path: str | Path) -> None:
    """One line per record, written as it is formatted: a full-day log runs
    to hundreds of MiB, so its text is never held whole."""
    with open(path, "w") as out:
        out.write("\t".join(OPS_HEADER) + "\n")
        for op in ops:
            out.write("\t".join([
                str(op.timeslot), op.method, op.target,
                str(op.status), str(op.payload_bytes), op.agent,
                ",".join(op.delta_graphs),
            ]) + "\n")


def read_ops_tsv(path: str | Path) -> list[OperationRecord]:
    lines = Path(path).read_text().splitlines()
    out = []
    for line in lines[1:]:
        if not line.strip():
            continue
        slot, method, target, status, nbytes, agent, deltas = line.split("\t")
        out.append(OperationRecord(
            timeslot=int(slot), method=method, target=target,
            status=int(status), payload_bytes=int(nbytes), agent=agent,
            delta_graphs=tuple(g for g in deltas.split(",") if g)))
    return out


def write_faults_tsv(trace: FaultTrace, path: str | Path) -> None:
    lines = ["\t".join(FAULTS_HEADER), f"#k={trace.k}"]
    for t, per_query in enumerate(trace.slots):
        for fq_id in sorted(per_query):
            for key in sorted(per_query[fq_id]):
                lines.append(f"{t}\t{fq_id}\t{key}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_faults_tsv(path: str | Path) -> FaultTrace:
    lines = Path(path).read_text().splitlines()
    meta = lines[1]
    k = int(meta.split("#k=", 1)[1].split("\t")[0])
    slots: list[dict[str, set[str]]] = [dict() for _ in range(k + 1)]
    for line in lines[2:]:
        if not line.strip():
            continue
        t, fq_id, key = line.split("\t", 2)
        slots[int(t)].setdefault(fq_id, set()).add(key)
    frozen = [{q: frozenset(keys) for q, keys in slot.items()} for slot in slots]
    return FaultTrace(k=k, slots=frozen)
