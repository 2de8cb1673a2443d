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
    classification: str  # read | replace
    status: int
    payload_bytes: int = 0
    agent: str = ""
    delta_graphs: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def is_read(self) -> bool:
        return self.classification == "read"


@dataclass
class FaultTrace:
    """Per-timeslot fault query solutions for one run.

    `slots[t]` maps fault query id to the raw distinct solution keys at
    timeslot t; `lengths` maps query id to its sequence length. A fault
    instance (id, key) is matched at t when the key was present in all of
    the `length` consecutive slots ending at t.
    """

    k: int
    slots: list[dict[str, frozenset[str]]] = field(default_factory=list)
    lengths: dict[str, int] = field(default_factory=dict)

    @property
    def sequence_length(self) -> int:
        return max(self.lengths.values(), default=1)

    def matched(self, t: int) -> frozenset[tuple[str, str]]:
        """Fault instances matched at timeslot t (sliding window per query)."""
        out = set()
        for fq_id, keys in self.slots[t].items():
            length = self.lengths.get(fq_id, 1)
            if t + 1 < length:
                continue
            for key in keys:
                if all(key in self.slots[t - i].get(fq_id, ())
                       for i in range(1, length)):
                    out.add((fq_id, key))
        return frozenset(out)

    def counts(self) -> list[int]:
        return [len(self.matched(t)) for t in range(len(self.slots))]


OPS_HEADER = ("timeslot", "method", "target", "classification", "status",
              "payload_bytes", "agent", "delta_graphs")
FAULTS_HEADER = ("timeslot", "fault_id", "binding_key")


def write_ops_tsv(ops: list[OperationRecord], path: str | Path) -> None:
    lines = ["\t".join(OPS_HEADER)]
    for op in ops:
        lines.append("\t".join([
            str(op.timeslot), op.method, op.target, op.classification,
            str(op.status), str(op.payload_bytes), op.agent,
            ",".join(op.delta_graphs),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_ops_tsv(path: str | Path) -> list[OperationRecord]:
    lines = Path(path).read_text().splitlines()
    out = []
    for line in lines[1:]:
        if not line.strip():
            continue
        slot, method, target, cls, status, nbytes, agent, deltas = line.split("\t")
        out.append(OperationRecord(
            timeslot=int(slot), method=method, target=target, classification=cls,
            status=int(status), payload_bytes=int(nbytes), agent=agent,
            delta_graphs=tuple(g for g in deltas.split(",") if g)))
    return out


def write_faults_tsv(trace: FaultTrace, path: str | Path) -> None:
    lines = ["\t".join(FAULTS_HEADER)]
    lines.append(f"#k={trace.k}\tlengths=" +
                 ",".join(f"{q}:{l}" for q, l in sorted(trace.lengths.items())))
    for t, per_query in enumerate(trace.slots):
        for fq_id in sorted(per_query):
            for key in sorted(per_query[fq_id]):
                lines.append(f"{t}\t{fq_id}\t{key}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_faults_tsv(path: str | Path) -> FaultTrace:
    lines = Path(path).read_text().splitlines()
    meta = lines[1]
    k = int(meta.split("#k=", 1)[1].split("\t")[0])
    lengths: dict[str, int] = {}
    lengths_part = meta.split("lengths=", 1)[1]
    if lengths_part:
        for pair in lengths_part.split(","):
            q, l = pair.rsplit(":", 1)
            lengths[q] = int(l)
    slots: list[dict[str, set[str]]] = [dict() for _ in range(k + 1)]
    for line in lines[2:]:
        if not line.strip():
            continue
        t, fq_id, key = line.split("\t", 2)
        slots[int(t)].setdefault(fq_id, set()).add(key)
    frozen = [{q: frozenset(keys) for q, keys in slot.items()} for slot in slots]
    return FaultTrace(k=k, slots=frozen, lengths=lengths)
