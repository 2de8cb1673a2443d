"""Timing spans around ldsim's public calls, aggregated per layer.

`Tracer.install()` replaces each traced function or method with a wrapper
that times the call and attributes it to the traced call that encloses it
on the same thread (its parent span). Spans are folded into per-thread
tables keyed by (name, parent name) as they close, and the tables stay in
memory until the run ends. They are not kept one by one: a full-day TC2
dry run makes about five million `Dataset.pred_nav` calls.

Several ldsim modules import public functions by name (`from .sparql
import eval_query`), so a function wrapper is bound under every name, in
every ldsim module, that refers to the original function.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

from ldsim import agents, building, engine, httpclient, metrics, rdf, rdfio, server, \
    sparql, tasks


def _count_graphs(args, kwargs, result):
    updates = args[1] if len(args) > 1 else kwargs["updates"]
    return len(updates)


def _count_keys(args, kwargs, result):
    return len(result)


def _count_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


# (span name, owner, attribute, extra count taken from the call)
TARGETS = (
    ("building.build_dataset", building, "build_dataset", None),
    ("tasks.load_task", tasks, "load_task", None),
    ("rdf.pred_entries", rdf.Dataset, "pred_entries", None),
    ("rdf.pred_nav", rdf.Dataset, "pred_nav", None),
    ("rdf.replace_graphs", rdf.Dataset, "replace_graphs", _count_graphs),
    ("sparql.eval_query", sparql, "eval_query", None),
    ("sparql.eval_update", sparql, "eval_update", None),
    ("metrics.match_faults", metrics, "match_faults", _count_keys),
    ("engine.tick", engine.SimulationRuntime, "tick", None),
    ("engine.apply_agent_write", engine.SimulationRuntime, "apply_agent_write", None),
    ("engine.record_read", engine.SimulationRuntime, "record_read", None),
    ("rdfio.serialize_triples", rdfio, "serialize_triples", _count_bytes),
    ("rdfio.parse_document", rdfio, "parse_document", None),
    ("server.do_GET", server._Handler, "do_GET", None),
    ("server.do_PUT", server._Handler, "do_PUT", None),
    ("httpclient.get_graph", httpclient.LdClient, "get_graph", None),
    ("httpclient.put_graph", httpclient.LdClient, "put_graph", None),
    ("agents.run", agents.RuleAgent, "run", None),
    ("agents.reason", agents, "reason", None),
)

LAYERS = ("building", "tasks", "rdf", "sparql", "metrics", "engine", "rdfio",
          "server", "httpclient", "agents")


class Row:
    """Calls, total and self seconds, and an extra count for one (name, parent)."""

    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict] = []
        self._tables_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _thread_state(self):
        table: dict = {}
        with self._tables_lock:
            self._tables.append(table)
        self._local.stack = []
        self._local.table = table
        return self._local.stack, table

    def wrap(self, name: str, fn, extra=None):
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack, table = local.stack, local.table
            except AttributeError:
                stack, table = self._thread_state()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                row = table.get((name, parent))
                if row is None:
                    row = table[(name, parent)] = Row()
                row.calls += 1
                row.total += elapsed
                row.self_time += elapsed - frame[1]
            if extra is not None:
                row.extra += extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "ldsim" or n.startswith("ldsim."))]
        for name, owner, attr, extra in TARGETS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._bind(owner, attr, self.wrap(name, original, extra))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, wrapped)

    def _bind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def rows(self) -> dict[tuple[str, str | None], Row]:
        """All threads' tables merged, keyed by (name, parent name)."""
        merged: dict = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for key, row in list(table.items()):
                out = merged.setdefault(key, Row())
                out.calls += row.calls
                out.total += row.total
                out.self_time += row.self_time
                out.extra += row.extra
        return merged


class Summary:
    """Per-name and per-layer views over a tracer's rows (times in ms)."""

    def __init__(self, rows: dict[tuple[str, str | None], Row]):
        self._rows = rows

    def _sum(self, name: str, field: str, parent=...) -> float:
        return sum(getattr(row, field) for (n, p), row in self._rows.items()
                   if n == name and (parent is ... or p == parent))

    def calls(self, name: str, parent=...) -> int:
        return int(self._sum(name, "calls", parent))

    def ms(self, name: str, parent=...) -> float:
        return self._sum(name, "total", parent) * 1000.0

    def self_ms(self, name: str, parent=...) -> float:
        return self._sum(name, "self_time", parent) * 1000.0

    def extra(self, name: str) -> int:
        return int(self._sum(name, "extra"))

    def layer_self_ms(self, layer: str) -> float:
        return sum(row.self_time for (n, _p), row in self._rows.items()
                   if n.split(".", 1)[0] == layer) * 1000.0
