"""Measure what one GET costs in one process: CPU per GET and epoch length.

    PYTHONPATH=src python3 tools/get_cost.py [--threads 1,2] [--epochs 20] \
        [--fanouts 1,2,8] [--seed 1]

It serves TS3 (`bench.serve_task`, no run started, so no graph changes) and
fetches the graphs its prefetch agent polls each epoch: every graph holding
an `rdf:value`, and `sim`.

- For each count T in `--threads`, one `LdClient` and T threads, each
  fetching a strided share of the graphs per epoch, all starting each epoch
  together. The table gives, per GET, the median latency, the CPU time
  (`time.thread_time`) of the client threads and of the server's handler
  threads, and the GETs per second of wall time.
- For each fanout F in `--fanouts`, the median wall time of `--epochs`
  epochs through the agent's own fetch path (`agents._fetch_all` on a pool
  of F threads).

It imports `ldsim` from `PYTHONPATH`, so the same command measures any
checkout's `src`. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ldsim import agents, bench, server
from ldsim.httpclient import LdClient
from ldsim.ns import RDF_VALUE, SIM_PATH


def polled_graphs(served) -> list[str]:
    """The graphs the prefetch agent polls, as `RuleAgent._epoch` lists them."""
    dynamic = [name for name, triples in served.pd.dataset.graphs()
               if any(p.value == RDF_VALUE for _, p, _ in triples)]
    return sorted(dynamic) + [served.server.base + SIM_PATH]


class HandlerClock:
    """CPU time of every handler thread, summed as its connection ends."""

    def __init__(self):
        self.cpu = 0.0
        self.ended = 0
        self._lock = threading.Lock()
        self._handle = server._Handler.handle

    def __enter__(self):
        handle = self._handle

        def timed(handler):
            started = time.thread_time()
            try:
                handle(handler)
            finally:
                with self._lock:
                    self.cpu += time.thread_time() - started
                    self.ended += 1

        server._Handler.handle = timed
        return self

    def __exit__(self, *exc):
        server._Handler.handle = self._handle

    def wait(self, connections: int) -> None:
        deadline = time.monotonic() + 10
        while self.ended < connections and time.monotonic() < deadline:
            time.sleep(0.01)


def cpu_per_get(base: str, graphs: list[str], threads: int, epochs: int) -> dict:
    client = LdClient(base, agent="cost")
    barrier = threading.Barrier(threads)
    latency: list[float] = []
    client_cpu: list[float] = []

    def fetch(share: list[str]) -> None:
        clock = time.perf_counter
        mine = []
        started = time.thread_time()
        for _ in range(epochs):
            barrier.wait()
            for iri in share:
                begun = clock()
                client.get_graph(iri)
                mine.append(clock() - begun)
        client_cpu.append(time.thread_time() - started)
        latency.extend(mine)

    with HandlerClock() as handlers:
        workers = [threading.Thread(target=fetch, args=(graphs[i::threads],))
                   for i in range(threads)]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        wall = time.perf_counter() - started
        client.close_all()
        handlers.wait(threads)
    gets = len(latency)
    return {"threads": threads, "gets": gets,
            "p50_ms": statistics.median(latency) * 1000.0,
            "client_cpu_us": sum(client_cpu) / gets * 1e6,
            "handler_cpu_us": handlers.cpu / gets * 1e6,
            "gets_per_s": gets / wall}


def epoch_ms(base: str, graphs: list[str], fanout: int, epochs: int) -> dict:
    client = LdClient(base, agent="cost")
    times = []
    with ThreadPoolExecutor(max_workers=fanout) as pool:
        for _ in range(epochs):
            started = time.perf_counter()
            agents._fetch_all(pool, client, graphs, fanout)
            times.append(time.perf_counter() - started)
    client.close_all()
    return {"fanout": fanout, "gets": len(graphs),
            "epoch_p50_ms": statistics.median(times) * 1000.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--threads", default="1,2")
    parser.add_argument("--fanouts", default="1,2,8")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    served = bench.serve_task("TS3", args.seed)
    try:
        base, graphs = served.server.base, polled_graphs(served)
        for threads in (int(t) for t in args.threads.split(",") if t):
            print(json.dumps(cpu_per_get(base, graphs, threads, args.epochs)))
        for fanout in (int(f) for f in args.fanouts.split(",") if f):
            print(json.dumps(epoch_ms(base, graphs, fanout, args.epochs)))
    finally:
        served.server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
