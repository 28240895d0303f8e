#!/usr/bin/env python3
"""Summarizes a HetDB Chrome trace: query latency per template, busy share
per worker thread and processor, and what the slowest queries waited for.

    scripts/trace_report.py TRACE.json [--slow-ms MS]

TRACE.json is what `perfbench/run.py --trace 1` leaves under
.bench_build/results/ or what a figure bench writes with --trace-out. Three
tables are printed:

  1. Per query template: count, p50, p95 and max latency in ms. A query's
     latency is its `client` span (perfbench). A trace without client spans
     (figure benches) measures each query from its first operator start to
     its last operator end, and names its template by its root operator.
  2. Busy share per worker thread and processor: the union of the operator
     spans a thread ran on that processor, over the trace's time window,
     busiest first (the first TOP = 20 rows).
  3. For every query slower than --slow-ms (default: the pooled p95), the
     operator it waited longest before: the gap between the operator's start
     and the end of its last child (for a leaf, the query's start). The
     slowest TOP queries are listed.

Operator spans carry `query`, `node`, `parent` and `processor` args; the
script needs nothing else from the engine.
"""

import argparse
import json
import math
import sys
from collections import defaultdict

# Rows listed in the busy-share and slow-query tables.
TOP = 20


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


def union_length(intervals):
    total = 0
    end = None
    for begin, stop in sorted(intervals):
        if end is None or begin > end:
            total += stop - begin
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def load_events(path):
    with open(path) as f:
        trace = json.load(f)
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    return [e for e in events if e.get("ph") == "X"]


def collect_queries(events):
    """Returns {query id: {template, start, end, ops: [span]}}."""
    ops = defaultdict(list)
    clients = {}
    for e in events:
        query = e.get("args", {}).get("query")
        if query is None:
            continue
        if e.get("cat") == "operator":
            ops[query].append(e)
        elif e.get("cat") == "client":
            clients[query] = e
    queries = {}
    for query, spans in ops.items():
        client = clients.get(query)
        if client is not None:
            template = client["name"]
            start = client["ts"]
            end = client["ts"] + client["dur"]
        else:
            nodes = {s["args"].get("node") for s in spans}
            roots = [s for s in spans if s["args"].get("parent") not in nodes]
            root = max(roots or spans, key=lambda s: s["ts"] + s["dur"])
            template = root["name"]
            start = min(s["ts"] for s in spans)
            end = max(s["ts"] + s["dur"] for s in spans)
        queries[query] = {"template": template, "start": start, "end": end,
                          "ops": spans}
    return queries, bool(clients)


def longest_wait(query):
    """(wait in us, operator label) of the operator the query waited
    longest before."""
    ends = defaultdict(int)
    for s in query["ops"]:
        parent = s["args"].get("parent")
        ends[parent] = max(ends[parent], s["ts"] + s["dur"])
    best = (-1, "")
    for s in query["ops"]:
        ready = ends.get(s["args"].get("node"), query["start"])
        best = max(best, (s["ts"] - ready, s["name"]))
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace")
    parser.add_argument("--slow-ms", type=float, default=None,
                        help="latency above which a query's longest wait is "
                             "listed (default: the pooled p95)")
    args = parser.parse_args()

    events = load_events(args.trace)
    queries, has_clients = collect_queries(events)
    if not queries:
        print("no operator spans with a query id in " + args.trace)
        return 1

    latency = {q: (v["end"] - v["start"]) / 1000.0 for q, v in queries.items()}
    by_template = defaultdict(list)
    for q, v in queries.items():
        by_template[v["template"]].append(latency[q])
    source = "client spans" if has_clients else "operator spans"
    print(f"Latency per template (ms, from {source}, {len(queries)} queries)")
    width = max(len(t) for t in by_template)
    width = min(max(width, 8), 60)
    print(f"  {'template':<{width}} {'count':>6} {'p50':>9} {'p95':>9} "
          f"{'max':>9}")
    for template in sorted(by_template):
        values = by_template[template]
        print(f"  {template[:width]:<{width}} {len(values):>6} "
              f"{percentile(values, 50):>9.1f} {percentile(values, 95):>9.1f} "
              f"{max(values):>9.1f}")

    window_begin = min(e["ts"] for e in events)
    window_end = max(e["ts"] + e["dur"] for e in events)
    window = max(window_end - window_begin, 1)
    busy = defaultdict(list)
    for v in queries.values():
        for s in v["ops"]:
            processor = s["args"].get("processor", "-")
            busy[(s.get("tid"), processor)].append((s["ts"], s["ts"] + s["dur"]))
    shares = sorted(((union_length(spans), tid, processor)
                     for (tid, processor), spans in busy.items()),
                    key=lambda t: -t[0])
    print(f"\nBusy share per worker thread and processor "
          f"(window {window / 1e6:.2f} s, busiest {min(len(shares), TOP)}"
          f" of {len(shares)} shown)")
    print(f"  {'thread':>6} {'processor':>9} {'busy s':>8} {'share':>7}")
    for length, tid, processor in shares[:TOP]:
        print(f"  {tid:>6} {processor:>9} {length / 1e6:>8.2f} "
              f"{100.0 * length / window:>6.1f}%")

    slow_ms = args.slow_ms
    if slow_ms is None:
        slow_ms = percentile(list(latency.values()), 95)
    slow = sorted((q for q in queries if latency[q] > slow_ms),
                  key=lambda q: -latency[q])
    print(f"\nLongest wait of each query above {slow_ms:.1f} ms "
          f"({len(slow)} queries, slowest {min(len(slow), TOP)} shown)")
    for q in slow[:TOP]:
        wait_us, label = longest_wait(queries[q])
        print(f"  query {q:>6} {queries[q]['template'][:24]:<24} "
              f"{latency[q]:>9.1f} ms  waited {wait_us / 1000.0:>8.1f} ms "
              f"before {label[:60]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
