"""The upstream SPARQL endpoint, in a process of its own.

Serves pre-built result bodies through the testkit mock endpoint, and counts
what the gateway's client layer cannot see from inside: connections opened
to it, requests served, and the time spent serving them.

    python3 perfbench/mock.py RULES.json

``RULES.json`` is a list of ``{"pattern", "status", "body_file"}``. The bound
port is printed as the first line of standard output. Each line read from
standard input is a command: ``stats`` prints the counters as one JSON line,
``reset`` zeroes them. End of input stops the endpoint.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time

from sparqlgate.testkit import MockRule, MockSparqlEndpoint, _MockHandler


class _TimedHandler(_MockHandler):
    def _respond(self, query: str) -> None:
        start = time.perf_counter_ns()
        super()._respond(query)
        self.server.add_serve_time(time.perf_counter_ns() - start)


class CountingEndpoint(MockSparqlEndpoint):
    def __init__(self, rules):
        super().__init__(rules)
        self.RequestHandlerClass = _TimedHandler
        self._counts_lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._counts_lock:
            self.counts = {"connections": 0, "requests": 0, "serve_ns": 0}

    def process_request(self, request, client_address):
        with self._counts_lock:
            self.counts["connections"] += 1
        super().process_request(request, client_address)

    def record(self, query: str) -> None:
        # Count instead of keeping every query, so memory stays flat.
        with self._counts_lock:
            self.counts["requests"] += 1

    def add_serve_time(self, ns: int) -> None:
        with self._counts_lock:
            self.counts["serve_ns"] += ns

    def snapshot(self) -> dict:
        with self._counts_lock:
            return dict(self.counts)


def main(rules_path: str) -> None:
    with open(rules_path, encoding="utf-8") as handle:
        specs = json.load(handle)
    rules = []
    for spec in specs:
        with open(spec["body_file"], encoding="utf-8") as handle:
            rules.append(MockRule(re.compile(spec["pattern"]), handle.read(), spec["status"]))
    endpoint = CountingEndpoint(rules).start()
    try:
        print(endpoint.server_address[1], flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(endpoint.snapshot()), flush=True)
            elif command == "reset":
                endpoint.reset()
                print("{}", flush=True)
    finally:
        endpoint.stop()


if __name__ == "__main__":
    main(sys.argv[1])
