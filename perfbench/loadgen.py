"""Closed-loop HTTP load generator, in a process of its own.

    python3 perfbench/loadgen.py PLAN.json RESULT.json

Each plan thread owns one keep-alive connection and sends its next call only
after reading the whole previous response. Threads first send their warm-up
calls, then start the measured window together and repeat their cycle until
``seconds`` have passed, always finishing a cycle so every run has the same
mix of calls. Connections (re)opened are counted: with working keep-alive
there is one per thread.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time

from recorder import Recorder, write_result

_now = time.monotonic_ns


class _CountingConnection(http.client.HTTPConnection):
    opened = 0
    _lock = threading.Lock()

    def connect(self) -> None:
        with _CountingConnection._lock:
            _CountingConnection.opened += 1
        super().connect()


def _send(conn: http.client.HTTPConnection, method: str, url: str):
    conn.request(method.upper(), url)
    response = conn.getresponse()
    body = response.read()
    return response.status, response.getheader("Content-Type", ""), body


def _run_calls(conn, recorder: Recorder, thread: int, phase: str, calls) -> None:
    for index, (method, url) in enumerate(calls):
        start = _now()
        try:
            status, content_type, body = _send(conn, method, url)
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            recorder.add_failure(thread, phase, index, start, _now() - start, repr(exc))
            continue
        latency = _now() - start
        recorder.add(thread, phase, index, status, content_type, body, start, latency)


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    recorder = Recorder(plan["body_dir"])
    threads = plan["threads"]
    barrier = threading.Barrier(len(threads))
    window = {}

    def client(thread: int) -> None:
        spec = threads[thread]
        conn = _CountingConnection(plan["host"], plan["port"], timeout=60)
        try:
            _run_calls(conn, recorder, thread, "warmup", spec["warmup"])
            if barrier.wait() == 0:
                window["start"] = _now()
            barrier.wait()
            deadline = window["start"] + int(plan["seconds"] * 1e9)
            while _now() < deadline:
                _run_calls(conn, recorder, thread, "window", spec["cycle"])
        finally:
            conn.close()

    workers = [threading.Thread(target=client, args=(i,)) for i in range(len(threads))]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    write_result(
        result_path,
        {
            "records": recorder.records,
            "window": [window["start"], _now()],
            "connections": _CountingConnection.opened,
        },
    )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
