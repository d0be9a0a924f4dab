"""Per-call records kept by the callers, for the oracle to check later.

A caller times each call, then hands the response here, outside the timed
interval. Each distinct body is written once to the body directory under its
digest; the record names the digest, so the oracle can check every call
without the caller holding large bodies in memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading


class Recorder:
    def __init__(self, body_dir: str):
        self.body_dir = body_dir
        self.records: list[list] = []
        self._seen: set[str] = set()
        self._lock = threading.Lock()

    def add(self, thread: int, phase: str, index: int, status: int, content_type: str,
            body: bytes, start_ns: int, latency_ns: int) -> None:
        """Keep one call: where it sits in the plan, what came back, how long it took."""
        digest = hashlib.sha1(body).hexdigest()
        with self._lock:
            fresh = digest not in self._seen
            self._seen.add(digest)
            self.records.append(
                [thread, phase, index, status, content_type, digest, len(body), start_ns, latency_ns]
            )
        if fresh:
            with open(os.path.join(self.body_dir, digest), "wb") as handle:
                handle.write(body)

    def add_failure(self, thread: int, phase: str, index: int, start_ns: int,
                    latency_ns: int, reason: str) -> None:
        """Keep a call that raised instead of answering."""
        with self._lock:
            self.records.append([thread, phase, index, -1, reason, "", 0, start_ns, latency_ns])


def write_result(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
