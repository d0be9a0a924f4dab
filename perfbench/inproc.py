"""In-process surface: one caller driving ``ApiManager.call`` in a child process.

    python3 perfbench/inproc.py PLAN.json RESULT.json

The child builds the manager (after installing the span wrappers when the
plan names a spans file), answers the probe call and prints ``ready``. It
then waits for one line on standard input: ``go`` runs the warm-up calls and
repeats the cycle until ``seconds`` have passed, always finishing a cycle;
anything else ends the child after the probe. The child hosts the gateway,
so it also reports its own peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from recorder import Recorder, write_result

_now = time.monotonic_ns


def _run_calls(manager, recorder: Recorder, phase: str, calls) -> None:
    for index, (method, url) in enumerate(calls):
        start = _now()
        outcome, _, _ = manager.call(url, method)
        latency = _now() - start
        recorder.add(0, phase, index, outcome.status, outcome.content_type,
                     outcome.body.encode("utf-8"), start, latency)


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    if plan["spans"]:
        import tracing

        tracing.install()
    from sparqlgate import ApiManager

    recorder = Recorder(plan["body_dir"])
    manager = ApiManager([plan["conf"]])
    _run_calls(manager, recorder, "probe", [plan["probe"]])
    print("ready", flush=True)
    result = {"records": recorder.records}
    if sys.stdin.readline().strip() == "go":
        _run_calls(manager, recorder, "warmup", plan["warmup"])
        start = _now()
        deadline = start + int(plan["seconds"] * 1e9)
        while _now() < deadline:
            _run_calls(manager, recorder, "window", plan["cycle"])
        result["window"] = [start, _now()]
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if plan["spans"]:
            tracing.dump(plan["spans"])
    write_result(result_path, result)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
