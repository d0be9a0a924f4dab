"""Benchmark of the sparqlgate gateway across its surfaces.

    python3 perfbench/run.py --workload small_keepalive --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the root of a checkout; the gateway is imported from ``src/``. Each
run builds its inputs from the seed, starts the mock SPARQL endpoint in its
own process, starts the gateway (through the command line for the HTTP
workloads, as an ``ApiManager`` in a child process for the in-process one),
drives it closed-loop for ``--seconds`` and checks every response with the
oracle. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes an
untraced and a traced pass and prints the per-layer metrics with the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import http.client
import json
import os
import platform
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

import layers
import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HOST = "127.0.0.1"

SETUP_SPAWNS = 9  # setup_s is the median of this many gateway start-ups
IMPORT_SPAWNS = 3
P99_MIN_CALLS = 1000  # p99 is printed only with at least 10 samples beyond it

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "calls_per_s": "1/s",
    "body_mb_per_s": "MB/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A run could not be carried out (a process failed or timed out)."""


class Tally:
    """Calls checked by the oracle, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{label}: {reason}")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Bench:
    """The files and child processes of one workload run.

    ``close`` stops every process still running and removes the work
    directory, so nothing outlives the run.
    """

    def __init__(self, workload: workloads.Workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.dir = os.path.join(ROOT, ".perfbench_work", f"{workload.name}-{os.getpid()}")
        self.body_dir = os.path.join(self.dir, "bodies")
        os.makedirs(self.body_dir)
        self.procs: list[subprocess.Popen] = []
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.pids: dict[str, int] = {"orchestrator": os.getpid()}
        self.logs: dict[int, str] = {}
        self.tally = Tally()
        self._serial = 0

    def path(self, name: str) -> str:
        self._serial += 1
        return os.path.join(self.dir, f"{self._serial:03d}-{name}")

    def spawn(self, role: str, argv: list[str], **kwargs) -> subprocess.Popen:
        log = open(self.path(f"{role}.log"), "wb")
        try:
            proc = subprocess.Popen(
                [sys.executable, *argv], env=self.env, cwd=ROOT, stderr=log, **kwargs
            )
        finally:
            log.close()
        self.procs.append(proc)
        self.pids[role] = proc.pid
        self.logs[proc.pid] = log.name
        return proc

    def stop(self, proc: subprocess.Popen, sig: int = signal.SIGINT) -> None:
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                stream.close()
        if proc in self.procs:
            self.procs.remove(proc)

    def wait(self, proc: subprocess.Popen, what: str) -> None:
        try:
            code = proc.wait(timeout=self.seconds + 120)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{what} did not finish in time") from None
        self.stop(proc)
        if code != 0:
            with open(self.logs[proc.pid], encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:]
            raise BenchError(f"{what} exited with code {code}:\n{tail}")

    def close(self) -> None:
        for proc in list(self.procs):
            self.stop(proc, signal.SIGTERM)
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass

    # -- inputs ---------------------------------------------------------------

    def start_mock(self) -> None:
        from sparqlgate.testkit import results_json

        specs = []
        for index, (pattern, status, body) in enumerate(
            workloads.mock_rules(self.workload, results_json)
        ):
            body_file = self.path(f"rule{index}.json")
            with open(body_file, "w", encoding="utf-8") as handle:
                handle.write(body)
            specs.append({"pattern": pattern, "status": status, "body_file": body_file})
        rules_path = self.path("rules.json")
        with open(rules_path, "w", encoding="utf-8") as handle:
            json.dump(specs, handle)
        self.mock = self.spawn(
            "mock",
            [os.path.join(HERE, "mock.py"), rules_path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        port = int(_read_line(self.mock, 60))
        self.conf = self.path("bench.hf")
        with open(self.conf, "w", encoding="utf-8") as handle:
            handle.write(workloads.config_text(self.workload, f"http://{HOST}:{port}/sparql"))

    def mock_command(self, command: str) -> dict:
        self.mock.stdin.write(command.encode() + b"\n")
        return json.loads(_read_line(self.mock, 30))

    # -- HTTP surface ---------------------------------------------------------

    def start_gateway(self, spans: str | None = None) -> tuple[subprocess.Popen, int, float]:
        """Spawn the gateway through its command line; returns (process, port, setup seconds).

        Setup time runs from the spawn until the probe call is answered.
        """
        for _attempt in range(5):
            port = _free_port()
            cli = ["-s", self.conf, "-w", f"{HOST}:{port}"]
            argv = [os.path.join(HERE, "tracing.py"), spans, *cli] if spans else ["-m", "sparqlgate", *cli]
            started = time.perf_counter()
            proc = self.spawn("gateway", argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
            answer = _probe(proc, port, self.workload.probe.url)
            if answer is None:  # exited early, most likely the port was taken
                self.stop(proc)
                continue
            setup = time.perf_counter() - started
            self.tally.add("probe", oracle.check(self.workload.probe, *answer))
            return proc, port, setup
        raise BenchError("the gateway did not start")

    def run_loadgen(self, port: int) -> dict:
        w = self.workload
        plan = {
            "host": HOST,
            "port": port,
            "seconds": self.seconds,
            "body_dir": self.body_dir,
            "threads": [
                {"warmup": _wire(warmup), "cycle": _wire(cycle)}
                for warmup, cycle in zip(w.warmup, w.cycles)
            ],
        }
        plan_path, result_path = self.path("loadgen-plan.json"), self.path("loadgen-result.json")
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(plan, handle)
        proc = self.spawn(
            "generator",
            [os.path.join(HERE, "loadgen.py"), plan_path, result_path],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
        self.wait(proc, "the load generator")
        return self.verified(_load(result_path))

    def http_pass(self, spans: str | None = None, setups: int = 1) -> dict:
        """Start the gateway ``setups`` times, drive the last one, stop it."""
        setup_times = []
        for attempt in range(setups):
            gateway, port, setup = self.start_gateway(spans)
            setup_times.append(setup)
            if attempt < setups - 1:
                self.stop(gateway)
        try:
            result = self.run_loadgen(port)
            result["peak_rss_kb"] = _vm_hwm_kb(gateway.pid)
        finally:
            self.stop(gateway)
        result["setup_s"] = statistics.median(setup_times)
        return result

    # -- in-process surface ---------------------------------------------------

    def inproc_pass(self, spans: str | None = None, setups: int = 1) -> dict:
        """Start the in-process child ``setups`` times and drive the last one."""
        w = self.workload
        setup_times = []
        for attempt in range(setups):
            plan = {
                "conf": self.conf,
                "seconds": self.seconds,
                "body_dir": self.body_dir,
                "spans": spans,
                "probe": _wire([w.probe])[0],
                "warmup": _wire(w.warmup[0]),
                "cycle": _wire(w.cycles[0]),
            }
            plan_path, result_path = self.path("inproc-plan.json"), self.path("inproc-result.json")
            with open(plan_path, "w", encoding="utf-8") as handle:
                json.dump(plan, handle)
            started = time.perf_counter()
            child = self.spawn(
                "gateway",
                [os.path.join(HERE, "inproc.py"), plan_path, result_path],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
            if _read_line(child, 120) != "ready":
                raise BenchError("the in-process child did not get ready")
            setup_times.append(time.perf_counter() - started)
            last = attempt == setups - 1
            child.stdin.write(b"go\n" if last else b"stop\n")
            child.stdin.close()
            self.wait(child, "the in-process child")
            result = self.verified(_load(result_path))
        result["setup_s"] = statistics.median(setup_times)
        return result

    # -- checking ---------------------------------------------------------------

    def verified(self, result: dict) -> dict:
        """Check every record with the oracle; one check per distinct response."""
        w = self.workload
        verdicts: dict[tuple, str | None] = {}
        for thread, phase, index, status, content_type, digest, _size, _start, _lat in result["records"]:
            if phase == "probe":
                call = w.probe
            else:
                call = (w.warmup if phase == "warmup" else w.cycles)[thread][index]
            if status < 0:
                self.tally.add(call.label, content_type)
                continue
            key = (id(call), status, content_type, digest)
            if key not in verdicts:
                with open(os.path.join(self.body_dir, digest), "rb") as handle:
                    verdicts[key] = oracle.check(call, status, content_type, handle.read())
            self.tally.add(call.label, verdicts[key])
        return result

    def window_calls(self, result: dict) -> list[tuple[workloads.Call, list]]:
        w = self.workload
        return [(w.cycles[r[0]][r[2]], r) for r in result["records"] if r[1] == "window"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in 0..100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(bench: Bench, result: dict) -> tuple[dict, dict]:
    """(contract metrics, extra figures printed for people only)."""
    window = bench.window_calls(result)
    latencies = [r[8] / 1e6 for _, r in window]
    if bench.workload.surface == "http":
        # Wall time of the window: the clients were busy throughout it.
        end = max(r[7] + r[8] for _, r in window)
        seconds = (end - result["window"][0]) / 1e9
    else:
        # One caller: its time inside calls (checking runs between calls).
        seconds = sum(latencies) / 1e3
    body_bytes = sum(r[6] for _, r in window)
    metrics = {
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "calls_per_s": len(window) / seconds,
        "body_mb_per_s": body_bytes / seconds / 1e6,
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
    }
    extra = {
        "samples": len(window),
        "latency_p99_ms": percentile(latencies, 99) if len(window) >= P99_MIN_CALLS else None,
    }
    return metrics, extra


def mean_latency_ms(window: list, predicate=lambda call: True) -> float:
    chosen = [r[8] / 1e6 for call, r in window if predicate(call)]
    return statistics.fmean(chosen) if chosen else 0.0


def import_ms(bench: Bench) -> float:
    """Median time of ``import sparqlgate`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import sparqlgate; "
        "print((time.perf_counter() - t) * 1e3)"
    )
    times = []
    for _ in range(IMPORT_SPAWNS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=bench.env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.build(name, seed)
    bench = Bench(workload, seconds)
    load_start = os.getloadavg()
    try:
        bench.start_mock()
        drive = bench.http_pass if workload.surface == "http" else bench.inproc_pass
        if not trace:
            result = drive(setups=SETUP_SPAWNS)
            metrics, extra = end_to_end(bench, result)
            units = END_TO_END_UNITS
        else:
            untraced = drive()
            bench.mock_command("reset")
            spans_path = bench.path("spans.json")
            traced = drive(spans=spans_path)
            mock = bench.mock_command("stats")
            with open(spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)
            window = bench.window_calls(traced)
            end = max(r[7] + r[8] for _, r in window)
            metrics = layers.layer_metrics(
                spans,
                (traced["window"][0], end),
                len(window),
                manager_latency_ms=mean_latency_ms(window, lambda c: c.reaches_manager),
                mock=mock,
                client_connections=traced.get("connections", 0),
                import_ms=import_ms(bench),
                untraced_latency_ms=mean_latency_ms(bench.window_calls(untraced)),
                traced_latency_ms=mean_latency_ms(window),
            )
            extra = {"samples": len(window)}
            units = layers.UNITS
        env = environment(load_start, bench.pids)
    finally:
        bench.close()
    tally = bench.tally
    return {
        "workload": workload,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
        "env": env,
    }


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def environment(load_start, pids: dict) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha1": _source_digest(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "network": f"loopback only ({HOST})",
        "processes": pids,
        "separate_processes": len(set(pids.values())) == len(pids),
    }


def _commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown (git not found)"
    return out.stdout.strip() or "unknown"


def _source_digest() -> str:
    """Digest of the gateway's sources, naming the code where no commit is known."""
    digest = hashlib.sha1()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, "rb") as handle:
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + handle.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def _wire(calls) -> list[list[str]]:
    return [[call.method, call.url] for call in calls]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line from a child's unbuffered stdout, or BenchError after ``timeout``."""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout
    data = b""
    while not data.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise BenchError("a child process did not answer in time")
        chunk = os.read(fd, 65536)
        if not chunk:
            raise BenchError("a child process ended unexpectedly")
        data += chunk
    return data.decode().strip()


def _probe(proc: subprocess.Popen, port: int, url: str, timeout: float = 60):
    """(status, content type, body) of the first answered call; None if proc exits."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return None
        conn = http.client.HTTPConnection(HOST, port, timeout=30)
        try:
            conn.request("GET", url)
            response = conn.getresponse()
            return response.status, response.getheader("Content-Type", ""), response.read()
        except ConnectionRefusedError:
            time.sleep(0.002)
        finally:
            conn.close()
    raise BenchError("the gateway did not answer in time")


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("VmHWM not found")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _print_report(run: dict, seed: int, trace: bool) -> None:
    w = run["workload"]
    print(f"== {w.name} (seed {seed}, {w.surface}, {w.threads} client thread(s), "
          f"{'traced' if trace else 'untraced'}): {w.why}")
    print(f"   samples in window: {run['extra']['samples']}")
    for name, metric in run["metrics"].items():
        print(f"   {name:34s} {metric['value']:14.4f} {metric['unit']}")
    ratio = run["failed"] / run["attempted"]
    print(f"   {'failed_ratio':34s} {ratio:14.4f} ratio ({run['failed']}/{run['attempted']} calls)")
    if not trace:
        p99 = run["extra"]["latency_p99_ms"]
        if p99 is None:
            print(f"   {'latency_p99_ms':34s} {'n/a':>14s} ms (fewer than {P99_MIN_CALLS} calls)")
        else:
            print(f"   {'latency_p99_ms':34s} {p99:14.4f} ms")
    for reason in run["reasons"]:
        print(f"   FAILED {reason}")
    print("   env " + json.dumps(run["env"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BY_NAME, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell that starts this command in the background ignores SIGINT, and
    # children inherit that. The gateway stops on SIGINT, so take it back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not os.path.isfile(os.path.join(SRC, "sparqlgate", "__init__.py")):
        sys.stderr.write(f"error: no gateway sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, SRC)

    names = list(workloads.BY_NAME) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_report(run, args.seed, bool(args.trace))
        runs.append(run)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload'].name}.{k}": v for r in runs for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
