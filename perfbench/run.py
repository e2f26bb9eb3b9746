"""End-to-end and per-layer benchmark of pdmcausal.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {sweep,classify,build} --seed N \\
        --seconds S --trace {0,1}

One process serves one workload as a closed loop with a single client: each
request is sent when the previous one has returned.  The program is imported
from ``src/`` of the checkout; nothing is installed.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones (see NOTES.md).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_PROBES = 9


def _limit_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = cores
        os.environ[var] = str(max(1, min(current, cores)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


BLAS_THREADS = _limit_blas_threads()

if not (SRC / "pdmcausal" / "__init__.py").is_file():
    sys.exit(f"perfbench: no pdmcausal sources under {SRC}")
sys.path.insert(0, str(SRC))

import importlib.util  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import pdmcausal  # noqa: E402

if Path(pdmcausal.__file__).resolve().parent != SRC / "pdmcausal":
    sys.exit(f"perfbench: imported pdmcausal from {pdmcausal.__file__}, not {SRC}")

from tracing import COUNTERS, SDP, SPANS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


# ---------------------------------------------------------------------------
# Metric names, units and directions (BENCHMARK.json lists the same ones)
# ---------------------------------------------------------------------------

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name, _, _ in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, _, _ in COUNTERS:
        units[f"{name}.calls"] = "count"
    units["inference.extract_choi.failures"] = "count"
    units[f"{SDP}.iterations"] = "count"
    units[f"{SDP}.converged_frac"] = "fraction"
    units["request.self_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    units["trace.counts_repeat"] = "bool"
    return units


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Runner:
    """Serves requests to one workload and tallies outcomes across phases."""

    def __init__(self, work, tracer: Tracer | None = None):
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []  # requests that raised or failed their check
        self.problems: list[str] = []  # checks on the run as a whole

    def serve(self, i: int):
        """One request; returns (latency s, items, fingerprint or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                items, output = self.work.request(i)
            else:
                items, output = self.tracer.request_span(i, self.work.request, i)
        except Exception as exc:  # a failed request is counted; the loop goes on
            latency = time.perf_counter() - t0
            self.failures.append(f"request {i} raised {exc!r}")
            return latency, 0, None
        latency = time.perf_counter() - t0
        try:
            return latency, items, self.work.check(i, output)
        except Exception as exc:  # a malformed output fails its check
            reason = exc if isinstance(exc, CheckFailed) else repr(exc)
            self.failures.append(f"request {i}: {reason}")
            return latency, 0, None

    def loop(self, seconds: float, pause=None, pauses: int = 0) -> dict:
        """Serve requests for ``seconds`` of loop time.

        ``pause`` is called ``pauses`` times between two requests, spread
        evenly over the loop; the time it takes is not loop time.
        """
        latencies, fingerprints, items = [], [], 0
        start = time.perf_counter()
        paused, done, i = 0.0, 0, 0
        while True:
            latency, n, fingerprint = self.serve(i)
            latencies.append(latency)
            fingerprints.append(fingerprint)
            items += n
            i += 1
            elapsed = time.perf_counter() - start - paused
            while done < pauses and elapsed >= (done + 0.5) * seconds / pauses:
                t0 = time.perf_counter()
                pause()
                paused += time.perf_counter() - t0
                done += 1
            if elapsed >= seconds:
                return {"latencies": np.array(latencies), "items": items,
                        "fingerprints": fingerprints}


def timing(phase: dict) -> dict:
    lat = np.sort(phase["latencies"])
    n = len(lat)
    beyond = min(10, n - 1)
    return {
        "requests": n,
        "throughput_per_s": phase["items"] / float(lat.sum()),
        "latency_p50_ms": float(np.median(lat)) * 1e3,
        # highest percentile with at least 10 requests beyond it
        "latency_tail_ms": float(lat[n - 1 - beyond]) * 1e3,
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(workload: str, seed: int):
    """Child side of setup_s: build the inputs and report when they are ready."""
    work = WORKLOADS[workload](seed, WORKDIR)
    print(json.dumps({"ready": time.perf_counter(), "inputs": work.inputs_digest()}))


class SetupProbes:
    """Set-up time of fresh processes, from spawn to inputs ready.

    Each call starts one process and waits for it.  perf_counter is
    CLOCK_MONOTONIC, shared by parent and child.  The probes run spread over
    the timed loop, so that their median sees the same host as the requests.
    """

    def __init__(self, workload: str, seed: int, inputs: str):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-probe"]
        self.inputs = inputs
        self.times: list[float] = []
        self.problems: list[str] = []

    def __call__(self):
        t0 = time.perf_counter()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        self.times.append(probe["ready"] - t0)
        if probe["inputs"] != self.inputs:
            self.problems.append("set-up in a fresh process made different inputs")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _print_timing(label: str, t: dict, item: str):
    print(f"{label} requests={t['requests']}")
    print(f"  throughput_per_s   {t['throughput_per_s']:.6g} 1/s ({item}s per second of request time)")
    print(f"  latency_p50_ms     {t['latency_p50_ms']:.6g} ms")
    print(f"  latency_tail_ms    {t['latency_tail_ms']:.6g} ms (p{t['tail_percentile']:.2f}: "
          f"{t['tail_beyond']} of {t['requests']} requests beyond it)")


def run_untraced(work, args) -> tuple[dict, Runner]:
    runner = Runner(work)
    work.reference()
    probes = SetupProbes(args.workload, args.seed, work.inputs_digest())
    phase = runner.loop(args.seconds, probes, SETUP_PROBES)
    t = timing(phase)
    runner.problems.extend(probes.problems)
    metrics = {
        "setup_s": float(np.median(probes.times)),
        "throughput_per_s": t["throughput_per_s"],
        "latency_p50_ms": t["latency_p50_ms"],
        "latency_tail_ms": t["latency_tail_ms"],
        "peak_rss_mb": peak_rss_mb(),
    }
    _print_timing("timed loop", t, work.item)
    print(f"  setup_s            {metrics['setup_s']:.6g} s (median of {len(probes.times)} fresh processes)")
    print(f"  peak_rss_mb        {metrics['peak_rss_mb']:.6g} MB")
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, runner


def run_traced(work, args) -> tuple[dict, Runner]:
    """Half the time untraced, half traced over the same request indices."""
    tracer = Tracer()
    runner = Runner(work)
    work.reference()
    plain = runner.loop(args.seconds / 2)

    tracer.install()
    try:
        runner.tracer = tracer
        block = work.count_block
        marks = [tracer.mark()]
        for _ in range(2):
            for i in range(block):
                runner.serve(i)
            marks.append(tracer.mark())
        first = {k: marks[1][k] - marks[0][k] for k in marks[0]}
        second = {k: marks[2][k] - marks[1][k] for k in marks[0]}
        repeat = first == second
        if not repeat:
            diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
            print(f"counts did not repeat between two traced passes: {diff}")
        first_span = len(tracer.start)
        first_sdp = len(tracer.sdp)
        traced = runner.loop(args.seconds / 2)
        work.reference()
    finally:
        tracer.uninstall()

    common = min(len(plain["fingerprints"]), len(traced["fingerprints"]))
    changed = [i for i in range(common)
               if plain["fingerprints"][i] != traced["fingerprints"][i]]
    if changed:
        runner.problems.append(f"tracing changed the outputs of requests {changed[:10]}")

    spans = tracer.arrays()
    WORKDIR.mkdir(exist_ok=True)
    np.savez_compressed(WORKDIR / f"trace-{args.workload}-{args.seed}.npz", **spans)

    t_plain, t_traced = timing(plain), timing(traced)
    n = t_traced["requests"]
    per_name = self_times(spans, first_span)
    units = per_layer_units()
    values = {}
    for name, _, _ in SPANS:
        values[f"{name}.calls"] = first[name]
        values[f"{name}.self_s"] = per_name[name][1] / n
    for name, _, _ in COUNTERS:
        values[f"{name}.calls"] = first[name]
    values["inference.extract_choi.failures"] = per_name["inference.extract_choi"][2]
    values[f"{SDP}.iterations"] = first[f"{SDP}.iterations"]
    sdp = [c for req, _, c in tracer.sdp[first_sdp:] if req >= 0]
    values[f"{SDP}.converged_frac"] = sum(sdp) / len(sdp) if sdp else 0.0
    values["request.self_s"] = per_name["request"][1] / n
    overhead = 1.0 - t_traced["throughput_per_s"] / t_plain["throughput_per_s"]
    values["trace.overhead_frac"] = overhead
    values["trace.counts_repeat"] = 1 if repeat else 0

    _print_timing("untraced half", t_plain, work.item)
    _print_timing("traced half", t_traced, work.item)
    request_s = float(traced["latencies"].sum()) / n
    layers_s = sum(per_name[name][1] for name, _, _ in SPANS) / n
    print(f"per-layer figures: calls over the first {block} requests (pass repeated: "
          f"{'identical' if repeat else 'DIFFERENT'}), self_s per traced request")
    for name in units:
        print(f"  {name:44s} {values[name]:.6g} {units[name]}")
    print(f"layer self times sum to {layers_s * 1e3:.6g} ms of {request_s * 1e3:.6g} ms "
          f"per traced request ({layers_s / request_s:.2%}); "
          f"throughput overhead of tracing {overhead:.2%}")
    return {k: (values[k], units[k]) for k in units}, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    info = machine()
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} closed loop, 1 client")
    WORKDIR.mkdir(exist_ok=True)
    work = WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.trace:
        metrics, runner = run_traced(work, args)
    else:
        metrics, runner = run_untraced(work, args)
    failed = len(runner.failures)
    print(f"  fail_frac          {failed / runner.attempted:.6g} fraction "
          f"({failed} of {runner.attempted} requests)")
    for failure in (runner.failures + runner.problems)[:20]:
        print(f"FAILED {failure}")
    correct = not runner.failures and not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
