"""One run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE MODE T0

`run.py` starts this; MODE is `setup` (set up, report the set-up time and
exit), `measure` or `quick`. T0 is the parent's `time.monotonic()` just
before it started this process, so the set-up time includes interpreter
start. The result is one JSON line on stdout.

A run is a closed loop with one client: whole passes over the workload's
request list, each request starting when the previous one ended, until
SECONDS have passed, and at least two. With TRACE 1 the passes alternate
untraced and traced; the traced ones record a span per public
call and give the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import reference  # noqa: E402
import workloads as wl  # noqa: E402  (imports ordloc)
from yardstick import interpreter_start, process_slowness, slowness  # noqa: E402

MAX_RUN_S = 120.0          # stop starting passes that would end after this
# the tail quantile is defined on two passes, and a traced run needs an
# untraced and a traced one
MIN_PASSES = 2
CALIBRATION_LOOP = 3_000_000
SPEED_WINDOW = 2           # yardstick times on each side of a request


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = "setup"

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()


def calibration_s() -> float:
    """A fixed pure-Python loop, timed as a measure of the box's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i
    return time.perf_counter() - t0


def metric_name(span: str) -> str:
    if span.endswith("+"):
        return span[:-1] + "_plus"
    if span.endswith("-"):
        return span[:-1] + "_minus"
    return span


def judge(req, raw, error, refs) -> tuple:
    """The request's answer (None if it raised) and what is wrong with it."""
    if error:
        return None, [f"raised: {error}"]
    answer = req.answer(raw)
    return answer, (reference.compare(answer.value, refs.get(req.key))
                    + reference.revalidate_problems(answer.fails))


def check_probes(requests, refs) -> dict:
    """Runs each request once, untimed, and lists the wrong answers."""
    problems, ctx = [], {}
    for req in requests:
        try:
            raw, error = req.run(wl.NullTracer(), ctx), None
        except Exception:
            raw, error = None, traceback.format_exc(limit=3)
        found = judge(req, raw, error, refs)[1]
        if found:
            problems.append({"request": req.key, "problems": found})
    return {"attempted": len(requests), "problems": problems}


class Run:
    def __init__(self, workload, trace: bool):
        self.workload = workload
        self.trace = trace
        self.tracer = Tracer() if trace else wl.NullTracer()
        self.refs = {}
        self.latencies = []              # untraced passes: scaled seconds per request
        self.samples = []                # (request key, seconds, scale), same order
        self.scales = []                 # per request, see run_pass
        self.yardsticks = []             # per pass, the yardstick slowness
        self.kernel = []                 # traced passes: kernel slowness
        self.yardstick = (process_slowness if isinstance(workload, wl.CliSession)
                          else slowness)
        self.traced_latency = 0.0
        self.untraced_latency = 0.0
        self.traced_passes = 0
        self.untraced_passes = 0
        self.counts = Counter()
        self.overheads = []              # cli: subprocess minus in-process main
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, requests, traced: bool) -> float:
        """Run each request once; returns the pass's summed scaled latency."""
        tr = self.tracer if traced else wl.NullTracer()
        ctx = {}
        marks = [self.yardstick()]         # marks[i], marks[i + 1] bracket request i
        measured = []
        for n, req in enumerate(requests):
            gc.collect()
            if traced:
                tr.request = f"{self.traced_passes}:{n}:{req.key}"
            t0 = time.perf_counter()
            try:
                raw = (tr.call("request", req.run, tr, ctx) if traced
                       else req.run(tr, ctx))
                error = None
            except Exception:
                raw, error = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            marks.append(self.yardstick())
            if traced:
                self.kernel.append(marks[-1] if self.yardstick is slowness
                                   else slowness())
            measured.append(dt)
            self.attempted += 1
            answer, problems = judge(req, raw, error, self.refs)
            if traced:
                if answer is not None:
                    self.counts.update(answer.counts)
                    self.counts["olocale.revalidate_rejects"] += sum(
                        "revalidate rejects" in p for p in problems)
                if hasattr(self.workload, "in_process"):
                    main_s, counts = self.workload.in_process(tr, req)
                    self.overheads.append(dt - main_s)
                    self.counts.update(counts)
            if problems:
                self.failed += 1
                self.problems.append({"request": req.key, "problems": problems})
        self.yardsticks.append(marks)
        total = 0.0
        for i, (req, dt) in enumerate(zip(requests, measured)):
            # seconds at reference speed; the median of the yardstick times
            # nearest the request follows the box's drift but not one
            # sample's hiccup
            scale = 1 / statistics.median(
                marks[max(0, i + 1 - SPEED_WINDOW):i + 1 + SPEED_WINDOW])
            self.scales.append(scale)
            total += dt * scale
            if not traced:
                self.latencies.append(dt * scale)
                self.samples.append((req.key, dt, scale))
        return total

    def loop(self, requests, seconds: float) -> int:
        start = time.perf_counter()
        passes = 0
        while True:
            traced = self.trace and passes % 2 == 1
            pass_start = time.perf_counter()
            took = self.run_pass(requests, traced)
            pass_wall = time.perf_counter() - pass_start
            if traced:
                self.traced_passes += 1
                self.traced_latency += took
            else:
                self.untraced_passes += 1
                self.untraced_latency += took
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds or elapsed + pass_wall > MAX_RUN_S:
                if passes >= MIN_PASSES:
                    return passes

    @property
    def scale(self) -> float:
        """The run's median factor from measured to reference-speed seconds."""
        return statistics.median(self.scales)

    def end_to_end(self, requests_per_pass: int) -> dict:
        lat = sorted(self.latencies)
        n = len(lat)
        # the percentile with exactly ten samples beyond it in a two-pass run;
        # fixed per workload, so runs of any number of passes measure the same
        q = 1 - 10 / (2 * requests_per_pass)
        idx = max(0, math.ceil(q * n) - 1)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN
                                   if isinstance(self.workload, wl.CliSession)
                                   else resource.RUSAGE_SELF)
        raw = sorted(dt for _, dt, _ in self.samples)
        return {"ops_per_s": n / sum(lat),
                "latency_p50_ms": statistics.median(lat) * 1000,
                "latency_tail_ms": lat[idx] * 1000,
                "peak_rss_mb": usage.ru_maxrss / 1024,
                "_meta": {"tail_percentile": round(100 * q, 2), "samples": n,
                          "beyond_tail": n - idx - 1,
                          "unscaled_ops_per_s": n / sum(raw),
                          "unscaled_latency_p50_ms": statistics.median(raw) * 1000,
                          "unscaled_latency_tail_ms": raw[idx] * 1000}}

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        covered = defaultdict(float)
        for name, s, e, parent, req in spans:
            if parent is not None:
                covered[parent] += e - s
        out = defaultdict(float)
        for i, (name, s, e, parent, req) in enumerate(spans):
            if name == "request":
                continue
            # set-up counts once, passes are averaged
            weight = 1.0 if req == "setup" else 1.0 / self.traced_passes
            self_ms = (e - s - covered[i]) * 1000 * weight
            out[metric_name(name) + ".ms"] += self_ms
            out[metric_name(name) + ".calls"] += weight
            out[name.split(".")[0] + ".busy_ms"] += self_ms
        for key, value in self.counts.items():
            if not key.startswith("coverage."):
                out[key] = value / self.traced_passes
        attempted = self.counts["coverage.attempted"]
        out["coverage.exact_ratio"] = (self.counts["coverage.exact"] / attempted
                                       if attempted else 0.0)
        # span times are in-process work: scaled by the kernel, whatever the
        # workload's own yardstick
        kernel_scale = 1 / statistics.median(self.kernel)
        for key in out:
            if key.endswith("ms"):
                out[key] *= kernel_scale
        if self.overheads:
            out["cli.process_overhead_ms"] = statistics.median(self.overheads) * 1000
        per_traced = self.traced_latency / self.traced_passes
        per_untraced = self.untraced_latency / self.untraced_passes
        out["trace_overhead_pct"] = 100 * (per_traced / per_untraced - 1)
        return dict(out)


def interpreter_costs(samples: int = 5) -> dict:
    """Median wall time of a bare interpreter and of one importing ordloc.cli."""
    def importing():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ordloc.cli"], env=wl.cli_env(),
                       cwd=ROOT, check=True, timeout=60)
        return time.perf_counter() - t0

    start = statistics.median(interpreter_start() for _ in range(samples)) * 1000
    return {"cli.interp_start_ms": start,
            "cli.import_ms": statistics.median(importing() for _ in range(samples)) * 1000
            - start}


def main(argv) -> int:
    name, seed, seconds, trace, mode, t0 = argv
    seed, seconds, trace, t0 = int(seed), float(seconds), trace == "1", float(t0)
    workload = wl.WORKLOADS[name]()
    run = Run(workload, trace)
    inputs = workload.setup(seed, run.tracer)
    setup_s = time.monotonic() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    run.refs = wl.load_refs(name)["refs"]
    requests = workload.requests(inputs)
    meta = {"workload": name, "seed": seed, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "requests_per_pass": len(requests),
            "calibration_start_s": calibration_s()}
    if mode == "quick":
        meta["passes"] = 1
        run.run_pass(requests, traced=False)
    else:
        meta["passes"] = run.loop(requests, seconds)
    meta["calibration_end_s"] = calibration_s()
    meta["scale"] = run.scale
    result = {"meta": meta, "setup_s": setup_s, "attempted": run.attempted,
              "failed": run.failed, "problems": run.problems, "samples": run.samples,
              "yardsticks": run.yardsticks}
    if trace and mode != "quick":
        layers = run.per_layer()
        layers.update(interpreter_costs())
        result["per_layer"] = layers
        result["spans"] = run.tracer.spans
    elif mode != "quick":
        result["end_to_end"] = run.end_to_end(len(requests))
    if hasattr(workload, "probes"):
        result["known_defects"] = check_probes(workload.probes(), run.refs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
