"""The ordloc benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick [--workload NAME] [--seed N]

Run from the root of a checkout; the package is imported from `src/`.
The measuring process and the set-up samples are fresh interpreters
(`worker.py`). With `--trace 0` the last line of stdout is a JSON object
holding the end-to-end metrics named in BENCHMARK.json, with `--trace 1`
the per-layer ones. `--quick` runs each workload's request list once,
checks every answer, known defects included, and exits 1 on any wrong
one. The run record
(metadata, metrics, wrong answers and, when traced, the spans) goes to
`.bench_out/`. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from yardstick import process_slowness

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-session", "grid-laws", "derived-structures", "explicit-docs")
SETUP_SAMPLES = 11         # the measuring process is one of them
WORKER_TIMEOUT_S = 170
SHOWN_PROBLEMS = 5


def worker(workload, seed, seconds, trace, mode) -> dict:
    cmd = [sys.executable, str(WORKER), workload, str(seed), str(seconds),
           str(trace), mode]
    proc = subprocess.run(cmd + [repr(time.monotonic())], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload} {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity() -> dict:
    """The git commit when there is one, and a hash of the package source."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ordloc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def save(record: dict, stem: str) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def setup_samples(args) -> list[tuple[dict, float]]:
    """Worker runs, each with its set-up time scaled by the process
    yardstick (see README: timings are scaled). Readings are taken between
    the runs, and a set-up-only run is scaled by the mean of the readings
    on each side of it. The last run measures, so only the reading before
    it is near its set-up."""
    readings = [process_slowness()]
    samples = []
    for i in range(SETUP_SAMPLES):
        last = i == SETUP_SAMPLES - 1
        res = worker(args.workload, args.seed, args.seconds, args.trace,
                     "measure" if last else "setup")
        if not last:
            readings.append(process_slowness())
        samples.append((res, res["setup_s"] / statistics.mean(readings[i:i + 2])))
    return samples


def known_defects_line(probes: dict) -> str:
    return (f"# known_defects: {len(probes['problems'])} of {probes['attempted']} "
            "wrong (ROADMAP item 1; checked apart, not timed, not in `correct`)")


def measure(args, bench: dict) -> int:
    samples = setup_samples(args)
    res = samples[-1][0]
    meta = {**res["meta"], **source_identity(),
            "setup_samples_s": [r["setup_s"] for r, _ in samples],
            "setup_samples_scaled_s": [scaled for _, scaled in samples]}
    if args.trace:
        listed = bench["per_layer"]
        measured = res["per_layer"]
    else:
        listed = bench["end_to_end"]
        measured = {**res["end_to_end"],
                    "setup_s": statistics.median(meta["setup_samples_scaled_s"])}
        meta["latency"] = measured.pop("_meta")
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}
    error_rate = res["failed"] / res["attempted"]
    save({"meta": meta, "metrics": metrics, "error_rate": error_rate,
          "problems": res["problems"], "known_defects": res.get("known_defects"),
          "samples": res["samples"],
          "yardsticks": res["yardsticks"],
          "spans": res.get("spans")},
         f"{args.workload}-seed{args.seed}-trace{args.trace}")
    for key in ("seed", "git_sha", "src_sha256", "python", "numpy", "nproc", "passes",
                "requests_per_pass", "calibration_start_s", "calibration_end_s",
                "scale", "latency"):
        if key in meta:
            print(f"# {key}: {meta[key]}")
    for p in res["problems"][:SHOWN_PROBLEMS]:
        print(f"wrong: {p['request']}: {'; '.join(p['problems'])}", file=sys.stderr)
    if "known_defects" in res:
        print(known_defects_line(res["known_defects"]))
        for p in res["known_defects"]["problems"]:
            print(f"known defect: {p['request']}: {'; '.join(p['problems'])}",
                  file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {error_rate:.6g} ratio ({res['failed']} of {res['attempted']})")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def quick(args) -> int:
    wrong = 0
    for name in [args.workload] if args.workload else WORKLOADS:
        res = worker(name, args.seed, 0, 0, "quick")
        wrong += res["failed"]
        print(f"{name}: {res['attempted']} requests, {res['failed']} wrong")
        for p in res["problems"]:
            print(f"  {p['request']}: {'; '.join(p['problems'])}")
        if "known_defects" in res:
            wrong += len(res["known_defects"]["problems"])
            print(f"{name}: {known_defects_line(res['known_defects'])[2:]}")
            for p in res["known_defects"]["problems"]:
                print(f"  {p['request']}: {'; '.join(p['problems'])}")
    return 1 if wrong else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "ordloc" / "__init__.py").is_file():
        print(f"no ordloc package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.quick:
        return quick(args)
    if args.workload is None:
        ap.error("--workload is required unless --quick is given")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return measure(args, json.load(fh))


if __name__ == "__main__":
    sys.exit(main())
