"""povmcast benchmark driver.

    python3 perfbench/run.py --workload geometry --seed 0 --seconds 20 --trace 0

Run from the repository root. Each workload run happens in a fresh child
process (bench.py) with OPENBLAS_NUM_THREADS=1 and ``src`` first on the
import path; this process waits for it, adds the child's peak resident
set size, stamps the result with the software and machine it ran on, and
prints the result as the last line of its standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, taken
from a traced run. ``--workload all`` runs every workload in turn and
prints every metric, prefixed by its workload. Outputs, spans and a
``BENCH_*.json`` copy of each result land in ``.perfbench_out/``.

Workloads (see bench.py for the scenario documents):

- geometry: three-outcome-split at n=7 (D=128), one trial; block geometry
  dominates and the working set is far larger than the cache.
- trials: three-outcome-split at n=5 (D=32), 96 trials; instance build and
  scoring dominate.
- sweep-cli: ``povmcast sweep`` on bell-computational at n=6 (D=64), four
  sweep points of 6 trials on 2 worker threads, csv output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("geometry", "trials", "sweep-cli")
CHILD_TIMEOUT_S = 175.0


def metric_units(trace) -> dict:
    """Name to unit of the metrics BENCHMARK.json lists for the run kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def run_child(workload, seed, seconds, trace):
    """Run bench.py once; return (result dict, peak RSS in MB) or None."""
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"result_{workload}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable,
        os.path.join(HERE, "bench.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        "--out-dir",
        OUT_DIR,
        "--result",
        result_path,
    ]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    pid = 0
    try:
        # wait4 rather than Popen.wait: it also returns the child's rusage
        while not pid and time.monotonic() < deadline:
            time.sleep(0.05)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            print(f"error: {workload} run timed out", file=sys.stderr)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(
            f"error: {workload} run exited with {proc.returncode}",
            file=sys.stderr,
        )
        return None
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    # ru_maxrss is in KiB on Linux
    return result, usage.ru_maxrss / 1024.0


def run_workload(workload, seed, seconds, trace):
    out = run_child(workload, seed, seconds, trace)
    if out is None:
        return None
    result, peak_rss_mb = out
    units = metric_units(trace)
    values = dict(result["metrics"])
    if not trace:
        values["peak_rss_mb"] = peak_rss_mb
    missing = set(units) - set(values)
    if missing:
        print(
            f"error: {workload} did not report {sorted(missing)}",
            file=sys.stderr,
        )
        return None
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record = dict(result, metrics=metrics, trace=trace)
    name = f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="povmcast benchmark")
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        if record is None:
            return 1
        records[name] = record

    metrics = {}
    for name, record in records.items():
        print(f"{name} stamp {json.dumps(record['stamp'], sort_keys=True)}")
        for key, metric in record["metrics"].items():
            print(f"{name} {key} {metric['value']:.6g} {metric['unit']}")
            label = key if args.workload != "all" else f"{name}.{key}"
            metrics[label] = metric
    final = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
