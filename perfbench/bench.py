"""One benchmark run of one workload, in its own process.

run.py starts this file with OPENBLAS_NUM_THREADS=1 and ``src`` on the
import path, and reads the JSON it writes to ``--result``. The workload's
scenario document is generated here from a preset and ``--seed``; the
program receives only that document, through ``config_from_dict`` or,
for the CLI, a JSON file.

Each iteration goes from the scenario document to the last result and
checks it. Iterations repeat until ``--seconds`` have passed, and the
end-to-end metrics are medians over them. With ``--trace 1`` the run
first times one untraced iteration, then installs the tracer for the
measured iterations, and finally takes the computed byte counts and
tracemalloc peaks of one geometry and one instance build.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import copy
import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_DIR = os.path.join(HERE, "reference")

import povmcast  # noqa: E402
from povmcast import cli, config, presets, protocol  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 0

# Covering-lemma codebook sizes, as rate expressions the config resolves.
# Without them every preset run beyond its design n saturates at d = 1.
RX_SIZES = {
    "sA": "I(X_A;R) + delta2",
    "MA": "H(X_A) - I(X_A;R) + delta2",
    "sB": "I(X_B;R|X_A) + delta2",
    "MB": "H(X_B|X_A) - I(X_B;R|X_A) + delta2",
    "sBprime": "H(X_B) + 3*delta2",
}


def _geometry_doc(seed):
    # D = 128: the block operators outgrow the cache, and geometry is
    # about 80% of the wall. The preset's own sizes; d saturates here.
    doc = presets.preset_document("three-outcome-split")
    doc["protocol"].update(n=7, seed=seed)
    doc["trials"] = 1
    del doc["sweep"]
    return doc


def _trials_doc(seed):
    # D = 32: many small matmuls, where instance build and scoring do
    # about 90% of the work and d is not saturated.
    doc = presets.preset_document("three-outcome-split")
    doc["protocol"].update(RX_SIZES, n=5, seed=seed)
    doc["trials"] = 96
    del doc["sweep"]
    return doc


def _sweep_doc(seed):
    # D = 64: the only workload that runs the thread pool, case-2
    # codebooks, one block reused across sweep points, and the
    # config/rates/output layers of the CLI.
    doc = presets.preset_document("bell-computational")
    doc["protocol"].update(
        {k: RX_SIZES[k] for k in ("sA", "MA", "MB")}, n=6, seed=seed
    )
    doc["trials"] = 6
    return doc


SWEEP_WORKERS = 2

WORKLOADS = {
    "geometry": _geometry_doc,
    "trials": _trials_doc,
    "sweep-cli": _sweep_doc,
}

# Extra set-ups timed before each iteration, for workloads whose set-up
# takes a fraction of a second: one sample would read the machine's
# speed at one instant. Geometry times the set-up of each iteration.
SETUP_REPEATS = {"trials": 4, "sweep-cli": 4}


def expected_trials(doc) -> int:
    points = len(doc["sweep"]["values"]) if "sweep" in doc else 1
    return doc["trials"] * points


def setup(doc):
    """Scenario document to a built BlockScenario."""
    cfg = config.config_from_dict(copy.deepcopy(doc), name=doc["name"])
    single = protocol.prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = protocol.build_block_scenario(single, cfg.params)
    return cfg, single, block


def time_setup(doc) -> float:
    t0 = time.perf_counter()
    setup(doc)
    return time.perf_counter() - t0


def run_direct(doc, out_dir, tracer):
    """One iteration through the library API: set-up, then the trials."""
    t0 = time.perf_counter()
    cfg, single, block = setup(doc)
    t1 = time.perf_counter()
    records = protocol.simulate_trials(
        single, cfg.params, mode=cfg.mode, trials=cfg.trials, block=block
    )
    t2 = time.perf_counter()
    rows = [checks.record_row(rec) for rec in records]
    timing = {"setup": t1 - t0, "trial_phase": t2 - t1, "wall": t2 - t0}
    return timing, rows, []


def run_sweep_cli(doc, out_dir, tracer):
    """One iteration through ``povmcast sweep``, output to csv files."""
    cfg_path = os.path.join(out_dir, "sweep-cli.config.json")
    out_path = os.path.join(out_dir, "sweep-cli.csv")
    trials_path = os.path.join(out_dir, "sweep-cli.trials.csv")
    for path in (out_path, trials_path):
        if os.path.exists(path):
            os.remove(path)
    argv = [
        "sweep",
        "--config",
        cfg_path,
        "--workers",
        str(SWEEP_WORKERS),
        "--format",
        "csv",
        "--out",
        out_path,
    ]
    buf = io.StringIO()
    if tracer:
        span = tracer.span(tracing.CLI_SPAN)
    else:
        span = contextlib.nullcontext()
    t0 = time.perf_counter()
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    t1 = time.perf_counter()
    with span, contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    t2 = time.perf_counter()
    text = buf.getvalue()
    if tracer:
        written = len(text.encode("utf-8"))
        written += os.path.getsize(out_path) + os.path.getsize(trials_path)
        tracer.add("cli.bytes_out", written)
    if code != 0:
        return None, [], [f"povmcast sweep exited with {code}"]
    rows, errors = checks.sweep_rows(
        text, out_path, trials_path, doc["sweep"]["values"], doc["trials"]
    )
    return {"trial_phase": t2 - t1, "wall": t2 - t0}, rows, errors


RUNNERS = {
    "geometry": run_direct,
    "trials": run_direct,
    "sweep-cli": run_sweep_cli,
}


class Tally:
    """Trials attempted and failed, with why, over a run."""

    def __init__(self, workload, seed):
        self.reference = None
        if seed == DEFAULT_SEED:
            ref = checks.load_reference(
                os.path.join(REFERENCE_DIR, f"{workload}.json")
            )
            self.reference = ref["rows"]
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rows = []

    def iteration(self, expected, rows, errors):
        self.attempted += expected
        if self.reference is not None:
            errors = errors + checks.compare_rows(self.reference, rows)
        if len(rows) != expected:
            errors = errors + [f"{len(rows)} trials reported, {expected} run"]
        if errors:
            self.failed += expected
            self.errors.extend(errors)
            return
        for row in rows:
            bad = checks.invariant_errors(row)
            if bad:
                self.failed += 1
                self.errors.extend(f"trial {row['trial']}: {e}" for e in bad)
        self.rows = rows

    def raised(self, expected, exc):
        self.attempted += expected
        self.failed += expected
        self.errors.append(f"{type(exc).__name__}: {exc}")


def iterate(workload, doc, seconds, out_dir, tracer, tally, setups=None):
    """Run iterations until seconds have passed; return their timings.

    When setups is a list, the workload's extra set-ups are timed into it
    before each iteration.
    """
    runner = RUNNERS[workload]
    expected = expected_trials(doc)
    samples = []
    start = time.perf_counter()
    while True:
        if setups is not None:
            for _ in range(SETUP_REPEATS.get(workload, 0)):
                setups.append(time_setup(doc))
        try:
            timing, rows, errors = runner(doc, out_dir, tracer)
        except Exception as exc:  # a failed iteration is counted, not fatal
            traceback.print_exc()
            tally.raised(expected, exc)
        else:
            tally.iteration(expected, rows, errors)
            if timing is not None:
                samples.append(timing)
                print(
                    f"{workload} iteration {len(samples)}: "
                    + " ".join(f"{k}={v:.4f}" for k, v in timing.items()),
                    file=sys.stderr,
                )
        gc.collect()
        if time.perf_counter() - start >= seconds:
            return samples


def memory_pass(doc):
    """Computed bytes and tracemalloc peaks of one geometry and one
    instance build, taken with the tracer off."""
    cfg = config.config_from_dict(copy.deepcopy(doc), name=doc["name"])
    single = protocol.prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    gc.collect()
    tracemalloc.start()
    try:
        block = protocol.build_block_scenario(single, cfg.params)
        geometry_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        seed_seq = np.random.SeedSequence(cfg.params.seed).spawn(1)[0]
        instance = protocol.build_protocol_instance(
            block, cfg.params, mode=cfg.mode, seed_seq=seed_seq
        )
        instance_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    seen = set()
    geometry_bytes = checks.computed_nbytes(block, seen)
    instance_bytes = checks.computed_nbytes(instance, seen)
    mb = 1024.0 * 1024.0
    return {
        "geometry.bytes": float(geometry_bytes),
        "geometry.peak_mb": geometry_peak / mb,
        "instance.bytes": float(instance_bytes),
        "instance.peak_mb": instance_peak / mb,
    }


def git_commit() -> str:
    root = os.path.dirname(HERE)
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(seed) -> dict:
    """Software and machine a result was measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
        "seed": seed,
    }


def summary_lines(workload, rows) -> list:
    """Saturation and waste, read from the returned trial rows."""
    if not rows:
        return []
    d_median = float(np.median([r["d"] for r in rows]))
    degenerate = [r for r in rows if r["degenerate"]]
    reasons = collections.Counter(r["reason"] for r in degenerate)
    useful = 1.0 - float(np.mean([r["fallback"] for r in rows]))
    select = 1.0 - float(np.mean([r["ec"] for r in rows]))
    lines = [
        f"{workload}: d_median={d_median:.4f} bob_useful_ratio={useful:.4f} "
        f"select_ok_ratio={select:.4f} degenerate={len(degenerate)}/"
        f"{len(rows)} reasons={dict(sorted(reasons.items()))}"
    ]
    if f"{d_median:.3f}" == "1.000" and len(degenerate) == len(rows):
        lines.append(
            f"warning: {workload}: saturated, median d = 1.000 and every "
            f"trial is degenerate ({dict(reasons)})"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="run one iteration at the default seed and store its trials "
        "as the workload's reference report",
    )
    args = parser.parse_args(argv)

    if not os.path.realpath(povmcast.__file__).startswith(
        os.path.realpath(SRC) + os.sep
    ):
        print(
            f"error: povmcast imported from {povmcast.__file__}",
            file=sys.stderr,
        )
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    doc = WORKLOADS[args.workload](args.seed)

    if args.write_reference:
        timing, rows, errors = RUNNERS[args.workload](doc, args.out_dir, None)
        if args.seed != DEFAULT_SEED:
            errors.append("a reference needs the default seed")
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        checks.write_reference(
            os.path.join(REFERENCE_DIR, f"{args.workload}.json"),
            args.workload,
            args.seed,
            rows,
        )
        return 0

    tally = Tally(args.workload, args.seed)
    result = {"workload": args.workload, "stamp": stamp(args.seed)}
    if args.trace:
        untraced = iterate(args.workload, doc, 0, args.out_dir, None, tally)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            samples = iterate(
                args.workload, doc, args.seconds, args.out_dir, tracer, tally
            )
        finally:
            tracer.uninstall()
        for name in tracer.missing:
            print(f"warning: not traced: {name}", file=sys.stderr)
        if not samples or not untraced:
            print("\n".join(tally.errors[:20]), file=sys.stderr)
            return 1
        tracer.dump(os.path.join(args.out_dir, f"spans_{args.workload}.json"))
        memory = memory_pass(doc)
        result["metrics"] = tracing.layer_metrics(
            tracer,
            [s["wall"] for s in samples],
            untraced[0]["wall"],
            memory,
        )
    else:
        setups = []
        samples = iterate(
            args.workload, doc, args.seconds, args.out_dir, None, tally, setups
        )
        if not samples:
            print("\n".join(tally.errors[:20]), file=sys.stderr)
            return 1
        # the first extra set-up of the process runs cold
        setups = setups[1:] or [s["setup"] for s in samples]
        print(
            f"{args.workload} setup samples: "
            + " ".join(f"{t:.4f}" for t in setups),
            file=sys.stderr,
        )
        trials = expected_trials(doc)
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "trials_per_s": statistics.median(
                trials / s["trial_phase"] for s in samples
            ),
            "wall_s": statistics.median(s["wall"] for s in samples),
        }
        result["iterations"] = len(samples)
        result["setup_samples"] = len(setups)
    for line in summary_lines(args.workload, tally.rows):
        print(line, file=sys.stderr)
    for err in tally.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        correct=tally.failed == 0 and not tally.errors,
        check_errors=len(tally.errors),
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
