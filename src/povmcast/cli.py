"""Command-line harness: rates, equivalence, simulate and sweep.

Exit codes: 0 success, 1 the equivalence check judged the measurements
different, 2 configuration or scenario validation failure, 3 a size cap
was exceeded or memory could not be allocated, such as for a codebook too
large to draw. All output is deterministic given (config, seed); worker
count never changes emitted bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from .config import load_config, params_to_json, params_with_axis
from .errors import ConfigError, PovmcastError, SizeLimitExceeded
from .linalg import dimension_cap
from .measurement import (
    Povm,
    coarse_grain,
    measurements_equivalent,
    sequential_composition,
)
from .protocol import build_block_scenario, prepare_scenario, simulate_trials
from .rates import RATE_CSV_COLUMNS, evaluate_rate_region, report_to_json
from .stats import jonckheere_terpstra

TRIAL_CSV_COLUMNS = (
    "n",
    "sB",
    "MB",
    "case",
    "mode",
    "trial",
    "d",
    "d2",
    "d3",
    "fallback",
    "ec",
    "e0_ok",
    "bits_to_alice",
    "bits_to_bob",
)

SWEEP_CSV_COLUMNS = (
    "axis",
    "value",
    "n",
    "sB",
    "MB",
    "case",
    "mode",
    "trials",
    "d_median",
    "d_mean",
    "d2_median",
    "d3_median",
    "fallback_rate",
    "ec_rate",
    "e0_ok_rate",
    "typical_size_alice",
    "typical_size_bob_marginal",
    "bits_to_alice_mean",
    "bits_to_bob_mean",
)

EQUIVALENCE_CSV_COLUMNS = ("equivalent", "max_deviation", "tolerance")


def load_schema(kind: str) -> dict:
    """Published JSON schema shipped with the package.

    kind is one of scenario_config, rates_report, equivalence_report,
    simulate_report, sweep_report.
    """
    ref = resources.files("povmcast").joinpath(f"schemas/{kind}.schema.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _json_num(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_rows(columns, records) -> list:
    """Each record's values in column order, with booleans as 0/1."""
    return [
        [int(rec[c]) if isinstance(rec[c], bool) else rec[c] for c in columns]
        for rec in records
    ]


def _csv_text(columns, records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(_csv_rows(columns, records))
    return buf.getvalue()


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        # a directory, a missing parent directory, or no permission
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


# A run too large to hold: a size cap, or an allocation that failed.
_SIZE_ERRORS = (SizeLimitExceeded, MemoryError)


def _error_text(exc) -> str:
    # a MemoryError raised by the interpreter carries no message
    return str(exc) or "out of memory"


def _trial_json(rec) -> dict:
    r = rec.report
    t = rec.transcript
    return {
        "trial": rec.index,
        "d": r.d_bob,
        "d_alice": r.d_alice,
        "atypical": r.atypical,
        "d2": r.d2,
        "d3": r.d3,
        "subpovm_failure_rate": r.subpovm_failure_rate,
        "fallback": r.fallback_rate,
        "ec": r.ec_rate,
        "e0_ok": bool(r.e0_ok),
        "e0_violation": _json_num(r.e0_violation),
        "m_a": t.m_a,
        "m_b": t.m_b,
        "j_a": t.j_a,
        "j_b": t.j_b,
        "alice_output": list(t.alice_output),
        "bob_output": list(t.bob_output),
        "bits_to_alice": t.bits_to_alice,
        "bits_to_bob": t.bits_to_bob,
        "degenerate": bool(t.degenerate),
        "reason": t.reason,
    }


def aggregate_records(records) -> dict:
    """Summary statistics over per-trial records."""
    reports = [rec.report for rec in records]
    transcripts = [rec.transcript for rec in records]

    def med(vals):
        return float(np.median(np.asarray(vals, dtype=np.float64)))

    def avg(vals):
        return float(np.mean(np.asarray(vals, dtype=np.float64)))

    return {
        "trials": len(records),
        "d_median": med([r.d_bob for r in reports]),
        "d_mean": avg([r.d_bob for r in reports]),
        "d_alice_median": med([r.d_alice for r in reports]),
        "atypical_median": med([r.atypical for r in reports]),
        "d2_median": med([r.d2 for r in reports]),
        "d3_median": med([r.d3 for r in reports]),
        "subpovm_failure_rate": avg([r.subpovm_failure_rate for r in reports]),
        "fallback_rate": avg([r.fallback_rate for r in reports]),
        "ec_rate": avg([r.ec_rate for r in reports]),
        "e0_ok_rate": avg([float(r.e0_ok) for r in reports]),
        "degenerate_rate": avg([float(t.degenerate) for t in transcripts]),
        "bits_to_alice_mean": avg([t.bits_to_alice for t in transcripts]),
        "bits_to_bob_mean": avg([t.bits_to_bob for t in transcripts]),
    }


def _load(args):
    # only simulate and sweep take --workers; reject it before any work
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def _emit(args, cfg, default: str, doc: dict, columns, records):
    """Write the report to the output file, if one is named.

    Command-line flags beat the config's output section. JSON writes doc;
    CSV writes one row per record. Returns the path and format.
    """
    out = args.out or cfg.output_path
    fmt = args.format or cfg.output_format or default
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {fmt!r}")
    if out:
        if fmt == "json":
            _write_text(out, _dump_json(doc))
        else:
            _write_text(out, _csv_text(columns, records))
    return out, fmt


def cmd_rates(args) -> int:
    """Evaluate the achievable rate floors and print the corner summary."""
    cfg = _load(args)
    q = evaluate_rate_region(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    lines = [
        f"scenario: {cfg.name}",
        "",
        "quantity         bits",
        f"I(X_A;R)         {q.iXA_R:.6f}",
        f"H(X_A)           {q.hXA:.6f}",
        f"I(X_A,X_B;R)     {q.iXAXB_R:.6f}",
        f"I(X_B;R|X_A)     {q.iXB_R_given_XA:.6f}",
        f"I(X_B;R,X_A)     {q.iXB_RXA:.6f}",
        f"H(X_B|X_A)       {q.hXB_given_XA:.6f}",
        f"H(X_B)           {q.hXB:.6f}",
        "",
        f"Alice:        R_A >= {q.iXA_R:.6f}   R_A + S_A >= {q.hXA:.6f}",
        "Bob, sharing Alice's randomness:",
        f"              R_B >= {q.iXAXB_R:.6f}"
        f"   R_B + S_B >= {q.hXB_given_XA:.6f}",
        "Bob, with independent randomness:",
        f"              R_B >= {q.iXB_RXA:.6f}"
        f"   R_B + S_B >= {q.hXB:.6f}",
    ]
    print("\n".join(lines))
    report = report_to_json(q)
    doc = {"schema": "povmcast/rates-v1", "name": cfg.name, "report": report}
    _emit(args, cfg, "json", doc, RATE_CSV_COLUMNS, [report])
    return 0


def _perturbed_povm(povm: Povm, settings):
    # move a slice of one element onto its neighbor; the total is
    # conserved so the result is still a POVM, only mislabeled
    if settings.perturb_element is None or settings.perturb_scale <= 0:
        return povm, False
    elems = list(povm.elements)
    k = settings.perturb_element
    shift = min(settings.perturb_scale, 1.0) * elems[k]
    j = (k + 1) % len(elems)
    elems[k] = elems[k] - shift
    elems[j] = elems[j] + shift
    bad = Povm(elements=tuple(elems), labels=povm.labels, complete=povm.complete)
    return bad, True


def cmd_equivalence(args) -> int:
    """Direct coarse measurement vs measure-then-condition composition."""
    cfg = _load(args)
    direct = coarse_grain(cfg.povm, cfg.g_b)
    sequential = sequential_composition(cfg.povm, cfg.g_a, cfg.g_b)
    sequential, perturbed = _perturbed_povm(sequential, cfg.equivalence)
    res = measurements_equivalent(
        cfg.rho, direct, sequential, tol=cfg.equivalence.tolerance
    )
    doc = {
        "schema": "povmcast/equivalence-v1",
        "name": cfg.name,
        "equivalent": bool(res.equivalent),
        "max_deviation": float(res.max_deviation),
        "tolerance": cfg.equivalence.tolerance,
        "perturbed": perturbed,
    }
    print(_dump_json(doc), end="")
    _emit(args, cfg, "json", doc, EQUIVALENCE_CSV_COLUMNS, [doc])
    return 0 if res.equivalent else 1


def _warn_if_saturated(records, where: str):
    if all(rec.report.saturated for rec in records):
        msg = "every trial is saturated (no simulated Bob operator survived)"
        print(f"warning: {where}: {msg}, so d = 1", file=sys.stderr)


def _run_point(args, cfg, single, params, block, where: str) -> dict:
    """Trials at one parameter point: its params, aggregate and trials."""
    records = simulate_trials(
        single,
        params,
        mode=cfg.mode,
        trials=cfg.trials,
        block=block,
        workers=args.workers,
    )
    _warn_if_saturated(records, where)
    return {
        "params": params_to_json(params),
        "aggregate": aggregate_records(records),
        "trials": [_trial_json(rec) for rec in records],
    }


def _trial_records(point: dict, mode: str) -> list:
    return [{**point["params"], "mode": mode, **t} for t in point["trials"]]


def cmd_simulate(args) -> int:
    """Run seeded protocol trials and emit per-trial and aggregate data."""
    cfg = _load(args)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = build_block_scenario(single, cfg.params)
    doc = {
        "schema": "povmcast/simulate-v1",
        "name": cfg.name,
        "mode": cfg.mode,
        **_run_point(args, cfg, single, cfg.params, block, cfg.name),
    }
    print(_dump_json(doc), end="")
    records = _trial_records(doc, cfg.mode)
    _emit(args, cfg, "csv", doc, TRIAL_CSV_COLUMNS, records)
    return 0


def _trials_sibling(path: str) -> str:
    base, ext = os.path.splitext(path)
    return base + ".trials" + (ext or ".csv")


def cmd_sweep(args) -> int:
    """Repeat the simulation along one axis and report the d trend."""
    cfg = _load(args)
    if cfg.sweep is None:
        raise ConfigError(f"{cfg.name}: sweep requires a sweep section")
    axis = cfg.sweep.axis
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    base_block = None
    if axis in ("sB", "MB"):
        base_block = build_block_scenario(single, cfg.params)

    points = []
    rows = []
    error = None
    failed_value = None
    for value in cfg.sweep.values:
        params = params_with_axis(cfg.params, axis, value)
        where = f"{cfg.name} {axis}={value!r}"
        try:
            block = base_block
            if block is None:
                block = build_block_scenario(single, params)
            point = _run_point(args, cfg, single, params, block, where)
        except (PovmcastError, MemoryError) as exc:
            error = exc
            failed_value = value
            break
        points.append({"value": value, **point})
        rows.append(
            {
                "axis": axis,
                "value": value,
                **point["params"],
                "mode": cfg.mode,
                **point["aggregate"],
                "typical_size_alice": len(block.alice_block.typical.members),
                "typical_size_bob_marginal": len(
                    block.bob_marg_typical.members
                ),
            }
        )

    trend = None
    if len(points) >= 2:
        groups = [[t["d"] for t in p["trials"]] for p in points]
        tr = jonckheere_terpstra(groups)
        trend = {
            "statistic": tr.statistic,
            "mean": tr.mean,
            "variance": tr.variance,
            "zscore": tr.zscore,
            "p_increasing": tr.p_increasing,
            "p_decreasing": tr.p_decreasing,
        }
    doc = {
        "schema": "povmcast/sweep-v1",
        "name": cfg.name,
        "mode": cfg.mode,
        "axis": axis,
        "values": [p["value"] for p in points],
        "points": points,
        "trend": trend,
    }
    if error is not None:
        doc["error"] = _error_text(error)
        doc["failed_value"] = failed_value
    print(_dump_json(doc), end="")
    out, fmt = _emit(args, cfg, "csv", doc, SWEEP_CSV_COLUMNS, rows)
    if out and fmt == "csv":
        records = [r for p in points for r in _trial_records(p, cfg.mode)]
        text = _csv_text(TRIAL_CSV_COLUMNS, records)
        _write_text(_trials_sibling(out), text)
    if error is not None:
        print(
            f"error: sweep point {failed_value!r}: {_error_text(error)}",
            file=sys.stderr,
        )
        return 3 if isinstance(error, _SIZE_ERRORS) else 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmcast",
        description=(
            "Faithful simulation of broadcast quantum measurements: rate "
            "regions, measurement equivalence, and seeded protocol runs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("rates", cmd_rates, "evaluate the achievable rate region"),
        (
            "equivalence",
            cmd_equivalence,
            "check direct vs sequential measurement equivalence",
        ),
        ("simulate", cmd_simulate, "run seeded protocol trials"),
        ("sweep", cmd_sweep, "repeat trials along one parameter axis"),
    )
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config",
            required=True,
            help="path to a scenario JSON file, or preset:NAME",
        )
        p.add_argument(
            "--seed", type=int, default=None, help="override the config seed"
        )
        p.add_argument("--out", default=None, help="write results to a file")
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default=None,
            help="file format for --out (json for reports, csv for trials)",
        )
        if name in ("simulate", "sweep"):
            p.add_argument(
                "--workers",
                type=int,
                default=1,
                help="concurrent trial workers (output is unaffected)",
            )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # every command refuses a malformed POVMCAST_DIM_CAP, whether or
        # not it reaches a size guard
        dimension_cap()
        return args.func(args)
    except _SIZE_ERRORS as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 3
    except PovmcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# 128 + SIGPIPE: the shell's status for a writer whose reader went away.
# Exit 1 already means "judged different".
EXIT_BROKEN_PIPE = 141


def entrypoint():
    try:
        code = main()
        # flush inside the try, so a closed pipe surfaces here
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit does
        # not fail again (the recipe in the Python signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    sys.exit(code)
