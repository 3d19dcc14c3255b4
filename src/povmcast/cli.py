"""Command-line harness: rates, equivalence, simulate and sweep.

Exit codes: 0 success, 1 the equivalence check judged the measurements
different, 2 configuration or scenario validation failure, 3 a size cap
was exceeded. All output is deterministic given (config, seed); worker
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

from .config import load_config, params_with_axis
from .errors import ConfigError, PovmcastError, SizeLimitExceeded
from .linalg import canonical_purification
from .measurement import (
    Povm,
    coarse_grain,
    measurements_equivalent,
    sequential_composition,
)
from .protocol import build_block_scenario, prepare_scenario, simulate_trials
from .rates import (
    RATE_CSV_COLUMNS,
    evaluate_rate_region,
    report_csv_row,
    report_to_json,
)
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


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _params_json(params) -> dict:
    return {
        "n": params.n,
        "delta": params.delta,
        "delta2": params.delta2,
        "eps": params.eps,
        "sA": params.s_a,
        "sB": params.s_b,
        "sBprime": params.s_b_prime,
        "MA": params.m_a,
        "MB": params.m_b,
        "case": params.case,
        "seed": params.seed,
    }


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


def _trial_row(params, mode: str, rec) -> list:
    r = rec.report
    t = rec.transcript
    return [
        params.n,
        params.s_b,
        params.m_b,
        params.case,
        mode,
        rec.index,
        r.d_bob,
        r.d2,
        r.d3,
        r.fallback_rate,
        r.ec_rate,
        int(r.e0_ok),
        t.bits_to_alice,
        t.bits_to_bob,
    ]


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
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def _resolve_output(args, cfg, default: str):
    """Output path and format: command-line flags beat the config section."""
    out = args.out or cfg.output_path
    fmt = args.format or cfg.output_format or default
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {fmt!r}")
    return out, fmt


def cmd_rates(args) -> int:
    """Evaluate the achievable rate floors and print the corner summary."""
    cfg = _load(args)
    report = evaluate_rate_region(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    q = report.quantities
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
        f"              R_B >= {report.option1.iXAXB_R:.6f}"
        f"   R_B + S_B >= {report.option1.hXB_given_XA:.6f}",
        "Bob, with independent randomness:",
        f"              R_B >= {report.option2.iXB_RXA:.6f}"
        f"   R_B + S_B >= {report.option2.hXB:.6f}",
    ]
    print("\n".join(lines))
    out, fmt = _resolve_output(args, cfg, "json")
    if out:
        if fmt == "json":
            doc = {
                "schema": "povmcast/rates-v1",
                "name": cfg.name,
                "report": report_to_json(report),
            }
            _write_text(out, _dump_json(doc))
        else:
            _write_text(
                out,
                _csv_text(RATE_CSV_COLUMNS, [report_csv_row(report)]),
            )
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
    phi = canonical_purification(cfg.rho)
    res = measurements_equivalent(
        phi, direct, sequential, tol=cfg.equivalence.tolerance
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
    out, fmt = _resolve_output(args, cfg, "json")
    if out:
        if fmt == "json":
            _write_text(out, _dump_json(doc))
        else:
            _write_text(
                out,
                _csv_text(
                    ("equivalent", "max_deviation", "tolerance"),
                    [
                        [
                            int(res.equivalent),
                            float(res.max_deviation),
                            cfg.equivalence.tolerance,
                        ]
                    ],
                ),
            )
    return 0 if res.equivalent else 1


def cmd_simulate(args) -> int:
    """Run seeded protocol trials and emit per-trial and aggregate data."""
    cfg = _load(args)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = build_block_scenario(single, cfg.params)
    records = simulate_trials(
        single,
        cfg.params,
        mode=cfg.mode,
        trials=cfg.trials,
        block=block,
        workers=args.workers,
    )
    doc = {
        "schema": "povmcast/simulate-v1",
        "name": cfg.name,
        "mode": cfg.mode,
        "params": _params_json(cfg.params),
        "aggregate": aggregate_records(records),
        "trials": [_trial_json(rec) for rec in records],
    }
    print(_dump_json(doc), end="")
    out, fmt = _resolve_output(args, cfg, "csv")
    if out:
        if fmt == "csv":
            rows = [_trial_row(cfg.params, cfg.mode, rec) for rec in records]
            _write_text(out, _csv_text(TRIAL_CSV_COLUMNS, rows))
        else:
            _write_text(out, _dump_json(doc))
    return 0


def _sweep_point_row(axis, value, params, mode, aggregate, block) -> list:
    return [
        axis,
        value,
        params.n,
        params.s_b,
        params.m_b,
        params.case,
        mode,
        aggregate["trials"],
        aggregate["d_median"],
        aggregate["d_mean"],
        aggregate["d2_median"],
        aggregate["d3_median"],
        aggregate["fallback_rate"],
        aggregate["ec_rate"],
        aggregate["e0_ok_rate"],
        len(block.alice_block.typical.members),
        len(block.bob_marg_typical.members),
        aggregate["bits_to_alice_mean"],
        aggregate["bits_to_bob_mean"],
    ]


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

    out, fmt = _resolve_output(args, cfg, "csv")
    points = []
    agg_rows = []
    trial_rows = []
    groups = []
    error = None
    failed_value = None
    for value in cfg.sweep.values:
        params = params_with_axis(cfg.params, axis, value)
        try:
            block = base_block
            if block is None or axis in ("n", "delta"):
                block = build_block_scenario(single, params)
            records = simulate_trials(
                single,
                params,
                mode=cfg.mode,
                trials=cfg.trials,
                block=block,
                workers=args.workers,
            )
        except PovmcastError as exc:
            error = exc
            failed_value = value
            break
        aggregate = aggregate_records(records)
        points.append(
            {
                "value": value,
                "params": _params_json(params),
                "aggregate": aggregate,
                "trials": [_trial_json(rec) for rec in records],
            }
        )
        agg_rows.append(
            _sweep_point_row(axis, value, params, cfg.mode, aggregate, block)
        )
        trial_rows.extend(
            _trial_row(params, cfg.mode, rec) for rec in records
        )
        groups.append([rec.report.d_bob for rec in records])

    trend = None
    if len(groups) >= 2:
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
        doc["error"] = str(error)
        doc["failed_value"] = failed_value
    print(_dump_json(doc), end="")
    if out:
        if fmt == "csv":
            _write_text(out, _csv_text(SWEEP_CSV_COLUMNS, agg_rows))
            _write_text(
                _trials_sibling(out),
                _csv_text(TRIAL_CSV_COLUMNS, trial_rows),
            )
        else:
            _write_text(out, _dump_json(doc))
    if error is not None:
        print(f"error: sweep point {failed_value!r}: {error}", file=sys.stderr)
        return 3 if isinstance(error, SizeLimitExceeded) else 2
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
        return args.func(args)
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
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
