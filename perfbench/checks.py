"""Correctness checks and computed memory counts for the benchmark.

A trial row is the part of one trial's report and transcript that the
benchmark checks: the faithfulness floats, the fallback and codebook
flags, and the transcript. Rows come from ``TrialRecord`` objects, or
from the JSON a CLI sweep prints, and compare equal across both.
"""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np

FLOAT_KEYS = ("d", "d_alice", "atypical", "d2", "d3")
EXACT_KEYS = (
    "trial",
    "fallback",
    "subpovm_failure_rate",
    "ec",
    "e0_ok",
    "m_a",
    "m_b",
    "j_a",
    "j_b",
    "alice_output",
    "bob_output",
    "degenerate",
    "reason",
)
FLOAT_TOL = 1e-9


def record_row(rec) -> dict:
    """Row of one ``TrialRecord``, in the CLI's JSON field names."""
    r = rec.report
    t = rec.transcript
    return {
        "trial": rec.index,
        "d": r.d_bob,
        "d_alice": r.d_alice,
        "atypical": r.atypical,
        "d2": r.d2,
        "d3": r.d3,
        "fallback": r.fallback_rate,
        "subpovm_failure_rate": r.subpovm_failure_rate,
        "ec": r.ec_rate,
        "e0_ok": bool(r.e0_ok),
        "m_a": t.m_a,
        "m_b": t.m_b,
        "j_a": t.j_a,
        "j_b": t.j_b,
        "alice_output": list(t.alice_output),
        "bob_output": list(t.bob_output),
        "degenerate": bool(t.degenerate),
        "reason": t.reason,
    }


def invariant_errors(row) -> list:
    """Guarantees every trial must meet, at any seed."""
    errors = []
    if not 0.0 <= row["d"] <= 2.0:
        errors.append(f"d = {row['d']!r} outside [0, 2]")
    bound = row["atypical"] + row["d2"] + row["d3"] + FLOAT_TOL
    if row["d"] > bound:
        errors.append(f"d = {row['d']!r} above atypical + d2 + d3 = {bound!r}")
    empty = not row["alice_output"] and not row["bob_output"]
    if row["degenerate"] != empty:
        errors.append(
            f"degenerate={row['degenerate']} but outputs "
            f"{row['alice_output']} / {row['bob_output']}"
        )
    return errors


def compare_rows(reference, rows) -> list:
    """Mismatches between reference rows and measured rows."""
    if len(reference) != len(rows):
        return [f"{len(rows)} trials, reference has {len(reference)}"]
    errors = []
    for i, (ref, got) in enumerate(zip(reference, rows)):
        for key in FLOAT_KEYS:
            if not abs(got[key] - ref[key]) <= FLOAT_TOL:
                errors.append(f"row {i}: {key} {got[key]!r} != {ref[key]!r}")
        for key in EXACT_KEYS:
            if got[key] != ref[key]:
                errors.append(f"row {i}: {key} {got[key]!r} != {ref[key]!r}")
    return errors


def _read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def sweep_rows(stdout_text, aggregate_csv, trials_csv, values, trials):
    """Rows of a CLI sweep plus the errors found in its outputs.

    The stdout JSON must cover every sweep value with the configured
    number of trials, and the aggregate and per-trial CSV files must agree
    with it.
    """
    doc = json.loads(stdout_text)
    errors = []
    if "error" in doc:
        errors.append(f"sweep reported error: {doc['error']}")
    if doc["values"] != list(values):
        errors.append(f"sweep values {doc['values']} != {list(values)}")
    rows = []
    for point in doc["points"]:
        if len(point["trials"]) != trials:
            errors.append(
                f"point {point['value']}: {len(point['trials'])} trials"
            )
        for t in point["trials"]:
            rows.append({key: t[key] for key in FLOAT_KEYS + EXACT_KEYS})
    aggregate = _read_csv(aggregate_csv)
    point_values = [p["value"] for p in doc["points"]]
    if [int(r["value"]) for r in aggregate] != point_values:
        errors.append("aggregate csv values differ from the sweep report")
    per_trial = _read_csv(trials_csv)
    if [float(r["d"]) for r in per_trial] != [r["d"] for r in rows]:
        errors.append("per-trial csv d column differs from the sweep report")
    return rows, errors


def load_reference(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(path, workload, seed, rows):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": workload, "seed": seed, "rows": rows}, fh, indent=1
        )
        fh.write("\n")


def computed_nbytes(obj, seen=None) -> int:
    """Sum of ``ndarray.nbytes`` reachable from obj, each buffer once.

    Walks dataclass fields, object attributes, dict values and sequences.
    Arrays whose ids are already in seen are skipped, so walking an
    instance after its block counts only what the instance adds.
    """
    seen = set() if seen is None else seen
    total = 0
    stack = [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, (int, float, complex, str, bool, type(None))):
            continue
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            if o.base is not None:
                stack.append(o.base)
            else:
                total += o.nbytes
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif dataclasses.is_dataclass(o):
            stack.extend(getattr(o, f.name) for f in dataclasses.fields(o))
        elif hasattr(o, "__dict__"):
            stack.extend(vars(o).values())
    return total
