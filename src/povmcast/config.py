"""Scenario configuration: JSON documents, presets, rate expressions.

A scenario document carries the state, the fine-grained measurement, the
two outcome functions, protocol parameters and run settings. Codebook
and randomness sizes may be given as integers or as rate-expression
strings such as "I(X_B;R|X_A) + 3*delta2", which are evaluated on the
scenario's information quantities and turned into ceil(2^(n*rate)).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DimensionMismatch, PovmcastError
from .linalg import DensityOperator
from .measurement import (
    OutcomeFunction,
    Povm,
    cq_marginal,
    joint_outcome_model,
)
from .protocol import MODES, ProtocolParams, prepare_scenario
from .rates import (
    conditional_rate_quantities,
    holevo_mutual_information,
    shannon_entropy,
)

SWEEP_AXES = ("sB", "MB", "n", "delta")

# Quantity tokens usable inside rate expressions, matched longest-first.
_QUANTITY_TOKENS = (
    ("I(X_A,X_B;R)", "iXAXB_R"),
    ("I(X_B;R|X_A)", "iXB_R_given_XA"),
    ("I(X_B;R,X_A)", "iXB_RXA"),
    ("H(X_A,X_B)", "hXAXB"),
    ("H(X_B|X_A)", "hXB_given_XA"),
    ("I(X_A;X_B)", "iXA_XB"),
    ("H(R|X_A)", "hR_given_XA"),
    ("I(X_A;R)", "iXA_R"),
    ("I(X_B;R)", "iXB_R"),
    ("H(X_A)", "hXA"),
    ("H(X_B)", "hXB"),
    ("H(R)", "hR"),
)
_SCALAR_TOKENS = ("delta2", "delta", "eps", "n")

_SAFE_EXPR = re.compile(r"^[0-9eE+\-*/(). ]*$")


def operator_from_json(obj: dict) -> np.ndarray:
    """Decode {"dim": d, "re": [[...]], "im": [[...]]} into a complex matrix."""
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"malformed operator object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DimensionMismatch(
            f"operator entries have shape {re.shape}/{im.shape}, expected ({dim}, {dim})"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ConfigError("operator entries must be finite")
    return re + 1j * im


def scenario_rate_environment(single) -> dict:
    """Numeric values for every token allowed in a rate expression."""
    joint = joint_outcome_model(
        single.rho, single.povm, single.g_a, single.g_b
    )
    q = conditional_rate_quantities(joint)
    h_joint = shannon_entropy(joint.probs)
    env = {
        "iXA_R": q.iXA_R,
        "iXAXB_R": q.iXAXB_R,
        "iXB_R_given_XA": q.iXB_R_given_XA,
        "iXB_RXA": q.iXB_RXA,
        "iXB_R": holevo_mutual_information(cq_marginal(joint, 1)),
        "hXA": q.hXA,
        "hXB": q.hXB,
        "hXB_given_XA": q.hXB_given_XA,
        "hXAXB": h_joint,
        "iXA_XB": q.hXA + q.hXB - h_joint,
        "hR": single.h_r,
        "hR_given_XA": single.h_r_given_xa,
    }
    return env


def evaluate_rate_expression(expr: str, env: dict, scalars: dict) -> float:
    """Evaluate a rate-expression string against scenario quantities.

    Tokens from the documented list are replaced by their numeric values;
    whatever remains must be plain arithmetic. Raises ConfigError on
    unknown tokens or malformed arithmetic.
    """
    text = expr
    for token, key in _QUANTITY_TOKENS:
        if token in text:
            text = text.replace(token, f"({env[key]!r})")
    for name in _SCALAR_TOKENS:
        text = re.sub(
            rf"\b{name}\b", f"({float(scalars[name])!r})", text
        )
    # ** is refused: a tower such as 9**9**9 would build a huge integer
    if "**" in text or not _SAFE_EXPR.match(text):
        raise ConfigError(
            f"rate expression {expr!r} contains unsupported tokens"
        )
    try:
        # float() fails on an integer literal beyond float range
        return float(eval(text, {"__builtins__": {}}, {}))
    except Exception as exc:
        raise ConfigError(f"rate expression {expr!r} failed: {exc}") from exc


def resolve_size(value, n: int, env: dict, scalars: dict, field: str) -> int:
    """Turn an integer or rate-expression size into a codebook count.

    Expressions become ceil(2^(n * rate)), floored at 1.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{field} must be an integer or expression string")
    if isinstance(value, int):
        if value < 1:
            raise ConfigError(f"{field} must be >= 1, got {value}")
        return value
    if isinstance(value, str):
        try:
            rate = evaluate_rate_expression(value, env, scalars)
        except ConfigError as exc:
            raise ConfigError(f"{field}: {exc}") from None
        try:
            return max(1, math.ceil(2.0 ** (n * rate)))
        except (OverflowError, ValueError):
            # an infinite or NaN rate, or 2^(n rate) beyond float range
            raise ConfigError(
                f"{field}: 2^({n} * {rate!r}) is not a finite codebook size"
            ) from None
    raise ConfigError(f"{field} must be an integer or expression string")


@dataclass(frozen=True)
class EquivalenceSettings:
    tolerance: float = 1e-7
    perturb_element: int | None = None
    perturb_scale: float = 0.0


@dataclass(frozen=True)
class SweepSettings:
    axis: str
    values: tuple


@dataclass(eq=False)
class ScenarioConfig:
    """Validated scenario ready to run."""

    name: str
    rho: DensityOperator
    povm: Povm
    g_a: OutcomeFunction
    g_b: OutcomeFunction
    params: ProtocolParams
    mode: str
    trials: int
    equivalence: EquivalenceSettings
    sweep: SweepSettings | None
    output_path: str | None = None
    output_format: str | None = None

    def with_seed(self, seed: int) -> "ScenarioConfig":
        try:
            return replace(self, params=replace(self.params, seed=seed))
        except ValueError as exc:
            raise ConfigError(f"{self.name}: invalid seed {seed!r}: {exc}") from exc


_PROTOCOL_KEYS = {
    "n",
    "delta",
    "delta2",
    "eps",
    "sA",
    "sB",
    "sBprime",
    "MA",
    "MB",
    "case",
    "seed",
}


def _finite_number(v) -> bool:
    """True for a JSON number, not a boolean, that is a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        # an integer beyond float range
        return False


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return doc[key]


def _outcome_function(raw, n_outcomes: int, where: str) -> OutcomeFunction:
    if not isinstance(raw, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in raw
    ):
        raise ConfigError(f"{where} must be a list of integers")
    if len(raw) != n_outcomes:
        raise ConfigError(
            f"{where} has length {len(raw)}, expected one entry per POVM "
            f"outcome ({n_outcomes})"
        )
    image = max(raw) + 1 if raw else 0
    for i, v in enumerate(raw):
        if v < 0:
            raise ConfigError(f"{where}[{i}] = {v} is negative")
    seen = set(raw)
    missing = [k for k in range(image) if k not in seen]
    if missing:
        raise ConfigError(
            f"{where} image indices must be contiguous from 0; missing "
            f"{missing[0]}"
        )
    try:
        return OutcomeFunction(
            domain_size=n_outcomes, image_size=image, table=tuple(raw)
        )
    except PovmcastError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(doc: dict, name: str = "config") -> ScenarioConfig:
    """Validate a raw scenario document. Error messages cite the key or
    element index that failed."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object")
    known = {
        "name",
        "rho",
        "povm",
        "gA",
        "gB",
        "protocol",
        "mode",
        "trials",
        "equivalence",
        "sweep",
        "output",
    }
    for key in doc:
        if key not in known:
            raise ConfigError(f"{name} has unknown key {key!r}")
    label = doc.get("name", name)
    if not isinstance(label, str):
        raise ConfigError(f"{name}.name must be a string")

    raw_rho = _require(doc, "rho", name)
    try:
        rho = DensityOperator(operator_from_json(raw_rho))
    except PovmcastError as exc:
        raise ConfigError(f"{name}.rho: {exc}") from exc

    raw_povm = _require(doc, "povm", name)
    if not isinstance(raw_povm, list) or not raw_povm:
        raise ConfigError(f"{name}.povm must be a nonempty list of operators")
    elems = []
    for i, item in enumerate(raw_povm):
        try:
            elems.append(operator_from_json(item))
        except PovmcastError as exc:
            raise ConfigError(f"{name}.povm[{i}]: {exc}") from exc
    try:
        povm = Povm(
            elements=tuple(elems), labels=tuple(range(len(elems)))
        )
    except PovmcastError as exc:
        raise ConfigError(f"{name}.povm: {exc}") from exc
    if povm.dim != rho.dim:
        raise ConfigError(
            f"{name}.povm dimension {povm.dim} does not match rho dimension "
            f"{rho.dim}"
        )

    g_a = _outcome_function(
        _require(doc, "gA", name), povm.n_outcomes, f"{name}.gA"
    )
    g_b = _outcome_function(
        _require(doc, "gB", name), povm.n_outcomes, f"{name}.gB"
    )

    raw_proto = _require(doc, "protocol", name)
    if not isinstance(raw_proto, dict):
        raise ConfigError(f"{name}.protocol must be an object")
    for key in raw_proto:
        if key not in _PROTOCOL_KEYS:
            raise ConfigError(f"{name}.protocol has unknown key {key!r}")
    n = raw_proto.get("n", 1)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"{name}.protocol.n must be a positive integer")
    scalars = {
        "n": n,
        "delta": raw_proto.get("delta", 0.5),
        "delta2": raw_proto.get("delta2", 0.25),
        "eps": raw_proto.get("eps", 0.1),
    }
    for key in ("delta", "delta2", "eps"):
        v = scalars[key]
        if not _finite_number(v) or v < 0:
            raise ConfigError(
                f"{name}.protocol.{key} must be a finite nonnegative number"
            )

    sizes = {}
    needs_env = any(
        isinstance(raw_proto.get(k), str)
        for k in ("sA", "sB", "sBprime", "MA", "MB")
    )
    env = None
    if needs_env:
        single = prepare_scenario(rho, povm, g_a, g_b)
        env = scenario_rate_environment(single)
    for key, default in (
        ("sA", 1),
        ("sB", 1),
        ("sBprime", 0),
        ("MA", 1),
        ("MB", 1),
    ):
        raw_val = raw_proto.get(key, default)
        if key == "sBprime" and raw_val == 0 and not isinstance(raw_val, bool):
            sizes[key] = 0
            continue
        sizes[key] = resolve_size(
            raw_val, n, env or {}, scalars, f"{name}.protocol.{key}"
        )

    case = raw_proto.get("case", 2)
    if case not in (1, 2):
        raise ConfigError(f"{name}.protocol.case must be 1 or 2")
    seed = raw_proto.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"{name}.protocol.seed must be a nonnegative integer")
    if case == 1 and sizes["sBprime"] == 0:
        sizes["sBprime"] = sizes["sB"]
    try:
        params = ProtocolParams(
            n=n,
            delta=float(scalars["delta"]),
            delta2=float(scalars["delta2"]),
            eps=float(scalars["eps"]),
            s_a=sizes["sA"],
            s_b=sizes["sB"],
            s_b_prime=sizes["sBprime"],
            m_a=sizes["MA"],
            m_b=sizes["MB"],
            case=case,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"{name}.protocol: {exc}") from exc

    mode = doc.get("mode", "with_alice_randomness")
    if mode not in MODES:
        raise ConfigError(
            f"{name}.mode must be one of {list(MODES)}, got {mode!r}"
        )
    if mode == "without_alice_randomness" and case == 2:
        raise ConfigError(
            f"{name}: mode without_alice_randomness requires protocol.case=1"
        )

    trials = doc.get("trials", 1)
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ConfigError(f"{name}.trials must be a positive integer")

    eq_doc = doc.get("equivalence", {})
    if not isinstance(eq_doc, dict):
        raise ConfigError(f"{name}.equivalence must be an object")
    for key in eq_doc:
        if key not in ("tolerance", "perturb_element", "perturb_scale"):
            raise ConfigError(f"{name}.equivalence has unknown key {key!r}")
    tol = eq_doc.get("tolerance", 1e-7)
    if not _finite_number(tol) or tol <= 0:
        raise ConfigError(f"{name}.equivalence.tolerance must be finite and positive")
    pe = eq_doc.get("perturb_element")
    if pe is not None and (
        not isinstance(pe, int)
        or isinstance(pe, bool)
        or not 0 <= pe < g_b.image_size
    ):
        raise ConfigError(
            f"{name}.equivalence.perturb_element must be a Bob outcome index "
            f"in [0, {g_b.image_size})"
        )
    ps = eq_doc.get("perturb_scale", 0.0)
    if not _finite_number(ps) or ps < 0:
        raise ConfigError(
            f"{name}.equivalence.perturb_scale must be finite and nonnegative"
        )
    equivalence = EquivalenceSettings(
        tolerance=float(tol), perturb_element=pe, perturb_scale=float(ps)
    )

    sweep = None
    if "sweep" in doc:
        sw = doc["sweep"]
        if not isinstance(sw, dict):
            raise ConfigError(f"{name}.sweep must be an object")
        axis = _require(sw, "axis", f"{name}.sweep")
        if axis not in SWEEP_AXES:
            raise ConfigError(
                f"{name}.sweep.axis must be one of {list(SWEEP_AXES)}"
            )
        values = _require(sw, "values", f"{name}.sweep")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{name}.sweep.values must be a nonempty list")
        for i, v in enumerate(values):
            if axis == "delta":
                if not _finite_number(v) or v < 0:
                    raise ConfigError(
                        f"{name}.sweep.values[{i}] must be finite and nonnegative"
                    )
            else:
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    raise ConfigError(
                        f"{name}.sweep.values[{i}] must be a positive integer"
                    )
        sweep = SweepSettings(axis=axis, values=tuple(values))

    out_path = None
    out_format = None
    if "output" in doc:
        out_doc = doc["output"]
        if not isinstance(out_doc, dict):
            raise ConfigError(f"{name}.output must be an object")
        for key in out_doc:
            if key not in ("path", "format"):
                raise ConfigError(f"{name}.output has unknown key {key!r}")
        if "path" in out_doc:
            out_path = out_doc["path"]
            if not isinstance(out_path, str) or not out_path:
                raise ConfigError(f"{name}.output.path must be a nonempty string")
        if "format" in out_doc:
            out_format = out_doc["format"]
            if out_format not in ("json", "csv"):
                raise ConfigError(
                    f"{name}.output.format must be json or csv, got {out_format!r}"
                )

    return ScenarioConfig(
        name=label,
        rho=rho,
        povm=povm,
        g_a=g_a,
        g_b=g_b,
        params=params,
        mode=mode,
        trials=trials,
        equivalence=equivalence,
        sweep=sweep,
        output_path=out_path,
        output_format=out_format,
    )


def load_config(source: str) -> ScenarioConfig:
    """Load a scenario from a JSON file path or a "preset:NAME" handle."""
    if source.startswith("preset:"):
        from .presets import preset_document

        preset = source.split(":", 1)[1]
        return config_from_dict(preset_document(preset), name=preset)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {source}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {source} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file, or bytes that are not UTF-8
        raise ConfigError(f"cannot read config file {source}: {exc}") from exc
    return config_from_dict(doc, name=source)


def params_with_axis(params: ProtocolParams, axis: str, value) -> ProtocolParams:
    """New params with one sweep axis replaced."""
    if axis == "sB":
        v = int(value)
        return replace(
            params, s_b=v, s_b_prime=max(params.s_b_prime, v)
        )
    if axis == "MB":
        return replace(params, m_b=int(value))
    if axis == "n":
        return replace(params, n=int(value))
    if axis == "delta":
        return replace(params, delta=float(value))
    raise ConfigError(f"unknown sweep axis {axis!r}")
