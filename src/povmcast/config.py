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
from .measurement import OutcomeFunction, Povm
from .protocol import MODES, ProtocolParams, prepare_scenario
from .rates import joint_entropies, rate_quantities

SWEEP_AXES = ("sB", "MB", "n", "delta")

_SCALAR_TOKENS = ("delta2", "delta", "eps", "n")

_SAFE_EXPR = re.compile(r"^[0-9eE+\-*/(). ]*$")


def operator_from_json(obj) -> np.ndarray:
    """Decode {"dim": d, "re": [[...]], "im": [[...]]} into a complex matrix.

    dim is a positive JSON integer, and re and im are each d rows of d
    JSON numbers: no boolean or string passes for a number.
    """
    if not isinstance(obj, dict):
        raise ConfigError("operator must be an object with keys dim, re, im")
    for key in obj:
        if key not in ("dim", "re", "im"):
            raise ConfigError(f"operator has unknown key {key!r}")
    try:
        dim, parts = obj["dim"], (obj["re"], obj["im"])
    except KeyError as exc:
        raise DimensionMismatch(f"malformed operator object: missing {exc}") from None
    if not _is_int(dim) or dim < 1:
        raise ConfigError(f"operator dim must be a positive integer, got {dim!r}")
    for rows in parts:
        if not isinstance(rows, list) or len(rows) != dim or not all(
            isinstance(row, list) and len(row) == dim for row in rows
        ):
            raise DimensionMismatch(f"operator entries must be {dim} rows of {dim}")
        for row in rows:
            for v in row:
                if not _finite_number(v):
                    raise ConfigError(
                        f"operator entries must be finite numbers, got {v!r}"
                    )
    re, im = (np.array(rows, dtype=np.float64) for rows in parts)
    return re + 1j * im


def scenario_rate_environment(single) -> dict:
    """The value of each quantity token a rate expression may use.

    No token is a substring of another, so they may be replaced in any
    order.
    """
    h = joint_entropies(single.rho, single.povm, single.g_a, single.g_b)
    q = rate_quantities(h)
    return {
        "I(X_A;R)": q.iXA_R,
        "I(X_A,X_B;R)": q.iXAXB_R,
        "I(X_B;R|X_A)": q.iXB_R_given_XA,
        "I(X_B;R,X_A)": q.iXB_RXA,
        "I(X_B;R)": h["B"] + h["R"] - h["BR"],
        "H(X_A)": q.hXA,
        "H(X_B)": q.hXB,
        "H(X_B|X_A)": q.hXB_given_XA,
        "H(X_A,X_B)": h["AB"],
        "I(X_A;X_B)": q.hXA + q.hXB - h["AB"],
        "H(R)": single.h_r,
        "H(R|X_A)": single.h_r_given_xa,
    }


def evaluate_rate_expression(expr: str, env: dict, scalars: dict) -> float:
    """Evaluate a rate-expression string against scenario quantities.

    Each token of env and each scalar is replaced by its numeric value;
    whatever remains must be plain arithmetic. Raises ConfigError on
    unknown tokens or malformed arithmetic.
    """
    text = expr
    for token, value in env.items():
        text = text.replace(token, f"({value!r})")
    for name in _SCALAR_TOKENS:
        try:
            value = float(scalars[name])
        except OverflowError:
            raise ConfigError(
                f"rate expression {expr!r} failed: {name} is beyond float range"
            ) from None
        text = re.sub(rf"\b{name}\b", f"({value!r})", text)
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
    if _is_int(value):
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
    """One sweep axis and its values; sizes holds each codebook size of
    the document's protocol section as written, as (key, value) pairs."""

    axis: str
    values: tuple
    sizes: tuple = ()

    def params_at(self, params: ProtocolParams, value, single) -> ProtocolParams:
        """params moved to one point of the axis (params_with_axis). At
        an n or delta point every size is resolved again from how it was
        written, so a rate-expression size follows the point's n and
        scalars, read from single's rate environment; an unresolvable
        size raises ConfigError."""
        params = params_with_axis(params, self.axis, value)
        if self.axis not in ("n", "delta"):
            return params
        proto = {**params_to_json(params), **dict(self.sizes)}
        env = {}
        if any(isinstance(v, str) for _, v in self.sizes):
            env = scenario_rate_environment(single)
        _resolve_sizes(proto, env, "protocol")
        return _protocol_params(proto, "protocol")


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


# Top-level keys of a scenario document.
_DOCUMENT_KEYS = (
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
)

# Each protocol key of a scenario document: its ProtocolParams field and
# its default, in the order reports echo them.
_PROTOCOL_FIELDS = {
    "n": ("n", 1),
    "delta": ("delta", 0.5),
    "delta2": ("delta2", 0.25),
    "eps": ("eps", 0.1),
    "sA": ("s_a", 1),
    "sB": ("s_b", 1),
    "sBprime": ("s_b_prime", 0),
    "MA": ("m_a", 1),
    "MB": ("m_b", 1),
    "case": ("case", 2),
    "seed": ("seed", 0),
}
_SIZE_KEYS = ("sA", "sB", "sBprime", "MA", "MB")


def _resolve_sizes(proto: dict, env: dict, where: str) -> None:
    """Resolve each codebook size of a protocol section in place, at its
    n and scalars; a case-1 pool left at 0 takes sB."""
    for key in _SIZE_KEYS:
        raw_val = proto[key]
        if key == "sBprime" and raw_val == 0 and not isinstance(raw_val, bool):
            proto[key] = 0
            continue
        proto[key] = resolve_size(
            raw_val, proto["n"], env, proto, f"{where}.{key}"
        )
    if proto["case"] == 1 and proto["sBprime"] == 0:
        proto["sBprime"] = proto["sB"]


def _protocol_params(proto: dict, where: str) -> ProtocolParams:
    """ProtocolParams of a resolved protocol section."""
    fields = {attr: proto[key] for key, (attr, _) in _PROTOCOL_FIELDS.items()}
    try:
        return ProtocolParams(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def params_to_json(params: ProtocolParams) -> dict:
    """params under the document's protocol keys, as reports echo them."""
    return {
        key: getattr(params, field)
        for key, (field, _) in _PROTOCOL_FIELDS.items()
    }


def _is_int(v) -> bool:
    """True for a JSON integer, not a boolean."""
    return isinstance(v, int) and not isinstance(v, bool)


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


def _section(doc: dict, key: str, where: str, allowed) -> dict:
    """doc[key], or {} when absent, checked to be an object whose keys
    are all in allowed."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{where}.{key} must be an object")
    for k in section:
        if k not in allowed:
            raise ConfigError(f"{where}.{key} has unknown key {k!r}")
    return section


def _outcome_function(raw, n_outcomes: int, where: str) -> OutcomeFunction:
    if not isinstance(raw, list) or not all(_is_int(v) for v in raw):
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
    if image > len(seen):
        # some index below image is missing, so one of the first
        # len(seen) + 1 is: the search never runs up to a huge image
        missing = next(k for k in range(len(seen) + 1) if k not in seen)
        raise ConfigError(
            f"{where} image indices must be contiguous from 0; missing "
            f"{missing}"
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
    for key in doc:
        if key not in _DOCUMENT_KEYS:
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

    _require(doc, "protocol", name)
    raw_proto = _section(doc, "protocol", name, _PROTOCOL_FIELDS)
    where = f"{name}.protocol"
    proto = {
        key: raw_proto.get(key, default)
        for key, (_, default) in _PROTOCOL_FIELDS.items()
    }
    n = proto["n"]
    if not _is_int(n) or n < 1:
        raise ConfigError(f"{where}.n must be a positive integer")
    for key in ("delta", "delta2", "eps"):
        v = proto[key]
        if not _finite_number(v) or v < 0:
            raise ConfigError(
                f"{where}.{key} must be a finite nonnegative number"
            )
        proto[key] = float(v)

    env = {}
    if any(isinstance(proto[key], str) for key in _SIZE_KEYS):
        env = scenario_rate_environment(prepare_scenario(rho, povm, g_a, g_b))
    sizes = tuple((key, proto[key]) for key in _SIZE_KEYS)
    _resolve_sizes(proto, env, where)

    case = proto["case"]
    if not _is_int(case) or case not in (1, 2):
        raise ConfigError(f"{where}.case must be 1 or 2")
    seed = proto["seed"]
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"{where}.seed must be a nonnegative integer")
    params = _protocol_params(proto, where)

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
    if not _is_int(trials) or trials < 1:
        raise ConfigError(f"{name}.trials must be a positive integer")

    eq_doc = _section(
        doc, "equivalence", name, ("tolerance", "perturb_element", "perturb_scale")
    )
    tol = eq_doc.get("tolerance", 1e-7)
    if not _finite_number(tol) or tol <= 0:
        raise ConfigError(f"{name}.equivalence.tolerance must be finite and positive")
    pe = eq_doc.get("perturb_element")
    if pe is not None and (not _is_int(pe) or not 0 <= pe < g_b.image_size):
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
        sw = _section(doc, "sweep", name, ("axis", "values"))
        axis = _require(sw, "axis", f"{name}.sweep")
        if axis not in SWEEP_AXES:
            raise ConfigError(
                f"{name}.sweep.axis must be one of {list(SWEEP_AXES)}"
            )
        values = _require(sw, "values", f"{name}.sweep")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{name}.sweep.values must be a nonempty list")
        for i, v in enumerate(values):
            if axis == "delta" and (not _finite_number(v) or v < 0):
                raise ConfigError(
                    f"{name}.sweep.values[{i}] must be finite and nonnegative"
                )
            if axis != "delta" and (not _is_int(v) or v < 1):
                raise ConfigError(
                    f"{name}.sweep.values[{i}] must be a positive integer"
                )
        sweep = SweepSettings(axis=axis, values=tuple(values), sizes=sizes)

    out_doc = _section(doc, "output", name, ("path", "format"))
    out_path = out_doc.get("path")
    if "path" in out_doc and (not isinstance(out_path, str) or not out_path):
        raise ConfigError(f"{name}.output.path must be a nonempty string")
    out_format = out_doc.get("format")
    if "format" in out_doc and out_format not in ("json", "csv"):
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
    """New params with one sweep axis replaced.

    Sweeping sB raises s_b_prime to at least the new s_b, so a case-1
    selection pool still covers its target.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    value = float(value) if axis == "delta" else int(value)
    changes = {_PROTOCOL_FIELDS[axis][0]: value}
    if axis == "sB":
        changes["s_b_prime"] = max(params.s_b_prime, value)
    return replace(params, **changes)
