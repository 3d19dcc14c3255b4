"""Built-in scenario documents.

Each preset is a plain JSON-compatible dict accepted by config_from_dict.
Delta values are sized so that every classical and quantum typical set
involved is nonempty at the preset blocklength.
"""

from __future__ import annotations

import math

from .errors import ConfigError

_SQ3 = math.sqrt(3.0)


def _op(rows) -> dict:
    dim = len(rows)
    return {
        "dim": dim,
        "re": [[float(x) for x in row] for row in rows],
        "im": [[0.0] * dim for _ in range(dim)],
    }


def _projector(vec) -> dict:
    dim = len(vec)
    return _op([[vec[i] * vec[j] for j in range(dim)] for i in range(dim)])


def _scaled(factor: float, obj: dict) -> dict:
    return {
        "dim": obj["dim"],
        "re": [[factor * x for x in row] for row in obj["re"]],
        "im": obj["im"],
    }


def _bell_computational() -> dict:
    """Maximally mixed qubit with the computational measurement, both
    receivers wanting the full outcome."""
    return {
        "name": "bell-computational",
        "rho": _op([[0.5, 0.0], [0.0, 0.5]]),
        "povm": [_projector([1.0, 0.0]), _projector([0.0, 1.0])],
        "gA": [0, 1],
        "gB": [0, 1],
        "protocol": {
            "n": 2,
            "delta": 0.5,
            "delta2": 0.25,
            "eps": 0.1,
            "sA": 4,
            "sB": 2,
            "MA": 2,
            "MB": 2,
            "case": 2,
            "seed": 7,
        },
        "mode": "with_alice_randomness",
        "trials": 10,
        "sweep": {"axis": "sB", "values": [1, 2, 4, 8]},
    }


def _three_outcome_split() -> dict:
    """Qubit trine measurement split between the receivers, Bob running
    without randomness shared with Alice."""
    trine = [
        _scaled(2.0 / 3.0, _projector([1.0, 0.0])),
        _scaled(2.0 / 3.0, _projector([0.5, _SQ3 / 2.0])),
        _scaled(2.0 / 3.0, _projector([-0.5, _SQ3 / 2.0])),
    ]
    return {
        "name": "three-outcome-split",
        "rho": _op([[0.6, 0.0], [0.0, 0.4]]),
        "povm": trine,
        "gA": [0, 1, 1],
        "gB": [0, 0, 1],
        "protocol": {
            "n": 2,
            "delta": 0.65,
            "delta2": 0.25,
            "eps": 0.1,
            "sA": 6,
            "sB": 4,
            "sBprime": 24,
            "MA": 2,
            "MB": 2,
            "case": 1,
            "seed": 11,
        },
        "mode": "without_alice_randomness",
        "trials": 10,
        "sweep": {"axis": "sB", "values": [1, 2, 4, 8]},
    }


def _independent_product() -> dict:
    """Two independent classical bits carried by a product state, one per
    receiver."""
    povm = [
        _projector([1.0, 0.0, 0.0, 0.0]),
        _projector([0.0, 1.0, 0.0, 0.0]),
        _projector([0.0, 0.0, 1.0, 0.0]),
        _projector([0.0, 0.0, 0.0, 1.0]),
    ]
    rho = _op(
        [
            [0.42, 0.0, 0.0, 0.0],
            [0.0, 0.18, 0.0, 0.0],
            [0.0, 0.0, 0.28, 0.0],
            [0.0, 0.0, 0.0, 0.12],
        ]
    )
    return {
        "name": "independent-product",
        "rho": rho,
        "povm": povm,
        "gA": [0, 0, 1, 1],
        "gB": [0, 1, 0, 1],
        "protocol": {
            "n": 2,
            "delta": 0.65,
            "delta2": 0.25,
            "eps": 0.1,
            "sA": 8,
            "sB": 4,
            "sBprime": 24,
            "MA": 2,
            "MB": 2,
            "case": 1,
            "seed": 13,
        },
        "mode": "with_alice_randomness",
        "trials": 10,
        "sweep": {"axis": "MB", "values": [1, 2, 4]},
    }


def _pure_state() -> dict:
    """Rank-one state with a deterministic outcome, the fully degenerate
    corner."""
    return {
        "name": "pure-state",
        "rho": _projector([1.0, 0.0]),
        "povm": [_projector([1.0, 0.0]), _projector([0.0, 1.0])],
        "gA": [0, 1],
        "gB": [0, 1],
        "protocol": {
            "n": 2,
            "delta": 0.5,
            "delta2": 0.25,
            "eps": 0.0,
            "sA": 1,
            "sB": 1,
            "MA": 1,
            "MB": 1,
            "case": 2,
            "seed": 3,
        },
        "mode": "with_alice_randomness",
        "trials": 5,
    }


_PRESETS = {
    "bell-computational": _bell_computational,
    "three-outcome-split": _three_outcome_split,
    "independent-product": _independent_product,
    "pure-state": _pure_state,
}


def preset_names() -> tuple:
    return tuple(_PRESETS)


def preset_document(name: str) -> dict:
    """Raw scenario document for a named preset."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(_PRESETS)}"
        )
    return _PRESETS[name]()
