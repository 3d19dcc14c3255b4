"""Configuration, preset, serialization and command-line tests."""

import csv
import json
import re
import sys

import jsonschema
import numpy as np
import pytest

from povmcast import (
    ConfigError,
    DensityOperator,
    DimensionMismatch,
    OutcomeFunction,
    Povm,
    config_from_dict,
    evaluate_rate_expression,
    load_config,
    params_with_axis,
    prepare_scenario,
    resolve_size,
    scenario_rate_environment,
    simulate_trials,
)
from povmcast.cli import (
    EQUIVALENCE_CSV_COLUMNS,
    RATE_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    TRIAL_CSV_COLUMNS,
    entrypoint,
    load_schema,
    main,
)
from povmcast.config import (
    _DOCUMENT_KEYS,
    _PROTOCOL_FIELDS,
    SWEEP_AXES,
    operator_from_json,
    params_to_json,
)
from povmcast.presets import preset_document, preset_names
from povmcast.protocol import MODES

PRESETS = ("bell-computational", "three-outcome-split", "independent-product", "pure-state")


def op_json(rows):
    m = np.asarray(rows, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def minimal_doc(**overrides):
    doc = {
        "rho": op_json([[0.5, 0], [0, 0.5]]),
        "povm": [op_json([[1, 0], [0, 0]]), op_json([[0, 0], [0, 1]])],
        "gA": [0, 1],
        "gB": [0, 1],
        "protocol": {"n": 2, "sA": 2, "sB": 2, "MA": 1, "MB": 1, "case": 2},
    }
    doc.update(overrides)
    return doc


def test_operator_json_round_trip():
    rng = np.random.default_rng(83)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    doc = {"dim": 3, "re": m.real.tolist(), "im": m.imag.tolist()}
    assert np.array_equal(operator_from_json(doc), m)
    with pytest.raises(DimensionMismatch):
        operator_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(DimensionMismatch):
        operator_from_json({"re": [[1.0]], "im": [[0.0]]})


def _string_entry(op):
    op["re"][0][0] = "x"


def _ragged_row(op):
    op["re"][1] = op["re"][1][:1]


def _numeric_string(op):
    op["re"][0][0] = str(op["re"][0][0])


def _boolean_entry(op):
    op["im"][0][1] = False


def _unknown_key(op):
    op["scale"] = 1


MALFORMED_OPERATORS = {
    "string-entry": _string_entry,
    "ragged-row": _ragged_row,
    "dim-string": lambda op: op.update(dim="x"),
    "dim-fraction": lambda op: op.update(dim=2.5),
    "dim-boolean": lambda op: op.update(dim=True),
    "boolean-entry": _boolean_entry,
    "numeric-string": _numeric_string,
    "unknown-key": _unknown_key,
}


@pytest.mark.parametrize("where", ["rho", "povm[1]"])
@pytest.mark.parametrize("fault", sorted(MALFORMED_OPERATORS))
def test_malformed_operator_exits_2(capsys, tmp_path, where, fault):
    # each of these is outside the scenario schema's operator object; the
    # error names the operator, and the CLI exits 2 without a traceback
    doc = preset_document("three-outcome-split")
    op = doc["rho"] if where == "rho" else doc["povm"][1]
    MALFORMED_OPERATORS[fault](op)
    with pytest.raises(ConfigError, match=re.escape(f"config.{where}: ")):
        config_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["rates", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("value", [1e308, -1e308])
@pytest.mark.parametrize("where", ["rho", "povm[1]"])
def test_entry_near_float_limit_exits_2(capsys, tmp_path, where, value):
    # a finite entry this large must not overflow while the operator is
    # validated: the filterwarnings setting turns any RuntimeWarning into
    # a failure here
    doc = preset_document("independent-product")
    op = doc["rho"] if where == "rho" else doc["povm"][1]
    op["re"][1][1] = value
    with pytest.raises(ConfigError, match=r"config\.(rho|povm)"):
        config_from_dict(doc)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    assert main(["rates", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def bell_env():
    rho = DensityOperator.maximally_mixed(2)
    povm = Povm(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), labels=(0, 1))
    g = OutcomeFunction.identity(2)
    return scenario_rate_environment(prepare_scenario(rho, povm, g, g))


def test_rate_environment_frozen_bell_values():
    env = bell_env()
    assert np.isclose(env["I(X_A;R)"], 1.0, atol=1e-12)
    assert np.isclose(env["H(X_A)"], 1.0, atol=1e-12)
    assert np.isclose(env["H(X_B)"], 1.0, atol=1e-12)
    assert abs(env["H(X_B|X_A)"]) <= 1e-12
    assert np.isclose(env["I(X_A;X_B)"], 1.0, atol=1e-12)
    assert np.isclose(env["H(R)"], 1.0, atol=1e-12)
    assert abs(env["H(R|X_A)"]) <= 1e-12
    assert np.isclose(env["H(X_A,X_B)"], 1.0, atol=1e-12)


def test_rate_expression_evaluation():
    env = bell_env()
    scalars = {"n": 2, "delta": 0.5, "delta2": 0.25, "eps": 0.1}
    assert np.isclose(evaluate_rate_expression("I(X_A;R)", env, scalars), 1.0)
    assert np.isclose(
        evaluate_rate_expression("I(X_B;R|X_A) + 3*delta2", env, scalars),
        env["I(X_B;R|X_A)"] + 0.75,
    )
    assert np.isclose(
        evaluate_rate_expression("H(X_A,X_B) - H(X_B|X_A) + delta", env, scalars),
        env["H(X_A,X_B)"] - env["H(X_B|X_A)"] + 0.5,
    )
    assert np.isclose(evaluate_rate_expression("(1 + eps) / n", env, scalars), 0.55)


def test_rate_expression_rejects_unknown_and_unsafe_tokens():
    env = bell_env()
    scalars = {"n": 2, "delta": 0.5, "delta2": 0.25, "eps": 0.1}
    with pytest.raises(ConfigError, match="unsupported tokens"):
        evaluate_rate_expression("H(Q)", env, scalars)
    with pytest.raises(ConfigError, match="unsupported tokens"):
        evaluate_rate_expression("__import__('os').getcwd()", env, scalars)
    with pytest.raises(ConfigError, match="failed"):
        evaluate_rate_expression("1 + * 2", env, scalars)
    # powers are refused before evaluation; never evaluate a tower here
    with pytest.raises(ConfigError, match="unsupported tokens"):
        evaluate_rate_expression("2**10", env, scalars)
    # an integer literal beyond float range
    with pytest.raises(ConfigError, match="failed"):
        evaluate_rate_expression("1" + "0" * 400, env, scalars)


def test_resolve_size():
    env = bell_env()
    scalars = {"n": 2, "delta": 0.5, "delta2": 0.25, "eps": 0.1}
    assert resolve_size(7, 2, env, scalars, "f") == 7
    # ceil(2^(2 * (1 + 0.25))) = ceil(2^2.5) = 6
    assert resolve_size("I(X_A;R) + delta2", 2, env, scalars, "f") == 6
    # negative rates floor at one codeword
    assert resolve_size("0 - H(X_A)", 2, env, scalars, "f") == 1
    with pytest.raises(ConfigError):
        resolve_size(0, 2, env, scalars, "f")
    with pytest.raises(ConfigError):
        resolve_size(True, 2, env, scalars, "f")
    with pytest.raises(ConfigError):
        resolve_size(2.5, 2, env, scalars, "f")


def test_config_defaults_and_seed_override():
    cfg = config_from_dict(minimal_doc())
    assert cfg.params.delta == 0.5
    assert cfg.params.delta2 == 0.25
    assert cfg.params.eps == 0.1
    assert cfg.params.m_a == 1
    assert cfg.params.seed == 0
    assert cfg.trials == 1
    assert cfg.mode == "with_alice_randomness"
    assert cfg.equivalence.tolerance == 1e-7
    assert cfg.sweep is None
    reseeded = cfg.with_seed(99)
    assert reseeded.params.seed == 99
    assert cfg.params.seed == 0


def test_config_output_section():
    doc = minimal_doc()
    doc["output"] = {"path": "report.json", "format": "json"}
    cfg = config_from_dict(doc)
    assert cfg.output_path == "report.json"
    assert cfg.output_format == "json"
    assert cfg.with_seed(3).output_path == "report.json"

    assert config_from_dict(minimal_doc()).output_path is None

    doc["output"] = {"path": "x.csv", "format": "yaml"}
    with pytest.raises(ConfigError, match="json or csv"):
        config_from_dict(doc)
    doc["output"] = {"path": ""}
    with pytest.raises(ConfigError, match="nonempty string"):
        config_from_dict(doc)
    doc["output"] = {"where": "x"}
    with pytest.raises(ConfigError, match="unknown key 'where'"):
        config_from_dict(doc)


def test_config_case1_prime_defaults_to_sb():
    doc = minimal_doc()
    doc["protocol"]["case"] = 1
    doc["protocol"]["sB"] = 3
    cfg = config_from_dict(doc)
    assert cfg.params.s_b_prime == 3
    doc["protocol"]["sBprime"] = 9
    assert config_from_dict(doc).params.s_b_prime == 9


def test_config_errors_cite_location():
    with pytest.raises(ConfigError, match="unknown key 'extra'"):
        config_from_dict(minimal_doc(extra=1))
    doc = minimal_doc()
    doc["povm"][1] = {"dim": 2, "re": [[0.0]], "im": [[0.0]]}
    with pytest.raises(ConfigError, match=r"povm\[1\]"):
        config_from_dict(doc)
    with pytest.raises(ConfigError, match="gA"):
        config_from_dict(minimal_doc(gA=[0, 1, 1]))
    with pytest.raises(ConfigError, match="missing 1"):
        config_from_dict(minimal_doc(gA=[0, 2]))
    # the search for a missing index stops after len(set(gB)) + 1 values
    with pytest.raises(ConfigError, match=r"gB image indices .* missing 1"):
        config_from_dict(minimal_doc(gB=[0, 10**30]))
    with pytest.raises(ConfigError, match="gB must be a list of integers"):
        config_from_dict(minimal_doc(gB=[0, "x"]))
    doc = minimal_doc()
    doc["protocol"]["weird"] = 1
    with pytest.raises(ConfigError, match=r"protocol has unknown key 'weird'"):
        config_from_dict(doc)
    doc = minimal_doc()
    doc["protocol"]["n"] = 0
    with pytest.raises(ConfigError, match="protocol.n"):
        config_from_dict(doc)
    # case is a JSON integer: True == 1 and 1.0 == 1 are not enough
    for bad in (True, 1.0):
        doc = minimal_doc()
        doc["protocol"]["case"] = bad
        with pytest.raises(ConfigError, match="protocol.case must be 1 or 2"):
            config_from_dict(doc)
    doc = minimal_doc()
    doc["protocol"]["sBprime"] = False
    with pytest.raises(ConfigError, match="protocol.sBprime"):
        config_from_dict(doc)
    with pytest.raises(ConfigError, match="mode"):
        config_from_dict(minimal_doc(mode="telepathy"))
    with pytest.raises(ConfigError, match="requires protocol.case=1"):
        config_from_dict(minimal_doc(mode="without_alice_randomness"))
    with pytest.raises(ConfigError, match="trials"):
        config_from_dict(minimal_doc(trials=0))
    with pytest.raises(ConfigError, match="equivalence has unknown key"):
        config_from_dict(minimal_doc(equivalence={"tol": 1}))
    with pytest.raises(ConfigError, match="perturb_element"):
        config_from_dict(
            minimal_doc(equivalence={"perturb_element": 5, "perturb_scale": 0.1})
        )
    with pytest.raises(ConfigError, match="sweep.axis"):
        config_from_dict(minimal_doc(sweep={"axis": "gamma", "values": [1]}))
    with pytest.raises(ConfigError, match="sweep has unknown key 'step'"):
        config_from_dict(minimal_doc(sweep={"axis": "n", "values": [1], "step": 2}))
    with pytest.raises(ConfigError, match=r"sweep.values\[1\]"):
        config_from_dict(minimal_doc(sweep={"axis": "sB", "values": [1, 0]}))
    # json accepts NaN and Infinity; no scalar may be either, nor an
    # integer beyond float range
    for bad in (float("nan"), float("inf"), 10**400):
        for key in ("delta", "delta2", "eps"):
            doc = minimal_doc()
            doc["protocol"][key] = bad
            with pytest.raises(ConfigError, match=rf"protocol\.{key} must be a finite"):
                config_from_dict(doc)
        for key in ("tolerance", "perturb_scale"):
            with pytest.raises(ConfigError, match=rf"equivalence\.{key} must be finite"):
                config_from_dict(minimal_doc(equivalence={key: bad}))
        sweep = {"axis": "delta", "values": [0.5, bad]}
        with pytest.raises(ConfigError, match=r"sweep.values\[1\] must be finite"):
            config_from_dict(minimal_doc(sweep=sweep))
    for bad in (float("nan"), float("inf")):
        doc = minimal_doc()
        doc["rho"]["re"][0][0] = bad
        with pytest.raises(ConfigError, match="rho: operator entries must be finite"):
            config_from_dict(doc)
        doc = minimal_doc()
        doc["povm"][1]["im"][0][1] = bad
        with pytest.raises(ConfigError, match=r"povm\[1\]: operator entries must be finite"):
            config_from_dict(doc)
    with pytest.raises(ConfigError, match="rho"):
        config_from_dict(minimal_doc(rho=op_json([[1, 0], [0, 1]])))
    doc = minimal_doc()
    doc["povm"] = [op_json([[1, 0, 0], [0, 1, 0], [0, 0, 1]])]
    with pytest.raises(ConfigError, match="does not match rho dimension"):
        config_from_dict(doc)


def test_params_with_axis():
    cfg = config_from_dict(minimal_doc())
    p = params_with_axis(cfg.params, "MB", 4)
    assert p.m_b == 4
    p = params_with_axis(cfg.params, "n", 3)
    assert p.n == 3
    p = params_with_axis(cfg.params, "delta", 0.9)
    assert p.delta == 0.9
    base = config_from_dict(minimal_doc()).params
    from dataclasses import replace

    case1 = replace(base, case=1, s_b_prime=4)
    p = params_with_axis(case1, "sB", 8)
    assert p.s_b == 8
    assert p.s_b_prime == 8  # prime pool grows with the selection target
    with pytest.raises(ConfigError):
        params_with_axis(base, "gamma", 1)


def test_document_vocabulary_matches_schemas_and_reports():
    schema = load_schema("scenario_config")["properties"]
    assert tuple(schema) == _DOCUMENT_KEYS
    assert tuple(schema["protocol"]["properties"]) == tuple(_PROTOCOL_FIELDS)
    for kind in ("simulate_report", "sweep_report"):
        required = load_schema(kind)["$defs"]["params"]["required"]
        assert tuple(required) == tuple(_PROTOCOL_FIELDS)
    assert tuple(schema["sweep"]["properties"]["axis"]["enum"]) == SWEEP_AXES
    assert tuple(schema["mode"]["enum"]) == MODES
    # the report echo gives back each protocol value a preset sets
    for preset in preset_names():
        doc = preset_document(preset)
        echo = params_to_json(config_from_dict(doc, name=preset).params)
        assert tuple(echo) == tuple(_PROTOCOL_FIELDS)
        for key, value in doc["protocol"].items():
            assert echo[key] == value, (preset, key)
    # each sweep axis changes its own field; sB also lifts s_b_prime
    base = config_from_dict(minimal_doc()).params
    for axis, value in zip(SWEEP_AXES, (8, 4, 3, 0.9)):
        moved = params_to_json(params_with_axis(base, axis, value))
        changed = {
            key for key, v in params_to_json(base).items() if moved[key] != v
        }
        assert changed == ({"sB", "sBprime"} if axis == "sB" else {axis})
        assert moved[axis] == value


def test_load_config_sources(tmp_path):
    cfg = load_config("preset:pure-state")
    assert cfg.name == "pure-state"
    with pytest.raises(ConfigError, match="bell-computational"):
        load_config("preset:nonexistent")  # message lists available names
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_doc()))
    cfg = load_config(str(good))
    assert cfg.params.n == 2


def test_presets_validate_and_are_isolated():
    assert set(preset_names()) == set(PRESETS)
    schema = load_schema("scenario_config")
    for name in PRESETS:
        doc = preset_document(name)
        jsonschema.validate(instance=doc, schema=schema)
        cfg = config_from_dict(doc, name=name)
        assert cfg.name == name
        # mutating a returned document must not leak into the preset
        doc["protocol"]["n"] = 99
        assert preset_document(name)["protocol"]["n"] != 99
    with pytest.raises(ConfigError):
        preset_document("unknown")


def test_cli_rates(capsys, tmp_path):
    out = tmp_path / "rates.json"
    code = main(["rates", "--config", "preset:bell-computational", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "I(X_A;R)         1.000000" in text
    doc = json.loads(out.read_text())
    jsonschema.validate(instance=doc, schema=load_schema("rates_report"))
    assert doc["schema"] == "povmcast/rates-v1"

    csv_out = tmp_path / "rates.csv"
    code = main([
        "rates", "--config", "preset:bell-computational",
        "--out", str(csv_out), "--format", "csv",
    ])
    assert code == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == ",".join(RATE_CSV_COLUMNS)
    assert len(lines) == 2


def test_cli_equivalence_all_presets(capsys):
    schema = load_schema("equivalence_report")
    for name in PRESETS:
        code = main(["equivalence", "--config", f"preset:{name}"])
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(instance=doc, schema=schema)
        assert code == 0
        assert doc["equivalent"] is True
        assert doc["max_deviation"] <= 1e-7
        assert doc["perturbed"] is False


def test_cli_equivalence_detects_perturbation(capsys, tmp_path):
    doc = minimal_doc(equivalence={"perturb_element": 0, "perturb_scale": 1e-4})
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(doc))
    code = main(["equivalence", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["equivalent"] is False
    assert out["perturbed"] is True
    assert out["max_deviation"] > 1e-7


def test_cli_simulate_json_and_csv(capsys, tmp_path):
    out = tmp_path / "trials.csv"
    code = main([
        "simulate", "--config", "preset:pure-state", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(instance=doc, schema=load_schema("simulate_report"))
    assert doc["aggregate"]["d_median"] == 0.0
    assert doc["aggregate"]["trials"] == 5
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(TRIAL_CSV_COLUMNS)
    assert len(lines) == 6

    json_out = tmp_path / "trials.json"
    code = main([
        "simulate", "--config", "preset:pure-state",
        "--out", str(json_out), "--format", "json",
    ])
    capsys.readouterr()
    assert code == 0
    assert json.loads(json_out.read_text())["schema"] == "povmcast/simulate-v1"


def test_cli_output_from_config_and_flag_precedence(capsys, tmp_path):
    doc = minimal_doc(trials=2)
    cfg_out = tmp_path / "from_config.json"
    doc["output"] = {"path": str(cfg_out), "format": "json"}
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))

    code = main(["simulate", "--config", str(cfg_path)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(cfg_out.read_text())["schema"] == "povmcast/simulate-v1"

    flag_out = tmp_path / "from_flag.csv"
    code = main([
        "simulate", "--config", str(cfg_path),
        "--out", str(flag_out), "--format", "csv",
    ])
    capsys.readouterr()
    assert code == 0
    lines = flag_out.read_text().splitlines()
    assert lines[0] == ",".join(TRIAL_CSV_COLUMNS)
    assert len(lines) == 3


def test_cli_simulate_seed_override_and_determinism(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["simulate", "--config", "preset:independent-product"]
    code = main(argv + ["--out", str(a)])
    out_a = capsys.readouterr().out
    assert code == 0
    code = main(argv + ["--out", str(b), "--workers", "4"])
    out_b = capsys.readouterr().out
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert out_a == out_b

    code = main(argv + ["--seed", "123"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["params"]["seed"] == 123
    assert json.loads(out_a)["params"]["seed"] == 13


# Per-trial (d, d_alice, atypical, d2, d3) of `simulate --seed 3`, recorded
# before the block geometry was pruned; any change to the answers shows here.
PINNED_SEED3_TRIALS = {
    "three-outcome-split": [
        (0.6630989297686314, 0.671380471380471, 0.08999999999999996, 0.3516426883641056, 0.5044167340792622),
        (0.5290779671837307, 0.30094276094276085, 0.08999999999999996, 0.30257982511701575, 0.20460736657903522),
        (0.7937283665987143, 0.7136700336700331, 0.08999999999999996, 0.26111469561118117, 0.5077716323232273),
        (0.5805562539882483, 0.3094949494949496, 0.08999999999999996, 0.2993212236540429, 0.2279546953421713),
        (0.7356941822616596, 0.5197979797979796, 0.08999999999999996, 0.47595755445714344, 0.2894307786361588),
        (0.4861502842068348, 0.30949494949494966, 0.08999999999999996, 0.4056435690362358, 0.19318968734315697),
        (0.4884618333564017, 0.16639730639730657, 0.08999999999999996, 0.33148836298925644, 0.10933216165967966),
        (0.43450825319020137, 0.25063973063973055, 0.08999999999999996, 0.3116127267419452, 0.15632960426139178),
        (0.6453846040760177, 0.6799999999999997, 0.08999999999999996, 0.2662871681622292, 0.533624402499999),
        (0.6556473829201097, 0.45259259259259277, 0.08999999999999996, 0.50210791718781, 0.23746556473829217),
    ],
    "bell-computational": [
        (1.0, 1.0, 0.0, 0.09090909090909094, 0.9090909090909091),
        (0.586776859504132, 0.5454545454545452, 0.0, 0.09090909090909094, 0.4958677685950411),
        (0.41322314049586784, 0.4545454545454547, 0.0, 0.09090909090909094, 0.41322314049586784),
        (0.6198347107438019, 0.6818181818181821, 0.0, 0.09090909090909094, 0.6198347107438019),
        (0.5, 0.49999999999999994, 0.0, 0.09090909090909094, 0.45454545454545453),
        (0.586776859504132, 0.5454545454545452, 0.0, 0.09090909090909094, 0.4958677685950411),
        (0.29338842975206597, 0.2727272727272726, 0.0, 0.09090909090909094, 0.2479338842975205),
        (0.586776859504132, 0.5454545454545452, 0.0, 0.09090909090909094, 0.49586776859504106),
        (0.586776859504132, 0.5454545454545452, 0.0, 0.09090909090909094, 0.4958677685950411),
        (0.41322314049586784, 0.4545454545454547, 0.0, 0.09090909090909094, 0.41322314049586784),
    ],
}


@pytest.mark.parametrize("preset", sorted(PINNED_SEED3_TRIALS))
def test_cli_simulate_fixed_seed_answers(capsys, preset):
    code = main(["simulate", "--config", f"preset:{preset}", "--seed", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    got = [
        tuple(t[k] for k in ("d", "d_alice", "atypical", "d2", "d3"))
        for t in doc["trials"]
    ]
    np.testing.assert_allclose(got, PINNED_SEED3_TRIALS[preset], rtol=0, atol=1e-12)


def test_cli_sweep_csv_and_trend(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", "preset:bell-computational", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(instance=doc, schema=load_schema("sweep_report"))
    assert doc["axis"] == "sB"
    assert doc["values"] == [1, 2, 4, 8]
    assert doc["trend"] is not None
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert len(lines) == 5
    sibling = tmp_path / "sweep.trials.csv"
    trial_lines = sibling.read_text().splitlines()
    assert trial_lines[0] == ",".join(TRIAL_CSV_COLUMNS)
    assert len(trial_lines) == 1 + 4 * 10


def _csv_cells(record, columns):
    return [
        str(int(record[c])) if isinstance(record[c], bool) else str(record[c])
        for c in columns
    ]


def _run_both_formats(capsys, tmp_path, command, preset):
    outs = {}
    for fmt in ("json", "csv"):
        out = tmp_path / f"{command}.{fmt}"
        code = main([
            command, "--config", f"preset:{preset}",
            "--out", str(out), "--format", fmt,
        ])
        capsys.readouterr()
        assert code in (0, 1)
        outs[fmt] = out
    doc = json.loads(outs["json"].read_text())
    with open(outs["csv"], newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return doc, header, rows


def test_cli_csv_rows_are_json_records(capsys, tmp_path):
    # each CSV row is its JSON record's fields in column order, with
    # booleans written as 0/1
    doc, header, rows = _run_both_formats(
        capsys, tmp_path, "rates", "bell-computational"
    )
    assert header == list(RATE_CSV_COLUMNS)
    assert len(rows) == 1
    assert len(rows[0]) == len(RATE_CSV_COLUMNS)
    assert float(rows[0][0]) == doc["report"]["iXA_R"]
    assert rows[0] == _csv_cells(doc["report"], RATE_CSV_COLUMNS)

    doc, header, rows = _run_both_formats(
        capsys, tmp_path, "equivalence", "three-outcome-split"
    )
    assert header == list(EQUIVALENCE_CSV_COLUMNS)
    assert rows == [_csv_cells(doc, EQUIVALENCE_CSV_COLUMNS)]
    assert rows[0][0] == "1"

    doc, header, rows = _run_both_formats(
        capsys, tmp_path, "simulate", "pure-state"
    )
    assert header == list(TRIAL_CSV_COLUMNS)
    records = [
        {**doc["params"], "mode": doc["mode"], **t} for t in doc["trials"]
    ]
    assert len(rows) == len(records) == 5
    assert rows == [_csv_cells(r, TRIAL_CSV_COLUMNS) for r in records]

    doc, header, rows = _run_both_formats(
        capsys, tmp_path, "sweep", "bell-computational"
    )
    assert header == list(SWEEP_CSV_COLUMNS)
    sizes = ("typical_size_alice", "typical_size_bob_marginal")
    shared = [c for c in SWEEP_CSV_COLUMNS if c not in sizes]
    assert len(rows) == len(doc["points"]) == 4
    for row, p in zip(rows, doc["points"]):
        record = {
            "axis": doc["axis"], "value": p["value"], **p["params"],
            "mode": doc["mode"], **p["aggregate"],
        }
        assert set(SWEEP_CSV_COLUMNS) - set(record) == set(sizes)
        cells = dict(zip(SWEEP_CSV_COLUMNS, row))
        assert [cells[c] for c in shared] == _csv_cells(record, shared)
        assert all(int(cells[c]) >= 1 for c in sizes)
    with open(tmp_path / "sweep.trials.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == list(TRIAL_CSV_COLUMNS)
    records = [
        {**p["params"], "mode": doc["mode"], **t}
        for p in doc["points"]
        for t in p["trials"]
    ]
    assert len(rows) == len(records) == 4 * 10
    assert rows == [_csv_cells(r, TRIAL_CSV_COLUMNS) for r in records]


def _preset_at(tmp_path, name, n, **overrides):
    doc = preset_document(name)
    doc["protocol"]["n"] = n
    doc.update(overrides)
    path = tmp_path / f"{name}-n{n}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _warnings(err):
    return [line for line in err.splitlines() if line.startswith("warning:")]


def test_cli_simulate_warns_when_saturated(capsys, tmp_path):
    # beyond its design n every trial of this preset loses all of Bob's
    # simulated operators, so d = 1 by construction
    path = _preset_at(tmp_path, "three-outcome-split", 5)
    code = main(["simulate", "--config", path])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert all(abs(t["d"] - 1.0) <= 1e-12 for t in doc["trials"])
    assert "saturated" not in json.dumps(doc)
    (warning,) = _warnings(captured.err)
    assert "saturated" in warning

    code = main(["simulate", "--config", "preset:three-outcome-split"])
    captured = capsys.readouterr()
    assert code == 0
    assert _warnings(captured.err) == []


def test_cli_sweep_warns_per_saturated_point(capsys, tmp_path):
    path = _preset_at(
        tmp_path, "three-outcome-split", 2, sweep={"axis": "n", "values": [2, 5]}
    )
    code = main(["sweep", "--config", path])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["values"] == [2, 5]
    (warning,) = _warnings(captured.err)
    assert "n=5" in warning


def test_cli_sweep_without_section_fails(capsys):
    code = main(["sweep", "--config", "preset:pure-state"])
    captured = capsys.readouterr()
    assert code == 2
    assert "sweep" in captured.err


def test_cli_sweep_partial_failure_hits_cap(capsys, tmp_path):
    doc = minimal_doc(
        trials=2, sweep={"axis": "n", "values": [1, 13]}
    )
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(doc))
    code = main(["sweep", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    out = json.loads(captured.out)
    assert out["failed_value"] == 13
    assert "exceeds cap" in out["error"]
    assert out["values"] == [1]  # the finished point is still reported
    assert "exceeds cap" in captured.err


def test_cli_validation_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(minimal_doc(extra=1)))
    assert main(["rates", "--config", str(bad)]) == 2
    capsys.readouterr()
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config file not found" in capsys.readouterr().err
    # a directory or bytes that are not UTF-8 cannot be read as a config
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"name": "caf\xe9"}')
    for path in (tmp_path, latin):
        assert main(["rates", "--config", str(path)]) == 2
        assert f"cannot read config file {path}" in capsys.readouterr().err
    # a directory or a path under a missing directory cannot be written
    for path in (tmp_path, tmp_path / "missing" / "r.json"):
        argv = ["rates", "--config", "preset:pure-state", "--out", str(path)]
        assert main(argv) == 2
        assert f"cannot write output file {path}" in capsys.readouterr().err
    nan = tmp_path / "nan.json"
    doc = preset_document("bell-computational")
    doc["protocol"]["eps"] = float("nan")
    nan.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(nan)]) == 2
    assert "protocol.eps must be a finite" in capsys.readouterr().err
    big = tmp_path / "big.json"
    doc = minimal_doc()
    doc["protocol"]["n"] = 13
    big.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(big)]) == 3
    err = capsys.readouterr().err
    assert "exceeds cap" in err
    assert main(["simulate", "--config", "preset:pure-state", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    # rejected before any thread starts, so no large value is tried
    for cmd in ("simulate", "sweep"):
        for workers in ("0", "-3"):
            argv = [cmd, "--config", "preset:pure-state", "--workers", workers]
            assert main(argv) == 2
            assert "--workers" in capsys.readouterr().err


def test_cli_huge_block_length_exits_3(capsys, tmp_path):
    # the size guards stop at the cap instead of forming 3**n
    eye = np.eye(3)
    doc = minimal_doc(
        rho=op_json(eye / 3),
        povm=[op_json(np.diag(row)) for row in eye],
        gA=[0, 1, 2],
        gB=[0, 1, 2],
    )
    doc["protocol"]["n"] = 10**6
    path = tmp_path / "qutrit.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path)]) == 3
    assert "block dimension 3**1000000 exceeds cap" in capsys.readouterr().err


def test_cli_undrawable_codebook_exits_3(tmp_path):
    import subprocess

    # sB = ceil(2^(2 * 40)) = 2^80 codewords: numpy refuses the draw
    # before it allocates anything
    doc = preset_document("pure-state")
    doc["protocol"]["sB"] = "40"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "povmcast", "simulate", "--config", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert f"cannot draw {2**80} sequences" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_block_length_beyond_float_range_exits_2(tmp_path):
    import subprocess

    # a rate-expression size substitutes n as a float, which 10**400 is not
    doc = preset_document("bell-computational")
    doc["protocol"]["n"] = 10**400
    doc["protocol"]["sB"] = "I(X_B;R|X_A)"
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "povmcast", "simulate", "--config", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "n is beyond float range" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_memory_error_exits_3(capsys, monkeypatch, tmp_path):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("povmcast.cli.simulate_trials", out_of_memory)
    assert main(["simulate", "--config", "preset:pure-state"]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"
    # a sweep still reports the points it finished
    calls = []
    real = simulate_trials

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError()
        return real(*args, **kwargs)

    monkeypatch.setattr("povmcast.cli.simulate_trials", fail_second)
    assert main(["sweep", "--config", "preset:bell-computational"]) == 3
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["values"] == [1]
    assert out["failed_value"] == 2
    assert out["error"] == "out of memory"
    assert "error: sweep point 2: out of memory" in captured.err


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_cli_malformed_dim_cap_exits_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("POVMCAST_DIM_CAP", raw)
    assert main(["rates", "--config", "preset:pure-state"]) == 2
    assert "POVMCAST_DIM_CAP" in capsys.readouterr().err


@pytest.mark.parametrize(
    # 2^(n * rate) overflows a float, the rate is NaN (inf - inf), the
    # expression is a power, or an integer literal overflows a float; all
    # fail before any codebook is drawn
    "expr",
    [
        "H(X_B) * 1000",
        "1e308 * 10 - 1e308 * 10",
        "2**10000",
        pytest.param("1" + "0" * 400, id="400-digit-literal"),
    ],
)
def test_cli_unrepresentable_size_expression_exits_2(capsys, tmp_path, expr):
    doc = preset_document("bell-computational")
    doc["protocol"]["sB"] = expr
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path)]) == 2
    assert "protocol.sB" in capsys.readouterr().err


def test_module_entrypoint_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "povmcast", "rates", "--config", "preset:pure-state"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "scenario: pure-state" in proc.stdout


def test_cli_closed_pipe_exits_141(monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as fh:

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return fh.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(
            sys, "argv", ["povmcast", "rates", "--config", "preset:bell-computational"]
        )
        with pytest.raises(SystemExit) as exc:
            entrypoint()
    assert exc.value.code == 141
