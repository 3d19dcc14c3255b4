"""Entropy and rate-region tests against an independent density-matrix oracle."""

import numpy as np
import pytest

from povmcast import (
    DensityOperator,
    NotADistribution,
    NotPsd,
    OutcomeFunction,
    Povm,
    evaluate_rate_region,
    prepare_scenario,
    scenario_rate_environment,
    shannon_entropy,
    von_neumann_entropy,
)
from povmcast.rates import RATE_CSV_COLUMNS, report_to_json

import oracles
from conftest import random_scenario

H_QUARTER = 0.8112781244591328  # H(3/4, 1/4), frozen


def test_shannon_entropy_values_and_validation():
    assert shannon_entropy([0.5, 0.5]) == 1.0
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert np.isclose(shannon_entropy([0.75, 0.25]), H_QUARTER)
    with pytest.raises(NotADistribution):
        shannon_entropy([])
    with pytest.raises(NotADistribution):
        shannon_entropy([0.5, -0.1, 0.6])
    with pytest.raises(NotADistribution):
        shannon_entropy([0.5, 0.4])


def test_von_neumann_entropy_matches_spectrum():
    assert np.isclose(von_neumann_entropy(np.eye(2) / 2), 1.0)
    assert np.isclose(von_neumann_entropy(np.diag([0.75, 0.25])), H_QUARTER)
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    with pytest.raises(NotPsd):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def scenario_objects(rho, elems, g_a, g_b):
    povm = Povm(elements=tuple(elems), labels=tuple(range(len(elems))))
    fa = OutcomeFunction(domain_size=len(elems), image_size=max(g_a) + 1, table=tuple(g_a))
    fb = OutcomeFunction(domain_size=len(elems), image_size=max(g_b) + 1, table=tuple(g_b))
    return povm, fa, fb


def test_rate_quantities_match_oracle_on_random_scenarios():
    rng = np.random.default_rng(43)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        outcomes = int(rng.integers(2, 6))
        rho, elems, g_a, g_b = random_scenario(rng, dim, outcomes)
        povm, fa, fb = scenario_objects(rho, elems, g_a, g_b)
        q = evaluate_rate_region(rho, povm, fa, fb)
        ref = oracles.joint_information_oracle(rho, elems, g_a, g_b)
        assert np.isclose(q.iXA_R, ref["iXA_R"], atol=1e-8)
        assert np.isclose(q.iXAXB_R, ref["iXAXB_R"], atol=1e-8)
        assert np.isclose(q.iXB_R_given_XA, ref["iXB_R_given_XA"], atol=1e-8)
        assert np.isclose(q.iXB_RXA, ref["iXB_RXA"], atol=1e-8)
        assert np.isclose(q.hXA, ref["hXA"], atol=1e-8)
        assert np.isclose(q.hXB, ref["hXB"], atol=1e-8)
        assert np.isclose(q.hXB_given_XA, ref["hXB_given_XA"], atol=1e-8)
        # independent route to the conditional Holevo information
        direct = oracles.holevo_conditional_direct(rho, elems, g_a, g_b)
        assert np.isclose(q.iXB_R_given_XA, direct, atol=1e-8)
        env = scenario_rate_environment(prepare_scenario(rho, povm, fa, fb))
        assert np.isclose(env["I(X_B;R)"], ref["iXB_R"], atol=1e-8)


def test_chain_rule_holds():
    rng = np.random.default_rng(47)
    for _ in range(10):
        rho, elems, g_a, g_b = random_scenario(rng, 2, 4)
        povm, fa, fb = scenario_objects(rho, elems, g_a, g_b)
        q = evaluate_rate_region(rho, povm, fa, fb)
        assert np.isclose(q.iXAXB_R, q.iXA_R + q.iXB_R_given_XA, atol=1e-9)


def test_holevo_of_pure_state_ensemble():
    # measuring I/2's purification in the computational basis leaves pure
    # reference states, so the Holevo information equals 1 bit
    rho = DensityOperator.maximally_mixed(2)
    povm = Povm(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), labels=(0, 1))
    g = OutcomeFunction.identity(2)
    q = evaluate_rate_region(rho, povm, g, g)
    assert np.isclose(q.iXA_R, 1.0, atol=1e-12)
    env = scenario_rate_environment(prepare_scenario(rho, povm, g, g))
    assert np.isclose(env["I(X_B;R)"], 1.0, atol=1e-12)


def test_rate_region_report_and_feasibility():
    rho = DensityOperator.maximally_mixed(2)
    povm = Povm(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), labels=(0, 1))
    g = OutcomeFunction.identity(2)
    q = evaluate_rate_region(rho, povm, g, g)
    assert np.isclose(q.iXA_R, 1.0, atol=1e-12)
    assert np.isclose(q.hXA, 1.0, atol=1e-12)
    # g_a == g_b: once Alice's outcome is known Bob's is deterministic
    assert abs(q.hXB_given_XA) <= 1e-9
    assert np.isclose(q.hXB, 1.0, atol=1e-12)


def test_report_serialization_round_trip():
    rho = DensityOperator.maximally_mixed(2)
    povm = Povm(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), labels=(0, 1))
    g = OutcomeFunction.identity(2)
    doc = report_to_json(evaluate_rate_region(rho, povm, g, g))
    for name in RATE_CSV_COLUMNS:
        assert name in doc
    assert doc["option1"]["requires_alice_randomness"] is True
    assert doc["option2"]["requires_alice_randomness"] is False
