"""
Communication floors for broadcasting a measurement
===================================================

Simulating a measurement for two receivers costs classical bits, and
shared randomness can stand in for part of them. For each built-in
scenario this script evaluates the entropic quantities that floor the
achievable rates, then shows the two structural facts worth knowing:
when both receivers want the same value, updating Bob costs nothing
beyond Alice's share; and when the receivers' values are independent,
Bob gains nothing from conditioning on Alice.
"""

from povmcast import (
    evaluate_rate_region,
    load_config,
    prepare_scenario,
    preset_names,
    scenario_rate_environment,
)

for name in preset_names():
    cfg = load_config(f"preset:{name}")
    q = evaluate_rate_region(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    print(f"{name}")
    print(f"  I(X_A;R)     = {q.iXA_R:.6f}   H(X_A)      = {q.hXA:.6f}")
    print(f"  I(X_A,X_B;R) = {q.iXAXB_R:.6f}   H(X_B|X_A)  = {q.hXB_given_XA:.6f}")
    print(f"  I(X_B;R,X_A) = {q.iXB_RXA:.6f}   H(X_B)      = {q.hXB:.6f}")
    print("  Alice:                 R_A >= %.6f, R_A + S_A >= %.6f"
          % (q.iXA_R, q.hXA))
    print("  Bob (shared rand.):    R_B >= %.6f, R_B + S_B >= %.6f"
          % (q.iXAXB_R, q.hXB_given_XA))
    print("  Bob (independent):     R_B >= %.6f, R_B + S_B >= %.6f"
          % (q.iXB_RXA, q.hXB))
    print()

# same-value broadcast: Bob's extra information and conditional entropy
# both collapse
cfg = load_config("preset:bell-computational")
q = evaluate_rate_region(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
print("bell-computational has g_A = g_B, so")
print(f"  I(X_A,X_B;R) - I(X_A;R) = {q.iXAXB_R - q.iXA_R:.2e}")
print(f"  H(X_B|X_A)              = {q.hXB_given_XA:.2e}")
print()

# independent values: conditioning on Alice's outcome buys Bob nothing
cfg = load_config("preset:independent-product")
q = evaluate_rate_region(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
i_xb_r = scenario_rate_environment(single)["I(X_B;R)"]
print("independent-product has X_A independent of X_B, so")
print(f"  I(X_B;R,X_A) = {q.iXB_RXA:.6f}")
print(f"  I(X_B;R)     = {i_xb_r:.6f}")
print(f"  difference   = {q.iXB_RXA - i_xb_r:.2e}")
