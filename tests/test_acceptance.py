"""End-to-end checks of the library's advertised guarantees.

Each test exercises one guarantee across randomized scenarios or the
shipped presets. conftest prints a one-line PASS/FAIL verdict per
criterion at the end of the run.
"""

import time
from dataclasses import replace

import numpy as np
import scipy.stats

from povmcast import (
    DensityOperator,
    build_block_scenario,
    build_protocol_instance,
    coarse_grain,
    conditional_povm,
    empirical_e0_check,
    evaluate_rate_region,
    faithfulness_distance,
    generate_codebook,
    instance_report,
    jonckheere_terpstra,
    kron_all,
    load_config,
    measurements_equivalent,
    prepare_scenario,
    scenario_rate_environment,
    sequential_composition,
    support_projector,
)
from povmcast.cli import main
from povmcast.measurement import SUPPORT_CUTOFF_REL
from povmcast.protocol import ProtocolParams
from povmcast.typicality import (
    build_typical_set,
    conditional_typical_set,
    prune,
    prune_conditional,
)

from conftest import random_scenario
from oracles import (
    conditioning_state,
    cut_average,
    dense_kron,
    densify,
    holevo_conditional_direct,
    joint_information_oracle,
)

QUBIT_PRESETS = ("bell-computational", "three-outcome-split", "pure-state")
ALL_PRESETS = QUBIT_PRESETS + ("independent-product",)


def iter_scenarios(count, seed, max_dim=4, max_outcomes=6):
    """Deterministic stream of random (rho, elements, g_a, g_b) scenarios."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        outcomes = int(rng.integers(2, max_outcomes + 1))
        yield random_scenario(rng, dim, outcomes)


def scenario_objects(rho, elems, g_a, g_b):
    from povmcast import OutcomeFunction, Povm

    povm = Povm(elements=tuple(elems), labels=tuple(range(len(elems))))
    fa = OutcomeFunction(
        domain_size=len(elems), image_size=max(g_a) + 1, table=tuple(g_a)
    )
    fb = OutcomeFunction(
        domain_size=len(elems), image_size=max(g_b) + 1, table=tuple(g_b)
    )
    return DensityOperator(rho), povm, fa, fb


def test_criterion_1_conditional_completeness():
    # after announcing x_a, the fine-grained branch elements must sum to
    # the support projector of the coarse element, for every x_a
    start = time.monotonic()
    checked = 0
    for rho, elems, g_a, g_b in iter_scenarios(200, seed=8101):
        _, povm, fa, fb = scenario_objects(rho, elems, g_a, g_b)
        for x_a in range(fa.image_size):
            branch = np.zeros((povm.dim, povm.dim), dtype=complex)
            for x in fa.preimage(x_a):
                branch = branch + povm.elements[x]
            scale = float(np.linalg.norm(branch, 2))
            if scale <= 1e-10:
                continue
            cond = conditional_povm(povm, fa, fb, x_a)
            total = np.zeros_like(branch)
            for lab, e in zip(cond.labels, cond.elements):
                if lab != fb.image_size:
                    total = total + e
            proj = support_projector(branch, SUPPORT_CUTOFF_REL * scale)
            gap = total - proj
            dev = float(np.abs(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T))).max())
            assert dev <= 1e-8, (x_a, dev)
            checked += 1
    assert checked >= 200
    assert time.monotonic() - start < 30.0


def test_criterion_2_sequential_equivalence():
    # measuring the coarse outcome first and the conditional branch
    # second reproduces the directly coarse-grained measurement
    for rho, elems, g_a, g_b in iter_scenarios(200, seed=8101):
        state, povm, fa, fb = scenario_objects(rho, elems, g_a, g_b)
        seq = sequential_composition(povm, fa, fb)
        direct = coarse_grain(povm, fb)
        verdict = measurements_equivalent(state, seq, direct, tol=1e-7)
        assert verdict.equivalent, verdict.max_deviation


def test_criterion_3_entropy_oracle_match():
    # every entropic quantity agrees with explicit joint density matrices
    # assembled in the computational basis, and the chain rule closes
    for rho, elems, g_a, g_b in iter_scenarios(100, seed=8303):
        state, povm, fa, fb = scenario_objects(rho, elems, g_a, g_b)
        q = evaluate_rate_region(state, povm, fa, fb)
        ora = joint_information_oracle(rho, elems, g_a, g_b)
        for name in (
            "iXA_R",
            "iXAXB_R",
            "iXB_R_given_XA",
            "iXB_RXA",
            "hXA",
            "hXB",
            "hXB_given_XA",
        ):
            assert abs(getattr(q, name) - ora[name]) <= 1e-8, name
        direct = holevo_conditional_direct(rho, elems, g_a, g_b)
        assert abs(q.iXAXB_R - (q.iXA_R + direct)) <= 1e-8


def test_criterion_4_rate_region_structure():
    # when both receivers want the same outcome the joint information
    # collapses onto Alice's and the conditional entropy vanishes; for
    # an independent product scenario conditioning on X_A buys nothing
    for name in ALL_PRESETS:
        cfg = load_config(f"preset:{name}")
        if cfg.g_a.table != cfg.g_b.table:
            continue
        q = evaluate_rate_region(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
        assert abs(q.iXAXB_R - q.iXA_R) <= 1e-9
        assert q.hXB_given_XA <= 1e-9

    cfg = load_config("preset:independent-product")
    q = evaluate_rate_region(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    env = scenario_rate_environment(
        prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    )
    assert abs(q.iXB_RXA - env["I(X_B;R)"]) <= 1e-8


def test_criterion_5_scaled_average_dominated():
    # the scaled cut average never exceeds the conditional block state:
    # P_hat commutes with rho_hat^n, P_C with rho_cond, and the cutoff
    # keeps a spectral part of xi_bar, so S * omega <= P_C rho_cond P_C
    # <= rho_cond
    for name in QUBIT_PRESETS:
        cfg = load_config(f"preset:{name}")
        single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
        for n in (1, 2, 3):
            params = replace(cfg.params, n=n)
            block = build_block_scenario(single, params)
            assert block.bob_blocks, (name, n)
            blocks = list(block.bob_blocks.values()) + [block.alice_block]
            for blk in blocks:
                rho_cond = conditioning_state(block, blk)
                gap = rho_cond - blk.typical.total_prob * cut_average(blk.cutoff)
                low = float(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T)).min())
                assert low >= -1e-9, (name, n, blk.cond_seq, low)


def test_criterion_6_faithfulness_trend():
    # more codewords per bin never hurt: the median deviation over 50
    # codebook draws must not increase with the bin size
    start = time.monotonic()
    cfg = load_config("preset:bell-computational")
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = build_block_scenario(single, cfg.params)
    sizes = (1, 2, 4, 8)
    groups = []
    for s_b in sizes:
        params = replace(cfg.params, s_b=s_b)
        vals = []
        for rep in range(50):
            seed_seq = np.random.SeedSequence(910000 + rep)
            inst = build_protocol_instance(block, params, cfg.mode, seed_seq)
            vals.append(instance_report(inst).d_bob)
        groups.append(vals)
    medians = [float(np.median(v)) for v in groups]
    for lo, hi in zip(medians[1:], medians[:-1]):
        assert lo <= hi + 1e-9, medians
    trend = jonckheere_terpstra(groups)
    assert trend.p_increasing > 0.05, trend
    assert time.monotonic() - start < 300.0


def _binary_codebook_laws(delta_cond, delta_marg):
    # independent law, so the output marginal equals every conditional row
    p = np.array([0.7, 0.3])
    p_cond = np.vstack([p, p])
    cond_seq = (0, 0)
    ts_cond = conditional_typical_set(p_cond, cond_seq, 2, delta_cond)
    pruned_cond = prune_conditional(p_cond, cond_seq, ts_cond)
    ts_marg = build_typical_set(p, 2, delta_marg)
    pruned_marg = prune(p, ts_marg)
    return cond_seq, pruned_cond, pruned_marg


def test_criterion_7_case_equivalence():
    # candidate screening: drawing from the marginal and keeping the
    # conditionally typical candidates reproduces direct conditional
    # sampling once no cell runs short
    cond_seq, pruned_cond, pruned_marg = _binary_codebook_laws(0.5, 2.0)
    assert len(pruned_marg.support()) == 4
    members = pruned_cond.support()
    assert members == tuple(sorted(members))
    assert len(members) == 3

    params1 = ProtocolParams(
        n=2, delta=0.5, delta2=0.25, eps=0.1,
        s_b=100, m_b=100, s_b_prime=250, case=1, seed=0,
    )
    cb1 = generate_codebook(
        params1, pruned_marg, {cond_seq: pruned_cond},
        np.random.default_rng(np.random.SeedSequence(17001)),
    )
    assert cb1.failure_rate == 0.0
    cb2 = generate_codebook(
        replace(params1, case=2), pruned_marg, {cond_seq: pruned_cond},
        np.random.default_rng(np.random.SeedSequence(17002)),
    )

    # codewords are member indices of the conditional law
    counts1 = np.zeros(len(members), dtype=int)
    counts2 = np.zeros(len(members), dtype=int)
    for m in range(params1.m_b):
        counts1 += np.bincount(cb1.codewords(cond_seq, m), minlength=3)
        counts2 += np.bincount(cb2.codewords(cond_seq, m), minlength=3)
    assert counts1.sum() == 10_000
    assert counts2.sum() == 10_000

    table = np.array([counts1, counts2])
    res = scipy.stats.chi2_contingency(table)
    assert res.pvalue >= 0.01, (res.pvalue, table)


def test_criterion_8_empirical_band():
    # with 10^4 draws the empirical codeword frequencies sit inside the
    # (1 +- 0.1) band around the pruned law in at least 95 of 100 runs
    cond_seq, pruned_cond, pruned_marg = _binary_codebook_laws(0.5, 2.0)
    params = ProtocolParams(
        n=2, delta=0.5, delta2=0.25, eps=0.1, s_b=100, m_b=100, case=2, seed=0,
    )
    ok = 0
    for rep in range(100):
        cb = generate_codebook(
            params, pruned_marg, {cond_seq: pruned_cond},
            np.random.default_rng(np.random.SeedSequence(52000 + rep)),
        )
        report = empirical_e0_check(cb, {cond_seq: pruned_cond}, eps=0.1)
        assert report.draw_counts[cond_seq] == 10_000
        ok += int(report.ok)
    assert ok >= 95, ok


def test_criterion_9_simulate_determinism(tmp_path, capsys):
    # fixed config and seed give byte-identical trial tables no matter
    # how often or how concurrently the simulation runs
    outputs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 1), ("d", 2), ("e", 4)):
        out = tmp_path / f"trials_{tag}.csv"
        rc = main([
            "simulate", "--config", "preset:pure-state", "--seed", "5",
            "--out", str(out), "--format", "csv", "--workers", str(workers),
        ])
        capsys.readouterr()
        assert rc == 0
        outputs.append(out.read_bytes())
    assert all(blob == outputs[0] for blob in outputs[1:])


def test_criterion_10_degenerate_cases():
    # rank-one state with a deterministic outcome: a single codeword
    # already simulates the measurement perfectly
    cfg = load_config("preset:pure-state")
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = build_block_scenario(single, cfg.params)
    inst = build_protocol_instance(block, cfg.params, cfg.mode)
    assert inst.bob_codebook.size == 1
    assert inst.bob_codebook.m_count == 1
    for blk in block.bob_blocks.values():
        assert len(blk.typical.members) == 1
    report = instance_report(inst)
    assert report.d_bob <= 1e-9, report.d_bob
    assert report.d_alice <= 1e-9, report.d_alice

    # comparing a measurement against itself is exactly zero (the table
    # holds the factors of the sequences a Bob codebook can draw as
    # Kronecker halves, here densified to their operators F F^dag)
    ref = densify({k: dense_kron(h) for k, h in block.lambda_ref_b.items()})
    d_self = faithfulness_distance(
        ref, ref, kron_all([single.rho.mat] * cfg.params.n)
    )
    assert d_self == 0.0
