"""Shared test helpers: seeded scenario generators and acceptance reporting."""

import math
import os
import re

import numpy as np

# A checked-in scenario document with complex entries: the
# three-outcome-split trine conjugated by phase_unitary(), the only
# scenario of the suite that runs the complex128 route end to end.
COMPLEX_TRINE = os.path.join(os.path.dirname(__file__), "data", "complex-trine.json")


def phase_unitary(t=0.4, phi=0.7, psi=1.9):
    """A non-diagonal 2 x 2 unitary with complex phases: a rotation by t
    between diagonal phases, so it commutes with no real diagonal state."""
    c, s = math.cos(t), math.sin(t)
    return np.array([
        [c, -np.exp(1j * phi) * s],
        [np.exp(1j * psi) * s, np.exp(1j * (phi + psi)) * c],
    ])


def rotated_document(doc, u):
    """A scenario document with rho and every POVM element replaced by
    u A u^dag, Hermitian parts taken so the entries stay exactly
    Hermitian."""
    def rotate(op):
        m = np.array(op["re"]) + 1j * np.array(op["im"])
        r = u @ m @ u.conj().T
        r = 0.5 * (r + r.conj().T)
        return {"dim": op["dim"], "re": r.real.tolist(), "im": r.imag.tolist()}

    return {**doc, "rho": rotate(doc["rho"]), "povm": [rotate(op) for op in doc["povm"]]}


def random_density(rng, dim):
    """Random full-rank density matrix of the given dimension."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T + 1e-3 * np.eye(dim)
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def random_povm(rng, dim, outcomes, rank=None):
    """Random POVM: positive raw pieces whitened so they sum to identity.

    Elements are full rank by default; with rank set, each has exactly
    that rank (the pieces must still span the space).
    """
    raw = []
    for _ in range(outcomes):
        cols = dim if rank is None else rank
        g = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
        ridge = 1e-6 * np.eye(dim) if rank is None else 0.0
        raw.append(g @ g.conj().T + ridge)
    total = np.zeros((dim, dim), dtype=complex)
    for p in raw:
        total = total + p
    w, v = np.linalg.eigh(total)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    elems = []
    for p in raw:
        e = inv_root @ p @ inv_root
        elems.append(0.5 * (e + e.conj().T))
    return elems


def random_surjection(rng, domain, image):
    """Table for an onto map {0..domain-1} -> {0..image-1}."""
    if image > domain:
        raise ValueError("image larger than domain")
    table = [int(t) for t in rng.integers(0, image, size=domain)]
    slots = rng.choice(domain, size=image, replace=False)
    for value, slot in enumerate(slots):
        table[int(slot)] = value
    return table


def random_scenario(rng, dim, outcomes, image_a=None, image_b=None):
    """Density matrix, POVM elements, and two onto outcome tables."""
    rho = random_density(rng, dim)
    elems = random_povm(rng, dim, outcomes)
    if image_a is None:
        image_a = int(rng.integers(1, outcomes)) if outcomes > 1 else 1
    if image_b is None:
        image_b = int(rng.integers(1, outcomes)) if outcomes > 1 else 1
    g_a = random_surjection(rng, outcomes, image_a)
    g_b = random_surjection(rng, outcomes, image_b)
    return rho, elems, g_a, g_b


_CRITERION_RE = re.compile(r"test_criterion_(\d+)_([a-z0-9_]+)")
_acceptance = {}


def pytest_runtest_logreport(report):
    m = _CRITERION_RE.search(report.nodeid)
    if m is None:
        return
    key = (int(m.group(1)), m.group(2))
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
    elif report.failed or report.skipped:
        outcome = "FAIL"
    else:
        return
    if _acceptance.get(key) == "FAIL":
        return
    _acceptance[key] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for (num, slug), outcome in sorted(_acceptance.items()):
        label = slug.replace("_", " ")
        terminalreporter.write_line("ACCEPTANCE %d %s: %s" % (num, label, outcome))
