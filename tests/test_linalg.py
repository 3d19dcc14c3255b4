"""Operator primitive tests with seeded random matrices."""

import numpy as np
import pytest

from povmcast import (
    ConfigError,
    DensityOperator,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotPsd,
    SizeLimitExceeded,
    dimension_cap,
    hermitian_part,
    kron_all,
    pinv_sqrt_on_support,
    spectral_decompose,
    sqrt_psd,
    support_projector,
    trace_distance,
)
from povmcast.linalg import as_matrix, is_hermitian, power_exceeds


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def test_as_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros(4))


def test_as_matrix_unwraps_operator_types():
    rho = DensityOperator.maximally_mixed(3)
    assert np.allclose(as_matrix(rho), np.eye(3) / 3)


def test_hermitian_part_and_check():
    rng = np.random.default_rng(41)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = hermitian_part(a)
    assert np.allclose(h, h.conj().T)
    assert is_hermitian(h)
    assert not is_hermitian(a + 1e-3 * 1j * np.eye(4))


def test_spectral_decompose_orders_and_reconstructs():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5):
        a = random_hermitian(rng, dim)
        dec = spectral_decompose(a)
        assert np.all(np.diff(dec.eigenvalues) <= 0)
        v = dec.eigenvectors
        assert np.allclose((v * dec.eigenvalues) @ v.conj().T, a)


def test_spectral_decompose_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(11)
    for dim in (2, 4):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = g @ g.conj().T
        r = sqrt_psd(a)
        assert np.allclose(r @ r, a)
        assert is_hermitian(r)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPsd):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_support_projector_rank_and_idempotence():
    a = np.diag([2.0, 1.0, 1e-14, 0.0])
    p = support_projector(a, 1e-10)
    assert np.allclose(p @ p, p)
    assert np.isclose(np.trace(p).real, 2.0)
    assert np.allclose(p @ a, a @ p)


def test_pinv_sqrt_on_support_identity():
    rng = np.random.default_rng(13)
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    a = g @ g.conj().T  # rank 2
    b = pinv_sqrt_on_support(a, 1e-10)
    p = support_projector(a, 1e-10)
    assert np.allclose(b @ a @ b, p, atol=1e-10)
    assert np.allclose(b @ p, b)


def test_trace_distance_is_unnormalized():
    zero = np.diag([1.0, 0.0])
    one = np.diag([0.0, 1.0])
    assert np.isclose(trace_distance(zero, one), 2.0)
    assert trace_distance(zero, zero) == 0.0


def test_kron_all():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    assert np.allclose(kron_all([x, z]), np.kron(x, z))
    assert np.allclose(kron_all([x]), x)
    assert np.allclose(kron_all([x] * 3), np.kron(x, np.kron(x, x)))
    with pytest.raises(ValueError):
        kron_all([])


class _NoPower(int):
    """An int that refuses to be raised to a power."""

    def __pow__(self, other):
        raise AssertionError("power taken")


def test_power_exceeds_decides_without_the_power():
    # at the cap boundary, 2**12 = 4096 is admitted and 2**13 refused
    assert not power_exceeds(2, 12, 4096)
    assert power_exceeds(2, 13, 4096)
    assert power_exceeds(4097, 1, 4096)
    assert not power_exceeds(7, 0, 1)
    # bases 0 and 1 are decided directly, the larger ones after a few
    # factors, so n = 10**12 neither loops n times nor forms the power
    for base, want in ((0, False), (1, False), (2, True), (3, True)):
        assert power_exceeds(_NoPower(base), 10**12, 4096) is want
    assert power_exceeds(_NoPower(1), 10**12, 0)


def test_dimension_cap_env_override(monkeypatch):
    monkeypatch.setenv("POVMCAST_DIM_CAP", "8")
    assert dimension_cap() == 8
    with pytest.raises(SizeLimitExceeded):
        kron_all([np.eye(2)] * 4)
    kron_all([np.eye(2)] * 3)  # exactly at the cap
    for bad in ("0", "abc"):
        monkeypatch.setenv("POVMCAST_DIM_CAP", bad)
        with pytest.raises(ConfigError, match=f"POVMCAST_DIM_CAP.*{bad!r}"):
            dimension_cap()
    monkeypatch.delenv("POVMCAST_DIM_CAP")
    assert dimension_cap() == 4096


def test_density_operator_validation():
    with pytest.raises(NotHermitian):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(NotPsd):
        DensityOperator(np.diag([1.5, -0.5]))
    with pytest.raises(NotNormalized):
        DensityOperator(np.diag([0.7, 0.7]))
    rho = DensityOperator.maximally_mixed(4)
    assert rho.dim == 4
    assert np.isclose(np.trace(rho.mat).real, 1.0)
    with pytest.raises(AttributeError):
        rho.mat = np.eye(4)
    assert DensityOperator.coerce(rho) is rho
