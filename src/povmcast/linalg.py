"""Operator primitives for finite-dimensional quantum systems.

Everything works on square complex numpy arrays. Hermitian structure is
enforced through explicit tolerance checks instead of being assumed, and
all square roots and inverses act only on numerically resolved supports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotPsd,
    SizeLimitExceeded,
)

TAU_HERM = 1e-9
TAU_TRACE = 1e-9
TAU_PSD = 1e-10
TAU_SPEC = 1e-8
TAU_PROB = 1e-12

DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "POVMCAST_DIM_CAP"


def dimension_cap() -> int:
    """Total-dimension cap for enumerations and tensor powers.

    Overridable through the POVMCAST_DIM_CAP environment variable.
    """
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"{DIM_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def power_exceeds(base: int, n: int, cap: int) -> bool:
    """base**n > cap for nonnegative integers, without forming base**n.

    Bases 0 and 1 are decided directly; a larger base passes cap within
    log2(cap) + 1 factors, so a huge n costs no more than a small one.
    """
    if base < 2 or n == 0:
        return (base if n else 1) > cap
    product = 1
    for _ in range(n):
        product *= base
        if product > cap:
            return True
    return False


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix, unwrapping the operator types."""
    if isinstance(a, DensityOperator):
        return a.mat
    if isinstance(a, PureState):
        return a.projector()
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def operator_scale(a: np.ndarray) -> float:
    """max(1, spectral norm), the reference scale for relative tolerances."""
    if a.size == 0:
        return 1.0
    return max(1.0, float(np.linalg.norm(a, 2)))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    return 0.5 * (a + a.conj().T)


def hermitian_deviation(a) -> float:
    """Spectral norm of the anti-Hermitian part, ||a - a^dag||_2."""
    a = as_matrix(a)
    return float(np.linalg.norm(a - a.conj().T, 2))


def is_hermitian(a) -> bool:
    """True when the anti-Hermitian part is within TAU_HERM of the scale."""
    a = as_matrix(a)
    return hermitian_deviation(a) <= TAU_HERM * operator_scale(a)


def below_psd_floor(w: np.ndarray) -> bool:
    """True when a real spectrum dips below -TAU_PSD * max(1, max |w|)."""
    return bool(w.size) and float(w.min()) < -TAU_PSD * max(
        1.0, float(np.abs(w).max())
    )


def entropy_bits(w: np.ndarray) -> float:
    """-sum w log2 w over the positive entries of a spectrum or law."""
    w = w[w > 0.0]
    # adding +0.0 turns the -0.0 of a one-point spectrum into +0.0
    return float(-(w * np.log2(w)).sum() + 0.0)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a Hermitian operator, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectral_decompose(a) -> SpectralDecomposition:
    """Eigendecompose a Hermitian operator.

    Raises NotHermitian when the anti-Hermitian part exceeds TAU_HERM
    (relative to the operator norm).
    """
    a = as_matrix(a)
    if not is_hermitian(a):
        raise NotHermitian("operator is not Hermitian within tolerance")
    return descending_eigh(a)


def descending_eigh(a: np.ndarray) -> SpectralDecomposition:
    """Eigensystem of the Hermitian part of a, eigenvalues descending, with
    no Hermitian check: for operators that are Hermitian by construction,
    such as a Gram matrix, where the check's two SVDs would dominate."""
    w, v = np.linalg.eigh(hermitian_part(a))
    order = np.argsort(w)[::-1]
    w = np.ascontiguousarray(w[order])
    v = np.ascontiguousarray(v[:, order])
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def _psd_eigenvalues(a: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition with negative eigenvalues clipped to zero.

    Eigenvalues below -TAU_PSD (relative to scale) raise NotPsd; values
    in (-TAU_PSD, 0) are treated as numerical noise.
    """
    dec = spectral_decompose(a)
    w = dec.eigenvalues
    if below_psd_floor(w):
        raise NotPsd(
            f"operator has eigenvalue {w.min():.3e} below -{TAU_PSD:.1e} * scale"
        )
    w = np.clip(w, 0.0, None)
    w.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=dec.eigenvectors)


def sqrt_psd(a) -> np.ndarray:
    """Principal square root of a positive semidefinite operator."""
    dec = _psd_eigenvalues(as_matrix(a))
    v = dec.eigenvectors
    return (v * np.sqrt(dec.eigenvalues)) @ v.conj().T


def support_projector(a, cutoff: float) -> np.ndarray:
    """Projector onto eigenspaces of a PSD operator with eigenvalue > cutoff."""
    dec = _psd_eigenvalues(as_matrix(a))
    keep = dec.eigenvalues > cutoff
    v = dec.eigenvectors[:, keep]
    return v @ v.conj().T


def pinv_sqrt_on_support(a, cutoff: float) -> np.ndarray:
    """Inverse square root on the support, zero on the kernel.

    Satisfies B a B = support_projector(a, cutoff) for B the result.
    """
    dec = _psd_eigenvalues(as_matrix(a))
    w = dec.eigenvalues
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.where(w > cutoff, w, 1.0)), 0.0)
    v = dec.eigenvectors
    return (v * inv) @ v.conj().T


def trace_distance(a, b) -> float:
    """Unnormalized trace norm ||a - b||_1 (sum of singular values).

    Orthogonal pure states are at distance 2 under this convention.
    """
    diff = as_matrix(a) - as_matrix(b)
    return float(np.linalg.svd(diff, compute_uv=False).sum())


def kron_all(ops) -> np.ndarray:
    """Kronecker product of a sequence of matrices, first factor slowest."""
    mats = [as_matrix(o) for o in ops]
    if not mats:
        raise ValueError("kron_all needs at least one factor")
    total = 1
    for m in mats:
        total *= m.shape[0]
        if total > dimension_cap():
            raise SizeLimitExceeded(
                f"tensor product dimension {total} exceeds cap {dimension_cap()}"
            )
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


class DensityOperator:
    """Validated density operator: Hermitian, PSD, unit trace."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = as_matrix(mat).copy()
        if not is_hermitian(m):
            raise NotHermitian("density operator is not Hermitian within tolerance")
        w = np.linalg.eigvalsh(hermitian_part(m))
        if below_psd_floor(w):
            raise NotPsd(f"density operator has eigenvalue {w.min():.3e}")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > TAU_TRACE:
            raise NotNormalized(
                f"density operator trace {tr!r} is not 1 within {TAU_TRACE:.1e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):
        raise AttributeError("DensityOperator is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def coerce(cls, x) -> "DensityOperator":
        return x if isinstance(x, cls) else cls(x)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=np.complex128) / dim)

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


class PureState:
    """Validated unit vector."""

    __slots__ = ("vec",)

    def __init__(self, vec):
        v = np.asarray(vec, dtype=np.complex128).reshape(-1).copy()
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > TAU_TRACE:
            raise NotNormalized(
                f"state vector norm {nrm!r} is not 1 within {TAU_TRACE:.1e}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    def projector(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())

    def __repr__(self):
        return f"PureState(dim={self.dim})"


def canonical_purification(rho) -> PureState:
    """Purify rho on R (x) C as sum_i sqrt(l_i) |i>_R |v_i>_C.

    The reference system R comes first, with the computational basis
    indexing the eigenbranches of rho. Tracing out R recovers rho.
    """
    rho = DensityOperator.coerce(rho)
    dec = _psd_eigenvalues(rho.mat)
    d = rho.dim
    amps = np.sqrt(dec.eigenvalues)[:, None] * dec.eigenvectors.T
    vec = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        vec[i * d : (i + 1) * d] = amps[i]
    nrm = float(np.linalg.norm(vec))
    return PureState(vec / nrm)
