"""Krein structures and membership predicates.

A Krein structure is the fundamental symmetry J = diag(1, ..., 1, -1, ..., -1)
together with its inertia (N+, N-).  The canonical basis ordering puts all +1
directions before all -1 directions, which makes the block formulas used by
the retraction pipeline literal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config, numerics
from .errors import DimensionMismatch, MembershipError


@dataclass(frozen=True)
class KreinStructure:
    """Fundamental symmetry in normal form."""

    n_plus: int
    n_minus: int
    signs: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.n_plus < 0 or self.n_minus < 0 or self.n_plus + self.n_minus < 1:
            raise ValueError("inertia must be non-negative with positive total")
        if self.signs is None:
            s = np.concatenate([np.ones(self.n_plus), -np.ones(self.n_minus)])
            object.__setattr__(self, "signs", s)

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def J(self) -> np.ndarray:
        return np.diag(self.signs).astype(complex)

    def apply(self, a: np.ndarray) -> np.ndarray:
        """J @ a without forming J (exact sign flips)."""
        return self.signs[:, None] * a

    def check_dim(self, a: np.ndarray):
        if a.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"operator shape {a.shape} does not match Krein dimension {self.dim}")


def make_standard(n_plus: int, n_minus: int) -> KreinStructure:
    """Standard Krein structure with J = diag(1_{n_plus}, -1_{n_minus})."""
    return KreinStructure(n_plus, n_minus)


@dataclass(frozen=True)
class MembershipResult:
    """Boolean verdict plus the raw residual for drift diagnostics.

    Real-structure membership also sets ``j_residual``, the J-membership
    part of ``residual`` without the real-symmetry residual.
    """

    ok: bool
    residual: float
    j_residual: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_j_unitary(t_mat, K: KreinStructure) -> MembershipResult:
    """T* J T = J within tolerance; the residual is always returned."""
    t_mat = numerics.as_matrix(t_mat, square=True, name="T")
    K.check_dim(t_mat)
    res = numerics.norm(t_mat.conj().T @ K.apply(t_mat) - K.J)
    return MembershipResult(res <= config.DEFAULT.membership, res)


def is_j_hermitian(h_mat, K: KreinStructure) -> MembershipResult:
    """H* J = J H within tolerance; the residual is always returned."""
    h_mat = numerics.as_matrix(h_mat, square=True, name="H")
    K.check_dim(h_mat)
    res = numerics.norm(h_mat.conj().T @ K.J - K.apply(h_mat))
    return MembershipResult(res <= config.DEFAULT.membership, res)


def require_member(a, K: KreinStructure, kind: str) -> MembershipResult:
    """J-membership of a J-unitary (``kind='unitary'``) or J-hermitian
    operator; raises :class:`MembershipError` with the residual when the
    check fails."""
    member = is_j_unitary(a, K) if kind == "unitary" else is_j_hermitian(a, K)
    if not member:
        raise MembershipError(
            f"operator is not J-{kind} (residual {member.residual:.3e})",
            residual=member.residual)
    return member


def random_j_hermitian(K: KreinStructure, seed) -> np.ndarray:
    """Random J-hermitian via H = J A with A = A*.

    Membership is exact by algebra: H* J = (JA)* J = A = J (J A) = J H.
    """
    rng = np.random.default_rng(seed)
    n = K.dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (g + g.conj().T) / 2.0
    return K.apply(a)


def random_j_unitary(K: KreinStructure, seed) -> np.ndarray:
    """Random J-unitary T = exp(i H) with H a random J-hermitian, scaled to
    ||H|| <= sqrt(dim), which keeps exp well conditioned.
    """
    h = random_j_hermitian(K, seed)
    h = h / max(numerics.norm(h), 1.0) * K.dim ** 0.5
    return numerics.matrix_exp(1j * h)
