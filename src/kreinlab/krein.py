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
from .errors import DimensionMismatch, NotHermitian, SingularForm


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


def is_j_unitary(t_mat, K: KreinStructure, tol_value: float | None = None,
                 tol: config.ToleranceConfig | None = None) -> MembershipResult:
    """T* J T = J within tolerance; the residual is always returned."""
    cfg = config.get(tol)
    bound = cfg.membership if tol_value is None else tol_value
    t_mat = numerics.as_matrix(t_mat, square=True, name="T")
    K.check_dim(t_mat)
    res = numerics.norm(t_mat.conj().T @ K.apply(t_mat) - K.J)
    return MembershipResult(res <= bound, res)


def is_j_hermitian(h_mat, K: KreinStructure, tol_value: float | None = None,
                   tol: config.ToleranceConfig | None = None) -> MembershipResult:
    """H* J = J H within tolerance; the residual is always returned."""
    cfg = config.get(tol)
    bound = cfg.membership if tol_value is None else tol_value
    h_mat = numerics.as_matrix(h_mat, square=True, name="H")
    K.check_dim(h_mat)
    res = numerics.norm(h_mat.conj().T @ K.J - K.apply(h_mat))
    return MembershipResult(res <= bound, res)


@dataclass(frozen=True)
class GeneralFormReduction:
    """Conjugators reducing a general invertible hermitian form j to the
    standard J.

    ``W`` satisfies W* J W = j and W* W = |j|; conjugating a j-unitary U as
    W U W^{-1} yields a J-unitary for the standard structure ``K``.
    """

    K: KreinStructure
    W: np.ndarray
    W_inv: np.ndarray
    J_from_j: np.ndarray  # j |j|^{-1} in the original basis


def reduce_general_form(j, tol: config.ToleranceConfig | None = None) -> GeneralFormReduction:
    """Reduce an invertible hermitian form j to the standard structure.

    j = V D V* with D sorted descending gives W = |D|^{1/2} V*; then
    W U W^{-1} is J-unitary whenever U is j-unitary.
    """
    cfg = config.get(tol)
    j = numerics.as_matrix(j, square=True, name="j")
    dev = numerics.norm(j - j.conj().T)
    if dev > cfg.herm_rtol * max(numerics.norm(j), 1.0):
        raise NotHermitian(f"form is not hermitian, deviation {dev:.3e}")
    w, v = numerics.herm_eig(j, tol)
    scale = max(np.abs(w).max(), 1e-300)
    if np.abs(w).min() <= 1e-10 * scale:
        raise SingularForm(
            f"smallest |eigenvalue| {np.abs(w).min():.3e} below 1e-10 * ||j||")
    order = np.argsort(-w)  # descending: positives first
    w = w[order]
    v = v[:, order]
    # fix the eigenvector phase so diagonal forms reduce to diagonal W
    for k in range(v.shape[1]):
        lead = v[np.argmax(np.abs(v[:, k])), k]
        v[:, k] *= np.conj(lead) / abs(lead)
    n_plus = int(np.sum(w > 0))
    n_minus = int(np.sum(w < 0))
    W = (np.sqrt(np.abs(w))[:, None]) * v.conj().T
    W_inv = v * (1.0 / np.sqrt(np.abs(w)))[None, :]
    J_from_j = (v * np.sign(w)) @ v.conj().T
    return GeneralFormReduction(K=make_standard(n_plus, n_minus), W=W,
                                W_inv=W_inv, J_from_j=J_from_j)


def random_j_hermitian(K: KreinStructure, seed, scale: float = 1.0) -> np.ndarray:
    """Random J-hermitian via H = J A with A = A*.

    Membership is exact by algebra: H* J = (JA)* J = A = J (J A) = J H.
    """
    rng = np.random.default_rng(seed)
    n = K.dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (g + g.conj().T) / 2.0
    return K.apply(a) * scale


def random_j_unitary(K: KreinStructure, seed, scale: float = 1.0) -> np.ndarray:
    """Random J-unitary T = exp(i H) with H a random J-hermitian.

    ``scale`` tunes ||H||; values around 1 keep exp well conditioned.
    """
    h = random_j_hermitian(K, seed)
    h = h / max(numerics.norm(h), 1.0) * scale * K.dim ** 0.5
    return numerics.matrix_exp(1j * h)
