"""Dense complex-matrix substrate.

Everything downstream depends only on the contracts of this module:
validated inputs, linear solves with singularity detection, general
eigenvalues and hermitian eigendecompositions, orthonormal frames, and the
matrix exponential.  The heavy lifting is delegated to LAPACK through scipy
(Hessenberg + shifted QR for ``eigvals``, scaling-and-squaring for ``expm``);
the contracts and failure modes are owned here.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla

from . import config
from .errors import NoConvergence, NotHermitian, SingularMatrix


def as_matrix(a, *, square=False, name="matrix") -> np.ndarray:
    """Validate and convert to a finite complex 2-D array.

    Raises ``ValueError`` on non-finite entries, empty or non-2-D input.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D array with positive shape, got {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} has non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    return m


def norm(a) -> float:
    """Frobenius norm, the package-wide default."""
    return float(np.linalg.norm(a))


def solve(a, b, tol: config.ToleranceConfig | None = None) -> np.ndarray:
    """Solve A X = B by partial-pivot LU.

    Raises :class:`SingularMatrix` when a pivot falls below
    ``singular_pivot * ||A||``.
    """
    t = config.get(tol)
    a = as_matrix(a, square=True, name="A")
    b = np.asarray(b, dtype=complex)
    vector_input = b.ndim == 1
    if vector_input:
        b = b[:, None]
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    with warnings.catch_warnings():
        # exact singularity is detected below through the pivot check
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    scale = max(norm(a), 1e-300)
    if pivots.min() < t.singular_pivot * scale:
        raise SingularMatrix(
            f"pivot {pivots.min():.3e} below threshold {t.singular_pivot * scale:.3e}")
    x = sla.lu_solve((lu, piv), b, check_finite=False)
    return x[:, 0] if vector_input else x


def eigvals(a) -> np.ndarray:
    """Eigenvalues only (cheaper, used in hot paths)."""
    a = as_matrix(a, square=True, name="A")
    try:
        return sla.eigvals(a, check_finite=False)
    except sla.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(f"QR iteration did not converge: {exc}") from exc


def herm_eig(a, tol: config.ToleranceConfig | None = None):
    """Eigendecomposition of a hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues sorted ascending and
    orthonormal eigenvectors.  Raises :class:`NotHermitian` when
    ``||A - A*|| > herm_rtol * ||A||``.
    """
    t = config.get(tol)
    a = as_matrix(a, square=True, name="A")
    dev = norm(a - a.conj().T)
    if dev > t.herm_rtol * max(norm(a), 1.0):
        raise NotHermitian(f"||A - A*|| = {dev:.3e} exceeds tolerance")
    w, v = sla.eigh((a + a.conj().T) / 2.0, check_finite=False)
    return w, v


def orthonormal_frame(a, rank_tol: float | None = None,
                      tol: config.ToleranceConfig | None = None) -> np.ndarray:
    """Orthonormal basis of the numerical column space of ``a``.

    Rank is decided by singular values above ``rank_tol * max(s_max, 1)``.
    Rank zero returns an ``(n, 0)`` frame.
    """
    t = config.get(tol)
    if rank_tol is None:
        rank_tol = t.rank
    a = as_matrix(a, name="A")
    u, s, _ = sla.svd(a, check_finite=False)
    if s.size == 0:
        return u[:, :0]
    cutoff = rank_tol * max(s[0], 1.0)
    r = int(np.sum(s > cutoff))
    return u[:, :r]


def kernel_frame(a, rank_tol: float | None = None,
                 tol: config.ToleranceConfig | None = None) -> np.ndarray:
    """Orthonormal basis of the numerical null space of ``a``."""
    t = config.get(tol)
    if rank_tol is None:
        rank_tol = t.rank
    a = as_matrix(a, name="A")
    _, s, vh = sla.svd(a, check_finite=False)
    cutoff = rank_tol * max(s[0] if s.size else 0.0, 1.0)
    r = int(np.sum(s > cutoff))
    return vh.conj().T[:, r:]


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring (scipy expm)."""
    a = as_matrix(a, square=True, name="A")
    return sla.expm(a)


def polar_unitary(a) -> np.ndarray:
    """Unitary polar factor of a square matrix (via SVD)."""
    a = as_matrix(a, square=True, name="A")
    u, _, vh = sla.svd(a, check_finite=False)
    return u @ vh


def unitary_log(v, branch_point=1.0 + 0.0j,
                tol: config.ToleranceConfig | None = None) -> np.ndarray:
    """Hermitian h with exp(i h) = v and spectrum of h in the 2-pi window
    opening at ``branch_point``.

    For the default branch point 1 the eigenvalues of h lie in (0, 2*pi),
    so 1 is never in the spectrum of exp(i t h) interpolations that keep
    the window.  Raises :class:`NotGapped` if v has spectrum at the branch
    point (within ``fredholm_cert``).
    """
    from .errors import NotGapped

    t = config.get(tol)
    v = as_matrix(v, square=True, name="v")
    alpha = float(np.angle(branch_point))
    lam = eigvals(v)
    if np.min(np.abs(lam - np.exp(1j * alpha))) < t.fredholm_cert:
        raise NotGapped(
            f"spectrum within {t.fredholm_cert:.1e} of branch point {branch_point}")
    # principal log has its cut on the negative real axis; rotate it to sit
    # at angle alpha, i.e. center the eigenvalue-angle window opposite it
    center = float(np.angle(np.exp(1j * (alpha + np.pi))))
    b = sla.logm(v * np.exp(-1j * center))
    h = -1j * b + center * np.eye(v.shape[0])
    h = (h + h.conj().T) / 2.0
    return h


def multiset_match(left, right, match_tol: float) -> bool:
    """True when two complex multisets agree within ``match_tol`` under the
    optimal pairing."""
    from scipy.optimize import linear_sum_assignment

    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    if left.size != right.size:
        return False
    if left.size == 0:
        return True
    cost = np.abs(left[:, None] - right[None, :])
    rows, cols = linear_sum_assignment(cost)
    return bool(np.all(cost[rows, cols] <= match_tol))
