"""Dense complex-matrix substrate.

Everything downstream depends only on the contracts of this module:
validated inputs, linear solves with singularity detection, general
eigenvalues and hermitian eigendecompositions, orthonormal frames, the
matrix exponential and logarithm, and optimal assignment.  The heavy lifting
is LAPACK: eigenvalues, eigendecompositions and SVDs go through
``numpy.linalg``; the four kernels numpy lacks (``expm``, the complex Schur
form, the LU factorization whose pivots ``solve`` checks, and
``linear_sum_assignment``)
come from scipy, which is imported inside those functions only, so a caller
that never needs them never pays for importing scipy.  This is the only
module that names scipy.  The contracts and failure modes are owned here:
a LAPACK convergence failure surfaces as :class:`NoConvergence`.
"""

from __future__ import annotations

import warnings

import numpy as np

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
    import scipy.linalg as sla

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
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
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
    try:
        return np.linalg.eigh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"hermitian eigensolver did not converge: {exc}") from exc


def _svd(a):
    """Full SVD ``(u, s, vh)`` with a convergence failure typed."""
    try:
        return np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc


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
    u, s, _ = _svd(a)
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
    _, s, vh = _svd(a)
    cutoff = rank_tol * max(s[0] if s.size else 0.0, 1.0)
    r = int(np.sum(s > cutoff))
    return vh.conj().T[:, r:]


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring (scipy expm)."""
    from scipy.linalg import expm

    a = as_matrix(a, square=True, name="A")
    return expm(a)


def polar_unitary(a) -> np.ndarray:
    """Unitary polar factor of a square matrix (via SVD)."""
    a = as_matrix(a, square=True, name="A")
    u, _, vh = _svd(a)
    return u @ vh


def unitary_log(v, branch_point=1.0 + 0.0j,
                tol: config.ToleranceConfig | None = None) -> np.ndarray:
    """Hermitian h with exp(i h) = v and spectrum of h in the 2-pi window
    opening at ``branch_point``.

    For the default branch point 1 the eigenvalues of h lie in (0, 2*pi),
    so 1 is never in the spectrum of exp(i t h) interpolations that keep
    the window.  ``branch_point=None`` places the cut mid-way in the widest
    gap between the eigenphases of v, which keeps the logarithm well posed.
    Raises :class:`NotGapped` if v has spectrum at the branch point (within
    ``fredholm_cert``).

    A unitary is normal, so its complex Schur form v = Z T Z* has T diagonal
    up to rounding: h = Z diag(theta) Z* with the eigenphases theta read from
    diag(T), which also decides the gap.
    """
    from scipy.linalg import schur

    from .errors import NotGapped

    t = config.get(tol)
    v = as_matrix(v, square=True, name="v")
    tri, z = schur(v, output="complex")
    lam = np.diag(tri)
    if branch_point is None:
        angles = np.sort(np.angle(lam))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        branch_point = np.exp(1j * (angles[int(np.argmax(gaps))] + gaps.max() / 2.0))
    alpha = float(np.angle(branch_point))
    if np.min(np.abs(lam - np.exp(1j * alpha))) < t.fredholm_cert:
        raise NotGapped(
            f"spectrum within {t.fredholm_cert:.1e} of branch point {branch_point}")
    # the principal angle has its cut on the negative real axis; rotate it to
    # sit at angle alpha, i.e. center the eigenphase window opposite it
    center = float(np.angle(np.exp(1j * (alpha + np.pi))))
    theta = center + np.angle(lam * np.exp(-1j * center))
    h = (z * theta) @ z.conj().T
    return (h + h.conj().T) / 2.0


def unitary_exp(h, tol: config.ToleranceConfig | None = None) -> np.ndarray:
    """exp(i h) of a hermitian h, from its eigendecomposition
    h = W diag(w) W*: W diag(exp(i w)) W*."""
    w, v = herm_eig(h, tol)
    return (v * np.exp(1j * w)) @ v.conj().T


def block_diag(*blocks) -> np.ndarray:
    """Block-diagonal matrix of 2-D blocks; a ``(0, 0)`` block adds nothing.

    Same result as ``scipy.linalg.block_diag`` for 2-D blocks, including
    the dtype promotion."""
    blocks = [np.atleast_2d(b) for b in blocks]
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def optimal_assignment(cost):
    """Row and column indices of the minimum-cost perfect matching of a
    cost matrix (scipy ``linear_sum_assignment``)."""
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost)
