"""Dense complex-matrix substrate.

Everything downstream depends only on the contracts of this module:
validated inputs, linear solves with singularity detection, general
eigenvalues and eigendecompositions, hermitian eigendecompositions,
orthonormal frames, the matrix exponential and logarithm, and optimal
assignment.  The heavy lifting is LAPACK through ``numpy.linalg``:
eigenvalues, eigendecompositions, QR, SVDs and the solves themselves.  Three
kernels numpy lacks are written here over it: the partial-pivot LU pivots
that ``solve`` checks, the unitary logarithm (eigenvectors orthonormalized
by QR in place of a Schur form), and the shortest-augmenting-path
assignment.  One kernel is left to scipy:
``matrix_exp`` (``expm``), which imports scipy inside the function, so a
caller that never needs it never pays for importing scipy.  This is the only
module that names scipy.  The contracts and failure modes are owned here:
a LAPACK convergence failure surfaces as :class:`NoConvergence`.
"""

from __future__ import annotations

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
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    return m


def norm(a) -> float:
    """Frobenius norm, the package-wide default."""
    return float(np.linalg.norm(a))


def _smallest_lu_pivot(a) -> float:
    """Smallest |U_kk| of the partial-pivot LU factorization P A = L U.

    Rows are chosen as LAPACK's ``getrf`` chooses them: the first row whose
    entry in the pivot column has the largest |Re| + |Im|.  The elimination
    runs on Python complex scalars, which beats numpy's per-call overhead at
    the small sizes this package solves.
    """
    rows = a.tolist()
    smallest = float("inf")
    while rows:
        p, best = 0, -1.0
        for i, row in enumerate(rows):
            z = row[0]
            size = abs(z.real) + abs(z.imag)
            if size > best:
                p, best = i, size
        pivot = rows[p]
        rows[p] = rows[0]
        d = pivot[0]
        smallest = min(smallest, abs(d))
        tail = pivot[1:]
        r = 1.0 / d if d else 0.0
        rest = []
        for row in rows[1:]:
            f = row[0] * r
            rest.append([x - f * y for x, y in zip(row[1:], tail)] if f else row[1:])
        rows = rest
    return smallest


def solve(a, b) -> np.ndarray:
    """Solve A X = B by partial-pivot LU.

    Raises :class:`SingularMatrix` when a pivot falls below
    ``singular_pivot * ||A||``.
    """
    a = as_matrix(a, square=True, name="A")
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    smallest = _smallest_lu_pivot(a)
    threshold = config.DEFAULT.singular_pivot * max(norm(a), 1e-300)
    if smallest < threshold:
        raise SingularMatrix(
            f"pivot {smallest:.3e} below threshold {threshold:.3e}")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"LU factorization failed: {exc}") from exc


def eigvals(a) -> np.ndarray:
    """Eigenvalues only (cheaper, used in hot paths)."""
    a = as_matrix(a, square=True, name="A")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"QR iteration did not converge: {exc}") from exc


def eig(a):
    """Eigenvalues and right eigenvectors ``(w, v)`` with ``A v = v diag(w)``.

    ``w`` is bit-identical to :func:`eigvals` of the same matrix, so
    clusters built from either agree: both run LAPACK's ``geev``, and at
    these sizes (below ``hseqr``'s crossover n = 75) its QR iteration on
    the active block is the same whether or not it also accumulates the
    Schur vectors.
    """
    a = as_matrix(a, square=True, name="A")
    try:
        return np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"QR iteration did not converge: {exc}") from exc


def herm_eig(a):
    """Eigendecomposition of a hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues sorted ascending and
    orthonormal eigenvectors.  Raises :class:`NotHermitian` when
    ``||A - A*|| > herm_rtol * ||A||``.
    """
    a = as_matrix(a, square=True, name="A")
    dev = norm(a - a.conj().T)
    if dev > config.DEFAULT.herm_rtol * max(norm(a), 1.0):
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


def range_frame(p, rank: int) -> np.ndarray:
    """Orthonormal frame of the range of a projection ``p`` of known rank:
    its first ``rank`` left singular vectors."""
    return _svd(p)[0][:, :rank]


def orthonormal_frame(a) -> np.ndarray:
    """Orthonormal basis of the numerical column space of ``a``.

    Rank is decided by singular values above ``rank * max(s_max, 1)``.
    Rank zero returns an ``(n, 0)`` frame.
    """
    a = as_matrix(a, name="A")
    u, s, _ = _svd(a)
    if s.size == 0:
        return u[:, :0]
    cutoff = config.DEFAULT.rank * max(s[0], 1.0)
    r = int(np.sum(s > cutoff))
    return u[:, :r]


def kernel_frame(a) -> np.ndarray:
    """Orthonormal basis of the numerical null space of ``a``."""
    a = as_matrix(a, name="A")
    _, s, vh = _svd(a)
    cutoff = config.DEFAULT.rank * max(s[0] if s.size else 0.0, 1.0)
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


def unitary_log(v, branch_point=1.0 + 0.0j) -> np.ndarray:
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
    diag(T), which also decides the gap.  Z comes without a Schur routine:
    LAPACK's ``geev`` returns the eigenvectors as V = Z X with X upper
    triangular, so the Q factor of V equals Z up to column phases, which
    cancel in Z diag(theta) Z*.
    """
    from .errors import NotGapped

    v = as_matrix(v, square=True, name="v")
    try:
        lam, vec = np.linalg.eig(v)
        z = np.linalg.qr(vec)[0]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    if branch_point is None:
        angles = np.sort(np.angle(lam))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        branch_point = np.exp(1j * (angles[int(np.argmax(gaps))] + gaps.max() / 2.0))
    alpha = float(np.angle(branch_point))
    bound = config.DEFAULT.fredholm_cert
    if np.min(np.abs(lam - np.exp(1j * alpha))) < bound:
        raise NotGapped(
            f"spectrum within {bound:.1e} of branch point {branch_point}")
    # the principal angle has its cut on the negative real axis; rotate it to
    # sit at angle alpha, i.e. center the eigenphase window opposite it
    center = float(np.angle(np.exp(1j * (alpha + np.pi))))
    theta = center + np.angle(lam * np.exp(-1j * center))
    h = (z * theta) @ z.conj().T
    return (h + h.conj().T) / 2.0


def unitary_exp(h) -> np.ndarray:
    """exp(i h) of a hermitian h, from its eigendecomposition
    h = W diag(w) W*: W diag(exp(i w)) W*."""
    w, v = herm_eig(h)
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


def _augmenting_paths(rows, nr: int, nc: int) -> list[int]:
    """Column of each row in the minimum-cost matching of the ``nr x nc``
    cost lists ``rows`` (nr <= nc), one shortest augmenting path per row."""
    inf = float("inf")
    u = [0.0] * nr                  # dual variables of rows and columns
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    path = [-1] * nc
    for cur in range(nr):
        # Dijkstra from row ``cur`` over reduced costs to a free column
        spc = [inf] * nc            # shortest path cost to each column
        seen_rows, seen_cols = [], []
        remaining = list(range(nc - 1, -1, -1))
        i, min_val = cur, 0.0
        while True:
            seen_rows.append(i)
            ci, ui = rows[i], u[i]
            lowest, index = inf, -1
            for it, j in enumerate(remaining):
                # scipy's order of operations, so near-ties round alike
                r = min_val + ci[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            if lowest == inf:
                raise ValueError("cost matrix is infeasible")
            min_val = lowest
            j = remaining[index]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            i = row4col[j]
            if i == -1:
                break
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - spc[j]
        # augment along the path ending at the free column j
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def optimal_assignment(cost):
    """Row and column indices of the minimum-cost matching of a real cost
    matrix: every row is matched when it has no more rows than columns,
    every column otherwise.  Same indices as scipy's
    ``linear_sum_assignment``.

    Shortest augmenting paths (Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016), in scipy's order: one row at a
    time, columns scanned from the last, and among equal path costs an
    unassigned column is preferred, so integer costs with ties match too.
    Raises ``ValueError`` on NaN or -inf entries and when no matching of
    finite cost exists.
    """
    inf = float("inf")
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2:
        raise ValueError(f"expected a 2-D cost matrix, got shape {c.shape}")
    transpose = c.shape[1] < c.shape[0]
    if transpose:
        c = c.T
    nr, nc = c.shape
    if nr == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    low = c.min()
    if low != low or low == -inf:
        raise ValueError("cost matrix contains NaN or -inf entries")
    col4row = _augmenting_paths(c.tolist(), nr, nc)
    if transpose:
        order = np.argsort(col4row)
        return np.array(col4row, dtype=np.intp)[order], order
    return np.arange(nr, dtype=np.intp), np.array(col4row, dtype=np.intp)
