"""Contracts of the dense linear-algebra substrate."""

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from kreinlab import config, numerics
from kreinlab.errors import NoConvergence, NotGapped, NotHermitian, SingularMatrix
from helpers import multiset_match


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_solve_identity_returns_rhs():
    b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    x = numerics.solve(np.eye(2), b)
    np.testing.assert_allclose(x, b)


def test_solve_diagonal():
    x = numerics.solve(np.diag([2.0, 0.5]), np.eye(2))
    np.testing.assert_allclose(x, np.diag([0.5, 2.0]))


def test_solve_residual_well_conditioned():
    rng = np.random.default_rng(0)
    a = random_complex(rng, 8) + 4 * np.eye(8)
    b = random_complex(rng, 8)
    x = numerics.solve(a, b)
    assert numerics.norm(a @ x - b) <= 1e-10 * numerics.norm(b) * np.linalg.cond(a)


def test_solve_singular_raises():
    a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(SingularMatrix):
        numerics.solve(a, np.eye(2))


def test_solve_rejects_nonfinite():
    for bad in (np.nan, complex(0, np.inf), complex(np.nan, 0)):
        with pytest.raises(ValueError):
            numerics.solve(np.array([[bad, 0], [0, 1.0]]), np.eye(2))


def test_herm_eig_examples():
    w, v = numerics.herm_eig(np.diag([1.0, -1.0]))
    np.testing.assert_allclose(w, [-1.0, 1.0])
    w, v = numerics.herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [-1.0, 1.0])
    assert numerics.norm(v.conj().T @ v - np.eye(2)) <= 1e-10


def test_herm_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        numerics.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_inertia_congruence_invariant():
    # Sylvester: inertia is invariant under congruence A -> C* A C
    rng = np.random.default_rng(2)
    a = random_complex(rng, 6)
    a = (a + a.conj().T) / 2
    c = random_complex(rng, 6) + 3 * np.eye(6)
    w1, _ = numerics.herm_eig(a)
    w2, _ = numerics.herm_eig(c.conj().T @ a @ c)
    assert (np.sum(w1 > 0), np.sum(w1 < 0)) == (np.sum(w2 > 0), np.sum(w2 < 0))


def test_orthonormal_frame_examples():
    f = numerics.orthonormal_frame(np.diag([3.0, 0.0]))
    assert f.shape == (2, 1)
    np.testing.assert_allclose(np.abs(f[:, 0]), [1.0, 0.0], atol=1e-12)
    f = numerics.orthonormal_frame(np.eye(3))
    assert f.shape == (3, 3)
    np.testing.assert_allclose(f.conj().T @ f, np.eye(3), atol=1e-12)


def test_orthonormal_frame_rank_two():
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a = cols @ (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    f = numerics.orthonormal_frame(a)
    assert f.shape == (4, 2)
    np.testing.assert_allclose(f.conj().T @ f, np.eye(2), atol=1e-10)
    # projector onto range reproduces A
    assert numerics.norm(f @ f.conj().T @ a - a) <= 1e-10 * numerics.norm(a)


def test_kernel_frame():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    k = numerics.kernel_frame(a)
    assert k.shape == (3, 2)
    assert numerics.norm(a @ k) <= 1e-12


def test_matrix_exp_basic():
    np.testing.assert_allclose(numerics.matrix_exp(np.zeros((3, 3))), np.eye(3))
    np.testing.assert_allclose(numerics.matrix_exp(1j * np.pi * np.eye(2)),
                               -np.eye(2), atol=1e-12)


def test_matrix_exp_inverse_pairing():
    rng = np.random.default_rng(4)
    a = random_complex(rng, 6)
    a = a / numerics.norm(a) * 3.0
    prod = numerics.matrix_exp(a) @ numerics.matrix_exp(-a)
    assert numerics.norm(prod - np.eye(6)) <= 1e-9


def test_unitary_log_roundtrip_and_window():
    rng = np.random.default_rng(5)
    g = random_complex(rng, 5)
    q = np.linalg.qr(g)[0]
    v = q @ np.diag(np.exp(1j * rng.uniform(0.3, 5.9, 5))) @ q.conj().T
    h = numerics.unitary_log(v, branch_point=1.0)
    np.testing.assert_allclose(numerics.matrix_exp(1j * h), v, atol=1e-9)
    w = np.linalg.eigvalsh(h)
    assert np.all(w > 0) and np.all(w < 2 * np.pi)


def test_unitary_log_not_gapped():
    with pytest.raises(NotGapped):
        numerics.unitary_log(np.eye(3), branch_point=1.0)
    v = np.diag(np.exp(1j * np.array([0.3, 2.0 + 1e-9, 4.0])))
    with pytest.raises(NotGapped):
        numerics.unitary_log(v, branch_point=np.exp(2.0j))


def logm_reference(v, branch_point):
    """The unitary logarithm through scipy's logm: rotate the principal cut
    to the branch point, take logm, symmetrize."""
    alpha = float(np.angle(branch_point))
    center = float(np.angle(np.exp(1j * (alpha + np.pi))))
    h = -1j * sla.logm(v * np.exp(-1j * center)) + center * np.eye(v.shape[0])
    return (h + h.conj().T) / 2.0


def gapped_unitary(rng, n, branch_point, threefold=False):
    """Random unitary and its eigenphases, which keep at least 0.2 from the
    branch point; with ``threefold`` one eigenvalue is triple, hidden by a
    random unitary similarity."""
    alpha = float(np.angle(branch_point))
    phases = alpha + rng.uniform(0.2, 2 * np.pi - 0.2, n)
    if threefold:
        phases[:3] = phases[0]
    q = np.linalg.qr(random_complex(rng, n))[0]
    return (q * np.exp(1j * phases)) @ q.conj().T, phases


BRANCH_POINTS = (1.0, np.exp(2.0j), np.exp(-0.5j))


@pytest.mark.parametrize("branch_point", BRANCH_POINTS)
def test_unitary_log_schur_matches_logm_and_window(branch_point):
    rng = np.random.default_rng(9)
    # the window (center - pi, center + pi) opens at the branch point
    center = float(np.angle(-branch_point))
    assert abs(np.exp(1j * (center - np.pi)) - branch_point) <= 1e-15
    for n in (1, 2, 4, 7, 16, 30):
        for threefold in ((False, True) if n >= 3 else (False,)):
            v, phases = gapped_unitary(rng, n, branch_point, threefold)
            h = numerics.unitary_log(v, branch_point=branch_point)
            assert numerics.norm(sla.expm(1j * h) - v) <= 1e-12
            assert numerics.norm(h - logm_reference(v, branch_point)) <= 1e-12
            w = np.linalg.eigvalsh(h)
            assert np.all(w > center - np.pi) and np.all(w < center + np.pi)
            want = center + np.angle(np.exp(1j * (phases - center)))
            np.testing.assert_allclose(w, np.sort(want), atol=1e-12)


def test_unitary_exp_matches_expm():
    rng = np.random.default_rng(10)
    for n in (1, 2, 4, 7, 16, 30):
        a = random_complex(rng, n)
        h = (a + a.conj().T) / 2.0
        assert numerics.norm(numerics.unitary_exp(h) - sla.expm(1j * h)) <= 1e-12
        # inverse of unitary_log within its window
        v, _ = gapped_unitary(rng, n, 1.0)
        h = numerics.unitary_log(v)
        assert numerics.norm(numerics.unitary_exp(h) - v) <= 1e-12


def test_unitary_log_widest_gap_branch_point():
    rng = np.random.default_rng(11)
    cases = [np.eye(n, dtype=complex) for n in (1, 2, 7, 16)]
    for n in (1, 2, 7, 16):
        q = np.linalg.qr(random_complex(rng, n))[0]
        cases.append((q * np.exp(1j * rng.uniform(-np.pi, np.pi, n))) @ q.conj().T)
    for v in cases:
        # the cut mid-way in the widest gap between eigenphases
        angles = np.sort(np.angle(np.linalg.eigvals(v)))
        gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
        widest = np.exp(1j * (angles[np.argmax(gaps)] + gaps.max() / 2.0))
        h = numerics.unitary_log(v, branch_point=None)
        want = numerics.unitary_log(v, branch_point=widest)
        assert numerics.norm(h - want) <= 1e-12


def test_multiset_match():
    assert multiset_match([1, 1j], [1j + 1e-9, 1], 1e-6)
    assert not multiset_match([1, 1j], [1, 2], 1e-6)
    assert not multiset_match([1], [1, 2], 1e-6)


# ------------------------------------------------ numpy kernels vs scipy

SIZES = (1, 2, 4, 7, 10, 16, 30)


def test_block_diag_matches_scipy():
    rng = np.random.default_rng(6)
    skew = np.array([[0.0, -1.0], [1.0, 0.0]])
    empty = np.zeros((0, 0))
    cases = [
        (skew,), (skew, skew, skew),
        # make_real_structure with n_plus or n_minus zero
        (empty, skew), (skew, empty), (empty, np.eye(4)),
        (np.eye(2), random_complex(rng, 3), rng.standard_normal((2, 3))),
        (np.arange(3),), (np.array([[1]], dtype=int), np.eye(2)),
    ]
    for blocks in cases:
        got, want = numerics.block_diag(*blocks), sla.block_diag(*blocks)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_eigvals_and_frames_bit_equal_to_scipy():
    rng = np.random.default_rng(7)
    for n in SIZES:
        a = random_complex(rng, n)
        assert np.array_equal(numerics.eigvals(a), sla.eigvals(a))
        u, s, vh = sla.svd(a)
        assert np.array_equal(numerics.polar_unitary(a), u @ vh)
        # rank-deficient: the frames cut the scipy factors at the same rank
        k = max(n // 2, 1)
        low = random_complex(rng, n, k) @ random_complex(rng, k, n)
        u, s, vh = sla.svd(low)
        r = int(np.sum(s > 1e-8 * max(s[0], 1.0)))
        assert np.array_equal(numerics.orthonormal_frame(low), u[:, :r])
        assert np.array_equal(numerics.kernel_frame(low), vh.conj().T[:, r:])


def test_herm_eig_matches_scipy_eigenvalues_and_inertia():
    rng = np.random.default_rng(8)
    for n in SIZES:
        a = random_complex(rng, n)
        a = (a + a.conj().T) / 2.0
        w, v = numerics.herm_eig(a)
        ref = sla.eigh(a, eigvals_only=True)
        assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert (np.sum(w > 0), np.sum(w < 0)) == (np.sum(ref > 0), np.sum(ref < 0))
        assert numerics.norm(a @ v - v * w) <= 1e-12 * numerics.norm(a)


def test_eig_values_are_eigvals_bit_for_bit():
    # spectral_partition clusters eig's eigenvalues where it clustered
    # eigvals' before; bit equality keeps every cluster and region tag
    rng = np.random.default_rng(14)
    for _ in range(400):
        n = int(rng.integers(1, 17))
        a = random_complex(rng, n)
        w, v = numerics.eig(a)
        assert np.array_equal(w, numerics.eigvals(a))
        assert numerics.norm(a @ v - v * w) <= 1e-12 * max(numerics.norm(a), 1.0)


def test_lapack_failures_are_typed(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    for name in ("eigvals", "eig", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, fail)
    a = np.eye(3)
    for call in (numerics.eigvals, numerics.eig, numerics.herm_eig,
                 numerics.orthonormal_frame, numerics.kernel_frame,
                 lambda p: numerics.range_frame(p, 2),
                 numerics.polar_unitary, numerics.unitary_log):
        with pytest.raises(NoConvergence):
            call(a)


def assignment_cases(rng):
    """Cost matrices of every shape up to 9x9: real, integer with ties,
    distances between two point sets as the path tracker builds them (whose
    matchings often tie in total cost up to rounding), and real with
    forbidden (inf) entries, some of which leave no matching."""
    for k in range(7500):
        n, m = (int(x) for x in rng.integers(1, 10, 2))
        if k % 5 == 0:
            yield rng.standard_normal((n, m))
        elif k % 5 == 1:
            yield rng.integers(0, 3, (n, m))
        elif k % 5 == 2:
            yield rng.integers(-2, 3, (n, m)).astype(float)
        elif k % 5 == 3:
            a, b = random_complex(rng, n, 1), random_complex(rng, 1, m)
            yield np.abs(a - b) if k % 2 else np.abs(a.real - b.real)
        else:
            c = rng.random((n, m))
            c[rng.random((n, m)) < 0.4] = np.inf
            yield c


def test_optimal_assignment_matches_scipy():
    rng = np.random.default_rng(12)
    shapes, matched, infeasible = set(), 0, 0
    for cost in assignment_cases(rng):
        n, m = cost.shape
        shapes.add((n > m) - (n < m))
        try:
            want = linear_sum_assignment(cost)
        except ValueError:
            infeasible += 1
            with pytest.raises(ValueError):
                numerics.optimal_assignment(cost)
            continue
        rows, cols = numerics.optimal_assignment(cost)
        assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])
        assert rows.dtype == want[0].dtype and cols.dtype == want[1].dtype
        matched += 1
    assert shapes == {-1, 0, 1} and matched >= 5000 and infeasible > 0
    rows, cols = numerics.optimal_assignment([[3.0]])
    assert rows.tolist() == [0] and cols.tolist() == [0]
    # a constant cost matrix is matched by the identity, as in scipy
    rows, cols = numerics.optimal_assignment(np.ones((4, 4)))
    assert cols.tolist() == [0, 1, 2, 3]


def test_optimal_assignment_rejects_invalid_costs():
    for cost in ([[0.0, np.nan], [1.0, 2.0]], [[-np.inf, 1.0], [1.0, 2.0]],
                 [[np.inf, np.inf], [1.0, 2.0]], [1.0, 2.0]):
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)
        with pytest.raises(ValueError):
            numerics.optimal_assignment(cost)


def schur_log_reference(v, branch_point):
    """The unitary logarithm from the complex Schur form v = Z T Z*: the
    eigenphases are read from diag(T), the cut is placed as
    :func:`numerics.unitary_log` places it, and h = Z diag(theta) Z*."""
    tri, z = sla.schur(v, output="complex")
    lam = np.diag(tri)
    if branch_point is None:
        angles = np.sort(np.angle(lam))
        gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
        branch_point = np.exp(1j * (angles[np.argmax(gaps)] + gaps.max() / 2.0))
    center = float(np.angle(-branch_point))
    theta = center + np.angle(lam * np.exp(-1j * center))
    h = (z * theta) @ z.conj().T
    return (h + h.conj().T) / 2.0


@pytest.mark.parametrize("branch_point", (1.0, np.exp(2.0j), None))
def test_unitary_log_matches_schur_reference(branch_point):
    rng = np.random.default_rng(13)
    cases = [] if branch_point == 1.0 else [np.eye(n, dtype=complex)
                                             for n in (1, 3, 16)]
    alpha = 0.0 if branch_point is None else float(np.angle(branch_point))
    for n in range(1, 17):
        for repeats in (1, 2, n):
            # eigenphases keep 0.2 from the branch point; with repeats > 1
            # only n // repeats distinct values, each of them repeated
            distinct = alpha + rng.uniform(0.2, 2 * np.pi - 0.2, max(n // repeats, 1))
            phases = rng.permutation(np.resize(distinct, n))
            q = np.linalg.qr(random_complex(rng, n))[0]
            cases.append((q * np.exp(1j * phases)) @ q.conj().T)
    for v in cases:
        h = numerics.unitary_log(v, branch_point=branch_point)
        assert numerics.norm(h - schur_log_reference(v, branch_point)) <= 1e-12


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_solve_singular_exactly_when_lu_pivot_is_small():
    rng = np.random.default_rng(14)
    threshold = config.DEFAULT.singular_pivot
    raised = solved = 0
    for k in range(600):
        n = int(rng.integers(1, 12))
        if k % 3 == 0:
            a = random_complex(rng, n)
        elif k % 3 == 1:
            r = int(rng.integers(0, n))
            a = random_complex(rng, n, r) @ random_complex(rng, r, n)
        else:
            a = rng.integers(-1, 2, (n, n)).astype(complex)
        lu, _ = sla.lu_factor(a)
        smallest = np.abs(np.diag(lu)).min()
        singular = smallest < threshold * max(numerics.norm(a), 1e-300)
        if k % 3 == 0:
            # the same row choices as LAPACK, hence the same pivots
            assert abs(numerics._smallest_lu_pivot(a) - smallest) \
                <= 1e-12 * numerics.norm(a)
        b = random_complex(rng, n, 2)
        if singular:
            raised += 1
            with pytest.raises(SingularMatrix):
                numerics.solve(a, b)
        else:
            solved += 1
            x = numerics.solve(a, b)
            np.testing.assert_allclose(x, sla.lu_solve((lu, _), b),
                                       rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(numerics.solve(a, b[:, 0]), x[:, 0])
    assert raised >= 150 and solved >= 150
