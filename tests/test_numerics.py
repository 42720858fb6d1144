"""Contracts of the dense linear-algebra substrate."""

import numpy as np
import pytest
import scipy.linalg as sla

from kreinlab import numerics
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
    with pytest.raises(ValueError):
        numerics.solve(np.array([[np.nan, 0], [0, 1.0]]), np.eye(2))


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
    f = numerics.orthonormal_frame(np.diag([3.0, 0.0]), rank_tol=1e-8)
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


def test_lapack_failures_are_typed(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    for name in ("eigvals", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, fail)
    a = np.eye(3)
    for call in (numerics.eigvals, numerics.herm_eig, numerics.orthonormal_frame,
                 numerics.kernel_frame, numerics.polar_unitary):
        with pytest.raises(NoConvergence):
            call(a)
