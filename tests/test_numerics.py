"""Contracts of the dense linear-algebra substrate."""

import numpy as np
import pytest

from kreinlab import numerics
from kreinlab.errors import NotGapped, NotHermitian, SingularMatrix


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


def test_multiset_match():
    assert numerics.multiset_match([1, 1j], [1j + 1e-9, 1], 1e-6)
    assert not numerics.multiset_match([1, 1j], [1, 2], 1e-6)
    assert not numerics.multiset_match([1], [1, 2], 1e-6)
