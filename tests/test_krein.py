"""Krein structures, membership predicates, generators, and group laws."""

import numpy as np
import pytest

from kreinlab import krein, numerics
from kreinlab.errors import DimensionMismatch
from helpers import multiset_match


def finex_matrix(t, sigma=1, sigma_prime=1):
    c, s = np.cosh(t), np.sinh(t)
    return np.array([[sigma * c, sigma_prime * s],
                     [-sigma_prime * s, -sigma * c]], dtype=complex)


def test_make_standard_examples():
    K = krein.make_standard(1, 1)
    np.testing.assert_allclose(K.J, np.diag([1.0, -1.0]))
    np.testing.assert_allclose(krein.make_standard(2, 0).J, np.eye(2))
    np.testing.assert_allclose(krein.make_standard(0, 3).J, -np.eye(3))
    with pytest.raises(ValueError):
        krein.make_standard(0, 0)


def test_is_j_unitary_examples():
    K = krein.make_standard(1, 1)
    assert krein.is_j_unitary(K.J, K)
    for t in (0.0, 0.7, 2.0):
        for sigma in (-1, 1):
            for sigma_p in (-1, 1):
                member = krein.is_j_unitary(finex_matrix(t, sigma, sigma_p), K)
                assert member.ok, (t, sigma, sigma_p, member.residual)
    bad = krein.is_j_unitary(np.diag([2.0, 1.0]), K)
    assert not bad.ok
    np.testing.assert_allclose(bad.residual, 3.0)
    with pytest.raises(DimensionMismatch):
        krein.is_j_unitary(np.eye(3), K)


def test_is_j_hermitian_examples():
    K = krein.make_standard(1, 1)
    assert krein.is_j_hermitian(K.J, K)
    assert krein.is_j_hermitian(1j * np.array([[0, 1], [1, 0]]), K)
    assert not krein.is_j_hermitian(np.diag([1j, 0.0]), K)


def test_random_j_hermitian_membership_exact():
    for seed in range(5):
        K = krein.make_standard(2, 3)
        h = krein.random_j_hermitian(K, seed)
        assert krein.is_j_hermitian(h, K).residual <= 1e-12


def test_random_j_hermitian_h_equals_j_case():
    # H = J A with A = 1 gives H = J, trivially J-hermitian
    K = krein.make_standard(2, 1)
    assert krein.is_j_hermitian(K.apply(np.eye(3)), K).residual <= 1e-14


def test_random_j_unitary_membership():
    for seed in range(5):
        K = krein.make_standard(2, 2)
        t_mat = krein.random_j_unitary(K, seed)
        assert krein.is_j_unitary(t_mat, K).residual <= 1e-8
    # H = 0 gives T = 1
    np.testing.assert_allclose(
        numerics.matrix_exp(1j * np.zeros((2, 2))), np.eye(2))


def test_group_law_products_and_inverses():
    K = krein.make_standard(2, 1)
    a = krein.random_j_unitary(K, 10)
    b = krein.random_j_unitary(K, 11)
    assert krein.is_j_unitary(a @ b, K).residual <= 1e-7
    assert krein.is_j_unitary(np.linalg.inv(a), K).residual <= 1e-7


def test_real_linear_combinations_of_j_hermitians():
    K = krein.make_standard(2, 2)
    h1 = krein.random_j_hermitian(K, 20)
    h2 = krein.random_j_hermitian(K, 21)
    assert krein.is_j_hermitian(0.3 * h1 - 1.7 * h2, K).residual <= 1e-10


def test_spectral_reflection_properties():
    K = krein.make_standard(2, 2)
    t_mat = krein.random_j_unitary(K, 30)
    lam = numerics.eigvals(t_mat)
    assert multiset_match(lam, 1.0 / np.conj(lam), 1e-6)
    h = krein.random_j_hermitian(K, 31)
    mu = numerics.eigvals(h)
    assert multiset_match(mu, np.conj(mu), 1e-6)
