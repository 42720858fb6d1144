"""Scalar and operator Cayley transforms with invariant transport."""

import numpy as np
import pytest

from kreinlab import cayley, krein, numerics, signature
from kreinlab.errors import SpectrumTooClose
from helpers import multiset_match


def test_params_validation():
    with pytest.raises(ValueError):
        cayley.CayleyParams(z=1.0)
    with pytest.raises(ValueError):
        cayley.CayleyParams(z=1j, zeta=2.0)


def test_scalar_map_special_points():
    p = cayley.CayleyParams(z=1j, zeta=1.0)
    assert cayley.cayley_scalar(p, 1j) == 0
    np.testing.assert_allclose(cayley.cayley_scalar(p, 0.0), -1.0)
    assert np.isinf(cayley.cayley_scalar(p, -1j).real)
    np.testing.assert_allclose(cayley.cayley_scalar(p, cayley.INF), 1.0)
    np.testing.assert_allclose(cayley.cayley_inv_scalar(p, 1.0 + 0j).real,
                               np.inf)
    np.testing.assert_allclose(cayley.cayley_inv_scalar(p, cayley.INF), -1j)


def test_scalar_roundtrip_random():
    rng = np.random.default_rng(0)
    p = cayley.CayleyParams(z=0.3 + 0.8j, zeta=np.exp(0.4j))
    for _ in range(100):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        back = cayley.cayley_inv_scalar(p, cayley.cayley_scalar(p, lam))
        np.testing.assert_allclose(back, lam, atol=1e-10 * (1 + abs(lam) ** 2))


def test_scalar_maps_reals_onto_circle():
    p = cayley.CayleyParams(z=1j, zeta=1.0)
    grid = np.linspace(-50, 50, 401)
    images = np.array([cayley.cayley_scalar(p, x) for x in grid])
    np.testing.assert_allclose(np.abs(images), 1.0, atol=1e-10)
    # injective on the grid
    assert len(np.unique(np.round(images, 12))) == len(grid)


def test_cayley_op_zero():
    K = krein.make_standard(1, 1)
    t_mat = cayley.cayley_op(np.zeros((2, 2)), K)
    np.testing.assert_allclose(t_mat, -np.eye(2), atol=1e-12)


def test_cayley_op_diagonal_matches_scalar_map():
    K = krein.make_standard(1, 1)
    t_mat = cayley.cayley_op(K.J, K)
    np.testing.assert_allclose(t_mat, np.diag([-1j, 1j]), atol=1e-12)


def test_cayley_op_membership_random():
    K = krein.make_standard(2, 2)
    for seed in range(5):
        h = krein.random_j_hermitian(K, seed)
        t_mat = cayley.cayley_op(h, K)
        assert krein.is_j_unitary(t_mat, K).residual <= 1e-8
        lam_h = numerics.eigvals(h)
        lam_t = numerics.eigvals(t_mat)
        p = cayley.CayleyParams()
        mapped = [cayley.cayley_scalar(p, l) for l in lam_h]
        assert multiset_match(lam_t, mapped, 1e-6)


def test_cayley_op_spectrum_too_close():
    K = krein.make_standard(1, 1)
    h = 1j * np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-i = z
    with pytest.raises(SpectrumTooClose):
        cayley.cayley_op(h, K)


def test_cayley_inv_op_examples():
    K = krein.make_standard(1, 1)
    np.testing.assert_allclose(cayley.cayley_inv_op(-np.eye(2), K),
                               np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(cayley.cayley_inv_op(np.diag([-1j, 1j]), K),
                               K.J, atol=1e-12)


def test_cayley_roundtrip_random_unitaries():
    K = krein.make_standard(2, 1)
    for seed in range(20):
        t_mat = krein.random_j_unitary(K, seed)
        p = cayley.CayleyParams(z=1j, zeta=cayley.pick_zeta(
            numerics.eigvals(t_mat)))
        h = cayley.cayley_inv_op(t_mat, K, p)
        assert krein.is_j_hermitian(h, K).residual <= 1e-7
        back = cayley.cayley_op(h, K, p)
        assert numerics.norm(back - t_mat) <= 1e-7 * (1 + numerics.norm(t_mat))


def test_pick_zeta_avoids_spectrum():
    lam = np.exp(1j * np.linspace(0, np.pi, 9))
    zeta = cayley.pick_zeta(lam)
    assert abs(abs(zeta) - 1) < 1e-12
    assert np.min(np.abs(lam - zeta)) > 0.5


def test_transport_j():
    K = krein.make_standard(2, 1)
    rep = cayley.transport_report(K.J, K)
    assert rep.sig_equal and rep.inertia_equal
    assert rep.hermitian_report.global_sig == 1


def test_transport_index_block():
    h, K = signature.build_index_example(np.zeros((2, 1)))
    rep = cayley.transport_report(h, K)
    assert rep.sig_equal and rep.inertia_equal
    assert rep.unitary_report.global_sig == -1


def test_transport_random():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n_plus, n_minus = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        K = krein.make_standard(n_plus, n_minus)
        h = krein.random_j_hermitian(K, seed)
        rep = cayley.transport_report(h, K)
        assert rep.sig_equal and rep.inertia_equal


def test_real_symmetry_compatibility():
    # purely imaginary z and zeta in {-1, 1} preserve real-symmetric members
    from kreinlab.realsym import is_member, make_real_structure, random_member

    for kind in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        dims = (2, 2)
        R = make_real_structure(kind, *dims)
        h = random_member(R, "hermitian", seed=hash(kind) % 1000)
        p = cayley.CayleyParams(z=1j, zeta=-1.0)
        t_mat = cayley.cayley_op(h, R.K, p)
        member = is_member(t_mat, R, "unitary")
        assert member.ok, (kind, member.residual)
