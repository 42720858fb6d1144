"""Invariance of the global invariants along sampled operator paths."""

import numpy as np
import pytest

from kreinlab import config, krein, numerics, signature
from kreinlab.config import ToleranceConfig
from kreinlab.errors import MembershipError
from kreinlab.realsym import make_real_structure, random_member


def test_sig_constant_along_hermitian_paths():
    rng = np.random.default_rng(0)
    for k in range(5):
        n_plus, n_minus = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        K = krein.make_standard(n_plus, n_minus)
        h0 = krein.random_j_hermitian(K, 2 * k)
        h1 = krein.random_j_hermitian(K, 2 * k + 1)
        sigs = {signature.global_signature((1 - t) * h0 + t * h1, K,
                                           "hermitian").global_sig
                for t in np.linspace(0, 1, 7)}
        assert sigs == {n_plus - n_minus}


def test_sig_constant_along_unitary_paths():
    K = krein.make_standard(2, 1)
    h0 = krein.random_j_hermitian(K, 10)
    h1 = krein.random_j_hermitian(K, 11)
    sigs = set()
    for t in np.linspace(0, 1, 7):
        t_mat = numerics.matrix_exp(1j * ((1 - t) * h0 + t * h1))
        sigs.add(signature.global_signature(t_mat, K, "unitary").global_sig)
    assert sigs == {1}


def test_sig2_constant_along_member_paths():
    # at half-dimension 3 the invariant is pinned at 1; the path machinery
    # must read it identically at every sample
    R = make_real_structure((-1, -1), 3, 3)
    h0 = random_member(R, "hermitian", 20)
    h1 = random_member(R, "hermitian", 21)
    vals = set()
    for t in np.linspace(0, 1, 5):
        t_mat = numerics.matrix_exp(1j * ((1 - t) * h0 + t * h1))
        vals.add(signature.sig2(t_mat, R.K, "unitary"))
    assert vals == {1}
    # and the hermitian reading agrees
    vals_h = {signature.sig2((1 - t) * h0 + t * h1, R.K, "hermitian")
              for t in np.linspace(0, 1, 5)}
    assert vals_h == {1}


def test_tolerance_scaling_env(monkeypatch):
    monkeypatch.setenv("KREINLAB_TOL", "10")
    cfg = ToleranceConfig.from_env()
    base = ToleranceConfig()
    assert cfg.riesz == 10 * base.riesz
    assert cfg.membership == 10 * base.membership
    assert cfg.quad_start == base.quad_start  # integers untouched
    assert cfg.ambiguous_factor == base.ambiguous_factor  # ratio untouched


def test_swapped_default_tolerances_reach_the_checks(monkeypatch):
    """``config.DEFAULT`` is read at call time, so replacing it retunes the
    whole stack: a J-hermitian with membership residual 2e-9 passes the
    default bound 1e-8 and fails it scaled by 1e-2, in the predicate and in
    the invariant that checks membership first."""
    K = krein.make_standard(2, 1)
    h = krein.random_j_hermitian(K, 4) + 1e-9j * np.diag([1.0, 0.0, 0.0])
    assert krein.is_j_hermitian(h, K).residual == pytest.approx(2e-9)
    assert krein.is_j_hermitian(h, K)
    assert signature.global_signature(h, K, "hermitian").global_sig == 1
    monkeypatch.setattr(config, "DEFAULT", config.DEFAULT.scaled(1e-2))
    assert not krein.is_j_hermitian(h, K)
    with pytest.raises(MembershipError):
        signature.global_signature(h, K, "hermitian")
