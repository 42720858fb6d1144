"""Krein inertia, global signature, secondary invariants, index example."""

import numpy as np
import pytest

from kreinlab import krein, numerics, signature, spectral
from kreinlab.errors import DegenerateForm, MembershipError, OddDimension
from tests.test_krein import finex_matrix


def classified(a, K, kind):
    return spectral.spectral_partition(a, kind)


def test_inertia_finex():
    K = krein.make_standard(1, 1)
    for sigma in (1, -1):
        part = classified(finex_matrix(0.9, sigma=sigma), K, "unitary")
        by_center = {round(c.center.real): c for c in part.clusters}
        nu_plus1 = signature.inertia(by_center[1], K)
        nu_minus1 = signature.inertia(by_center[-1], K)
        if sigma == 1:
            assert nu_plus1.as_tuple() == (1, 0)
            assert nu_minus1.as_tuple() == (0, 1)
        else:
            assert nu_plus1.as_tuple() == (0, 1)
            assert nu_minus1.as_tuple() == (1, 0)


def test_inertia_identity_double():
    K = krein.make_standard(1, 1)
    part = classified(np.eye(2, dtype=complex), K, "unitary")
    nu = signature.inertia(part.clusters[0], K)
    assert nu.as_tuple() == (1, 1)


def test_inertia_two_by_two_eigenvector_oracle():
    # oracle: v = (1, sqrt(3) - 2) spans the sqrt(3)-eigenspace and
    # v* J v = 4 sqrt(3) - 6 > 0; the mirror eigenvector gives the negative
    K = krein.make_standard(1, 1)
    h = np.array([[2.0, 1.0], [-1.0, -2.0]], dtype=complex)
    v = np.array([1.0, np.sqrt(3) - 2.0])
    assert (h @ v - np.sqrt(3) * v).max() < 1e-12
    assert v @ K.J.real @ v > 0
    part = classified(h, K, "hermitian")
    by_sign = {int(np.sign(c.center.real)): c for c in part.clusters}
    assert signature.inertia(by_sign[1], K).as_tuple() == (1, 0)
    assert signature.inertia(by_sign[-1], K).as_tuple() == (0, 1)


def test_inertia_off_circle_is_zero():
    K = krein.make_standard(1, 1)
    t_mat = np.array([[np.cosh(np.log(2)), np.sinh(np.log(2))],
                      [np.sinh(np.log(2)), np.cosh(np.log(2))]], dtype=complex)
    part = classified(t_mat, K, "unitary")
    for c in part.clusters:
        assert signature.inertia(c, K).as_tuple() == (0, 0)


def test_degenerate_form_raises():
    K = krein.make_standard(1, 1)
    frame = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)
    with pytest.raises(DegenerateForm):
        signature.form_inertia(frame, K)


def test_global_signature_j_itself():
    for n_plus, n_minus in ((1, 1), (2, 1), (3, 2)):
        K = krein.make_standard(n_plus, n_minus)
        rep = signature.global_signature(K.J, K, "hermitian")
        assert rep.global_sig == n_plus - n_minus
        assert rep.matches_finite_dimension_law


def test_global_signature_random_law():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n_plus = int(rng.integers(1, 5))
        n_minus = int(rng.integers(1, 5))
        K = krein.make_standard(n_plus, n_minus)
        h = krein.random_j_hermitian(K, seed)
        assert signature.global_signature(h, K, "hermitian").global_sig == \
            n_plus - n_minus
        t_mat = krein.random_j_unitary(K, seed + 100)
        assert signature.global_signature(t_mat, K, "unitary").global_sig == \
            n_plus - n_minus


def test_global_signature_pairing_annotation():
    K = krein.make_standard(2, 2)
    t_mat = krein.random_j_unitary(K, 3)
    rep = signature.global_signature(t_mat, K, "unitary")
    for i, row in enumerate(rep.rows):
        if row.region in ("inside-disc", "outside-disc"):
            j = row.paired_with
            assert j is not None
            target = 1.0 / np.conj(row.center)
            assert abs(rep.rows[j].center - target) <= 1e-6 * (1 + abs(target))


def test_global_signature_membership_gate():
    K = krein.make_standard(1, 1)
    with pytest.raises(MembershipError):
        signature.global_signature(np.diag([2.0, 1.0]), K, "unitary")


def test_sig2_identity_dim4():
    from kreinlab.realsym import make_real_structure
    R = make_real_structure((-1, -1), 2, 2)
    assert signature.sig2(np.eye(4, dtype=complex), R.K, "unitary") == 0


def test_sig2_hermitian_zero_dim4():
    from kreinlab.realsym import make_real_structure
    R = make_real_structure((-1, -1), 2, 2)
    assert signature.sig2(np.zeros((4, 4)), R.K, "hermitian") == 0


def test_sig2_six_dim_block_construction():
    from kreinlab.fixtures import build_sig2_example
    t_mat, R = build_sig2_example()
    lam = np.sort_complex(np.linalg.eigvals(t_mat))
    np.testing.assert_allclose(
        lam, np.sort_complex(np.array([2, 2, 0.5, 0.5, 1j, -1j])), atol=1e-8)
    assert signature.sig2(t_mat, R.K, "unitary") == 1


def test_sig2_odd_dimension_raises():
    # a J-unitary with a single circle eigenvalue: rotation + boost
    a = np.log(2.0)
    boost = np.array([[np.cosh(a), np.sinh(a)], [np.sinh(a), np.cosh(a)]])
    t_mat = np.zeros((3, 3), dtype=complex)
    t_mat[0, 0] = np.exp(0.4j)
    t_mat[1:, 1:] = boost
    K = krein.make_standard(2, 1)
    assert krein.is_j_unitary(t_mat, K).ok
    with pytest.raises(OddDimension):
        signature.sig2(t_mat, K, "unitary")


def test_sec_finex():
    K = krein.make_standard(1, 1)
    assert signature.sec(finex_matrix(0.5, sigma=1), K) == 1
    assert signature.sec(finex_matrix(0.5, sigma=-1), K) == 1


def test_sec_no_eigenvalue_at_one():
    K = krein.make_standard(1, 1)
    t_mat = np.diag([np.exp(0.5j), np.exp(-0.5j)])
    assert signature.sec(t_mat, K) == 0


def test_sec_direct_sum_additivity():
    # two pinned +1 eigenvalues of equal signature: Sig(1) = 2 -> Sec = 0
    K = krein.make_standard(2, 2)
    blocks = [finex_matrix(0.3), finex_matrix(0.8)]
    t_mat = np.zeros((4, 4), dtype=complex)
    # interleave so J ordering (+,+,-,-) matches the block (+,-) gradings
    idx = [[0, 2], [1, 3]]
    for b, rows in zip(blocks, idx):
        for i, ri in enumerate(rows):
            for j, rj in enumerate(rows):
                t_mat[ri, rj] = b[i, j]
    assert krein.is_j_unitary(t_mat, K).ok
    assert signature.sec(t_mat, K) == 0
    rep = signature.global_signature(t_mat, K, "unitary")
    at_one = [r for r in rep.rows if abs(r.center - 1) < 1e-6]
    assert sum(r.sig for r in at_one) == 2


def test_build_index_example_scalar():
    h, K = signature.build_index_example(np.array([[1.0]]))
    np.testing.assert_allclose(h, 1j * np.array([[0, 1], [1, 0]]), atol=1e-12)
    assert signature.global_signature(h, K, "hermitian").global_sig == 0


def test_build_index_example_zero_map():
    h, K = signature.build_index_example(np.zeros((2, 1)))
    assert (K.n_plus, K.n_minus) == (1, 2)
    assert signature.global_signature(h, K, "hermitian").global_sig == -1


def test_build_index_example_rank_deficient():
    rng = np.random.default_rng(4)
    cols = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a = cols @ (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    rank = np.linalg.matrix_rank(a, tol=1e-10)
    assert rank == 2
    h, K = signature.build_index_example(a)
    assert krein.is_j_hermitian(h, K).ok
    assert numerics.norm(h + h.conj().T) <= 1e-12  # skew-adjoint
    sig = signature.global_signature(h, K, "hermitian").global_sig
    assert sig == (3 - rank) - (4 - rank) == -1
