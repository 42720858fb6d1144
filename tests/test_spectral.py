"""Riesz projections, clustering, region classification, correctors."""

import numpy as np
import pytest

from kreinlab import krein, numerics, retraction, signature, spectral
from kreinlab.errors import (AmbiguousClassification, NoSeparatingContour,
                             QuadratureDivergence, UnmatchedReflection)
from kreinlab.realsym import make_real_structure, random_member


def test_cluster_eigenvalues_examples():
    assert spectral.cluster_eigenvalues([1.0, -1.0], 0.1) == [[1], [0]]
    assert spectral.cluster_eigenvalues([1.0, 1.0 + 1e-12], 1e-8) == [[0, 1]]
    groups = spectral.cluster_eigenvalues([1.0, -1.0], 0.5)
    assert sorted(len(g) for g in groups) == [1, 1]
    with pytest.raises(ValueError):
        spectral.cluster_eigenvalues([1.0], 0.0)


def test_cluster_transitive_closure():
    groups = spectral.cluster_eigenvalues([0.0, 0.9, 1.8], 1.0)
    assert groups == [[0, 1, 2]]


def test_riesz_projection_diagonal():
    p = spectral.riesz_projection(np.diag([2.0, 0.5]), [2.0])
    np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-10)


def test_riesz_projection_whole_spectrum_jordan():
    p = spectral.riesz_projection(np.array([[1.0, 1.0], [0.0, 1.0]]), [1.0, 1.0])
    np.testing.assert_allclose(p, np.eye(2), atol=1e-9)


def test_riesz_projection_residue_oracle():
    # rank-one residue of the resolvent: P = (T - 0.5) / (2 - 0.5)
    t_mat = np.array([[2.0, 1.0], [0.0, 0.5]])
    p = spectral.riesz_projection(t_mat, [2.0])
    expected = (t_mat - 0.5 * np.eye(2)) / 1.5
    np.testing.assert_allclose(p, expected, atol=1e-9)
    np.testing.assert_allclose(p, [[1.0, 2.0 / 3.0], [0.0, 0.0]], atol=1e-9)


def test_riesz_matches_eigenvector_projector():
    # for simple eigenvalues the Riesz projection is the rank-one projector
    # built from right and left eigenvectors
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w, vr = np.linalg.eig(a)
    vl = np.linalg.inv(vr)
    k = 2
    oracle = np.outer(vr[:, k], vl[k, :])
    p = spectral.riesz_projection(a, [w[k]])
    assert numerics.norm(p - oracle) <= 1e-7


def test_riesz_unknown_eigenvalue_raises():
    with pytest.raises(NoSeparatingContour):
        spectral.riesz_projection(np.diag([1.0, 2.0]), [5.0])


def test_partition_invariants_random():
    rng = np.random.default_rng(1)
    for k in range(3):
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        part = spectral.spectral_partition(a)
        total = sum(c.projection for c in part.clusters)
        assert numerics.norm(total - np.eye(12)) <= 1e-7
        assert sum(c.multiplicity for c in part.clusters) == 12
        for c in part.clusters:
            p = c.projection
            assert numerics.norm(p @ p - p) <= 1e-8
            assert numerics.norm(p @ a - a @ p) <= 1e-8 * numerics.norm(a)


def test_spectral_subspaces_skew_block():
    K = krein.make_standard(1, 1)
    h = 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert spectral.spectral_subspaces(h, K, "real-axis").clusters == []
    up = spectral.spectral_subspaces(h, K, "upper-half")
    assert len(up.clusters) == 1
    np.testing.assert_allclose(up.clusters[0].center, 1j, atol=1e-9)
    dn = spectral.spectral_subspaces(h, K, "lower-half")
    np.testing.assert_allclose(dn.clusters[0].center, -1j, atol=1e-9)


def test_spectral_subspaces_unit_circle():
    K = krein.make_standard(1, 1)
    th = 0.7
    t_mat = np.diag([np.exp(1j * th), np.exp(-1j * th)])
    part = spectral.spectral_subspaces(t_mat, K, "unit-circle")
    assert part.total_multiplicity() == 2


def test_spectral_subspaces_real_pair_oracle():
    # eigenvalues of [[t,1],[-1,-t]] solve lambda^2 = t^2 - 1
    K = krein.make_standard(1, 1)
    h = np.array([[2.0, 1.0], [-1.0, -2.0]], dtype=complex)
    part = spectral.spectral_subspaces(h, K, "real-axis")
    centers = sorted(c.center.real for c in part.clusters)
    np.testing.assert_allclose(centers, [-np.sqrt(3), np.sqrt(3)], atol=1e-9)


def test_ambiguous_classification_raises():
    K = krein.make_standard(1, 1)
    h = np.diag([1.0 + 3e-7j, -1.0])  # inside the ambiguity band
    with pytest.raises(AmbiguousClassification):
        spectral.spectral_subspaces(h, K, "real-axis")


def test_projection_symmetry_hermitian_real_spectrum():
    K = krein.make_standard(2, 1)
    h = krein.random_j_hermitian(K, 5)
    # force real spectrum by squaring trick is overkill; just use J itself
    part = spectral.spectral_partition(K.J)
    report = spectral.check_projection_symmetry(K.J, K, part, "hermitian")
    assert report.max_residual <= 1e-8


def test_projection_symmetry_negative_control():
    # diag(2, 1/2) is not J-unitary; the classifier must still pair 2 with
    # 1/2 and report the honest residual ||diag(1,0) - J diag(0,1) J||
    K = krein.make_standard(1, 1)
    part = spectral.spectral_partition(np.diag([2.0, 0.5]))
    report = spectral.check_projection_symmetry(np.diag([2.0, 0.5]), K, part,
                                                "unitary")
    pair = dict(report.pairs)
    lam = [c.center for c in part.clusters]
    i2 = lam.index(max(lam, key=lambda z: z.real))
    assert pair[i2] != i2
    np.testing.assert_allclose(report.max_residual, np.sqrt(2.0), atol=1e-9)


def test_projection_symmetry_identity_trivial():
    K = krein.make_standard(1, 1)
    part = spectral.spectral_partition(np.eye(2, dtype=complex))
    report = spectral.check_projection_symmetry(np.eye(2), K, part, "unitary")
    assert report.max_residual <= 1e-10


def test_projection_symmetry_unmatched():
    K = krein.make_standard(1, 1)
    a = np.diag([2.0, 0.4])  # 1/2 missing; not a member, reflection absent
    part = spectral.spectral_partition(a)
    with pytest.raises(UnmatchedReflection):
        spectral.check_projection_symmetry(a, K, part, "unitary")


def test_fredholm_corrector_zero_operator():
    K = krein.make_standard(1, 1)
    f = spectral.fredholm_corrector(np.zeros((2, 2)), K, 0.0)
    np.testing.assert_allclose(f, K.J, atol=1e-10)


def test_fredholm_corrector_empty_kernel():
    K = krein.make_standard(1, 1)
    f = spectral.fredholm_corrector(K.J, K, 0.5)
    np.testing.assert_allclose(f, np.zeros((2, 2)), atol=1e-12)


def test_fredholm_corrector_j_case():
    K = krein.make_standard(1, 1)
    f = spectral.fredholm_corrector(K.J, K, 1.0)
    np.testing.assert_allclose(f, np.diag([1.0, 0.0]), atol=1e-10)
    corrected = K.J - np.eye(2) + f
    np.testing.assert_allclose(corrected, np.diag([1.0, -2.0]), atol=1e-10)


def test_fredholm_corrector_random_invertibility():
    rng = np.random.default_rng(7)
    K = krein.make_standard(2, 2)
    h = krein.random_j_hermitian(K, 9)
    lam = float(np.sort(np.linalg.eigvals(h).real)[1])  # a real eigenvalue
    # perturb to land exactly on an eigenvalue of the real part
    eigs = np.linalg.eigvals(h)
    real_eigs = sorted(e.real for e in eigs if abs(e.imag) < 1e-9)
    if real_eigs:
        f = spectral.fredholm_corrector(h, K, real_eigs[0])
        corrected = h - real_eigs[0] * np.eye(4) + f
        assert np.linalg.svd(corrected, compute_uv=False)[-1] > 1e-8


# ------------------------------------------------------ flat partitions

FLAT_CASES = [(kind, m) for kind in (None, (1, 1), (-1, -1), (-1, 1), (1, -1))
              for m in range(2, 7) if kind != (-1, 1) or m % 2 == 0]


def flat_operators(kind, m):
    """The flatten, lift and terminal operators of one retraction."""
    K = krein.make_standard(m, m)
    if kind is None:
        R, h = None, krein.random_j_hermitian(K, 10 + m)
    else:
        R = make_real_structure(kind, m, m)
        h = random_member(R, "hermitian", 10 + m)
    trace = retraction.retract_to_model(h, K, R)
    return K, [trace.segments[0].end, trace.segments[1].end, trace.terminal]


@pytest.mark.parametrize("kind, m", FLAT_CASES)
def test_flat_partition_matches_quadrature(kind, m):
    K, ops = flat_operators(kind, m)
    for h in ops:
        flat = spectral.flat_partition(h)
        quad = spectral.spectral_partition(h, "hermitian")
        assert flat.kind == "hermitian"
        assert len(flat.clusters) == len(quad.clusters)
        for c in flat.clusters:
            q = quad.clusters[quad.cluster_at(c.center)]
            assert numerics.norm(c.projection - q.projection) <= 1e-10
            assert c.region == q.region
            assert c.multiplicity == q.multiplicity
            assert signature.inertia(c, K) == signature.inertia(q, K)


def test_flat_partition_nodes_and_kernel():
    # i [[0, 1], [1, 0]] plus a one-dimensional kernel
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = 1j
    part = spectral.flat_partition(h)
    centers = sorted((c.center.imag, c.region, c.multiplicity)
                     for c in part.clusters)
    assert [(round(y, 9), r, k) for y, r, k in centers] == [
        (-1.0, "lower-half", 1), (0.0, "real-axis", 1), (1.0, "upper-half", 1)]
    kernel = part.clusters[part.cluster_at(0.0)].projection
    np.testing.assert_allclose(kernel, np.diag([0.0, 0.0, 1.0]), atol=1e-14)


def test_flat_partition_rejects_non_flat():
    rng = np.random.default_rng(11)
    q = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = q @ np.diag([1j, 0.5j, 0.0, -1j]) @ np.linalg.inv(q)
    with pytest.raises(QuadratureDivergence):
        spectral.flat_partition(h)
