"""Riesz projections, clustering, region classification, correctors."""

import json

import numpy as np
import pytest

from kreinlab import fileio, krein, numerics, retraction, signature, spectral
from kreinlab.fixtures import FIXTURE_ROOT, _compute, list_fixtures
from kreinlab.homotopy import scenario_library
from kreinlab.errors import (AmbiguousClassification, NoSeparatingContour,
                             QuadratureDivergence, UnmatchedReflection)
from kreinlab.realsym import (full_invariant_report, make_real_structure,
                              random_member)


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


# ------------------------------------------- eigenvector projections

GROUP_KINDS = (None, (1, 1), (-1, -1), (-1, 1), (1, -1))


def group_operator(kind, op_kind, n, seed):
    """A random member of the group of real kind ``kind`` (None: U(p, q))."""
    if kind in ((-1, -1), (1, -1)):
        p = n // 2
    elif kind == (-1, 1):
        p = 2 * (n // 4)
    else:
        p = n // 2 - 1
    if kind is None:
        K = krein.make_standard(p, n - p)
        a = (krein.random_j_hermitian(K, seed) if op_kind == "hermitian"
             else krein.random_j_unitary(K, seed))
        return a, K, None
    R = make_real_structure(kind, p, n - p)
    return random_member(R, op_kind, seed), R.K, R


def report(a, K, R, op_kind):
    if R is None:
        return signature.global_signature(a, K, op_kind).to_dict()
    return full_invariant_report(a, R, op_kind, K=K).to_dict()


def quadrature_only(monkeypatch):
    """Make every cluster take Riesz quadrature, as when X is singular."""
    monkeypatch.setattr(spectral, "_inverse", lambda vecs: None)


def off_region_projections_match_quadrature(a, kind) -> int:
    """Check every off-region cluster of the ``kind`` partition of ``a``
    against its Riesz projection; return how many there were."""
    part = spectral.spectral_partition(a, kind)
    eigs = numerics.eigvals(a)
    off = [c for c in part.clusters if c.region not in spectral.ON_REGIONS]
    for c in off:
        assert c.frame is None
        q = spectral.riesz_projection(a, c.eigenvalues, all_eigs=eigs)
        assert numerics.norm(c.projection - q) <= 1e-8
    return len(off)


@pytest.mark.parametrize("kind", GROUP_KINDS)
@pytest.mark.parametrize("op_kind", ["hermitian", "unitary"])
def test_eigenvector_projections_match_quadrature(monkeypatch, kind, op_kind):
    cases = [group_operator(kind, op_kind, n, seed)
             for n in (4, 10, 16) for seed in (1, 2)]
    assert sum(off_region_projections_match_quadrature(a, op_kind)
               for a, _, _ in cases) > 0
    reports = [report(a, K, R, op_kind) for a, K, R in cases]
    quadrature_only(monkeypatch)
    assert reports == [report(a, K, R, op_kind) for a, K, R in cases]


def test_eigenvector_projections_on_fixtures(monkeypatch):
    recipes = [json.loads((FIXTURE_ROOT / name / "input.json").read_text())
               for name in list_fixtures()]
    assert len(recipes) == 8
    for recipe in recipes:
        if recipe["check"] != "invariants":
            continue
        if "matrix" in recipe:
            a = fileio.parse_matrix_dict(recipe["matrix"]).matrix
        else:
            path = scenario_library(recipe["scenario"], recipe.get("params"))
            a = path(float(recipe.get("at_t", path.t_end)))
        off_region_projections_match_quadrature(a, recipe["op_kind"])
    computed = [_compute(recipe) for recipe in recipes]
    quadrature_only(monkeypatch)
    assert computed == [_compute(recipe) for recipe in recipes]


def riesz_recorder(monkeypatch):
    calls = []
    riesz = spectral.riesz_projection

    def recording(t_mat, cluster, all_eigs=None):
        calls.append(np.asarray(cluster))
        return riesz(t_mat, cluster, all_eigs=all_eigs)

    monkeypatch.setattr(spectral, "riesz_projection", recording)
    return calls


def test_o33_report_runs_quadrature_only_on_region(monkeypatch):
    R = make_real_structure((1, 1), 3, 3)
    a = random_member(R, "unitary", seed=9)
    calls = riesz_recorder(monkeypatch)
    rep = full_invariant_report(a, R, "unitary")
    on = [row for row in rep.rows if row.region == "unit-circle"]
    assert 0 < len(on) < len(rep.rows)
    assert [complex(np.mean(c)) for c in calls] == [row.center for row in on]


def off_axis_pairs(a):
    """J-hermitian on (m, m) with spectrum spec(a) and its conjugate: the
    J = [[0, 1], [1, 0]] member diag(a, a*), carried to the standard J by
    the symmetric unitary (1/sqrt 2) [[1, 1], [1, -1]]."""
    m = a.shape[0]
    one, z = np.eye(m), np.zeros((m, m))
    c = np.block([[one, one], [one, -one]]) / np.sqrt(2)
    return c @ np.block([[a, z], [z, a.conj().T]]) @ c


def test_failed_eigenvector_projection_falls_back_to_quadrature(monkeypatch):
    # 2x2 Jordan blocks at 1 + i and 1 - i: the eigenvectors of each block
    # are parallel to rounding, and the eigenvector projection of the
    # 1 + i block fails the cluster checks
    h = off_axis_pairs(np.array([[1 + 1j, 1], [0, 1 + 1j]]))
    K = krein.make_standard(2, 2)
    assert krein.is_j_hermitian(h, K).ok
    calls = riesz_recorder(monkeypatch)
    part = spectral.spectral_partition(h, "hermitian")
    assert [c.region for c in part.clusters] == ["lower-half", "upper-half"]
    (fallback,) = calls
    up = part.clusters[1]
    assert np.allclose(fallback, up.eigenvalues)
    q = spectral.riesz_projection(h, up.eigenvalues,
                                  all_eigs=numerics.eigvals(h))
    assert np.array_equal(up.projection, q)
    assert signature.global_signature(h, K, "hermitian").global_sig == 0


def test_singular_eigenvectors_fall_back_to_quadrature(monkeypatch):
    inv = np.linalg.inv

    def singular_matrices(a):
        if a.ndim == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", singular_matrices)
    K = krein.make_standard(3, 2)
    for a, kind in ((krein.random_j_hermitian(K, 3), "hermitian"),
                    (krein.random_j_unitary(K, 3), "unitary")):
        part = spectral.spectral_partition(a, kind)
        assert any(c.region not in spectral.ON_REGIONS for c in part.clusters)
        for c in part.clusters:
            q = spectral.riesz_projection(a, c.eigenvalues,
                                          all_eigs=numerics.eigvals(a))
            assert np.array_equal(c.projection, q)


def test_ill_conditioned_clusters_keep_quadrature(monkeypatch):
    # a nearly defective block at 1 + i (eigenvalues 1 + i +- 1e-3, whose
    # projections have norm about 500) beside a well-conditioned -2 + i/2
    a = np.array([[1 + 1j, 1, 0], [1e-6, 1 + 1j, 0], [0, 0, -2 + 0.5j]])
    h = off_axis_pairs(a)
    calls = riesz_recorder(monkeypatch)
    part = spectral.spectral_partition(h, "hermitian")
    assert len(part.clusters) == 6
    eigs = numerics.eigvals(h)
    quadrature = [c for c in part.clusters if abs(c.center.real - 1) < 0.01]
    assert len(calls) == len(quadrature) == 4
    for c in quadrature:
        assert numerics.norm(c.projection) > spectral.EIGENVECTOR_PROJECTION_MAX_NORM
        q = spectral.riesz_projection(h, c.eigenvalues, all_eigs=eigs)
        assert np.array_equal(c.projection, q)
