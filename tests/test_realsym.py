"""Real structures, the four classes, symmetry checkers, normal forms."""

import numpy as np
import pytest

from kreinlab import krein, numerics, realsym, signature, spectral
from kreinlab.errors import (IncompatibleDimensions, MembershipError,
                             NormalizationFailed, SymmetryViolated)
from tests.test_krein import finex_matrix

ALL_KINDS = ((1, 1), (-1, -1), (-1, 1), (1, -1))


def test_make_real_structure_normal_forms():
    R = realsym.make_real_structure((1, 1), 2, 3)
    np.testing.assert_allclose(R.S, np.eye(5))
    R = realsym.make_real_structure((1, -1), 1, 1)
    np.testing.assert_allclose(R.S, [[0, 1], [1, 0]])
    R = realsym.make_real_structure((-1, -1), 2, 2)
    np.testing.assert_allclose(R.S, np.block(
        [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]))
    R = realsym.make_real_structure((-1, 1), 2, 2)
    s2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    expected = np.zeros((4, 4))
    expected[:2, :2] = s2
    expected[2:, 2:] = s2
    np.testing.assert_allclose(R.S, expected)


def test_make_real_structure_incompatible():
    with pytest.raises(IncompatibleDimensions):
        realsym.make_real_structure((1, -1), 2, 1)
    with pytest.raises(IncompatibleDimensions):
        realsym.make_real_structure((-1, 1), 3, 2)


def test_structure_invariants_exact():
    for kind in ALL_KINDS:
        dims = (2, 2)
        R = realsym.make_real_structure(kind, *dims)
        n = R.K.dim
        assert numerics.norm(np.imag(R.S)) == 0
        np.testing.assert_allclose(R.S @ R.S, kind[0] * np.eye(n), atol=0)
        np.testing.assert_allclose(R.K.J @ R.S, kind[1] * R.S @ R.K.J, atol=0)


def test_is_member_examples():
    R = realsym.make_real_structure((1, 1), 1, 1)
    assert realsym.is_member(finex_matrix(0.6), R, "unitary").ok
    t_mat = np.diag([np.exp(0.7j), np.exp(0.7j)])
    assert not realsym.is_member(t_mat, R, "unitary").ok
    for kind in ALL_KINDS:
        Rk = realsym.make_real_structure(kind, 2, 2)
        assert realsym.is_member(np.zeros((4, 4)), Rk, "hermitian").ok


def test_classify_group():
    assert realsym.classify_group(krein.make_standard(2, 1)).name == "U(2,1)"
    R = realsym.make_real_structure((1, 1), 1, 1)
    info = realsym.classify_group(R)
    assert info.name == "O(1,1)" and info.invariants == ("Sig", "Sec")
    R = realsym.make_real_structure((-1, -1), 2, 2)
    info = realsym.classify_group(R)
    assert info.name == "SO*(4)" and info.invariants == ("Sig2",)
    R = realsym.make_real_structure((-1, 1), 2, 2)
    assert realsym.classify_group(R).name == "SP(2,2)"
    R = realsym.make_real_structure((1, -1), 2, 2)
    info = realsym.classify_group(R)
    assert info.name == "SP(4,R)" and info.invariants == ()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("op_kind", ["unitary", "hermitian"])
def test_random_member_and_spectral_symmetries(kind, op_kind):
    R = realsym.make_real_structure(kind, 2, 2)
    a = realsym.random_member(R, op_kind, seed=abs(hash((kind, op_kind))) % 997)
    member = realsym.is_member(a, R, op_kind)
    assert member.ok, member.residual
    rep = realsym.check_spectral_symmetries(a, R, op_kind)
    assert rep.max_projection_residual <= 1e-6


def test_spectral_symmetry_violation_detected():
    # a generic complex J-unitary has no conjugation symmetry
    R = realsym.make_real_structure((1, 1), 2, 2)
    t_mat = krein.random_j_unitary(R.K, seed=12)
    with pytest.raises((SymmetryViolated, MembershipError)):
        realsym.check_spectral_symmetries(t_mat, R, "unitary")


def test_symmetrizer_idempotent():
    R = realsym.make_real_structure((1, -1), 2, 2)
    h0 = krein.random_j_hermitian(R.K, 5)
    h1 = realsym.symmetrize_hermitian(h0, R)
    h2 = realsym.symmetrize_hermitian(h1, R)
    assert numerics.norm(h1 - h2) <= 1e-12
    assert numerics.norm(realsym.symmetrize_hermitian(np.zeros((4, 4)), R)) == 0


def test_kramers_identity():
    R = realsym.make_real_structure((-1, -1), 2, 2)
    rep = realsym.kramers_check(np.eye(4, dtype=complex), R, "unitary")
    assert rep.ok
    assert rep.entries[0]["algebraic"] == 4


def test_kramers_random_members():
    for kind in ((-1, -1), (-1, 1)):
        R = realsym.make_real_structure(kind, 2, 2)
        for seed in range(5):
            for op_kind in ("unitary", "hermitian"):
                a = realsym.random_member(R, op_kind, seed)
                assert realsym.kramers_check(a, R, op_kind).ok


def test_kramers_negative_control():
    # two distinct hyperbolic boosts: simple real eigenvalues, odd counts
    R = realsym.make_real_structure((-1, -1), 2, 2)
    t_mat = np.zeros((4, 4), dtype=complex)
    for k, a in enumerate((np.log(2.0), np.log(3.0))):
        boost = np.array([[np.cosh(a), np.sinh(a)], [np.sinh(a), np.cosh(a)]])
        rows = [k, 2 + k]
        for i, ri in enumerate(rows):
            for j, rj in enumerate(rows):
                t_mat[ri, rj] = boost[i, j]
    assert krein.is_j_unitary(t_mat, R.K).ok
    rep = realsym.kramers_check(t_mat, R, "unitary")
    assert not rep.ok


def test_kramers_check_reads_eigenvalues_only(monkeypatch):
    """The entries match the on-point clusters of the partition, and
    kramers_check computes them without a partition or a projection."""
    R = realsym.make_real_structure((-1, -1), 2, 2)
    cases = [(np.eye(4, dtype=complex), "unitary")] + [
        (realsym.random_member(R, op_kind, seed), op_kind)
        for seed in range(3) for op_kind in ("unitary", "hermitian")]
    want = [realsym.kramers_check(a, R, op_kind).entries for a, op_kind in cases]
    assert want[0] == [{"eigenvalue": 1.0, "algebraic": 4, "geometric": 4}]
    for (a, _), entries in zip(cases, want):
        mult = {c.center: c.multiplicity
                for c in spectral.spectral_partition(a).clusters}
        for entry in entries:
            assert mult[entry["eigenvalue"]] == entry["algebraic"]

    def forbidden(*args, **kwargs):
        raise AssertionError("kramers_check computed a projection")

    monkeypatch.setattr(spectral, "spectral_partition", forbidden)
    monkeypatch.setattr(spectral, "riesz_projection", forbidden)
    got = [realsym.kramers_check(a, R, op_kind).entries for a, op_kind in cases]
    assert got == want


def test_kramers_requires_eta_minus():
    R = realsym.make_real_structure((1, 1), 1, 1)
    with pytest.raises(ValueError):
        realsym.kramers_check(np.eye(2), R, "unitary")


def test_full_invariant_report_dispatch():
    rng = np.random.default_rng(0)
    # (1,1): Sig and Sec
    R = realsym.make_real_structure((1, 1), 1, 1)
    rep = realsym.full_invariant_report(finex_matrix(0.5), R, "unitary")
    assert rep.global_sig == 0 and rep.sec == 1 and rep.group == "O(1,1)"
    # (-1,-1): Sig = 0, Sig2 defined
    from kreinlab.fixtures import build_sig2_example
    t_mat, R2 = build_sig2_example()
    rep2 = realsym.full_invariant_report(t_mat, R2, "unitary")
    assert rep2.global_sig == 0 and rep2.sig2 == 1
    # identity on (-1,-1) dim 4: Sig 0, Sig2 0
    R3 = realsym.make_real_structure((-1, -1), 2, 2)
    rep3 = realsym.full_invariant_report(np.eye(4, dtype=complex), R3, "unitary")
    assert rep3.global_sig == 0 and rep3.sig2 == 0
    # (-1,1): Sig even; (1,-1): Sig 0
    for kind in ((-1, 1), (1, -1)):
        R4 = realsym.make_real_structure(kind, 2, 2)
        a = realsym.random_member(R4, "unitary", int(rng.integers(1000)))
        rep4 = realsym.full_invariant_report(a, R4, "unitary")
        if kind == (-1, 1):
            assert rep4.global_sig % 2 == 0
        else:
            assert rep4.global_sig == 0
    # no structure: plain report with the complex group name
    K = krein.make_standard(2, 1)
    rep5 = realsym.full_invariant_report(krein.random_j_hermitian(K, 1), None,
                                         "hermitian", K=K)
    assert rep5.group == "U(2,1)" and rep5.sec is None


def test_inertia_reflection_table():
    # tau = 1: nu(lam) = nu(conj lam); tau = -1: components swap
    for kind in ALL_KINDS:
        R = realsym.make_real_structure(kind, 2, 2)
        for seed in range(4):
            t_mat = realsym.random_member(R, "unitary", 131 * seed + 7)
            rep = signature.global_signature(t_mat, R.K, "unitary")
            for row in rep.rows:
                if row.region != "unit-circle":
                    continue
                target = np.conj(row.center)
                partner = min(rep.rows, key=lambda r: abs(r.center - target))
                assert abs(partner.center - target) <= 1e-6
                if kind[1] == 1:
                    assert partner.nu == row.nu
                else:
                    assert partner.nu.as_tuple() == (row.nu.nu_minus,
                                                     row.nu.nu_plus)


def test_inertia_reflection_table_hermitian():
    # hermitian members reflect through lam -> -lam with the same tau rule
    for kind in ALL_KINDS:
        R = realsym.make_real_structure(kind, 2, 2)
        for seed in range(4):
            h = realsym.random_member(R, "hermitian", 977 * seed + 3)
            rep = signature.global_signature(h, R.K, "hermitian")
            for row in rep.rows:
                if row.region != "real-axis":
                    continue
                target = -np.conj(row.center)
                partner = min(rep.rows, key=lambda r: abs(r.center - target))
                assert abs(partner.center - target) <= 1e-6
                if kind[1] == 1:
                    assert partner.nu == row.nu
                else:
                    assert partner.nu.as_tuple() == (row.nu.nu_minus,
                                                     row.nu.nu_plus)


def test_normalize_krein_pair_roundtrip():
    rng = np.random.default_rng(3)
    for kind in ALL_KINDS:
        R = realsym.make_real_structure(kind, 2, 2)
        n = R.K.dim
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = np.linalg.qr(g)[0]
        j_rot = u.conj().T @ R.K.J @ u
        s_rot = u.conj().T @ R.S @ np.conj(u)
        pair = realsym.normalize_krein_pair(j_rot, s_rot, *kind)
        assert (pair.K.n_plus, pair.K.n_minus) == (2, 2)
        r_mat = pair.R
        assert numerics.norm(r_mat.conj().T @ j_rot @ r_mat - pair.K.J) <= 1e-8
        assert numerics.norm(s_rot @ np.conj(r_mat) - r_mat @ pair.structure.S) \
            <= 1e-8


def test_normalize_krein_pair_rejects_mismatch():
    R = realsym.make_real_structure((1, 1), 1, 1)
    with pytest.raises(NormalizationFailed):
        realsym.normalize_krein_pair(R.K.J, R.S, eta=-1, tau=1)
