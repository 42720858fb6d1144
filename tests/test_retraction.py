"""Stagewise and end-to-end checks of the retraction pipeline."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from kreinlab import (cli, config, fileio, krein, numerics, realsym,
                      retraction, signature, spectral)
from kreinlab.errors import (AmbiguousClassification, IncompatibleDimensions,
                             MembershipError, NotGapped, NotInClass,
                             SingularMatrix, StageError)
from kreinlab.realsym import (antisymmetric_unitary_factor, interleaved_skew,
                              make_real_structure, random_member, standard_skew,
                              symmetric_unitary_sqrt)

ALL_KINDS = ((1, 1), (-1, -1), (-1, 1), (1, -1))
DATA = Path(__file__).resolve().parent / "data"


def skew_pair():
    return 1j * np.array([[0.0, 1.0], [1.0, 0.0]])


def test_flatten_already_flat():
    K = krein.make_standard(1, 1)
    seg = retraction.spectral_flatten(skew_pair(), K)
    np.testing.assert_allclose(seg.end, skew_pair(), atol=1e-9)


def test_flatten_j_to_zero():
    K = krein.make_standard(1, 1)
    seg = retraction.spectral_flatten(K.J, K)
    np.testing.assert_allclose(seg.end, np.zeros((2, 2)), atol=1e-9)
    np.testing.assert_allclose(seg.path(0.25), 0.75 * K.J, atol=1e-12)


def test_flatten_random_endpoint_spectrum():
    K = krein.make_standard(2, 2)
    for seed in range(4):
        h = krein.random_j_hermitian(K, seed)
        seg = retraction.spectral_flatten(h, K)
        assert retraction.flat_spectrum_residual(numerics.eigvals(seg.end)) <= 1e-6
        assert seg.path.verify_membership(n_samples=9) <= 1e-7


def test_lift_zero_operator_plain():
    K = krein.make_standard(1, 1)
    lift = retraction.lift_kernel(
        retraction.spectral_flatten(np.zeros((2, 2)), K), K)
    assert lift.kernel_dim == 0
    np.testing.assert_allclose(lift.segment.end, skew_pair(), atol=1e-9)
    assert lift.segment.path.verify_membership(n_samples=5) <= 1e-8


def test_lift_definite_kernel_untouched():
    # flat operator with a definite kernel direction: nothing to pair
    K = krein.make_standard(2, 1)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2], h[2, 0] = 1j, 1j  # skew pair on the (+,-) coordinates (0, 2)
    assert krein.is_j_hermitian(h, K).ok
    lift = retraction.lift_kernel(retraction.spectral_flatten(h, K), K)
    assert lift.kernel_dim == 1
    assert lift.kernel_inertia == (1, 0)
    np.testing.assert_allclose(lift.segment.end, h, atol=1e-10)


def test_lift_symplectic_removes_kernel():
    K = krein.make_standard(1, 1)
    R = make_real_structure((1, -1), 1, 1)
    lift = retraction.lift_kernel(
        retraction.spectral_flatten(np.zeros((2, 2)), K, R), K, R)
    assert lift.kernel_dim == 0
    assert realmember_residual(lift.segment.end, R) <= 1e-10


def realmember_residual(h, R):
    from kreinlab.realsym import is_member
    return is_member(h, R, "hermitian").residual


def test_lift_kind_minus_minus_forced_kernel():
    K = krein.make_standard(3, 3)
    R = make_real_structure((-1, -1), 3, 3)
    h = random_member(R, "hermitian", 2)
    seg = retraction.spectral_flatten(h, K, R)
    lift = retraction.lift_kernel(seg, K, R)
    assert lift.kernel_dim == 2
    assert lift.kernel_inertia == (1, 1)


def test_lagrangian_frames_skew_pair():
    K = krein.make_standard(1, 1)
    p_plus, _, p_minus = retraction.spectral_flatten(skew_pair(), K).projections
    frames = retraction.lagrangian_frames(p_plus, p_minus, K)
    np.testing.assert_allclose(frames.u_plus, [[1.0]], atol=1e-9)
    np.testing.assert_allclose(frames.u_minus, [[-1.0]], atol=1e-9)
    np.testing.assert_allclose(frames.certificate, 2.0, atol=1e-9)


def test_lagrangian_frames_isotropy_and_reembedding():
    K = krein.make_standard(3, 3)
    h = krein.random_j_hermitian(K, 4)
    seg = retraction.spectral_flatten(h, K)
    lift = retraction.lift_kernel(seg, K)
    p_plus, _, p_minus = lift.segment.projections
    frames = retraction.lagrangian_frames(p_plus, p_minus, K)
    nn = 3
    for u in (frames.u_plus, frames.u_minus):
        assert numerics.norm(u.conj().T @ u - np.eye(nn)) <= 1e-9
    phi = np.vstack([frames.u_plus, np.eye(nn)]) / np.sqrt(2)
    assert numerics.norm(phi.conj().T @ K.J @ phi) <= 1e-9
    assert (K.n_plus, K.n_minus) == (nn, nn)


def test_lagrangian_frames_requires_balanced():
    K = krein.make_standard(2, 1)
    with pytest.raises(IncompatibleDimensions):
        retraction.lagrangian_frames(np.zeros((3, 3)), np.zeros((3, 3)), K)


def test_factorize_identity():
    w = retraction.factorize_unitary(np.eye(3), "symmetric")
    np.testing.assert_allclose(w, np.eye(3), atol=1e-10)


def test_factorize_diagonal_half_angles():
    th = np.array([np.pi / 2, np.pi])
    v = np.diag(np.exp(1j * th))
    w = retraction.factorize_unitary(v, "symmetric")
    np.testing.assert_allclose(w, np.diag(np.exp(1j * th / 2)), atol=1e-9)


def test_factorize_random_symmetric():
    from kreinlab.verify import random_gapped_symmetric_unitary
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = random_gapped_symmetric_unitary(rng, 6)
        w = retraction.factorize_unitary(v, "symmetric", branch_point=1.0)
        assert numerics.norm(w.T @ w - v) <= 1e-9


def test_factorize_odd_symmetric():
    from kreinlab.verify import random_gapped_odd_symmetric_unitary
    rng = np.random.default_rng(1)
    s = standard_skew(4)
    for _ in range(5):
        v = random_gapped_odd_symmetric_unitary(rng, 4)
        w = retraction.factorize_unitary(v, "odd-symmetric", s=s,
                                         branch_point=1.0)
        assert numerics.norm(s.T @ w.T @ s @ w - v) <= 1e-9


def test_factorize_errors():
    with pytest.raises(NotInClass):
        retraction.factorize_unitary(np.diag([2.0, 1.0]), "symmetric")
    with pytest.raises(NotInClass):
        v = np.diag([np.exp(0.4j), np.exp(0.9j)])
        retraction.factorize_unitary(v + np.array([[0, 1e-3], [0, 0]]),
                                     "symmetric")
    with pytest.raises(NotGapped):
        retraction.factorize_unitary(np.eye(2), "symmetric", branch_point=1.0)


def test_straighten_terminal_pair():
    frames_u = np.array([[1.0]], dtype=complex)
    res = retraction.straighten(frames_u, -frames_u)
    np.testing.assert_allclose(res.u_minus_at([0.0, 1.0]),
                               [-frames_u, -frames_u], atol=1e-12)


def test_straighten_generic_endpoint_orthogonal():
    rng = np.random.default_rng(2)
    g1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u_p = np.linalg.qr(g1)[0]
    u_m = np.linalg.qr(g2)[0]
    if np.linalg.svd(u_m.conj().T @ u_p - np.eye(3), compute_uv=False)[-1] < 1e-3:
        u_m = -u_m
    K = krein.make_standard(3, 3)
    res = retraction.straighten(u_p, u_m)
    u_end = res.u_minus_at([1.0])[0]
    p_p, p_m = retraction._pair_projections(u_p, u_end, K)
    assert numerics.norm(p_p - p_p.conj().T) <= 1e-8
    assert numerics.norm(p_m - p_m.conj().T) <= 1e-8
    assert min(res.certificates) > 1e-8
    np.testing.assert_allclose(u_end, -u_p, atol=1e-9)


def lagrangian_pair(kind, m, seed):
    """(u_+, u_-) of a lifted retraction operator, with the straightening
    option and skew form that ``retract_to_model`` uses for the kind."""
    K = krein.make_standard(m, m)
    if kind is None:
        R, h = None, krein.random_j_hermitian(K, seed)
    else:
        R = make_real_structure(kind, m, m)
        h = random_member(R, "hermitian", seed)
    seg = retraction.spectral_flatten(h, K, R)
    lift = retraction.lift_kernel(seg, K, R)
    p_plus, _, p_minus = lift.segment.projections
    frames = retraction.lagrangian_frames(p_plus, p_minus, K)
    s = interleaved_skew(m) if kind == (-1, 1) else None
    return frames.u_plus, frames.u_minus, retraction._symmetry_option(kind), s


def reference_u_minus(res, tv):
    """u_-(t) from one scipy expm of the generator, as the formulas of
    ``straighten`` state it."""
    u_plus, h, nn = res.u_plus, res.log_generator, res.u_plus.shape[0]
    v_t = sla.expm(1j * ((1.0 - tv) * h + tv * np.pi * np.eye(nn)))
    if res.symmetry == "symmetric":
        v_plus = symmetric_unitary_sqrt(u_plus)
        return v_plus @ v_t.conj().T @ v_plus
    if res.symmetry == "odd-symmetric":
        s = standard_skew(nn)
        v_plus = antisymmetric_unitary_factor(u_plus, s)
        return v_plus.T @ v_t.conj().T @ s @ v_plus
    return u_plus @ v_t.conj().T


@pytest.mark.parametrize("kind", (None,) + ALL_KINDS)
def test_straighten_stacked_certificates_match_expm_loop(kind):
    for m in (2, 4):
        u_p, u_m, symmetry, s = lagrangian_pair(kind, m, 20 + m)
        res = retraction.straighten(u_p, u_m, symmetry=symmetry, s=s)
        assert res.symmetry == symmetry
        ts = np.linspace(0.0, 1.0, len(res.certificates))
        assert len(ts) in (retraction.CERT_SAMPLES, 2 * retraction.CERT_SAMPLES)
        want = []
        for tv, stacked in zip(ts, res.u_minus_at(ts)):
            um = reference_u_minus(res, tv)
            assert numerics.norm(stacked - um) <= 1e-12
            want.append(np.linalg.svd(um.conj().T @ u_p - np.eye(m),
                                      compute_uv=False)[-1])
        np.testing.assert_allclose(res.certificates, want, rtol=0, atol=1e-12)
        assert numerics.norm(res.u_minus_at([0.0])[0] - u_m) <= 1e-12


def test_retract_skew_pair_is_fixed_point():
    K = krein.make_standard(1, 1)
    trace = retraction.retract_to_model(skew_pair(), K)
    np.testing.assert_allclose(trace.terminal, skew_pair(), atol=1e-8)
    assert trace.terminal_class == "none"


def test_retract_j_reaches_model():
    K = krein.make_standard(1, 1)
    trace = retraction.retract_to_model(K.J, K)
    np.testing.assert_allclose(trace.terminal, skew_pair(), atol=1e-8)
    assert trace.sig_initial == trace.sig_terminal == 0
    assert trace.kernel_dim_after_lift == 0


def test_retract_requires_balanced_inertia():
    K = krein.make_standard(2, 1)
    with pytest.raises(IncompatibleDimensions):
        retraction.retract_to_model(krein.random_j_hermitian(K, 0), K)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_retract_each_kind(kind):
    m = 3 if kind == (-1, -1) else 2
    K = krein.make_standard(m, m)
    R = make_real_structure(kind, m, m)
    h = random_member(R, "hermitian", seed=abs(hash(kind)) % 991)
    trace = retraction.retract_to_model(h, K, R)
    assert trace.sig_initial == trace.sig_terminal == 0
    assert trace.membership_max_residual <= 1e-7
    assert trace.chain_max_gap <= 1e-7
    assert trace.terminal_spectrum_residual <= 1e-6
    assert trace.terminal_symmetry_residual <= 1e-8
    expected_class = {(1, 1): "real", (1, -1): "symmetric",
                      (-1, -1): "anti-symmetric", (-1, 1): "quaternionic"}[kind]
    assert trace.terminal_class == expected_class
    if kind == (-1, -1):
        assert trace.kernel_dim_after_lift == 2
        assert trace.kernel_inertia == (1, 1)


@pytest.mark.parametrize("name, terminal_class",
                         [("retract_o_m5.json", "real"),
                          ("retract_u_m4.json", "none")])
def test_retract_stored_members(name, terminal_class):
    """Members of O(5,5) and U(4,4) whose flat operators' interpolated
    projections missed the idempotency bound (1.5e-8 and 3.8e-8 against
    1e-8); the projections the flat operator was built from pass it."""
    mf = fileio.read_matrix_file(DATA / name)
    trace = retraction.retract_to_model(mf.matrix, mf.K, mf.R)
    assert trace.sig_initial == trace.sig_terminal == 0
    assert trace.terminal_class == terminal_class
    assert trace.membership_max_residual <= 1e-7
    assert trace.chain_max_gap <= 1e-7
    assert trace.terminal_spectrum_residual <= 1e-6
    if mf.R is not None:
        assert trace.terminal_symmetry_residual <= 1e-8


def near_collision_member(eps, beside=0.4):
    """A member of U(2,2) whose Krein collision on the (e1, e3) block has
    split into a conjugate pair ``eps`` off the real axis at about -0.3,
    beside the real eigenvalues ``beside`` and -1.3, moved by a J-unitary
    similarity."""
    K = krein.make_standard(2, 2)
    a = np.diag([0.7, beside, 2.0 * np.sqrt(1.0 - eps ** 2) - 0.7, 1.3])
    a[0, 2] = a[2, 0] = 1.0
    g = krein.random_j_unitary(K, 1826701615)
    return g @ K.J @ a @ np.linalg.inv(g), K


@pytest.mark.parametrize("kind, m", [
    (kind, m) for kind in (None,) + ALL_KINDS
    for m in ((2, 4, 6) if kind == (-1, 1) else (2, 3, 4, 5, 6))])
def test_eigenvector_split_matches_the_partition(kind, m):
    """(P_+, P_0, P_-) from one eigendecomposition agree with the half-plane
    sums of the quadrature partition, and the inertia of J on range P_0
    with the report's sum over the real-axis clusters."""
    K = krein.make_standard(m, m)
    R = None if kind is None else make_real_structure(kind, m, m)
    for seed in range(3):
        h = (krein.random_j_hermitian(K, seed) if kind is None
             else random_member(R, "hermitian", seed))
        split = retraction._eigenvector_split(h, K)
        assert split is not None
        projections, sig = split
        part = spectral.spectral_partition(h, "hermitian")
        for p, q in zip(projections, retraction._halfplane_projections(part)):
            assert numerics.norm(p - q) <= 1e-10
        assert sig == signature.invariant_report(part, K, 0.0).global_sig
        assert retraction._halfplane_split(h)[1] is None


def test_near_collision_member_takes_the_partition():
    """A conjugate pair 1e-2 off the axis (``near_collision_member(1e-2)``)
    makes ||P_+-|| about 130, over the eigenvector bound: H takes the
    quadrature partition and retracts with the integers it gives."""
    mf = fileio.read_matrix_file(DATA / "retract_fallback_u_m2.json")
    assert retraction._eigenvector_split(mf.matrix, mf.K) is None
    eigs, vecs = numerics.eig(mf.matrix)
    up = eigs.imag > 1e-6
    assert numerics.norm(vecs[:, up] @ np.linalg.inv(vecs)[up, :]) > \
        spectral.EIGENVECTOR_PROJECTION_MAX_NORM
    split, sig = retraction._halfplane_split(mf.matrix, mf.K)
    part = spectral.spectral_partition(mf.matrix, "hermitian")
    for p, q in zip(split, retraction._halfplane_projections(part)):
        assert np.array_equal(p, q)
    assert sig == signature.invariant_report(part, mf.K, 0.0).global_sig == 0
    trace = retraction.retract_to_model(mf.matrix, mf.K)
    assert trace.sig_initial == trace.sig_terminal == 0
    assert trace.terminal_class == "none"
    assert (trace.kernel_dim_after_lift, trace.kernel_inertia) == (0, (0, 0))


@pytest.mark.parametrize("eps, beside, match", [
    (5e-7, 0.4, "ambiguity zone"), (1.5e-6, -0.3, "straddles")])
def test_ambiguous_spectrum_raises(eps, beside, match):
    """A conjugate pair inside the ambiguity zone (1e-7, 1e-6], or just
    beyond it and within delta of a real eigenvalue, so that one cluster
    would straddle regions: no eigenvector split, and the partition
    refuses H."""
    h, K = near_collision_member(eps, beside)
    assert retraction._eigenvector_split(h, K) is None
    with pytest.raises(AmbiguousClassification, match=match):
        retraction.retract_to_model(h, K)
    with pytest.raises(AmbiguousClassification, match=match):
        retraction.spectral_flatten(h, K)


@pytest.mark.parametrize("kind", (None,) + ALL_KINDS)
def test_flatten_endpoint_is_a_member(kind):
    """The flatten endpoint is the member part of i(P_+ - P_-), so it is a
    member to rounding however ill-conditioned the projections."""
    if kind is None:
        # ||P_+-|| about 1.3e3: i(P_+ - P_-) itself is off J-hermitian by
        # more than the membership bound
        h, K = near_collision_member(1e-3)
        R = None
        p_up, _, p_dn = retraction._halfplane_split(h)[0]
        assert krein.is_j_hermitian(1j * (p_up - p_dn), K).residual > \
            config.DEFAULT.membership
    else:
        K = krein.make_standard(2, 2)
        R = make_real_structure(kind, 2, 2)
        h = random_member(R, "hermitian", 8)
    seg = retraction.spectral_flatten(h, K, R)
    residual = realsym._class_membership(seg.end, K, R, "hermitian").residual
    assert residual <= 1e-14 * max(1.0, numerics.norm(seg.end))
    trace = retraction.retract_to_model(h, K, R)
    assert trace.sig_initial == trace.sig_terminal == 0


@pytest.mark.parametrize("kind, m", [
    (kind, m) for kind in (None,) + ALL_KINDS
    for m in ((2, 4) if kind == (-1, 1) else (2, 3, 4, 5))])
def test_lift_carries_the_projections_of_its_end(kind, m):
    """The lift hands on (P_+, P_0, P_-) of the lifted operator L: a
    partition of L that reproduces it and agrees with its interpolants
    (kind (-1,-1) at odd m keeps a kernel, whose complement block
    Theta^+ L Theta takes Theta^+ P Theta)."""
    K = krein.make_standard(m, m)
    R = None if kind is None else make_real_structure(kind, m, m)
    for seed in range(3):
        h = (krein.random_j_hermitian(K, seed) if kind is None
             else random_member(R, "hermitian", seed))
        lift = retraction.lift_kernel(retraction.spectral_flatten(h, K, R),
                                      K, R)
        lifted, carried = lift.segment.end, lift.segment.projections
        assert numerics.norm(sum(carried) - np.eye(K.dim)) <= 1e-8
        for p in carried:
            assert numerics.norm(p @ p - p) <= 1e-8
            assert numerics.norm(p @ lifted - lifted @ p) <= \
                1e-8 * max(1.0, numerics.norm(lifted))
        assert numerics.norm(
            lifted - 1j * (carried[0] - carried[2])) <= 1e-8
        if max(numerics.norm(p) for p in carried) <= 30.0:
            interpolants = retraction._halfplane_projections(
                spectral.flat_partition(lifted))
            for p, q in zip(carried, interpolants):
                assert numerics.norm(p - q) <= 1e-8
        if lift.kernel_dim:
            _, (theta, theta_pinv) = retraction._kernel_complement(
                lift, K, R)
            block = retraction._halfplane_projections(
                spectral.flat_partition(theta_pinv @ lifted @ theta))
            for p, q in ((carried[0], block[0]), (carried[2], block[2])):
                assert numerics.norm(theta_pinv @ p @ theta - q) <= 1e-8
    assert lift.kernel_dim == (2 if kind == (-1, -1) and m % 2 else 0)


@pytest.mark.parametrize("kind", (None, (-1, -1)), ids=("plain", "kernel"))
def test_segment_endpoints_are_path_samples(kind):
    """Segment endpoints are their path's samples, so the terminal is the
    straightening path's one sample at t = 1 (kind (-1,-1) at m = 3 takes
    the forced-kernel branch)."""
    K = krein.make_standard(3, 3)
    if kind is None:
        R, h = None, krein.random_j_hermitian(K, 7)
    else:
        R = make_real_structure(kind, 3, 3)
        h = random_member(R, "hermitian", 7)
    trace = retraction.retract_to_model(h, K, R)
    assert trace.kernel_dim_after_lift == (0 if kind is None else 2)
    flat, lift, straight = trace.segments
    for seg in (flat, lift):
        assert seg.start is seg.path.matrix(0.0)
        assert seg.end is seg.path.matrix(1.0)
    assert trace.terminal is straight.path.matrix(1.0)
    assert straight.start is straight.path.matrix(0.0)


def test_retract_unbalanced_flatten_lift_only():
    # for N+ != N- the first two stages still apply: definite kernel of
    # dimension N+ + N- - 2 min, and the signature stays N+ - N-
    K = krein.make_standard(3, 1)
    h = krein.random_j_hermitian(K, 12)
    assert signature.global_signature(h, K, "hermitian").global_sig == 2
    seg = retraction.spectral_flatten(h, K)
    lift = retraction.lift_kernel(seg, K)
    assert lift.kernel_dim == 3 + 1 - 2 * 1
    assert 0 in lift.kernel_inertia
    assert signature.global_signature(lift.segment.end, K,
                                      "hermitian").global_sig == 2


def test_trace_json_roundtrip():
    K = krein.make_standard(2, 2)
    R = make_real_structure((1, -1), 2, 2)
    h = random_member(R, "hermitian", 5)
    trace = retraction.retract_to_model(h, K, R)
    data = json.loads(trace.to_json())
    assert data["stages"] == ["flatten", "lift", "straighten"]
    assert data["kind"] == [1, -1]
    assert data["terminal_class"] == "symmetric"
    assert data["sig_initial"] == data["sig_terminal"] == 0
    a_flat = np.array([complex(re, im) for re, im in data["terminal_block"]])
    a_blk = a_flat.reshape(data["terminal_block_shape"])
    assert numerics.norm(a_blk.T - a_blk) <= 1e-8


def test_retract_programming_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(retraction, "lift_kernel", broken)
    K = krein.make_standard(1, 1)
    with pytest.raises(TypeError, match="injected"):
        retraction.retract_to_model(K.J, K)


CLASS_SIZES = [(kind, m) for kind in (None,) + ALL_KINDS
               for m in ((2, 4, 6) if kind == (-1, 1) else (2, 3, 4, 5, 6))]


def record_residuals(monkeypatch) -> list:
    """Record (stack, J-residuals, class residuals) of every stacked
    membership check of a straightening path."""
    seen = []
    residuals = retraction._hermitian_residuals

    def recorded(ops, K, R):
        j_res, class_res = residuals(ops, K, R)
        seen.append((ops, j_res, class_res))
        return j_res, class_res

    monkeypatch.setattr(retraction, "_hermitian_residuals", recorded)
    return seen


@pytest.mark.parametrize("kind, m", CLASS_SIZES)
def test_straightening_stack_matches_path_samples(monkeypatch, kind, m):
    """The stacked straightening samples agree with the path evaluated one
    t at a time and with its own membership check (kind (-1,-1) at odd m
    takes the forced-kernel branch)."""
    K = krein.make_standard(m, m)
    R = None if kind is None else make_real_structure(kind, m, m)
    h = (krein.random_j_hermitian(K, 30 + m) if kind is None
         else random_member(R, "hermitian", 30 + m))
    seen = record_residuals(monkeypatch)
    trace = retraction.retract_to_model(h, K, R)
    assert trace.kernel_dim_after_lift == (2 if kind == (-1, -1) and m % 2
                                           else 0)
    (ops, j_res, class_res), = seen
    path = trace.segments[2].path
    ts = np.linspace(0.0, 1.0, retraction.SEGMENT_SAMPLES)
    assert len(ops) == len(ts)
    for k, tv in enumerate(ts):
        fresh = path(tv)
        assert np.max(np.abs(ops[k] - fresh)) <= 1e-13
        assert abs(j_res[k] - krein.is_j_hermitian(fresh, K).residual) <= 1e-14
        assert abs(class_res[k] - realsym._class_membership(
            fresh, K, R, "hermitian").residual) <= 1e-14
    worst = path.verify_membership(n_samples=retraction.SEGMENT_SAMPLES)
    assert abs(float(np.max(class_res)) - worst) <= 1e-14
    assert trace.terminal is path.matrix(1.0)
    assert np.array_equal(trace.terminal, ops[-1])


def broken_stack(monkeypatch, rows, size):
    """Add a non-J-hermitian upper triangle of entries ``size`` to the given
    rows of every straightening stack."""
    operators = retraction.StraightenResult.operators

    def broken(res, ts, K):
        ops = operators(res, ts, K).copy()
        ops[rows] += size * np.triu(np.ones(ops.shape[1:]))
        return ops

    monkeypatch.setattr(retraction.StraightenResult, "operators", broken)


def test_straightening_stack_off_class_raises(monkeypatch):
    # interior samples off the class; the ends still chain
    K = krein.make_standard(2, 2)
    broken_stack(monkeypatch, slice(1, -1), 1e-3)
    with pytest.raises(MembershipError, match="path membership") as info:
        retraction.retract_to_model(krein.random_j_hermitian(K, 5), K)
    assert info.value.residual > config.DEFAULT.path_membership


def test_terminal_held_to_the_membership_bound(monkeypatch):
    """A terminal within the path bound (1e-7) but off the single-operator
    bound (1e-8) fails its J-membership check."""
    K = krein.make_standard(2, 2)
    broken_stack(monkeypatch, -1, 1e-8)
    with pytest.raises(MembershipError, match="not J-hermitian") as info:
        retraction.retract_to_model(krein.random_j_hermitian(K, 5), K)
    assert 1e-8 < info.value.residual <= config.DEFAULT.path_membership


def test_oblique_projection_singular_cross_matrix():
    # a J-neutral frame has a zero cross matrix with itself
    K = krein.make_standard(1, 1)
    phi = np.array([[1.0], [1.0]])
    with pytest.raises(SingularMatrix):
        retraction.oblique_projection(phi, phi, K)
    with pytest.raises(SingularMatrix):
        retraction.oblique_projection(phi, np.stack([phi, 2.0 * phi]), K)


def test_stacked_projections_solve_matrix_right_hand_sides(monkeypatch):
    """Each batched solve of the stacked pair projections gets a right-hand
    side with the batch shape of its cross matrices, which numpy's solve
    takes for a stack of matrices in every version (numpy < 2 reads a 2-D b
    against a 3-D a as a stack of vectors)."""
    shapes = []
    solve = np.linalg.solve

    def recorded(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return solve(a, b)

    u_p, u_m, _, _ = lagrangian_pair(None, 3, 1)
    res = retraction.straighten(u_p, u_m)
    K = krein.make_standard(3, 3)
    ts = np.linspace(0.0, 1.0, retraction.SEGMENT_SAMPLES)
    monkeypatch.setattr(np.linalg, "solve", recorded)
    stack = res.operators(ts, K)
    assert shapes == [((len(ts), 3, 3), (len(ts), 3, 6))] * 2
    monkeypatch.undo()
    for tv, b in zip(ts, stack):
        p_p, p_m = retraction._pair_projections(u_p, res.u_minus_at([tv])[0], K)
        assert np.max(np.abs(b - 1j * (p_p - p_m))) <= 1e-13


def test_singular_straightening_stack_is_a_final_stage_error(monkeypatch,
                                                             tmp_path, capsys):
    """LAPACK's singular verdict in the batched solve of the straightening
    stack (the only stacked solve of a retraction) is a typed error of the
    final checks, and ``retract`` exits with the retraction code."""
    solve = np.linalg.solve

    def singular_stack(a, b):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    K = krein.make_standard(2, 2)
    h = krein.random_j_hermitian(K, 5)
    fileio.write_matrix_file(tmp_path / "h.json", h, K)
    monkeypatch.setattr(np.linalg, "solve", singular_stack)
    with pytest.raises(StageError) as info:
        retraction.retract_to_model(h, K)
    assert info.value.stage == "final"
    assert isinstance(info.value.cause, SingularMatrix)
    assert cli.main(["retract", str(tmp_path / "h.json")]) == cli.EXIT_RETRACTION
    assert "stage 'final'" in capsys.readouterr().err
