"""Stagewise and end-to-end checks of the retraction pipeline."""

import json

import numpy as np
import pytest
import scipy.linalg as sla

from kreinlab import krein, numerics, retraction, signature
from kreinlab.errors import IncompatibleDimensions, NotGapped, NotInClass
from kreinlab.realsym import (antisymmetric_unitary_factor, interleaved_skew,
                              make_real_structure, random_member, standard_skew,
                              symmetric_unitary_sqrt)

ALL_KINDS = ((1, 1), (-1, -1), (-1, 1), (1, -1))


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
    lift = retraction.lift_kernel(np.zeros((2, 2)), K)
    assert lift.kernel_dim == 0
    np.testing.assert_allclose(lift.segment.end, skew_pair(), atol=1e-9)
    assert lift.segment.path.verify_membership(n_samples=5) <= 1e-8


def test_lift_definite_kernel_untouched():
    # flat operator with a definite kernel direction: nothing to pair
    K = krein.make_standard(2, 1)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2], h[2, 0] = 1j, 1j  # skew pair on the (+,-) coordinates (0, 2)
    assert krein.is_j_hermitian(h, K).ok
    lift = retraction.lift_kernel(h, K)
    assert lift.kernel_dim == 1
    assert lift.kernel_inertia == (1, 0)
    np.testing.assert_allclose(lift.segment.end, h, atol=1e-10)


def test_lift_symplectic_removes_kernel():
    K = krein.make_standard(1, 1)
    R = make_real_structure((1, -1), 1, 1)
    lift = retraction.lift_kernel(np.zeros((2, 2)), K, R)
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
    lift = retraction.lift_kernel(seg.end, K, R)
    assert lift.kernel_dim == 2
    assert lift.kernel_inertia == (1, 1)


def test_lagrangian_frames_skew_pair():
    K = krein.make_standard(1, 1)
    frames = retraction.lagrangian_frames(skew_pair(), K)
    np.testing.assert_allclose(frames.u_plus, [[1.0]], atol=1e-9)
    np.testing.assert_allclose(frames.u_minus, [[-1.0]], atol=1e-9)
    np.testing.assert_allclose(frames.certificate, 2.0, atol=1e-9)


def test_lagrangian_frames_isotropy_and_reembedding():
    K = krein.make_standard(3, 3)
    h = krein.random_j_hermitian(K, 4)
    seg = retraction.spectral_flatten(h, K)
    lift = retraction.lift_kernel(seg.end, K)
    frames = retraction.lagrangian_frames(lift.segment.end, K)
    nn = 3
    for u in (frames.u_plus, frames.u_minus):
        assert numerics.norm(u.conj().T @ u - np.eye(nn)) <= 1e-9
    phi = np.vstack([frames.u_plus, np.eye(nn)]) / np.sqrt(2)
    assert numerics.norm(phi.conj().T @ K.J @ phi) <= 1e-9
    assert (K.n_plus, K.n_minus) == (nn, nn)


def test_lagrangian_frames_requires_balanced():
    K = krein.make_standard(2, 1)
    with pytest.raises(IncompatibleDimensions):
        retraction.lagrangian_frames(np.zeros((3, 3)), K)


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
    np.testing.assert_allclose(res.u_minus_of(0.0), -frames_u, atol=1e-12)
    np.testing.assert_allclose(res.u_minus_of(1.0), -frames_u, atol=1e-12)


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
    p_p, p_m = res.projections(1.0, K)
    assert numerics.norm(p_p - p_p.conj().T) <= 1e-8
    assert numerics.norm(p_m - p_m.conj().T) <= 1e-8
    assert min(res.certificates) > 1e-8
    np.testing.assert_allclose(res.u_minus_of(1.0), -u_p, atol=1e-9)


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
    lift = retraction.lift_kernel(seg.end, K, R)
    frames = retraction.lagrangian_frames(lift.segment.end, K)
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
        for tv in ts:
            um = reference_u_minus(res, tv)
            assert numerics.norm(res.u_minus_of(tv) - um) <= 1e-12
            want.append(np.linalg.svd(um.conj().T @ u_p - np.eye(m),
                                      compute_uv=False)[-1])
        np.testing.assert_allclose(res.certificates, want, rtol=0, atol=1e-12)
        assert numerics.norm(res.u_minus_of(0.0) - u_m) <= 1e-12


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
    lift = retraction.lift_kernel(seg.end, K)
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
