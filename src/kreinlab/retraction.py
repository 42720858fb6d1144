"""Executable deformation retractions down to the model operator.

The pipeline chains three explicit homotopies inside the J-hermitian
(optionally real-symmetric) operators:

1. flatten  -- H_t = (1-t) H + i t (P_+ - P_-), ending with spectrum in
   {-i, 0, i};
2. lift     -- a finite-rank perturbation built from a class-adapted frame
   of the kernel removes as much kernel degeneracy as the symmetry allows
   (all of it, except a forced two-dimensional kernel of inertia (1,1) for
   kind (-1,-1) with odd half-multiplicity);
3. straighten -- the ranges of the Riesz projections P_+- are Lagrangian and
   parametrized by unitaries u_+-; a branch-cut-at-1 logarithm path deforms
   the pair to (u, -u), making both projections orthogonal.

The terminal operator is i (P_{+,1} - P_{-,1}) = i [[0, u], [u*, 0]]; its
lower-left block in the J-grading is the terminal Fredholm block A = u*,
whose symmetry class is forced by the kind: real for (1,1), anti-symmetric
for (-1,-1), quaternionic for (-1,1), symmetric for (1,-1).

The input H is split from one eigendecomposition: P_+- from the
eigenvectors of the half-planes, P_0 = 1 - P_+ - P_-, and Sig(H) from J on
range P_0 (:func:`_halfplane_split`); only where the eigenvectors cannot
decide is H partitioned by contour quadrature.  The flattened operator D,
the member part of i(P_+ - P_-), carries H's projections and the lifted
one D's, moved by the lift's exactly flat V; each passes the checks of
:func:`spectral.flat_partition`.  Only the terminal, whose projections are
orthogonal, takes Lagrange interpolants, for its independent Sig check.
A segment's endpoints are its path's samples at t = 0 and t = 1.  Flatten
and lift are affine in t, so their membership is certified at their
endpoints, each operator once.  A lift with V = 0 ends at D itself.

One straightening tail serves every case: frames, :func:`straighten` and
the path.  Without residual kernel it straightens the lifted operator
itself; with the forced (1,1)-kernel of kind (-1,-1) it straightens the
block B = Theta^+ H Theta on the kernel's complement and carries the block
path back as Theta B(t) Theta^+.  The straightening reads every u_-(t) from
one eigendecomposition of its logarithm h and certifies all its samples
with one stacked SVD and one stacked class residual.  The straightening
path b(t) = i(P_+(t) - P_-(t)) is then evaluated once, as a stack of its
SEGMENT_SAMPLES samples (one batched solve per projection), and checked
for membership as a stack; the rows at t = 0 and t = 1 are the path's
start and the terminal, whose J-residual from the same stack serves its
Sig report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import config, numerics, signature, spectral
from .errors import (DegenerateForm, DegenerateSubspace,
                     FramePreparationFailed, IncompatibleDimensions,
                     KreinLabError, MembershipError, NoSeparatingContour,
                     NotFredholmPair, NotGapped, NotInClass, NotInvariant,
                     NotLagrangian, PathBlocked, SingularMatrix, StageError)
from .homotopy import OperatorPath
from .krein import KreinStructure
from .realsym import (RealStructure, _require_class_member, _unitary_root,
                      antisymmetric_unitary_factor, conj, interleaved_skew,
                      is_member, normalize_krein_pair, standard_skew,
                      symmetric_unitary_sqrt, symmetrize_hermitian)

SEGMENT_SAMPLES = 9   # stacked samples of the straightening segment


@dataclass
class PathSegment:
    """A retraction stage; its endpoints are the samples of its path, and
    ``projections`` the (P_+, P_0, P_-) its end was built from, if any."""

    stage: str
    path: OperatorPath
    projections: tuple | None = None

    @property
    def start(self) -> np.ndarray:
        return self.path.matrix(self.path.t_start)

    @property
    def end(self) -> np.ndarray:
        return self.path.matrix(self.path.t_end)


@dataclass
class RetractionTrace:
    segments: list[PathSegment]
    terminal: np.ndarray
    u_plus: np.ndarray
    terminal_block: np.ndarray
    terminal_class: str
    terminal_symmetry_residual: float | None
    terminal_spectrum_residual: float
    kernel_dim_after_lift: int
    kernel_inertia: tuple[int, int]
    sig_initial: int
    sig_terminal: int
    membership_max_residual: float
    chain_max_gap: float

    def to_dict(self) -> dict:
        def mat(a):
            return [[float(x.real), float(x.imag)] for x in np.asarray(a).ravel()]

        K = self.segments[0].path.structure
        R = self.segments[0].path.real_structure
        return {
            "stages": [s.stage for s in self.segments],
            "n_plus": K.n_plus,
            "n_minus": K.n_minus,
            "kind": list(R.kind.as_tuple()) if R is not None else None,
            "sig_initial": self.sig_initial,
            "sig_terminal": self.sig_terminal,
            "kernel_dim_after_lift": self.kernel_dim_after_lift,
            "kernel_inertia": list(self.kernel_inertia),
            "terminal_class": self.terminal_class,
            "terminal_symmetry_residual": self.terminal_symmetry_residual,
            "terminal_spectrum_residual": self.terminal_spectrum_residual,
            "membership_max_residual": self.membership_max_residual,
            "chain_max_gap": self.chain_max_gap,
            "terminal_block_shape": list(self.terminal_block.shape),
            "terminal_block": mat(self.terminal_block),
            "u_plus": mat(self.u_plus),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)


def _segment(stage, sampler, K, R, projections=None) -> PathSegment:
    path = OperatorPath(sampler=sampler, structure=K, kind="hermitian",
                        real_structure=R, name=stage)
    return PathSegment(stage=stage, path=path, projections=projections)


# ------------------------------------------------------------------ flatten

def _halfplane_projections(part):
    """Sums (P_+, P_0, P_-) of the Riesz projections of a hermitian-tagged
    partition over the upper half-plane, the real axis and the lower
    half-plane."""
    sums = {region: np.zeros((part.dim, part.dim), complex)
            for region in ("upper-half", "real-axis", "lower-half")}
    for c in part.clusters:
        sums[c.region] += c.projection
    return tuple(sums.values())


def flat_spectrum_residual(eigs) -> float:
    """Max distance of the eigenvalues ``eigs`` to the set {-i, 0, i}."""
    targets = np.array([-1j, 0.0, 1j])
    dist = np.abs(np.asarray(eigs)[:, None] - targets)
    return float(np.max(np.min(dist, axis=1)))


def _halfplane_split(h_mat, K: KreinStructure | None = None):
    """(P_+, P_0, P_-) of a J-hermitian H and, given ``K``, Sig(H).

    One eigendecomposition H X = X diag(lam) gives
    P_+- = X[:, S_+-] X^-1[S_+-, :] over the eigenvalues of the upper and
    lower half-plane, and P_0 = 1 - P_+ - P_-, so no eigenvector of a real
    eigenvalue is read and a Jordan block on the axis does no harm.  Sig(H)
    is the inertia of J on range P_0: the spectral subspaces of distinct
    real eigenvalues are J-orthogonal and each is J-nondegenerate, so that
    inertia is the sum of the per-cluster inertias that
    :func:`signature.invariant_report` adds.

    Where the eigenvectors cannot decide, H takes the hermitian-tagged
    :func:`spectral.spectral_partition` instead (its errors, its
    projections summed by region, and Sig by the report's rule): an
    eigenvalue in the ambiguity zone, a cluster straddling regions or
    without a separating circle, a singular X, a projection with norm over
    :data:`spectral.EIGENVECTOR_PROJECTION_MAX_NORM` or failing the
    partition's idempotency, commutation or trace checks, or a degenerate
    form on range P_0.
    """
    split = _eigenvector_split(h_mat, K)
    if split is not None:
        return split
    part = spectral.spectral_partition(h_mat, "hermitian")
    sig = None if K is None else \
        sum(signature.inertia(c, K).sig for c in part.clusters)
    return _halfplane_projections(part), sig


def _eigenvector_split(h_mat, K):
    """:func:`_halfplane_split` from the eigenvectors, or None where it
    falls back to the partition."""
    t = config.DEFAULT
    eigs, vecs = numerics.eig(h_mat)
    off = np.abs(eigs.imag)
    if np.any((off > t.eps_region) & (off <= t.ambiguous_factor * t.eps_region)):
        return None
    region = np.sign(eigs.imag) * (off > t.eps_region)   # +1, 0 (axis), -1
    # The partition clusters eigenvalues within delta of each other: a
    # cluster straddles regions exactly when two such eigenvalues differ in
    # region, and each cluster needs a separating circle, which for a lone
    # eigenvalue has radius max(gap, delta) / 2
    delta = spectral.default_delta(eigs)
    gaps = np.abs(eigs[:, None] - eigs)
    np.fill_diagonal(gaps, np.inf)
    close = gaps <= delta
    if np.any(close & (region[:, None] != region)):
        return None
    lone = ~close.any(axis=1)
    radius = np.maximum(gaps.min(axis=1), delta) / 2.0
    if np.any(lone & (radius < t.contour_clearance
                      * (1.0 + np.abs(eigs) + radius))):
        return None
    if not lone.all():
        for idx in spectral.cluster_eigenvalues(eigs, delta):
            try:
                spectral._separating_circle(eigs[idx], np.delete(eigs, idx),
                                            delta)
            except NoSeparatingContour:
                return None
    inverse = spectral._inverse(vecs)
    if inverse is None:
        return None
    up, dn = region > 0, region < 0
    p_up = vecs[:, up] @ inverse[up, :]
    p_dn = vecs[:, dn] @ inverse[dn, :]
    p_re = np.eye(h_mat.shape[0]) - p_up - p_dn
    ps = np.stack([p_up, p_re, p_dn])
    counts = np.array([up.sum(), (region == 0).sum(), dn.sum()])
    size = np.linalg.norm(ps, axis=(1, 2)).max()
    idem = np.linalg.norm(ps @ ps - ps, axis=(1, 2)).max()
    comm = np.linalg.norm(ps @ h_mat - h_mat @ ps, axis=(1, 2)).max()
    rank = np.abs(np.trace(ps, axis1=1, axis2=2) - counts).max()
    if (size > spectral.EIGENVECTOR_PROJECTION_MAX_NORM or idem > t.riesz
            or comm > t.riesz * max(numerics.norm(h_mat), 1.0)
            or rank > t.riesz_trace):
        return None
    projections = (p_up, p_re, p_dn)
    if K is None:
        return projections, None
    if not counts[1]:
        return projections, 0
    try:
        frame = numerics.range_frame(p_re, counts[1])
        return projections, signature.form_inertia(frame, K).sig
    except DegenerateForm:
        return None


def spectral_flatten(h_mat, K: KreinStructure,
                     R: RealStructure | None = None) -> PathSegment:
    """Deform H to spectrum inside {-i, 0, i} along
    H_t = (1-t) H + i t (P_+ - P_-)."""
    h_mat = numerics.as_matrix(h_mat, square=True, name="H")
    K.check_dim(h_mat)
    _require_class_member(h_mat, K, R, "hermitian")
    return _flatten(h_mat, _halfplane_split(h_mat)[0], K, R)


def _flatten(h_mat, projections, K, R) -> PathSegment:
    """The flatten segment of a member H from its projections (P_+, P_0, P_-),
    which it carries; its path's sample at t = 1 holds the eigenvalues of
    the endpoint.  The endpoint is the member part of i(P_+ - P_-): its
    J-hermitian part and then, with ``R``, its real-symmetric part, so it is
    a member to rounding however accurate the projections are."""
    d_op = 1j * (projections[0] - projections[2])
    d_op = (d_op + np.outer(K.signs, K.signs) * d_op.conj().T) / 2.0
    if R is not None:
        d_op = symmetrize_hermitian(d_op, R)

    def sampler(s):
        return (1.0 - s) * h_mat + s * d_op

    seg = _segment("flatten", sampler, K, R, projections)
    res = flat_spectrum_residual(seg.path.sample(1.0)[1])
    if res > config.DEFAULT.terminal_spectrum:
        raise FramePreparationFailed(
            f"flatten endpoint spectrum off {{-i,0,i}} by {res:.3e}")
    return seg


# --------------------------------------------------------------------- lift

def _corner_v(n_plus: int, n_minus: int) -> np.ndarray:
    """J_Psi-hermitian, purely imaginary V pairing min(n+,n-) opposite-sign
    directions; spectrum {+-i} with a definite kernel of the surplus."""
    n = n_plus + n_minus
    m = min(n_plus, n_minus)
    v = np.zeros((n, n), complex)
    for i in range(m):
        v[i, n_plus + i] = 1j
        v[n_plus + i, i] = 1j
    return v


def _lift_v(kind, n_plus: int, n_minus: int) -> np.ndarray:
    """The degeneracy-lifting perturbation in the normal-form frame gauge."""
    if kind is None or kind in ((1, 1), (-1, 1)):
        return _corner_v(n_plus, n_minus)
    if kind == (1, -1):
        m = n_plus
        v = np.zeros((2 * m, 2 * m), complex)
        v[:m, m:] = np.eye(m)
        v[m:, :m] = -np.eye(m)
        return v
    if kind == (-1, -1):
        m = n_plus
        if m % 2 == 0:
            b = standard_skew(m) if m else np.zeros((0, 0))
        else:
            k = m // 2
            b = np.zeros((m, m))
            if k:
                b[:k, k + 1:] = -np.eye(k)
                b[k + 1:, :k] = np.eye(k)
        v = np.zeros((2 * m, 2 * m), complex)
        v[:m, m:] = b
        v[m:, :m] = b  # -B* = B for real antisymmetric B
        return v
    raise ValueError(f"unknown kind {kind}")


@dataclass
class LiftResult:
    segment: PathSegment
    kernel: np.ndarray               # orthonormal frame of the end's kernel
    kernel_inertia: tuple[int, int]

    @property
    def kernel_dim(self) -> int:
        return self.kernel.shape[1]


def lift_kernel(flat_segment: PathSegment, K: KreinStructure,
                R: RealStructure | None = None) -> LiftResult:
    """Lift the kernel degeneracy of the flat end D of ``flat_segment`` by a
    finite-rank, class-compatible perturbation H_t = D + t Psi n V n^{-1}
    Psi* P_0.

    The kernel frame Psi is prepared so that the restricted form Psi* J Psi
    is diagonal and the real symmetry acts in normal form on the frame
    coordinates; V then pairs opposite-inertia kernel directions and pushes
    them to +- i t.  V is exactly flat, so the lifted end's projections are
    D's plus (Psi n) Q(V) (n^{-1} Psi* P_0), Q(V) the interpolants
    -(V^2 +- iV)/2 of P_+- and 1 + V^2, which replaces P_0.
    """
    t = config.DEFAULT
    h_flat, eigs = flat_segment.path.sample(1.0)
    _require_class_member(h_flat, K, R, "hermitian")
    p_up, p_re, p_dn = flat = flat_segment.projections
    mult = spectral._flat_partition(h_flat, eigs, flat).total_multiplicity(
        "real-axis")
    if mult == 0:
        def sampler(s):
            return h_flat

        return LiftResult(segment=_segment("lift", sampler, K, R, flat),
                          kernel=np.zeros((K.dim, 0), complex),
                          kernel_inertia=(0, 0))

    psi0 = numerics.range_frame(p_re, mult)
    j_psi = psi0.conj().T @ K.apply(psi0)
    w_j = np.linalg.eigvalsh(j_psi)
    if np.min(np.abs(w_j)) <= t.zero_form:
        raise DegenerateSubspace("kernel form is numerically degenerate")

    if R is None:
        w, v = numerics.herm_eig(j_psi)
        order = np.argsort(-w)
        psi = psi0 @ v[:, order]
        d = w[order]
        kind = None
    else:
        s_anti = psi0.conj().T @ R.S @ conj(psi0)
        leak = numerics.norm(R.S @ conj(psi0) - psi0 @ s_anti)
        if leak > 1e-8:
            raise FramePreparationFailed(
                f"kernel is not conjugation invariant (leak {leak:.3e})")
        kind = R.kind.as_tuple()
        try:
            norm_pair = normalize_krein_pair(j_psi, s_anti, *kind)
        except KreinLabError as exc:
            raise FramePreparationFailed(str(exc)) from exc
        psi = psi0 @ norm_pair.R_unitary_part
        d = norm_pair.eigenvalues

    n_plus = int(np.sum(d > 0))
    n_minus = mult - n_plus
    v_mat = _lift_v(kind, n_plus, n_minus)
    n_psi = np.abs(d) ** -0.5
    # P_0 = Psi j^{-1} Psi* J is the Riesz projection on the kernel of a
    # flat operator (range E_0, kernel J E_0^perp)
    j_new = psi.conj().T @ K.apply(psi)
    p0 = psi @ np.linalg.solve(j_new, psi.conj().T @ K.J)
    left = psi * n_psi[None, :]
    right = np.diag(1.0 / n_psi) @ psi.conj().T @ p0
    pert = left @ v_mat @ right

    # membership of the perturbation direction (affine path: endpoint checks
    # certify every t)
    herm_res = numerics.norm(pert.conj().T @ K.J - K.apply(pert))
    if herm_res > 1e-8 * max(1.0, numerics.norm(pert)):
        raise FramePreparationFailed(
            f"perturbation is not J-hermitian (residual {herm_res:.3e})")
    if R is not None:
        sym_res = numerics.norm(R.S.T @ conj(pert) @ R.S + pert)
        if sym_res > 1e-8 * max(1.0, numerics.norm(pert)):
            raise FramePreparationFailed(
                f"perturbation breaks the real symmetry (residual {sym_res:.3e})")

    # V = 0 (a (1,1)-kernel of kind (-1,-1)) leaves D in place: the lifted
    # end is D, whose eigenvalues and projections passed the flat checks
    moved = bool(pert.any())
    v2 = v_mat @ v_mat
    lifted = flat if not moved else (
        p_up + left @ (-(v2 + 1j * v_mat) / 2.0) @ right,
        left @ (np.eye(mult) + v2) @ right,
        p_dn + left @ (-(v2 - 1j * v_mat) / 2.0) @ right)
    sampler = (lambda s: h_flat + s * pert) if moved else (lambda s: h_flat)
    seg = _segment("lift", sampler, K, R, lifted)
    kernel = numerics.kernel_frame(seg.end)
    k_dim = kernel.shape[1]
    k_inertia = signature.form_inertia(kernel, K).as_tuple() if k_dim else (0, 0)
    _check_lift_postcondition(kind, n_plus, n_minus, k_dim, k_inertia)
    if moved:
        spectral._flat_partition(seg.end, seg.path.sample(1.0)[1], lifted)
    return LiftResult(segment=seg, kernel=kernel, kernel_inertia=k_inertia)


def _check_lift_postcondition(kind, n_plus, n_minus, k_dim, k_inertia):
    if kind == (1, -1):
        expected = 0
    elif kind == (-1, -1):
        expected = 0 if n_plus % 2 == 0 else 2
    else:
        expected = abs(n_plus - n_minus)
    if k_dim != expected:
        raise FramePreparationFailed(
            f"lift left kernel of dimension {k_dim}, expected {expected}")
    if kind == (-1, -1) and k_dim == 2 and k_inertia != (1, 1):
        raise FramePreparationFailed(
            f"residual kernel inertia {k_inertia}, expected (1, 1)")
    if kind in (None, (1, 1), (-1, 1)) and k_dim:
        if 0 not in k_inertia:
            raise FramePreparationFailed(
                f"residual kernel not definite: inertia {k_inertia}")


# --------------------------------------------------------------- Lagrangian

def oblique_projection(phi_range, phi_kernel, K: KreinStructure) -> np.ndarray:
    """P = Phi_r (Phi_k* J Phi_r)^{-1} Phi_k* J, the projection with range
    span(Phi_r) and kernel the J-orthogonal complement of span(Phi_k).

    Either frame may be a stack of frames along a leading axis; the result
    is then the stack of projections, from one batched solve.  A singular
    cross matrix Phi_k* J Phi_r raises :class:`SingularMatrix`.
    """
    phi_k_star = np.swapaxes(phi_kernel.conj(), -1, -2)
    cross = phi_k_star @ K.apply(phi_range)
    rhs = phi_k_star @ K.J
    # a right-hand side with the batch shape of cross is a stack of
    # matrices under every numpy's solve (numpy < 2 takes an (n, m) one
    # against a stacked cross for a stack of vectors)
    rhs = np.broadcast_to(rhs, cross.shape[:-2] + rhs.shape[-2:])
    try:
        return phi_range @ np.linalg.solve(cross, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"cross matrix Phi_k* J Phi_r: {exc}") from exc


def _pair_projections(u_plus, u_minus, K: KreinStructure):
    """(P_+, P_-) of the Lagrangian pair with frames (u_+-; 1)/sqrt2;
    stacked when ``u_minus`` is a stack of unitaries."""
    nn = u_plus.shape[0]
    eye = np.broadcast_to(np.eye(nn), u_minus.shape)
    phi_p = np.vstack([u_plus, np.eye(nn)]) / np.sqrt(2.0)
    phi_m = np.concatenate([u_minus, eye], axis=-2) / np.sqrt(2.0)
    return (oblique_projection(phi_p, phi_m, K),
            oblique_projection(phi_m, phi_p, K))


@dataclass
class LagrangianFrames:
    u_plus: np.ndarray
    u_minus: np.ndarray
    certificate: float


def lagrangian_frames(p_plus, p_minus, K: KreinStructure) -> LagrangianFrames:
    """Extract the unitaries parametrizing the Lagrangian ranges of P_+-.

    Requires N+ = N- and a trivial kernel.  A Lagrangian frame can be
    column-reduced to (u; 1)/sqrt(2); u is recovered from an arbitrary
    orthonormal frame (a; b) as (sqrt2 a) (polar of sqrt2 b)^* and validated
    by re-embedding through the projection representation.
    """
    t = config.DEFAULT
    if K.n_plus != K.n_minus:
        raise IncompatibleDimensions(
            f"Lagrangian parametrization needs N+ = N-, got "
            f"({K.n_plus},{K.n_minus})")
    nn = K.n_plus
    units = []
    for label, proj in (("plus", p_plus), ("minus", p_minus)):
        frame = numerics.range_frame(proj, nn)
        iso = numerics.norm(frame.conj().T @ K.apply(frame))
        if iso > t.isotropy:
            raise NotLagrangian(f"range of P_{label} not isotropic ({iso:.3e})")
        a, b = frame[:nn, :], frame[nn:, :]
        u = (np.sqrt(2.0) * a) @ numerics.polar_unitary(np.sqrt(2.0) * b).conj().T
        units.append(numerics.polar_unitary(u))
    u_p, u_m = units
    cert = float(np.linalg.svd(u_m.conj().T @ u_p - np.eye(nn),
                                compute_uv=False)[-1])
    if cert <= t.fredholm_cert:
        raise NotFredholmPair(
            f"u_-^* u_+ - 1 has smallest singular value {cert:.3e}")
    rec_p, rec_m = _pair_projections(u_p, u_m, K)
    err = max(numerics.norm(rec_p - p_plus), numerics.norm(rec_m - p_minus))
    if err > t.lagrangian:
        raise NotLagrangian(f"re-embedding residual {err:.3e}")
    return LagrangianFrames(u_plus=u_p, u_minus=u_m, certificate=cert)


# ------------------------------------------------------------ factorization

def factorize_unitary(v, cls: str, s=None, branch_point=None) -> np.ndarray:
    """Factor a unitary of the declared class.

    symmetric:      v = w^t w        with w = exp(i h / 2), h = -i log v
    odd-symmetric:  v = s* w^t s w   with w = s exp(i h / 2)

    With ``branch_point=None`` the logarithm cut is placed in the largest
    spectral gap; an explicit branch point with spectrum on it raises
    :class:`NotGapped` (continuity of v -> w needs a gapped v).
    """
    v = numerics.as_matrix(v, square=True, name="v")
    uni = numerics.norm(v.conj().T @ v - np.eye(v.shape[0]))
    if uni > 1e-9:
        raise NotInClass(f"input is not unitary (residual {uni:.3e})")
    if cls == "symmetric":
        dev = numerics.norm(v.T - v)
        if dev > 1e-9:
            raise NotInClass(f"not symmetric (residual {dev:.3e})")
        return _unitary_root(v, None, branch_point)
    if cls == "odd-symmetric":
        if s is None:
            s = standard_skew(v.shape[0])
        dev = numerics.norm(s.T @ v.T @ s - v)
        if dev > 1e-9:
            raise NotInClass(f"not odd-symmetric (residual {dev:.3e})")
        return _unitary_root(v, s, branch_point)
    raise ValueError(f"unknown class {cls!r}")


# -------------------------------------------------------------- straighten

SYMMETRY_OPTIONS = ("none", "symmetric", "odd-symmetric", "real-avoiding-1",
                    "quaternionic-avoiding-1")
CERT_SAMPLES = 33     # Fredholm certificate samples along the straightening


@dataclass
class StraightenResult:
    u_plus: np.ndarray
    log_generator: np.ndarray          # h with v_t = exp(i((1-t) h + t pi))
    symmetry: str
    certificates: list[float]
    u_minus_at: object                 # callable ts -> u_-(t), stacked over ts

    def operators(self, ts, K: KreinStructure) -> np.ndarray:
        """b(t) = i(P_+(t) - P_-(t)) for every t of ``ts``, stacked along the
        first axis."""
        p_p, p_m = _pair_projections(self.u_plus, self.u_minus_at(ts), K)
        return 1j * (p_p - p_m)


def _class_residual(u, symmetry, s):
    """Distance of the unitary u from its straightening class; one residual
    per matrix when u is a stack."""
    if symmetry == "real-avoiding-1":
        dev = conj(u) - u
    elif symmetry == "quaternionic-avoiding-1":
        dev = s.T @ conj(u) @ s - u
    elif symmetry == "symmetric":
        dev = np.swapaxes(u, -1, -2) - u
    elif symmetry == "odd-symmetric":
        dev = np.swapaxes(u, -1, -2) + u
    else:
        return np.zeros(u.shape[:-2])
    return np.linalg.norm(dev, axis=(-2, -1))


def straighten(u_plus, u_minus, symmetry: str = "none", s=None) -> StraightenResult:
    """Deform the Lagrangian pair (u_+, u_-) to (u_+, -u_+) keeping
    u_-(t)^* u_+(t) - 1 invertible throughout.

    The transition unitary runs along exp(i((1-t) h + t pi)) with h the
    branch-cut-at-1 logarithm, which keeps 1 out of its spectrum for all t
    and stays inside the declared symmetry class:

    * none / real-avoiding-1 / quaternionic-avoiding-1:
        u_-(t) = u_+ v_t^*,              v_0 = u_-^* u_+
    * symmetric:
        u_-(t) = v_+ v_t^* v_+,          v_0 = v_+ u_-^* v_+, u_+ = v_+^2
    * odd-symmetric:
        u_-(t) = v_+^t v_t^* s v_+,      v_0 = s v_+ u_-^* v_+^t, u_+ = v_+^t s v_+
    """
    if symmetry not in SYMMETRY_OPTIONS:
        raise ValueError(f"symmetry must be one of {SYMMETRY_OPTIONS}")
    u_plus = numerics.as_matrix(u_plus, square=True, name="u_plus")
    u_minus = numerics.as_matrix(u_minus, square=True, name="u_minus")
    nn = u_plus.shape[0]
    if symmetry in ("odd-symmetric", "quaternionic-avoiding-1") and s is None:
        s = standard_skew(nn) if symmetry == "odd-symmetric" else interleaved_skew(nn)
    for u in (u_plus, u_minus):
        res = _class_residual(u, symmetry, s)
        if res > 1e-7:
            raise NotInClass(
                f"u does not satisfy the {symmetry} class (residual {res:.3e})")

    if symmetry == "symmetric":
        v_plus = symmetric_unitary_sqrt(u_plus)
        v0 = v_plus @ u_minus.conj().T @ v_plus
    elif symmetry == "odd-symmetric":
        v_plus = antisymmetric_unitary_factor(u_plus, s)
        v0 = s @ v_plus @ u_minus.conj().T @ v_plus.T
    else:
        v_plus = None
        v0 = u_minus.conj().T @ u_plus
    try:
        h = numerics.unitary_log(v0, branch_point=1.0 + 0.0j)
    except NotGapped as exc:
        raise NotFredholmPair(f"transition unitary not gapped at 1: {exc}") from exc

    # v_t = exp(i((1-t) h + t pi)) = W diag(exp(i((1-t) theta + t pi))) W*
    # from the one eigendecomposition h = W diag(theta) W*; u_-(t) is
    # left @ diag(exp(-i((1-t) theta + t pi))) @ right
    theta, w = numerics.herm_eig(h)
    if symmetry == "symmetric":
        left, right = v_plus @ w, w.conj().T @ v_plus
    elif symmetry == "odd-symmetric":
        left, right = v_plus.T @ w, w.conj().T @ s @ v_plus
    else:
        left, right = u_plus @ w, w.conj().T

    def u_minus_at(ts):
        """u_-(t) for every t of ``ts``, stacked along the first axis."""
        ts = np.asarray(ts, dtype=float)[:, None]
        phases = np.exp(-1j * ((1.0 - ts) * theta + np.pi * ts))
        return (left * phases[:, None, :]) @ right

    def certify(samples):
        ts = np.linspace(0.0, 1.0, samples)
        u_ms = u_minus_at(ts)
        res = _class_residual(u_ms, symmetry, s)
        over = np.flatnonzero(res > 1e-7)
        if over.size:
            k = over[0]
            raise PathBlocked(f"class residual {res[k]:.3e} at t={ts[k]:.3f}")
        gaps = u_ms.conj().transpose(0, 2, 1) @ u_plus - np.eye(nn)
        return np.linalg.svd(gaps, compute_uv=False)[:, -1].tolist()

    certs = certify(CERT_SAMPLES)
    if min(certs) <= config.DEFAULT.fredholm_cert:
        certs = certify(2 * CERT_SAMPLES)
        if min(certs) <= config.DEFAULT.fredholm_cert:
            raise PathBlocked(
                f"certificate fell to {min(certs):.3e} along the path")
    res_end = numerics.norm(u_minus_at([1.0])[0] + u_plus)
    if res_end > 1e-8:
        raise PathBlocked(f"endpoint is not (u, -u): residual {res_end:.3e}")
    return StraightenResult(u_plus=u_plus, log_generator=h, symmetry=symmetry,
                            certificates=certs, u_minus_at=u_minus_at)


# ----------------------------------------------------------------- pipeline

_TERMINAL_CLASS = {
    None: "none",
    (1, 1): "real",
    (1, -1): "symmetric",
    (-1, -1): "anti-symmetric",
    (-1, 1): "quaternionic",
}


def _symmetry_option(kind):
    return {None: "none", (1, 1): "real-avoiding-1",
            (-1, 1): "quaternionic-avoiding-1", (1, -1): "symmetric",
            (-1, -1): "odd-symmetric"}[kind]


def retract_to_model(h_mat, K: KreinStructure,
                     R: RealStructure | None = None) -> RetractionTrace:
    """Full retraction pipeline flatten -> lift -> straighten.

    Requires N+ = N-.  For kind (-1,-1) with a forced residual kernel the
    straightening happens on the complementary block carried by a basis
    that normalizes the block Krein structure; the kernel rides along as an
    exact zero block and witnesses Sig_2 = 1.
    """
    t = config.DEFAULT
    if K.n_plus != K.n_minus:
        raise IncompatibleDimensions(
            f"retraction hypothesis N+ = N- violated: ({K.n_plus},{K.n_minus})")
    h_mat = numerics.as_matrix(h_mat, square=True, name="H")
    K.check_dim(h_mat)
    kind = R.kind.as_tuple() if R is not None else None
    member = _require_class_member(h_mat, K, R, "hermitian")
    projections, sig_initial = _halfplane_split(h_mat, K)

    try:
        seg_flat = _flatten(h_mat, projections, K, R)
    except KreinLabError as exc:
        raise StageError("flatten", exc) from exc
    try:
        lift = lift_kernel(seg_flat, K, R)
    except KreinLabError as exc:
        raise StageError("lift", exc) from exc

    try:
        symmetry = _symmetry_option(kind)
        s_arg = interleaved_skew(K.n_plus) if kind == (-1, 1) else None
        p_up, _, p_dn = lift.segment.projections
        if lift.kernel_dim == 0:
            K_blk, carry = K, None
        elif lift.kernel_dim == 2 and kind == (-1, -1):
            K_blk, carry = _kernel_complement(lift, K, R)
            p_up, p_dn = (carry[1] @ p @ carry[0] for p in (p_up, p_dn))
        else:
            raise NotLagrangian(
                f"unexpected residual kernel of dimension {lift.kernel_dim}")
        frames = lagrangian_frames(p_up, p_dn, K_blk)
        res = straighten(frames.u_plus, frames.u_minus, symmetry=symmetry,
                         s=s_arg)
    except KreinLabError as exc:
        raise StageError("straighten", exc) from exc

    def operators(ts):
        """The straightening path at every t of ``ts``, stacked."""
        b = res.operators(ts, K_blk)
        return b if carry is None else carry[0] @ b @ carry[1]

    ts = np.linspace(0.0, 1.0, SEGMENT_SAMPLES)
    try:
        stack = operators(ts)
    except SingularMatrix as exc:
        raise StageError("final", exc) from exc
    seg_straight = _segment("straighten", lambda tv: operators([tv])[0], K, R)
    seg_straight.path.store(0.0, stack[0])
    seg_straight.path.store(1.0, stack[-1])
    segments = [seg_flat, lift.segment, seg_straight]

    # the lift starts at D + 0 pert, so only the straightening can leave a gap
    chain_gap = numerics.norm(lift.segment.end - seg_straight.start)
    if chain_gap > t.chain_gap:
        raise StageError("final", NotInvariant(
            f"segments do not chain: gap {chain_gap:.3e}"))
    # Flatten and lift are affine in t, and both membership residuals are
    # norms of expressions linear in H, hence convex in t: their endpoints
    # bound every interior residual.  H passed its class check above and D
    # ends the flatten and starts the lift, whose end is new only where the
    # lift moved D (not when D has no kernel).  The straightening is
    # checked at its stacked samples.
    ends = [seg_flat] + [lift.segment] * (
        not np.array_equal(lift.segment.end, seg_flat.end))
    j_res, class_res = _hermitian_residuals(stack, K, R)
    worst_membership = max([member.residual, float(np.max(class_res))] + [
        seg.path.membership_residual(1.0) for seg in ends])
    if worst_membership > t.path_membership:
        raise MembershipError(f"path membership residual {worst_membership:.3e}"
                              f" exceeds {t.path_membership:.1e}",
                              residual=worst_membership)
    terminal, terminal_eigs = seg_straight.path.sample(1.0)
    spec_res = flat_spectrum_residual(terminal_eigs)
    if spec_res > t.terminal_spectrum:
        raise StageError("final", NotInvariant(
            f"terminal spectrum off {{-i,0,i}} by {spec_res:.3e}"))
    # the terminal's J-residual, held to the bound of a single operator
    terminal_j_res = float(j_res[-1])
    if terminal_j_res > t.membership:
        raise MembershipError(
            f"operator is not J-hermitian (residual {terminal_j_res:.3e})",
            residual=terminal_j_res)
    sig_terminal = signature.invariant_report(
        spectral.flat_partition(terminal, eigs=terminal_eigs), K,
        terminal_j_res).global_sig
    if sig_terminal != sig_initial:
        raise StageError("final", NotInvariant(
            f"Sig changed along the retraction: {sig_initial} -> {sig_terminal}"))
    a_block = res.u_plus.conj().T
    sym_res = (None if kind is None else
               float(_class_residual(a_block, symmetry, s_arg)))
    if sym_res is not None and sym_res > t.terminal_symmetry:
        raise StageError("final", NotInClass(
            f"terminal block class residual {sym_res:.3e}"))
    return RetractionTrace(
        segments=segments, terminal=terminal, u_plus=res.u_plus,
        terminal_block=a_block, terminal_class=_TERMINAL_CLASS[kind],
        terminal_symmetry_residual=sym_res,
        terminal_spectrum_residual=spec_res,
        kernel_dim_after_lift=lift.kernel_dim,
        kernel_inertia=lift.kernel_inertia,
        sig_initial=sig_initial, sig_terminal=sig_terminal,
        membership_max_residual=worst_membership, chain_max_gap=chain_gap)


def _hermitian_residuals(ops, K: KreinStructure, R: RealStructure | None):
    """J-hermitian residuals ||B* J - J B|| of a stack of operators B, and
    their class residuals: with a real structure the larger of that and
    ||S^t conj(B) S + B||, as :func:`realsym.is_member` gives for each B."""
    j_res = np.linalg.norm(np.swapaxes(ops.conj(), 1, 2) @ K.J - K.apply(ops),
                           axis=(1, 2))
    if R is None:
        return j_res, j_res
    sym = np.linalg.norm(R.S.T @ conj(ops) @ R.S + ops, axis=(1, 2))
    return j_res, np.maximum(j_res, sym)


def _kernel_complement(lift: LiftResult, K: KreinStructure, R: RealStructure):
    """Kind (-1,-1) with a forced (1,1)-kernel E_0 of the lifted operator H:
    the Krein structure of the block B = Theta^+ H Theta on F = J E_0^perp
    and the carriers (Theta, Theta^+).

    Theta satisfies Theta* J Theta = J_std and S conj(Theta) = Theta S_std,
    so B is a standard smaller member; a block path B(t) returns as
    Theta B(t) Theta^+ with Theta^+ = J_std Theta* J, which vanishes on the
    kernel and restricts to B(t) on F.
    """
    eperp = numerics.kernel_frame(lift.kernel.conj().T)
    phi0 = numerics.orthonormal_frame(K.apply(eperp))
    j_f = phi0.conj().T @ K.apply(phi0)
    s_f = phi0.conj().T @ R.S @ conj(phi0)
    leak = numerics.norm(R.S @ conj(phi0) - phi0 @ s_f)
    if leak > 1e-8:
        raise FramePreparationFailed(
            f"complement is not conjugation invariant (leak {leak:.3e})")
    norm_pair = normalize_krein_pair(j_f, s_f, -1, -1)
    theta = phi0 @ norm_pair.R
    K_blk = norm_pair.K
    theta_pinv = K_blk.J @ theta.conj().T @ K.J
    b0 = theta_pinv @ lift.segment.end @ theta
    member = is_member(b0, norm_pair.structure, "hermitian")
    if not member:
        raise FramePreparationFailed(
            f"block operator left the class (residual {member.residual:.3e})")
    return K_blk, (theta, theta_pinv)
