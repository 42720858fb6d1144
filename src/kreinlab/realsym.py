"""Real Krein structures of kind (eta, tau) and the four classical groups.

A real structure is entrywise complex conjugation (written ``conj``) plus a
real orthogonal S with S^2 = eta and J S = tau S J.  Structures are
instantiated in normal form:

* kind (1, 1):    S = 1
* kind (-1, 1):   S = diag(s2, s2, ...) with s2 = [[0,-1],[1,0]] (N+- even)
* kind (1, -1):   S = [[0, 1], [1, 0]]   (N+ = N-)
* kind (-1, -1):  S = [[0, -1], [1, 0]]  (N+ = N-)

Arbitrary valid (J, S) pairs are accepted through
:func:`normalize_krein_pair`, which produces the basis change to normal form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config, numerics, signature, spectral
from .errors import (IncompatibleDimensions, InvariantConstraintViolated,
                     MembershipError, NormalizationFailed, SymmetryViolated)
from .krein import KreinStructure, is_j_hermitian, is_j_unitary, make_standard, \
    random_j_hermitian, require_member
from .signature import InvariantReport


def conj(a) -> np.ndarray:
    """Entrywise complex conjugation in the canonical basis."""
    return np.conj(np.asarray(a))


def standard_skew(n: int) -> np.ndarray:
    """Real orthogonal s with s^2 = -1 in half-block form [[0,-1],[1,0]]."""
    if n % 2 != 0:
        raise IncompatibleDimensions(f"skew structure needs even dimension, got {n}")
    k = n // 2
    s = np.zeros((n, n))
    s[:k, k:] = -np.eye(k)
    s[k:, :k] = np.eye(k)
    return s


def interleaved_skew(n: int) -> np.ndarray:
    """Real orthogonal s with s^2 = -1 as a diagonal of 2x2 blocks."""
    if n % 2 != 0:
        raise IncompatibleDimensions(f"skew structure needs even dimension, got {n}")
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    return numerics.block_diag(*([block] * (n // 2)))


@dataclass(frozen=True)
class RealKind:
    eta: int
    tau: int

    def __post_init__(self):
        if self.eta not in (-1, 1) or self.tau not in (-1, 1):
            raise ValueError(f"kind must be in {{-1,1}}^2, got ({self.eta},{self.tau})")

    def as_tuple(self):
        return (self.eta, self.tau)


@dataclass(frozen=True)
class RealStructure:
    kind: RealKind
    K: KreinStructure
    S: np.ndarray

    def validate(self):
        exact = config.DEFAULT.membership_exact
        n = self.K.dim
        if self.S.shape != (n, n):
            raise IncompatibleDimensions("S shape does not match Krein dimension")
        if numerics.norm(np.imag(self.S)) > exact:
            raise SymmetryViolated("S must be real")
        if numerics.norm(self.S @ self.S - self.kind.eta * np.eye(n)) > exact:
            raise SymmetryViolated("S^2 != eta 1")
        comm = self.K.J @ self.S - self.kind.tau * self.S @ self.K.J
        if numerics.norm(comm) > exact:
            raise SymmetryViolated("J S != tau S J")


def make_real_structure(kind: RealKind | tuple, n_plus: int, n_minus: int) -> RealStructure:
    """Normal-form real structure for the given kind and inertia."""
    if not isinstance(kind, RealKind):
        kind = RealKind(*kind)
    K = make_standard(n_plus, n_minus)
    n = K.dim
    eta, tau = kind.eta, kind.tau
    if tau == -1:
        if n_plus != n_minus:
            raise IncompatibleDimensions(
                f"kind (eta,-1) needs N+ = N-, got ({n_plus},{n_minus})")
        s_mat = np.zeros((n, n))
        s_mat[:n_plus, n_plus:] = eta * np.eye(n_plus)
        s_mat[n_plus:, :n_plus] = np.eye(n_plus)
    elif eta == 1:
        s_mat = np.eye(n)
    else:
        if n_plus % 2 or n_minus % 2:
            raise IncompatibleDimensions(
                f"kind (-1,1) needs even N+ and N-, got ({n_plus},{n_minus})")
        empty = np.zeros((0, 0))
        s_mat = numerics.block_diag(interleaved_skew(n_plus) if n_plus else empty,
                                    interleaved_skew(n_minus) if n_minus else empty)
    R = RealStructure(kind=kind, K=K, S=s_mat.astype(float))
    R.validate()
    return R


def is_member(a, R: RealStructure, kind: str):
    """Membership in U(K,J,S) (kind='unitary') or H(K,J,S) (kind='hermitian').

    Base J-membership is checked first; the returned residual is the maximum
    of the base and real-symmetry residuals.
    """
    from .krein import MembershipResult

    a = numerics.as_matrix(a, square=True)
    R.K.check_dim(a)
    if kind == "unitary":
        base = is_j_unitary(a, R.K)
        sym = numerics.norm(R.S.T @ conj(a) @ R.S - a)
    elif kind == "hermitian":
        base = is_j_hermitian(a, R.K)
        sym = numerics.norm(R.S.T @ conj(a) @ R.S + a)
    else:
        raise ValueError(f"kind must be 'unitary' or 'hermitian', got {kind!r}")
    res = max(base.residual, float(sym))
    return MembershipResult(res <= config.DEFAULT.membership, res,
                            j_residual=base.residual)


def _class_membership(a, K: KreinStructure, R: RealStructure | None,
                      kind: str):
    """Membership of ``a`` in its class: J-unitary or J-hermitian (``kind``)
    when ``R`` is None, else in U(K,J,S) or H(K,J,S)."""
    if R is not None:
        return is_member(a, R, kind)
    return is_j_unitary(a, K) if kind == "unitary" else is_j_hermitian(a, K)


def _require_class_member(a, K: KreinStructure, R: RealStructure | None,
                          kind: str):
    """:func:`_class_membership` that raises :class:`MembershipError` with
    the residual when the check fails."""
    if R is None:
        return require_member(a, K, kind)
    member = is_member(a, R, kind)
    if not member:
        raise MembershipError("operator is not a member of the symmetry class",
                              residual=member.residual)
    return member


@dataclass(frozen=True)
class GroupInfo:
    name: str
    invariants: tuple[str, ...]


def classify_group(structure) -> GroupInfo:
    """Classical group and invariant set for a (real) Krein structure.

    Passing a plain :class:`KreinStructure` gives the complex group U(p,q).
    """
    if isinstance(structure, KreinStructure):
        return GroupInfo(f"U({structure.n_plus},{structure.n_minus})", ("Sig",))
    R = structure
    p, q = R.K.n_plus, R.K.n_minus
    eta, tau = R.kind.as_tuple()
    if (eta, tau) == (1, 1):
        return GroupInfo(f"O({p},{q})", ("Sig", "Sec"))
    if (eta, tau) == (-1, -1):
        return GroupInfo(f"SO*({p + q})", ("Sig2",))
    if (eta, tau) == (-1, 1):
        return GroupInfo(f"SP({p},{q})", ("Sig in 2Z",))
    return GroupInfo(f"SP({p + q},R)", ())


# ------------------------------------------------------------------ checks

@dataclass
class RealSymmetryReport:
    worst_closure_distance: float
    max_projection_residual: float


def _reflection_orbit(lam: complex, kind: str) -> list[complex]:
    if kind == "unitary":
        if abs(lam) < 1e-12:
            return [lam]
        return [lam, np.conj(lam), 1.0 / lam, 1.0 / np.conj(lam)]
    return [lam, np.conj(lam), -lam, -np.conj(lam)]


def check_spectral_symmetries(a, R: RealStructure, kind: str) -> RealSymmetryReport:
    """Check the spectral symmetries forced by the real structure.

    (a) the eigenvalue multiset is closed under the full reflection group
    ({lam, conj, 1/lam, 1/conj} for unitaries; {lam, conj, -lam, -conj} for
    hermitians), raising :class:`SymmetryViolated` otherwise; (b) the cluster
    projections satisfy S* conj(P_D) S = P_{D'} with D' the conjugate
    (unitary) or negated-conjugate (hermitian) cluster.
    """
    _require_class_member(a, R.K, R, kind)
    eigs = numerics.eigvals(a)
    worst = 0.0
    for lam in eigs:
        for target in _reflection_orbit(lam, kind):
            d = float(np.min(np.abs(eigs - target)))
            worst = max(worst, d)
            if d > config.DEFAULT.spectrum_match * (1.0 + abs(target)):
                raise SymmetryViolated(
                    f"reflection {target:.6g} of eigenvalue {lam:.6g} missing "
                    f"(closest at distance {d:.3e})", eigenvalue=lam)
    part = spectral.spectral_partition(a)
    worst_projection = 0.0
    for c in part.clusters:
        target = np.conj(c.center) if kind == "unitary" else -np.conj(c.center)
        j = part.cluster_at(target)
        if j is None:
            raise SymmetryViolated(
                f"no cluster at the conjugation image {target:.6g}",
                eigenvalue=c.center)
        res = numerics.norm(R.S.T @ conj(c.projection) @ R.S
                            - part.clusters[j].projection)
        worst_projection = max(worst_projection, float(res))
    return RealSymmetryReport(worst_closure_distance=worst,
                              max_projection_residual=worst_projection)


@dataclass
class KramersReport:
    ok: bool
    entries: list[dict]


def kramers_check(a, R: RealStructure, kind: str) -> KramersReport:
    """Even algebraic and geometric multiplicity at symmetric-point spectrum.

    For eta = -1 only.  Unitary members are checked at real eigenvalues,
    hermitian members at purely imaginary eigenvalues.  Returns diagnostics
    instead of raising.  The algebraic multiplicity is the size of the
    eigenvalue cluster; no projection is computed.
    """
    match = config.DEFAULT.spectrum_match
    if R.kind.eta != -1:
        raise ValueError("Kramers degeneracy requires eta = -1")
    eigs = numerics.eigvals(a)
    n = R.K.dim
    entries = []
    ok = True
    for idx in spectral.cluster_eigenvalues(eigs, spectral.default_delta(eigs)):
        center = complex(np.mean(eigs[idx]))
        on_point = abs(center.imag) <= match if kind == "unitary" \
            else abs(center.real) <= match
        if not on_point:
            continue
        algebraic = len(idx)
        geo = numerics.kernel_frame(a - center * np.eye(n)).shape[1]
        entries.append({"eigenvalue": center, "algebraic": algebraic,
                        "geometric": geo})
        if algebraic % 2 or geo % 2:
            ok = False
    return KramersReport(ok=ok, entries=entries)


def symmetrize_hermitian(h_mat, R: RealStructure) -> np.ndarray:
    """Project a J-hermitian onto the real-symmetric class:
    H -> (H - S* conj(H) S) / 2.  Idempotent on its image."""
    return (h_mat - R.S.T @ conj(h_mat) @ R.S) / 2.0


def random_member(R: RealStructure, kind: str, seed) -> np.ndarray:
    """Random member of H(K,J,S) or U(K,J,S).

    A random J-hermitian is symmetrized onto the real-linear member space;
    unitary members are its exponential exp(i H).
    """
    h0 = random_j_hermitian(R.K, seed)
    h = symmetrize_hermitian(h0, R)
    if kind == "hermitian":
        return h
    h = h / max(numerics.norm(h), 1.0) * R.K.dim ** 0.5
    return numerics.matrix_exp(1j * h)


def full_invariant_report(a, R: RealStructure | None, kind: str,
                          K: KreinStructure | None = None) -> InvariantReport:
    """Invariant report dispatched on the symmetry kind.

    (1,1): Sig, plus Sec for unitaries.  (-1,-1): Sig2, and Sig must vanish.
    (-1,1): Sig must be even.  (1,-1): Sig must vanish.  Violated structural
    constraints raise :class:`InvariantConstraintViolated` since they signal
    a membership or numerical breakdown.
    """
    if R is None:
        if K is None:
            raise ValueError("need either a RealStructure or a KreinStructure")
        rep = signature.global_signature(a, K, kind)
        rep.group = classify_group(K).name
        return rep
    member = _require_class_member(a, R.K, R, kind)
    part = spectral.spectral_partition(a, kind)
    rep = signature.invariant_report(part, R.K, member.j_residual)
    rep.group = classify_group(R).name
    eta, tau = R.kind.as_tuple()
    if (eta, tau) == (1, 1):
        if kind == "unitary":
            rep.sec = signature.sec_of(part, R.K)
    elif (eta, tau) == (-1, -1):
        if rep.global_sig != 0:
            raise InvariantConstraintViolated(
                f"kind (-1,-1) forces Sig = 0, got {rep.global_sig}")
        rep.sig2 = signature.sig2_of(part)
    elif (eta, tau) == (-1, 1):
        if rep.global_sig % 2 != 0:
            raise InvariantConstraintViolated(
                f"kind (-1,1) forces Sig in 2Z, got {rep.global_sig}")
    else:  # (1, -1)
        if rep.global_sig != 0:
            raise InvariantConstraintViolated(
                f"kind (1,-1) forces Sig = 0, got {rep.global_sig}")
    return rep


# ------------------------------------------------- normal-form basis change

def _unitary_root(v, s, branch_point) -> np.ndarray:
    """exp(i h / 2) for v = exp(i h) symmetrized to h = h^T (``s=None``), or
    s exp(i h / 2) for h symmetrized to s* h^T s = h; the logarithm cut of
    v sits at ``branch_point`` (``None``: in the largest spectral gap)."""
    h = numerics.unitary_log(v, branch_point=branch_point)
    if s is None:
        h = (h + h.T) / 2.0
        return numerics.unitary_exp(0.5 * h)
    h = (h + s.T @ h.T @ s) / 2.0
    return s @ numerics.unitary_exp(0.5 * h)


def symmetric_unitary_sqrt(u) -> np.ndarray:
    """Symmetric b with b @ b = b @ b.T = u, for symmetric unitary u."""
    return _unitary_root(u, None, None)


def antisymmetric_unitary_factor(u, s) -> np.ndarray:
    """v with u = v.T @ s @ v for an antisymmetric unitary u.

    s*u is odd symmetric, so s*u = exp(i h) with s* h^T s = h and
    v = s exp(i h / 2) does the job.
    """
    return _unitary_root(s.T @ u, s, None)


def _antiunitary_block(frame, s_full) -> np.ndarray:
    """Matrix of the antiunitary x -> frame^* S conj(frame x) on coordinates."""
    return frame.conj().T @ s_full @ conj(frame)


@dataclass
class NormalizedPair:
    """Basis change R with R* j R = J_std and S_F conj(R) = R S_std."""

    R: np.ndarray
    R_unitary_part: np.ndarray
    eigenvalues: np.ndarray      # of j, in the assembled column order
    K: KreinStructure
    structure: RealStructure


def normalize_krein_pair(j_form, s_anti, eta: int, tau: int) -> NormalizedPair:
    """Bring a hermitian invertible form and a compatible antiunitary to
    normal form.

    Inputs are the matrices of the form (j = j*, invertible) and of the
    antiunitary x -> s_anti conj(x) on the same coordinates, satisfying
    s_anti conj(s_anti) = eta and s_anti* j s_anti = tau conj(j).  The
    returned basis change R has columns ordered positives-first and
    satisfies R* j R = J_std exactly up to tolerance, with the antiunitary
    becoming S_std conj(.) for the normal-form S_std of kind (eta, tau).
    ``R_unitary_part`` omits the |eigenvalue|^{-1/2} column scaling, keeping
    columns orthonormal (used where the form scale must be preserved).
    """
    j_form = numerics.as_matrix(j_form, square=True, name="j")
    s_anti = numerics.as_matrix(s_anti, square=True, name="S")
    n = j_form.shape[0]
    if numerics.norm(s_anti.conj().T @ s_anti - np.eye(n)) > 1e-8:
        raise NormalizationFailed("antiunitary matrix must be unitary")
    if numerics.norm(s_anti @ conj(s_anti) - eta * np.eye(n)) > 1e-8:
        raise NormalizationFailed("antiunitary does not square to eta")
    if numerics.norm(s_anti.conj().T @ j_form @ s_anti - tau * conj(j_form)) > 1e-8:
        raise NormalizationFailed("form and antiunitary are not tau-compatible")
    w, v = numerics.herm_eig(j_form)
    scale = max(np.abs(w).max(), 1e-300)
    if np.abs(w).min() <= 1e-10 * scale:
        raise NormalizationFailed("form is numerically singular")
    groups = spectral.cluster_eigenvalues(w.astype(complex), 1e-8 * scale)
    groups.sort(key=lambda g: -np.mean(w[g]))  # descending: positives first

    if tau == 1:
        # the antiunitary preserves every eigenspace of j
        cols, vals, s_blocks = [], [], []
        for g in groups:
            basis = v[:, g]
            a_blk = _antiunitary_block(basis, s_anti)
            if eta == 1:
                b = symmetric_unitary_sqrt(a_blk)
                s_blocks.append(np.eye(len(g)))
            else:
                if len(g) % 2:
                    raise NormalizationFailed(
                        f"eta=-1 eigenvalue multiplicity {len(g)} is odd")
                s_tgt = interleaved_skew(len(g))
                v_fac = antisymmetric_unitary_factor(a_blk, s_tgt)
                b = v_fac.T
                s_blocks.append(s_tgt)
            cols.append(basis @ b)
            vals.append(w[g])
        u_mat = np.hstack(cols)
        d = np.concatenate(vals)
        s_std = numerics.block_diag(*s_blocks)
    else:
        # the antiunitary maps the d-eigenspace onto the (-d)-eigenspace
        pos = [g for g in groups if np.mean(w[g]) > 0]
        pos_basis = np.hstack([v[:, g] for g in pos]) if pos else v[:, :0]
        d_pos = np.concatenate([w[g] for g in pos]) if pos else np.zeros(0)
        if 2 * pos_basis.shape[1] != n:
            raise NormalizationFailed("tau=-1 needs +/- symmetric spectrum")
        partner = s_anti @ conj(pos_basis)
        u_mat = np.hstack([pos_basis, partner])
        d = np.concatenate([d_pos, -d_pos])
        k = pos_basis.shape[1]
        s_std = np.zeros((n, n))
        s_std[:k, k:] = eta * np.eye(k)
        s_std[k:, :k] = np.eye(k)

    r_mat = u_mat * (np.abs(d) ** -0.5)[None, :]
    n_plus = int(np.sum(d > 0))
    n_minus = n - n_plus
    K = make_standard(n_plus, n_minus)
    structure = RealStructure(kind=RealKind(eta, tau), K=K, S=s_std)
    res_form = numerics.norm(r_mat.conj().T @ j_form @ r_mat - K.J)
    res_anti = numerics.norm(s_anti @ conj(r_mat) - r_mat @ s_std)
    res_anti_u = numerics.norm(s_anti @ conj(u_mat) - u_mat @ s_std)
    if max(res_form, res_anti, res_anti_u) > 1e-7:
        raise NormalizationFailed(
            f"normal form residuals too large: form {res_form:.3e}, "
            f"antiunitary {res_anti:.3e}/{res_anti_u:.3e}")
    return NormalizedPair(R=r_mat, R_unitary_part=u_mat, eigenvalues=d,
                          K=K, structure=structure)
