"""Eigenvalue clustering, Riesz projections, and region classification.

Riesz projections are computed by trapezoid quadrature of the resolvent over
a circle separating the cluster from the rest of the spectrum.  The trapezoid
rule is spectrally accurate on circles and needs only linear solves, so it
works for non-normal matrices where eigenvector conditioning is poor.  Each
rule evaluates all its resolvents with one inverse of the stacked
``(points, n, n)`` array of ``z_k I - T``.  The number of points doubles
until idempotency converges; the doubled rule contains every node of the
one before it, so each doubling evaluates only the new midpoint nodes.
A flat operator (spectrum in {i, 0, -i}) needs no quadrature: its
projections are polynomials in it (:func:`flat_partition`), or the ones it
was built from, validated by the same checks.

Quadrature is kept for the projections an integer reads.  A region-tagged
:func:`spectral_partition` computes one eigendecomposition T X = X diag(lam):
a cluster S lying wholly off the band (and its ambiguity zone) has Krein
inertia (0, 0) by definition, so it takes X[:, S] X^-1[S, :], checked like
a quadrature projection.  It falls back to quadrature when X is singular,
when its eigenvalues are too ill-conditioned for that product to be
accurate, or when a check fails.  On-region clusters keep quadrature because their range is
what the inertia reads, and eigenvalues collide there: near a Krein
collision the eigenvectors are ill-conditioned or missing, while the
contour integral needs only resolvents away from the spectrum.  A partition
without ``kind`` uses quadrature for every cluster.  A partition holds
projections only: a frame of a projection's range is taken where an
inertia is read (:func:`signature.inertia`), and never for an off-region
cluster, whose inertia is (0, 0).

Region classification (on the real axis / unit circle versus off it) is
tolerance-banded: eigenvalues inside the band are "on", eigenvalues in the
ambiguity zone just outside raise :class:`AmbiguousClassification` rather
than being silently assigned, because the Krein invariants are discontinuous
exactly at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config, numerics
from .errors import (AmbiguousClassification, CorrectionFailed,
                     NoSeparatingContour, QuadratureDivergence, UnmatchedReflection)
from .krein import KreinStructure, require_member

ON_REGIONS = ("real-axis", "unit-circle")

# Largest ||P|| (Frobenius) at which an off-region cluster takes its
# eigenvector projection; a larger one keeps quadrature.  ||P|| is the
# condition number of the cluster's eigenvalues, and the eigenvector
# projection's error grows about like eps ||P||^2.  Against quadrature it
# was at most 3e-11 below this bound on 32 000 off-region clusters of
# random group operators, and 3e-9 at ||P|| = 310, where quadrature stays
# within 4e-10 of the exact projection.  The retraction's eigenvector split
# of its input (half-plane sums P_+- and P_0 = 1 - P_+ - P_-) holds each of
# its three projections to the same bound.
EIGENVECTOR_PROJECTION_MAX_NORM = 30.0


def cluster_eigenvalues(eigs, delta: float) -> list[list[int]]:
    """Partition eigenvalue indices by the transitive closure of
    ``|lam_i - lam_j| <= delta``.

    Clusters are returned sorted by (real, imag) of their centroid; indices
    within a cluster are sorted.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    eigs = np.asarray(eigs, dtype=complex)
    n = eigs.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= delta:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = [sorted(g) for g in groups.values()]
    clusters.sort(key=lambda g: (np.mean(eigs[g]).real, np.mean(eigs[g]).imag))
    return clusters


def default_delta(eigs) -> float:
    """Default clustering radius: scale * (1 + spectral radius)."""
    rho = float(np.max(np.abs(eigs))) if len(eigs) else 0.0
    return config.DEFAULT.cluster_delta_scale * (1.0 + rho)


@dataclass
class SpectralCluster:
    """A separated group of eigenvalues with its spectral projection."""

    center: complex
    eigenvalues: np.ndarray
    multiplicity: int
    projection: np.ndarray
    region: str | None = None

    def validate(self, t_mat):
        t = config.DEFAULT
        p = self.projection
        idem = numerics.norm(p @ p - p)
        comm = numerics.norm(p @ t_mat - t_mat @ p)
        if idem > t.riesz:
            raise QuadratureDivergence(f"||P^2 - P|| = {idem:.3e}")
        if comm > t.riesz * max(numerics.norm(t_mat), 1.0):
            raise QuadratureDivergence(f"||[P, T]|| = {comm:.3e}")
        tr = np.trace(p)
        if abs(tr - round(tr.real)) > t.riesz_trace:
            raise QuadratureDivergence(f"trace(P) = {tr:.6f} not near an integer")


@dataclass
class ClusterPartition:
    """All clusters of a matrix.

    ``kind`` is the operator kind ('unitary' or 'hermitian') the clusters
    were region-tagged for, or None when they carry no region.
    """

    clusters: list[SpectralCluster]
    delta: float
    dim: int
    kind: str | None = None

    def cluster_at(self, target: complex) -> int | None:
        """Index of the cluster centered nearest ``target``, or None when it
        lies farther than max(delta, spectrum_match * (1 + |target|))."""
        dists = [abs(c.center - target) for c in self.clusters]
        j = int(np.argmin(dists))
        if dists[j] > max(self.delta,
                          config.DEFAULT.spectrum_match * (1 + abs(target))):
            return None
        return j

    def reflection_of(self, center: complex, kind: str) -> int | None:
        """Index of the cluster at the J-reflection of ``center``: conj for
        a hermitian ``kind``, 1/conj for a unitary one; None when there is
        no such cluster or, for a unitary, |center| < 1e-12."""
        if kind != "unitary":
            return self.cluster_at(np.conj(center))
        if abs(center) < 1e-12:
            return None
        return self.cluster_at(1.0 / np.conj(center))

    def total_multiplicity(self, region: str | None = None) -> int:
        cs = self.clusters if region is None else \
            [c for c in self.clusters if c.region == region]
        return sum(c.multiplicity for c in cs)


def _separating_circle(cluster_eigs, other_eigs, delta):
    """Center and radius of a circle separating the cluster from the rest."""
    center = complex(np.mean(cluster_eigs))
    d_in = max((abs(l - center) for l in cluster_eigs), default=0.0)
    if len(other_eigs):
        d_out = min(abs(l - center) for l in other_eigs)
    else:
        d_out = None
    if d_out is None:
        radius = d_in + max(1.0, delta)
    else:
        radius = max((d_in + d_out) / 2.0, delta / 2.0)
        clearance = config.DEFAULT.contour_clearance * (1.0 + abs(center) + radius)
        if radius - d_in < clearance or d_out - radius < clearance:
            raise NoSeparatingContour(
                f"circle at {center:.6g} radius {radius:.3e} comes within "
                f"{min(radius - d_in, d_out - radius):.3e} of the spectrum")
    return center, radius


def _quadrature(t_mat, center, radius, points, offset=0.0) -> np.ndarray:
    """Trapezoid rule for the integral of (z I - T)^-1 dz / (2 pi i) over the
    circle |z - center| = radius, with nodes at angles 2 pi (k + offset) / points."""
    w = np.exp(2j * np.pi * (np.arange(points) + offset) / points)
    z = center + radius * w
    shifted = z[:, None, None] * np.eye(t_mat.shape[0]) - t_mat
    try:
        resolvents = np.linalg.inv(shifted)
    except np.linalg.LinAlgError:
        k = int(np.argmin(np.linalg.svd(shifted, compute_uv=False)[:, -1]))
        raise QuadratureDivergence(
            f"z I - T is singular at the quadrature node z = {z[k]:.6g}") from None
    return np.tensordot(radius * w, resolvents, axes=1) / points


def riesz_projection(t_mat, cluster, all_eigs=None) -> np.ndarray:
    """Riesz spectral projection onto a cluster of eigenvalues.

    ``cluster`` is the collection of eigenvalues (with multiplicity) to
    enclose.  The contour is a circle around the cluster centroid; quadrature
    points double until ``||P^2 - P||`` converges or the cap is reached.
    Each doubling averages the rule with its midpoint rule, so a call that
    stops at N points evaluates exactly N resolvents.
    """
    t = config.DEFAULT
    t_mat = numerics.as_matrix(t_mat, square=True, name="T")
    cluster = np.asarray(list(cluster), dtype=complex)
    if all_eigs is None:
        all_eigs = numerics.eigvals(t_mat)
    delta = default_delta(all_eigs)
    # remove one spectrum copy of each cluster member to find the exterior
    rest = list(all_eigs)
    for lam in cluster:
        dists = [abs(lam - mu) for mu in rest]
        j = int(np.argmin(dists))
        if dists[j] > max(delta, t.spectrum_match * (1 + abs(lam))):
            raise NoSeparatingContour(
                f"requested eigenvalue {lam:.6g} not found in the spectrum")
        rest.pop(j)
    center, radius = _separating_circle(cluster, rest, delta)
    points = t.quad_start
    p = _quadrature(t_mat, center, radius, points)
    while True:
        if numerics.norm(p @ p - p) <= t.riesz:
            return p
        if points >= t.quad_cap:
            raise QuadratureDivergence(
                f"||P^2 - P|| = {numerics.norm(p @ p - p):.3e} at {points} points")
        p = 0.5 * (p + _quadrature(t_mat, center, radius, points, offset=0.5))
        points *= 2


def spectral_partition(t_mat, kind: str | None = None) -> ClusterPartition:
    """Cluster the spectrum and compute all spectral projections.

    With ``kind`` ('unitary' or 'hermitian') every cluster is also tagged
    with its region; clusters may not straddle bands.  This one partition
    is what every invariant of the operator reads.  With ``kind`` the
    eigenvalues come from one eigendecomposition T X = X diag(lam), and a
    cluster S whose eigenvalues all lie off the band and its ambiguity
    zone takes the projection X[:, S] X^-1[S, :] when that passes the
    cluster checks; every other cluster takes :func:`riesz_projection`.
    """
    if kind not in (None, "unitary", "hermitian"):
        raise ValueError(f"kind must be 'unitary' or 'hermitian', got {kind!r}")
    t_mat = numerics.as_matrix(t_mat, square=True, name="T")
    if kind is None:
        eigs, vecs = numerics.eigvals(t_mat), None
    else:
        eigs, vecs = numerics.eig(t_mat)
    delta = default_delta(eigs)
    groups = cluster_eigenvalues(eigs, delta)
    off = [kind is not None and _off_region(eigs[idx], kind) for idx in groups]
    inverse = _inverse(vecs) if any(off) else None
    clusters = []
    for idx, is_off in zip(groups, off):
        c = None
        if is_off and inverse is not None:
            c = _eigenvector_cluster(t_mat, eigs, idx, vecs, inverse, delta)
        if c is None:
            c = _checked_cluster(t_mat, eigs, idx, riesz_projection(
                t_mat, eigs[idx], all_eigs=eigs))
        clusters.append(c)
    return _validated_partition(t_mat, clusters, delta, kind)


def _off_region(members, kind) -> bool:
    """Whether every eigenvalue of a cluster tags the same region off the
    band, beyond its ambiguity zone."""
    t = config.DEFAULT
    if any(_boundary_distance(l, kind) <= t.ambiguous_factor * t.eps_region
           for l in members):
        return False
    return len({_region_of(l, kind, t.eps_region, t.ambiguous_factor)
                for l in members}) == 1


def _inverse(vecs) -> np.ndarray | None:
    """X^-1 of an eigenvector matrix, or None when it is singular."""
    try:
        inverse = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        return None
    return inverse if np.isfinite(inverse).all() else None


def _eigenvector_cluster(t_mat, eigs, idx, vecs, inverse, delta):
    """Cluster of ``eigs[idx]`` with projection X[:, idx] X^-1[idx, :], or
    None when that projection is too ill-conditioned to be accurate
    (:data:`EIGENVECTOR_PROJECTION_MAX_NORM`) or fails the cluster checks.

    The cluster must still admit the separating circle that
    :func:`riesz_projection` would integrate over, so the partition raises
    :class:`NoSeparatingContour` where quadrature would.
    """
    _separating_circle(eigs[idx], np.delete(eigs, idx), delta)
    p = vecs[:, idx] @ inverse[idx, :]
    if numerics.norm(p) > EIGENVECTOR_PROJECTION_MAX_NORM:
        return None
    try:
        return _checked_cluster(t_mat, eigs, idx, p)
    except QuadratureDivergence:
        return None


def _checked_cluster(t_mat, eigs, idx, p) -> SpectralCluster:
    """Cluster of the eigenvalues ``eigs[idx]`` with projection ``p``,
    checked by :meth:`SpectralCluster.validate` and for rank ``len(idx)``."""
    members = eigs[idx]
    mult = int(round(np.trace(p).real))
    c = SpectralCluster(center=complex(np.mean(members)), eigenvalues=members,
                        multiplicity=mult, projection=p)
    c.validate(t_mat)
    if mult != len(idx):
        raise QuadratureDivergence(
            f"projection rank {mult} != cluster size {len(idx)}")
    return c


def flat_partition(h_mat, eigs=None) -> ClusterPartition:
    """Hermitian-tagged partition of a flat operator (spectrum in {i, 0, -i})
    without quadrature; ``eigs`` are the eigenvalues of ``h_mat`` when the
    caller has already computed them.

    The projections of a flat H (H^3 = -H) are its Lagrange interpolants on
    the nodes i, 0, -i: P_+ = -(H^2 + iH)/2, P_0 = 1 + H^2 and
    P_- = -(H^2 - iH)/2, checked by :func:`_flat_partition`.
    """
    h_mat = numerics.as_matrix(h_mat, square=True, name="H")
    if eigs is None:
        eigs = numerics.eigvals(h_mat)
    h2 = h_mat @ h_mat
    return _flat_partition(h_mat, eigs, (-(h2 + 1j * h_mat) / 2.0,
                                         np.eye(h_mat.shape[0]) + h2,
                                         -(h2 - 1j * h_mat) / 2.0))


def _flat_partition(h_mat, eigs, projections) -> ClusterPartition:
    """Hermitian-tagged partition of a flat H with eigenvalues ``eigs`` and
    projections (P_+, P_0, P_-) on the nodes i, 0, -i.  Each eigenvalue joins
    the nearest node, and the clusters pass the validation of
    :func:`spectral_partition`, so an H that is not flat, or projections
    that are not its own, raise :class:`QuadratureDivergence`."""
    nearest = np.argmin(np.abs(eigs[:, None] - np.array([1j, 0.0, -1j])), axis=1)
    groups = [np.flatnonzero(nearest == k).tolist() for k in range(3)]
    clusters = [_checked_cluster(h_mat, eigs, idx, p)
                for idx, p in zip(groups, projections) if idx]
    return _validated_partition(h_mat, clusters, default_delta(eigs),
                                "hermitian")


def _validated_partition(t_mat, clusters, delta, kind) -> ClusterPartition:
    """Partition of ``t_mat`` from its checked clusters, one per eigenvalue
    cluster: the projections must sum to the identity, and with ``kind``
    every cluster is region-tagged."""
    t = config.DEFAULT
    total = sum(c.multiplicity for c in clusters)
    if total != t_mat.shape[0]:
        raise QuadratureDivergence("cluster multiplicities do not sum to dim")
    s = sum(c.projection for c in clusters)
    if numerics.norm(s - np.eye(t_mat.shape[0])) > t.partition_sum:
        raise QuadratureDivergence("projections do not sum to the identity")
    if kind is not None:
        for c in clusters:
            tags = {_region_of(l, kind, t.eps_region, t.ambiguous_factor)
                    for l in c.eigenvalues}
            if len(tags) != 1:
                raise AmbiguousClassification(
                    f"cluster at {c.center:.8g} straddles regions {sorted(tags)}",
                    eigenvalue=c.center)
            c.region = tags.pop()
    return ClusterPartition(clusters=clusters, delta=delta,
                            dim=t_mat.shape[0], kind=kind)


def _boundary_distance(lam: complex, kind: str) -> float:
    if kind == "hermitian":
        return abs(lam.imag)
    return abs(abs(lam) - 1.0)


def _region_of(lam: complex, kind: str, eps: float, factor: float) -> str:
    d = _boundary_distance(lam, kind)
    if d <= eps:
        return "real-axis" if kind == "hermitian" else "unit-circle"
    if d <= factor * eps:
        raise AmbiguousClassification(
            f"eigenvalue {lam:.8g} sits {d:.2e} from the boundary, inside the "
            f"ambiguity zone ({eps:.1e}, {factor * eps:.1e}]", eigenvalue=lam)
    if kind == "hermitian":
        return "upper-half" if lam.imag > 0 else "lower-half"
    return "inside-disc" if abs(lam) < 1.0 else "outside-disc"


@dataclass
class SymmetryReport:
    """Residuals of the projection reflection identities, cluster by cluster."""

    pairs: list[tuple[int, int]]
    residuals: list[float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)


def check_projection_symmetry(K: KreinStructure, part: ClusterPartition,
                              kind: str) -> SymmetryReport:
    """Check P_cluster^* = J P_reflected J, each reflected cluster found by
    :meth:`ClusterPartition.reflection_of` for ``kind``.  Raises
    :class:`UnmatchedReflection` when a reflected cluster is missing.
    """
    pairs, residuals = [], []
    for i, c in enumerate(part.clusters):
        j = part.reflection_of(c.center, kind)
        if j is None:
            raise UnmatchedReflection(
                f"no cluster at the {kind} reflection of {c.center:.6g}")
        res = numerics.norm(c.projection.conj().T
                            - K.J @ part.clusters[j].projection @ K.J)
        pairs.append((i, j))
        residuals.append(float(res))
    return SymmetryReport(pairs=pairs, residuals=residuals)


def fredholm_corrector(h_mat, K: KreinStructure, lam: float) -> np.ndarray:
    """Finite-rank corrector F = J Psi Psi^* making H - lam + F invertible.

    Psi is an orthonormal frame of ker(H - lam); F is J-hermitian and the
    corrected operator is checked to be invertible (smallest singular value
    above 1e-8, scaled).
    """
    h_mat = numerics.as_matrix(h_mat, square=True, name="H")
    K.check_dim(h_mat)
    require_member(h_mat, K, "hermitian")
    n = K.dim
    psi = numerics.kernel_frame(h_mat - lam * np.eye(n))
    f_mat = K.apply(psi @ psi.conj().T) if psi.shape[1] else np.zeros((n, n), complex)
    corrected = h_mat - lam * np.eye(n) + f_mat
    smin = np.linalg.svd(corrected, compute_uv=False)[-1]
    if smin <= 1e-8 * max(1.0, numerics.norm(h_mat)):
        raise CorrectionFailed(
            f"corrected operator still singular, smin = {smin:.3e}")
    return f_mat
