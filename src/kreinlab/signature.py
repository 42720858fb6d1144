"""Krein inertia, per-eigenvalue signatures, and the global invariants.

The inertia of an on-circle (on-axis) cluster is the inertia of the hermitian
form Psi* J Psi, with Psi an orthonormal frame of the cluster's spectral
subspace.  Off-circle clusters carry inertia (0, 0) by definition and are
annotated with their reflection partner, which makes the pairing argument
behind the finite-dimension signature law auditable.

Sig, Sec and Sig_2 all read one region-tagged partition of the operator
(:func:`spectral.spectral_partition`): :func:`invariant_report`,
:func:`sec_of` and :func:`sig2_of` take that partition, and
:func:`global_signature`, :func:`sec` and :func:`sig2` are thin wrappers
that check membership and build it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config, numerics, spectral
from .errors import DegenerateForm, OddDimension
from .krein import KreinStructure, require_member
from .spectral import ClusterPartition, SpectralCluster


@dataclass(frozen=True)
class InertiaPair:
    nu_plus: int
    nu_minus: int

    @property
    def sig(self) -> int:
        return self.nu_plus - self.nu_minus

    @property
    def indefinite(self) -> bool:
        return self.nu_plus > 0 and self.nu_minus > 0

    def as_tuple(self) -> tuple[int, int]:
        return (self.nu_plus, self.nu_minus)


def form_inertia(frame, K: KreinStructure) -> InertiaPair:
    """Inertia of the hermitian form Psi* J Psi on a frame."""
    zero_tol = config.DEFAULT.zero_form
    form = frame.conj().T @ K.apply(frame)
    if form.shape[0] == 0:
        return InertiaPair(0, 0)
    w, _ = numerics.herm_eig(form)
    if np.any(np.abs(w) <= zero_tol):
        raise DegenerateForm(
            f"restricted form has eigenvalue {w[np.argmin(np.abs(w))]:.3e} "
            f"within zero tolerance {zero_tol:.1e}")
    return InertiaPair(int(np.sum(w > zero_tol)), int(np.sum(w < -zero_tol)))


def inertia(cluster: SpectralCluster, K: KreinStructure) -> InertiaPair:
    """Krein inertia of a cluster.

    On-circle/on-axis clusters get the inertia of J restricted to an
    orthonormal frame of their projection's range; clusters tagged with an
    off region return (0, 0) by definition, without a frame.  Untagged
    clusters are computed unconditionally.
    """
    if cluster.region is not None and cluster.region not in spectral.ON_REGIONS:
        return InertiaPair(0, 0)
    return form_inertia(numerics.range_frame(cluster.projection,
                                             cluster.multiplicity), K)


@dataclass
class ClusterRow:
    """One line of an invariant report."""

    center: complex
    multiplicity: int
    nu: InertiaPair
    sig: int
    region: str
    paired_with: int | None = None


@dataclass
class InvariantReport:
    """Per-cluster inertia table plus the global invariants."""

    kind: str
    n_plus: int
    n_minus: int
    rows: list[ClusterRow]
    global_sig: int
    membership_residual: float
    sig2: int | None = None
    sec: int | None = None
    group: str | None = None
    partition: ClusterPartition | None = field(default=None, repr=False,
                                               compare=False)

    @property
    def matches_finite_dimension_law(self) -> bool:
        return self.global_sig == self.n_plus - self.n_minus

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "global_sig": self.global_sig,
            "sig2": self.sig2,
            "sec": self.sec,
            "group": self.group,
            "identity_n_plus_minus_n_minus": self.n_plus - self.n_minus,
            "membership_residual": self.membership_residual,
            "clusters": [
                {
                    "center": [row.center.real, row.center.imag],
                    "multiplicity": row.multiplicity,
                    "nu": [row.nu.nu_plus, row.nu.nu_minus],
                    "sig": row.sig,
                    "region": row.region,
                    "paired_with": row.paired_with,
                }
                for row in self.rows
            ],
        }


def invariant_report(part: ClusterPartition, K: KreinStructure,
                     membership_residual: float) -> InvariantReport:
    """Per-cluster inertia and the global signature of a region-tagged
    partition.

    The global signature is the sum of nu_+ - nu_- over on-circle clusters
    (unitary case) or on-axis clusters (hermitian case).  Off-region
    clusters are annotated with the cluster at their reflection.
    """
    rows = []
    total = 0
    for c in part.clusters:
        nu = inertia(c, K)
        partner = None
        if c.region not in spectral.ON_REGIONS:
            partner = part.reflection_of(c.center, part.kind)
        rows.append(ClusterRow(center=c.center, multiplicity=c.multiplicity,
                               nu=nu, sig=nu.sig, region=c.region,
                               paired_with=partner))
        total += nu.sig
    return InvariantReport(kind=part.kind, n_plus=K.n_plus, n_minus=K.n_minus,
                           rows=rows, global_sig=total,
                           membership_residual=membership_residual,
                           partition=part)


def global_signature(a, K: KreinStructure, kind: str) -> InvariantReport:
    """Full invariant report: per-cluster inertia and the global signature
    of a J-unitary or J-hermitian operator."""
    member = require_member(a, K, kind)
    part = spectral.spectral_partition(a, kind)
    return invariant_report(part, K, member.residual)


def sig2_of(part: ClusterPartition) -> int:
    """Sig_2 of a region-tagged partition: half the on-circle (on-axis)
    algebraic multiplicity, mod 2."""
    on = "unit-circle" if part.kind == "unitary" else "real-axis"
    m = part.total_multiplicity(on)
    if m % 2 != 0:
        raise OddDimension(f"on-{on} multiplicity {m} is odd")
    return (m // 2) % 2


def sig2(a, K: KreinStructure, kind: str) -> int:
    """Z_2 invariant for kind (-1,-1): half the on-circle (on-axis) algebraic
    multiplicity, mod 2.

    Raises :class:`OddDimension` when the multiplicity is odd, which signals
    a symmetry violation upstream (Kramers degeneracy forces evenness).
    """
    require_member(a, K, kind)
    return sig2_of(spectral.spectral_partition(a, kind))


def sec_of(part: ClusterPartition, K: KreinStructure) -> int:
    """Sec of a unit-circle-tagged partition: Sig(1, T) mod 2, with
    Sig(1, T) = 0 when 1 is not in the spectrum."""
    for c in part.clusters:
        if c.region == "unit-circle" and \
                abs(c.center - 1.0) <= max(part.delta, config.DEFAULT.spectrum_match):
            return inertia(c, K).sig % 2
    return 0


def sec(a, K: KreinStructure) -> int:
    """Secondary invariant for kind (1,1) unitaries: Sig(1, T) mod 2."""
    require_member(a, K, "unitary")
    return sec_of(spectral.spectral_partition(a, "unitary"), K)


def build_index_example(a_block) -> tuple[np.ndarray, KreinStructure]:
    """Skew-adjoint J-hermitian H = i [[0, A*], [A, 0]] whose global signature
    equals the index dim ker A - dim ker A*.

    A maps the +1 eigenspace of J (dimension cols) to the -1 eigenspace
    (dimension rows), so K = (cols, rows).
    """
    a_block = numerics.as_matrix(a_block, name="A")
    m, n = a_block.shape
    h = np.zeros((n + m, n + m), dtype=complex)
    h[:n, n:] = 1j * a_block.conj().T
    h[n:, :n] = 1j * a_block
    return h, KreinStructure(n_plus=n, n_minus=m)
