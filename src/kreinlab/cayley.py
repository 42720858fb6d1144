"""Cayley transforms between J-hermitians and J-unitaries.

The scalar map C(lam) = zeta (lam - z)/(lam - conj(z)) sends the extended
real line bijectively onto the unit circle; the operator version conjugates
J-hermitians into J-unitaries and transports Krein inertia cluster by
cluster, which :func:`transport_report` checks explicitly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import config, numerics, signature
from .errors import ClusterMatchFailed, SpectrumTooClose
from .krein import KreinStructure, require_member

INF = complex(np.inf, 0.0)


def _is_inf(lam) -> bool:
    return lam is None or np.isinf(complex(lam).real) or np.isinf(complex(lam).imag)


@dataclass(frozen=True)
class CayleyParams:
    """Parameters (z, zeta) with Im z != 0 and |zeta| = 1."""

    z: complex = 1j
    zeta: complex = 1.0 + 0.0j

    def __post_init__(self):
        if abs(complex(self.z).imag) <= 1e-10:
            raise ValueError(f"z must have |Im z| > 1e-10, got {self.z}")
        if abs(abs(complex(self.zeta)) - 1.0) > 1e-12:
            raise ValueError(f"zeta must be unimodular, got {self.zeta}")


def cayley_scalar(p: CayleyParams, lam) -> complex:
    """Scalar Cayley map on the Riemann sphere."""
    if _is_inf(lam):
        return complex(p.zeta)
    lam = complex(lam)
    den = lam - np.conj(p.z)
    if den == 0:
        return INF
    return p.zeta * (lam - p.z) / den


def cayley_inv_scalar(p: CayleyParams, lam) -> complex:
    """Inverse scalar Cayley map on the Riemann sphere."""
    if _is_inf(lam):
        return complex(np.conj(p.z))
    lam = complex(lam)
    den = p.zeta - lam
    if den == 0:
        return INF
    return (p.z * p.zeta - np.conj(p.z) * lam) / den


def _check_clearance(point: complex, eigs, what: str):
    d = float(np.min(np.abs(np.asarray(eigs) - point)))
    if d <= config.DEFAULT.spectrum_clearance:
        raise SpectrumTooClose(
            f"{what} = {point:.6g} is within {d:.3e} of the spectrum")


def cayley_op(h_mat, K: KreinStructure, p: CayleyParams | None = None) -> np.ndarray:
    """Operator Cayley transform zeta (H - z)(H - conj(z))^{-1}."""
    if p is None:
        p = CayleyParams()
    h_mat = numerics.as_matrix(h_mat, square=True, name="H")
    K.check_dim(h_mat)
    require_member(h_mat, K, "hermitian")
    eigs = numerics.eigvals(h_mat)
    _check_clearance(complex(p.z), eigs, "z")
    _check_clearance(complex(np.conj(p.z)), eigs, "conj(z)")
    n = K.dim
    eye = np.eye(n, dtype=complex)
    num = h_mat - p.z * eye
    den = h_mat - np.conj(p.z) * eye
    # num and den^{-1} commute, so A B^{-1} = solve from the right
    return p.zeta * numerics.solve(den.T, num.T).T


def cayley_inv_op(t_mat, K: KreinStructure, p: CayleyParams | None = None) -> np.ndarray:
    """Inverse operator Cayley transform (z zeta - conj(z) T)(zeta - T)^{-1}.

    Without explicit parameters, zeta is chosen deterministically among the
    16th roots of unity to maximize the distance to the spectrum.
    """
    t_mat = numerics.as_matrix(t_mat, square=True, name="T")
    K.check_dim(t_mat)
    require_member(t_mat, K, "unitary")
    eigs = numerics.eigvals(t_mat)
    if p is None:
        p = CayleyParams(z=1j, zeta=pick_zeta(eigs))
    _check_clearance(complex(p.zeta), eigs, "zeta")
    n = K.dim
    eye = np.eye(n, dtype=complex)
    num = p.z * p.zeta * eye - np.conj(p.z) * t_mat
    den = p.zeta * eye - t_mat
    return numerics.solve(den.T, num.T).T


def pick_zeta(eigs) -> complex:
    """Deterministic admissible zeta: the 16th root of unity farthest from
    the spectrum."""
    eigs = np.asarray(eigs, dtype=complex)
    cands = [cmath.exp(2j * cmath.pi * k / 16) for k in range(16)]
    dists = [float(np.min(np.abs(eigs - c))) if eigs.size else 1.0 for c in cands]
    return complex(cands[int(np.argmax(dists))])


@dataclass
class TransportReport:
    """Invariant reports for H and C(H) with clusters matched through the
    scalar map; ``unitary`` is C(H)."""

    unitary: np.ndarray
    hermitian_report: signature.InvariantReport
    unitary_report: signature.InvariantReport
    inertia_equal: bool
    sig_equal: bool


def transport_report(h_mat, K: KreinStructure,
                     p: CayleyParams | None = None) -> TransportReport:
    """Compute invariants of H and of C(H) and match them cluster by cluster.

    Every H-cluster center lam must land on a C(H)-cluster within the
    spectrum-matching tolerance, with equal multiplicity and equal inertia.
    """
    match = config.DEFAULT.spectrum_match
    if p is None:
        p = CayleyParams()
    t_op = cayley_op(h_mat, K, p)
    rep_h = signature.global_signature(h_mat, K, "hermitian")
    rep_t = signature.global_signature(t_op, K, "unitary")
    matches = []
    for i, row in enumerate(rep_h.rows):
        target = cayley_scalar(p, row.center)
        best, bestd = None, np.inf
        for j, urow in enumerate(rep_t.rows):
            d = abs(urow.center - target)
            if d < bestd:
                best, bestd = j, d
        if best is None or bestd > match * (1.0 + abs(target)):
            raise ClusterMatchFailed(
                f"H-cluster at {row.center:.6g} maps to {target:.6g}, no "
                f"unitary cluster within {match:.1e} (closest {bestd:.3e})")
        if rep_t.rows[best].multiplicity != row.multiplicity:
            raise ClusterMatchFailed(
                f"multiplicity mismatch at {row.center:.6g}")
        matches.append((i, best))
    inertia_equal = all(
        rep_h.rows[i].nu == rep_t.rows[j].nu for i, j in matches)
    return TransportReport(unitary=t_op, hermitian_report=rep_h,
                           unitary_report=rep_t,
                           inertia_equal=inertia_equal,
                           sig_equal=rep_h.global_sig == rep_t.global_sig)
