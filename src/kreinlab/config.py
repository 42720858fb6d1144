"""Centralized numerical tolerances.

The theory statements are exact; the numerics are not.  The tolerances of
the package live in one :class:`ToleranceConfig`, :data:`DEFAULT`, which
every check reads when it runs; no function takes a tolerance argument.  The
environment variable ``KREINLAB_TOL`` multiplies all float tolerances
(except quadrature point counts, which are integers); a test retunes the
whole stack by replacing ``DEFAULT``.

All matrix norms throughout the package are Frobenius norms unless noted.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    # dense linear algebra substrate
    singular_pivot: float = 1e-13    # pivot threshold, relative to ||A||
    herm_rtol: float = 1e-10         # allowed ||A - A*|| / ||A||
    rank: float = 1e-8               # default numerical-rank threshold

    # membership predicates
    membership: float = 1e-8
    membership_exact: float = 1e-12  # constructions exact by algebra
    path_membership: float = 1e-7    # along sampled operator paths

    # spectral machinery
    riesz: float = 1e-8              # ||P^2 - P|| and ||[P,T]||/||T||
    riesz_trace: float = 1e-6        # |trace(P) - round(trace(P))|
    partition_sum: float = 1e-7      # || sum of projections - 1 ||
    cluster_delta_scale: float = 1e-6  # default delta = scale*(1 + spectral radius)
    contour_clearance: float = 1e-9  # min distance contour <-> spectrum
    eps_region: float = 1e-7         # half-width of the on-axis/on-circle band
    ambiguous_factor: float = 10.0   # ambiguity zone = (eps, factor*eps]
    spectrum_match: float = 1e-6     # multiset matching of spectra

    # signatures
    zero_form: float = 1e-8          # degeneracy threshold for restricted forms

    # cayley transforms
    spectrum_clearance: float = 1e-8  # dist(z, spectrum) lower bound

    # paths
    min_step: float = 1e-6
    match_fraction: float = 0.2      # allowed move relative to eigenvalue gap

    # retraction pipeline
    isotropy: float = 1e-7           # ||F* J F|| of a Lagrangian frame F
    lagrangian: float = 1e-7         # frame re-embedding residual
    fredholm_cert: float = 1e-8      # smallest singular value of u_-^* u_+ - 1
    factorize: float = 1e-9
    terminal_spectrum: float = 1e-6
    terminal_symmetry: float = 1e-8
    chain_gap: float = 1e-7

    # integer knobs (not scaled)
    quad_start: int = 64
    quad_cap: int = 1024

    def scaled(self, factor: float) -> "ToleranceConfig":
        """Return a copy with every float tolerance multiplied by ``factor``."""
        updates = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and f.name != "ambiguous_factor" \
                    and f.name != "match_fraction":
                updates[f.name] = v * factor
        return dataclasses.replace(self, **updates)

    @classmethod
    def from_env(cls) -> "ToleranceConfig":
        base = cls()
        raw = os.environ.get("KREINLAB_TOL")
        if not raw:
            return base
        return base.scaled(float(raw))


DEFAULT = ToleranceConfig.from_env()

# Names of the randomized suites of ``kreinlab.verify``, kept here so that the
# command-line parser can list them without importing the suites.
SUITES = ("riesz", "signature-law", "cayley", "kramers", "taxonomy",
          "retraction", "factorization")
