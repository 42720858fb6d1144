"""kreinlab: a finite-dimensional laboratory for Krein-space operator theory.

Computes Krein inertia and global signatures of J-unitary and J-hermitian
matrices (with and without Real symmetry), tracks eigenvalue bifurcations
along operator paths, transports invariants through Cayley transforms, and
executes explicit homotopy retractions down to model operators.

The exported names are resolved on first access (PEP 562), so importing the
package, or one of its modules, loads only the modules actually used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("DEFAULT", "ToleranceConfig"),
    "krein": ("KreinStructure", "MembershipResult", "is_j_hermitian",
              "is_j_unitary", "make_standard", "random_j_hermitian",
              "random_j_unitary"),
    "signature": ("InertiaPair", "InvariantReport", "build_index_example",
                  "global_signature", "inertia", "sec", "sig2"),
    "cayley": ("CayleyParams", "cayley_inv_op", "cayley_inv_scalar", "cayley_op",
               "cayley_scalar", "pick_zeta", "transport_report"),
    "realsym": ("RealKind", "RealStructure", "classify_group",
                "check_spectral_symmetries", "full_invariant_report",
                "is_member", "kramers_check", "make_real_structure",
                "normalize_krein_pair", "random_member"),
    "spectral": ("ClusterPartition", "SpectralCluster", "cluster_eigenvalues",
                 "flat_partition", "fredholm_corrector", "riesz_projection",
                 "spectral_partition"),
    "homotopy": ("BifurcationEvent", "OperatorPath", "Trajectory",
                 "detect_events", "scenario_library", "track",
                 "trajectories_to_csv", "verify_krein_stability"),
    "retraction": ("RetractionTrace", "factorize_unitary", "lagrangian_frames",
                   "lift_kernel", "retract_to_model", "spectral_flatten",
                   "straighten"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"cayley", "cli", "config", "errors", "fileio", "fixtures",
                         "homotopy", "krein", "numerics", "realsym", "retraction",
                         "signature", "spectral", "verify"})

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
