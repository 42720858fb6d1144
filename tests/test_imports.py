"""Import boundaries: the package resolves its exports lazily, and a CLI call
loads only the modules its command uses.

Module loading is observed in a fresh interpreter, because this test process
has already imported everything.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kreinlab
from kreinlab import fileio, krein, verify
from kreinlab.realsym import make_real_structure, random_member

SRC = Path(kreinlab.__file__).resolve().parent.parent
README = SRC.parent / "README.md"

# The public names of the package and the modules defining them.
EXPORTS = {
    "config": ["DEFAULT", "ToleranceConfig"],
    "krein": ["KreinStructure", "MembershipResult", "is_j_hermitian",
              "is_j_unitary", "make_standard", "random_j_hermitian",
              "random_j_unitary"],
    "signature": ["InertiaPair", "InvariantReport", "build_index_example",
                  "global_signature", "inertia", "sec", "sig2"],
    "cayley": ["CayleyParams", "cayley_inv_op", "cayley_inv_scalar", "cayley_op",
               "cayley_scalar", "pick_zeta", "transport_report"],
    "realsym": ["RealKind", "RealStructure", "classify_group",
                "check_spectral_symmetries", "full_invariant_report",
                "is_member", "kramers_check", "make_real_structure",
                "normalize_krein_pair", "random_member"],
    "spectral": ["ClusterPartition", "SpectralCluster", "cluster_eigenvalues",
                 "flat_partition", "fredholm_corrector", "riesz_projection",
                 "spectral_partition"],
    "homotopy": ["BifurcationEvent", "OperatorPath", "Trajectory",
                 "detect_events", "scenario_library", "track",
                 "trajectories_to_csv", "verify_krein_stability"],
    "retraction": ["RetractionTrace", "factorize_unitary", "lagrangian_frames",
                   "lift_kernel", "retract_to_model", "spectral_flatten",
                   "straighten"],
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)
HEAVY = ["kreinlab.homotopy", "kreinlab.retraction", "kreinlab.verify",
         "kreinlab.cayley"]


def run_fresh(code: str, cwd) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    env.pop("KREINLAB_TOL", None)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=cwd, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_exports_resolve_to_their_defining_objects():
    import importlib

    assert sorted(kreinlab.__all__) == ALL_NAMES
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"kreinlab.{module}")
        for name in names:
            assert getattr(kreinlab, name) is getattr(mod, name), name
    assert set(ALL_NAMES) <= set(dir(kreinlab))
    namespace = {}
    exec("from kreinlab import *", namespace)
    assert set(ALL_NAMES) <= set(namespace)
    with pytest.raises(AttributeError):
        kreinlab.no_such_name  # noqa: B018
    assert kreinlab.homotopy is sys.modules["kreinlab.homotopy"]


def test_readme_library_tour_runs():
    block = re.search(r"## Library tour\s+```python\n(.*?)```", README.read_text(),
                      re.S)
    exec(compile(block.group(1), str(README), "exec"), {})


def test_import_loads_no_submodule(tmp_path):
    got = run_fresh(
        "import json, sys; import kreinlab; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('kreinlab') "
        "or m.startswith('scipy'))))", tmp_path)
    assert got == ["kreinlab"]


def test_cli_loads_only_what_its_command_uses(tmp_path):
    R = make_real_structure((1, 1), 2, 2)
    fileio.write_matrix_file(tmp_path / "o.json",
                             random_member(R, "unitary", 3), R.K, R)
    K = krein.make_standard(2, 2)
    fileio.write_matrix_file(tmp_path / "u.json", krein.random_j_unitary(K, 4), K)
    fileio.write_matrix_file(tmp_path / "h.json", krein.random_j_hermitian(K, 5), K)
    R_sym = make_real_structure((1, -1), 2, 2)
    fileio.write_matrix_file(tmp_path / "s.json",
                             random_member(R_sym, "hermitian", 6), R_sym.K, R_sym)
    code = """
import contextlib, io, json, sys
import kreinlab.cli as cli

def loaded(prefixes):
    return sorted(m for m in sys.modules if m.startswith(tuple(prefixes)))

out = {}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["invariants", "o.json", "--kind", "unitary"]),
             cli.main(["invariants", "u.json", "--kind", "unitary"])]
out["invariants"] = (codes, loaded(["scipy"] + %r))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["retract", "h.json"]), cli.main(["retract", "s.json"])]
out["retract"] = (codes, loaded(["scipy"]))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["track", "mtb"])]
out["track"] = (codes, loaded(["scipy"]))
print(json.dumps(out))
""" % HEAVY
    got = run_fresh(code, tmp_path)
    assert got["invariants"] == [[0, 0], []]
    assert got["retract"] == [[0, 0], []]
    assert got["track"] == [[0], []]


def test_verify_records_typed_errors_and_propagates_others(monkeypatch):
    from kreinlab import spectral
    from kreinlab.errors import QuadratureDivergence

    real = spectral.spectral_partition
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise QuadratureDivergence("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "spectral_partition", flaky)
    out = verify.run_suite("riesz", n=3)
    assert out["failures"] == ["instance 1: injected"]

    def broken(*args, **kwargs):
        raise TypeError("injected programming error")

    monkeypatch.setattr(spectral, "spectral_partition", broken)
    with pytest.raises(TypeError, match="injected programming error"):
        verify.run_suite("riesz", n=3)


def test_suite_names_match_the_suites(monkeypatch):
    from kreinlab import cli

    suites = [name for name in vars(verify) if name.startswith("suite_")]
    assert len(suites) == len(verify.SUITES)
    for name in suites:
        monkeypatch.setattr(verify, name,
                            lambda n, seed, name=name: {"runner": name})
    parser = cli.build_parser()
    ran = set()
    for suite in verify.SUITES:
        assert parser.parse_args(["verify", suite]).suite == suite
        ran.add(verify.run_suite(suite)["runner"])
    assert ran == set(suites)


def test_no_function_takes_a_tolerance_config():
    """Tolerances have one source, ``config.DEFAULT``: no function or method
    of the package takes a per-call ``tol`` or ``tol_*`` argument."""
    import importlib
    import inspect
    import pkgutil

    from kreinlab import config

    found = []
    for info in pkgutil.iter_modules(kreinlab.__path__):
        mod = importlib.import_module(f"kreinlab.{info.name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in members:
                fn = getattr(fn, "__func__", fn)
                if inspect.isfunction(fn) and any(
                        p == "tol" or p.startswith("tol_")
                        for p in inspect.signature(fn).parameters):
                    found.append(f"{mod.__name__}.{fn.__qualname__}")
    assert found == []
    assert not hasattr(config, "get")
