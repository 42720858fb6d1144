"""Worked-example fixtures doubling as golden-file regression data.

Each fixture directory ``fixtures/<name>/`` holds ``input.json`` (a matrix
file or a scenario reference plus the check to run), ``expected.json``
(golden output with a provenance tag), and for derived fixtures an
``oracle.md`` describing the independent computation that produced the
expected values.

Golden files are regenerated only through :func:`run_fixture` with
``regenerate=True``; the recorded invariants are exact integers, so drift
indicates bugs, not noise.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import fileio
from .errors import FixtureMismatch, UnknownFixture
from .homotopy import detect_events, scenario_library, track
from .realsym import full_invariant_report

FIXTURE_ROOT = Path(__file__).parent / "fixtures"
PROVENANCE_VALUES = ("reference", "trivial", "derived")


def list_fixtures() -> list[str]:
    if not FIXTURE_ROOT.is_dir():
        return []
    return sorted(p.name for p in FIXTURE_ROOT.iterdir()
                  if (p / "input.json").is_file())


def _fixture_dir(name: str) -> Path:
    d = FIXTURE_ROOT / name
    if not (d / "input.json").is_file():
        raise UnknownFixture(f"no fixture named {name!r}; "
                             f"available: {list_fixtures()}")
    return d


def _compute(recipe: dict) -> dict:
    check = recipe.get("check")
    if check == "invariants":
        if "matrix" in recipe:
            mf = fileio.parse_matrix_dict(recipe["matrix"])
            a, K, R = mf.matrix, mf.K, mf.R
        else:
            path = scenario_library(recipe["scenario"], recipe.get("params"))
            a = path(float(recipe.get("at_t", path.t_end)))
            K, R = path.structure, path.real_structure
        rep = full_invariant_report(a, R, recipe["op_kind"], K=K)
        return {"report": rep.to_dict()}
    if check == "events":
        path = scenario_library(recipe["scenario"], recipe.get("params"))
        trajs = track(path, initial_grid=int(recipe.get("grid", 9)))
        events = detect_events(trajs, path)
        return {"events": [e.to_dict() for e in events]}
    raise UnknownFixture(f"fixture check {check!r} not understood")


def _match_clusters(expected, actual, tolerance):
    diffs = []
    if len(expected) != len(actual):
        return [f"cluster count {len(actual)} != {len(expected)}"]
    used = set()
    for erow in expected:
        ec = complex(*erow["center"])
        best, bestd = None, np.inf
        for j, arow in enumerate(actual):
            if j in used:
                continue
            d = abs(complex(*arow["center"]) - ec)
            if d < bestd:
                best, bestd = j, d
        if best is None or bestd > tolerance:
            diffs.append(f"no cluster near {ec}")
            continue
        used.add(best)
        arow = actual[best]
        for key in ("multiplicity", "nu", "sig", "region"):
            if arow[key] != erow[key]:
                diffs.append(f"cluster {ec}: {key} {arow[key]} != {erow[key]}")
    return diffs


def _diff(expected: dict, actual: dict, tolerance: float) -> list[str]:
    diffs = []
    if "report" in expected:
        erep, arep = expected["report"], actual["report"]
        for key in ("global_sig", "sig2", "sec", "n_plus", "n_minus", "kind",
                    "group"):
            if erep.get(key) != arep.get(key):
                diffs.append(f"report.{key}: {arep.get(key)} != {erep.get(key)}")
        diffs.extend(_match_clusters(erep["clusters"], arep["clusters"],
                                     tolerance))
    if "events" in expected:
        eev, aev = expected["events"], actual["events"]
        if len(eev) != len(aev):
            diffs.append(f"event count {len(aev)} != {len(eev)}")
        else:
            akey = sorted(aev, key=lambda e: (e["event_kind"], e["t0"]))
            ekey = sorted(eev, key=lambda e: (e["event_kind"], e["t0"]))
            for ee, ae in zip(ekey, akey):
                for key in ("event_kind", "multiplicity", "direction"):
                    if ee[key] != ae[key]:
                        diffs.append(f"event {ee['event_kind']}: {key} "
                                     f"{ae[key]} != {ee[key]}")
                if abs(ee["t0"] - ae["t0"]) > max(tolerance, 1e-4):
                    diffs.append(f"event {ee['event_kind']}: t0 {ae['t0']} "
                                 f"!= {ee['t0']}")
                if abs(complex(*ee["lambda0"]) - complex(*ae["lambda0"])) > \
                        max(tolerance, 1e-4):
                    diffs.append(f"event {ee['event_kind']}: lambda0 off")
    return diffs


def run_fixture(name: str, regenerate: bool = False) -> bool:
    """Recompute a fixture and diff against its golden file.

    Returns True on match; raises :class:`FixtureMismatch` with the diff
    otherwise.  ``regenerate=True`` rewrites the golden data while keeping
    the provenance metadata.
    """
    d = _fixture_dir(name)
    recipe = json.loads((d / "input.json").read_text())
    actual = _compute(recipe)
    expected_path = d / "expected.json"
    if regenerate:
        meta = {}
        if expected_path.is_file():
            old = json.loads(expected_path.read_text())
            meta = {k: old[k] for k in ("provenance", "oracle", "source",
                                        "tolerance") if k in old}
        meta.update(actual)
        expected_path.write_text(fileio.dump_json(meta, indent=1) + "\n")
        return True
    if not expected_path.is_file():
        raise FixtureMismatch(f"fixture {name} has no golden file")
    expected = json.loads(expected_path.read_text())
    prov = expected.get("provenance")
    if prov not in PROVENANCE_VALUES:
        raise FixtureMismatch(
            f"fixture {name} lacks a valid provenance tag ({prov!r})")
    if prov == "derived" and not (d / "oracle.md").is_file():
        raise FixtureMismatch(f"derived fixture {name} lacks oracle.md")
    diffs = _diff(expected, actual, float(expected.get("tolerance", 1e-6)))
    if diffs:
        raise FixtureMismatch(f"fixture {name} mismatch", diff=diffs)
    return True


# ------------------------------------------------- example constructions

def build_sig2_example(b: float = 3.0, x: float = 1.0):
    """A 6x6 kind (-1,-1) unitary with on-circle dimension 2 (Sig_2 = 1).

    Built as the Cayley image of the hermitian member [[A, B], [-B*, -A]]
    with A = diag(0, 0, x) and B the rank-2 antisymmetric coupling of
    strength b: the spectrum is {+-i b (twice each), +-x}, mapping to the
    off-circle quadruple {mu, mu, 1/mu, 1/mu} plus one circle couple.
    """
    from .cayley import CayleyParams, cayley_op
    from .realsym import make_real_structure

    a_blk = np.diag([0.0, 0.0, x]).astype(complex)
    b_blk = np.zeros((3, 3), dtype=complex)
    b_blk[0, 1] = b
    b_blk[1, 0] = -b
    h = np.block([[a_blk, b_blk], [-b_blk.conj().T, -a_blk.conj()]])
    R = make_real_structure((-1, -1), 3, 3)
    t_mat = cayley_op(h, R.K, CayleyParams(z=1j, zeta=1.0))
    return t_mat, R
