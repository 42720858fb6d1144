"""Stable file formats: matrix files, path files, JSON helpers.

Matrix files are JSON objects {dim, n_plus, n_minus, kind, entries} with
entries a row-major list of [re, im] pairs.  Floats serialize through
Python's repr (shortest round-trip representation), so written files re-read
bit-exactly; JSON keys are sorted for byte-stable output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import KreinLabError
from .krein import KreinStructure, make_standard
from .realsym import RealKind, RealStructure, make_real_structure


class FileFormatError(KreinLabError):
    """Raised on malformed input files."""


@dataclass
class MatrixFile:
    matrix: np.ndarray
    K: KreinStructure
    R: RealStructure | None

    def to_dict(self) -> dict:
        entries = [[float(x.real), float(x.imag)] for x in self.matrix.ravel()]
        return {
            "dim": self.K.dim,
            "n_plus": self.K.n_plus,
            "n_minus": self.K.n_minus,
            "kind": list(self.R.kind.as_tuple()) if self.R is not None else None,
            "entries": entries,
        }


def dump_json(obj, fileobj=None, indent=None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=indent)
    if fileobj is not None:
        fileobj.write(text)
        if indent is not None:
            fileobj.write("\n")
    return text


def write_matrix_file(path, matrix, K: KreinStructure,
                      R: RealStructure | None = None):
    mf = MatrixFile(matrix=numerics.as_matrix(matrix, square=True), K=K, R=R)
    with open(path, "w") as fh:
        dump_json(mf.to_dict(), fh, indent=1)
    return mf


def _square(entries, dim: int) -> np.ndarray:
    """The ``dim x dim`` matrix of a row-major list of [re, im] pairs."""
    try:
        flat = np.array([complex(re, im) for re, im in entries])
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"entries must be [re, im] pairs: {exc}") from exc
    if flat.size != dim * dim:
        raise FileFormatError(f"expected {dim * dim} entries, got {flat.size}")
    return flat.reshape(dim, dim)


def _real_structure(kind, n_plus: int, n_minus: int) -> RealStructure:
    """Normal-form real structure of a file's ``[eta, tau]`` kind."""
    try:
        eta, tau = (int(x) for x in kind)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"kind must be a pair [eta, tau]: {exc}") from exc
    return make_real_structure(RealKind(eta, tau), n_plus, n_minus)


def parse_matrix_dict(data: dict) -> MatrixFile:
    try:
        dim = int(data["dim"])
        n_plus = int(data["n_plus"])
        n_minus = int(data["n_minus"])
        entries = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed matrix file: {exc}") from exc
    if n_plus + n_minus != dim:
        raise FileFormatError(
            f"inertia ({n_plus},{n_minus}) does not sum to dim {dim}")
    matrix = _square(entries, dim)
    if not np.isfinite(matrix).all():
        raise FileFormatError("matrix entries must be finite")
    kind = data.get("kind")
    if kind is None:
        K = make_standard(n_plus, n_minus)
        return MatrixFile(matrix=matrix, K=K, R=None)
    R = _real_structure(kind, n_plus, n_minus)
    return MatrixFile(matrix=matrix, K=R.K, R=R)


def read_matrix_file(path) -> MatrixFile:
    with open(path) as fh:
        data = json.load(fh)
    return parse_matrix_dict(data)


def parse_path_dict(data: dict):
    """Stored operator path: {kind, n_plus, n_minus, real_kind, samples}."""
    from .homotopy import OperatorPath

    try:
        op_kind = data["kind"]
        n_plus = int(data["n_plus"])
        n_minus = int(data["n_minus"])
        samples = data["samples"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed path file: {exc}") from exc
    if op_kind not in ("unitary", "hermitian"):
        raise FileFormatError("path kind must be 'unitary' or 'hermitian'")
    dim = n_plus + n_minus
    try:
        ts = [float(entry["t"]) for entry in samples]
        mats = [_square(entry["entries"], dim) for entry in samples]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed path sample: {exc!r}") from exc
    real_kind = data.get("real_kind")
    R = None
    K = make_standard(n_plus, n_minus)
    if real_kind is not None:
        R = _real_structure(real_kind, n_plus, n_minus)
        K = R.K
    return OperatorPath.from_samples(ts, mats, K, op_kind, real_structure=R,
                                     name=str(data.get("name", "stored-path")))


def read_path_file(path):
    with open(path) as fh:
        data = json.load(fh)
    return parse_path_dict(data)
