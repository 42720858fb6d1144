"""File formats and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kreinlab
from kreinlab import cli, fileio, krein
from kreinlab.realsym import make_real_structure, random_member

SRC = Path(kreinlab.__file__).resolve().parent.parent


def test_matrix_file_roundtrip_bit_exact(tmp_path):
    K = krein.make_standard(2, 1)
    h = krein.random_j_hermitian(K, 3)
    path = tmp_path / "m.json"
    fileio.write_matrix_file(path, h, K)
    mf = fileio.read_matrix_file(path)
    assert np.array_equal(mf.matrix, h)
    # re-serialization is byte-stable
    text1 = path.read_text()
    fileio.write_matrix_file(path, mf.matrix, mf.K, mf.R)
    assert path.read_text() == text1


def test_matrix_file_with_kind(tmp_path):
    R = make_real_structure((1, -1), 2, 2)
    t_mat = random_member(R, "unitary", 1)
    path = tmp_path / "m.json"
    fileio.write_matrix_file(path, t_mat, R.K, R)
    mf = fileio.read_matrix_file(path)
    assert mf.R is not None and mf.R.kind.as_tuple() == (1, -1)


def test_matrix_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "n_plus": 1, "n_minus": 0,
                                "entries": [[0, 0]] * 4}))
    with pytest.raises(fileio.FileFormatError):
        fileio.read_matrix_file(path)
    path.write_text(json.dumps({"dim": 2, "n_plus": 1, "n_minus": 1,
                                "entries": [[0, 0]] * 3}))
    with pytest.raises(fileio.FileFormatError):
        fileio.read_matrix_file(path)
    path.write_text(json.dumps({"dim": 2, "n_plus": 1, "n_minus": 1,
                                "entries": [[0, 0]] * 3 + [[0, float("inf")]]}))
    assert "Infinity" in path.read_text()
    with pytest.raises(fileio.FileFormatError):
        fileio.read_matrix_file(path)


KC_SAMPLES = [{"t": 0.0, "entries": [[0, 0], [1, 0], [-1, 0], [0, 0]]},
              {"t": 2.0, "entries": [[2, 0], [1, 0], [-1, 0], [-2, 0]]}]


def path_file(**changes):
    data = {"kind": "hermitian", "n_plus": 1, "n_minus": 1,
            "samples": KC_SAMPLES}
    data.update(changes)
    return data


def matrix_file(**changes):
    K = krein.make_standard(1, 1)
    data = fileio.MatrixFile(matrix=np.array([[0, 1], [-1, 0]], dtype=complex),
                             K=K, R=None).to_dict()
    data.update(changes)
    return data


@pytest.mark.parametrize("command, data", [
    (["track"], path_file(samples=[{"entries": KC_SAMPLES[0]["entries"]},
                                   KC_SAMPLES[1]])),
    (["track"], path_file(samples=[{"t": 0.0}, KC_SAMPLES[1]])),
    (["track"], path_file(samples=5)),
    (["track"], path_file(samples=[{"t": 0.0, "entries": [0, 1, -1, 0]},
                                   KC_SAMPLES[1]])),
    (["track"], path_file(real_kind=[1])),
    (["invariants", "--kind", "hermitian"], matrix_file(kind=[1])),
    (["invariants", "--kind", "hermitian"], matrix_file(kind=5)),
    (["retract"], matrix_file(kind=[1])),
    (["retract"], matrix_file(kind=5)),
    (["track"], path_file(n_plus=1.0)),
    (["track"], path_file(n_minus=True)),
    (["track"], path_file(real_kind=[1, True])),
    (["invariants", "--kind", "hermitian"], matrix_file(n_plus=1.9)),
    (["invariants", "--kind", "hermitian"], matrix_file(n_plus=True)),
    (["invariants", "--kind", "hermitian"], matrix_file(dim=2.0)),
    (["invariants", "--kind", "hermitian"], matrix_file(dim="2")),
    (["invariants", "--kind", "hermitian"], matrix_file(kind=[1.5, 1])),
    (["retract"], matrix_file(n_minus=1.0)),
    (["retract"], matrix_file(kind=[1, -1.0])),
], ids=["sample-without-t", "sample-without-entries", "samples-not-a-list",
        "entries-not-pairs", "real-kind-short", "invariants-kind-short",
        "invariants-kind-int", "retract-kind-short", "retract-kind-int",
        "path-n-plus-float", "path-n-minus-bool", "real-kind-bool",
        "n-plus-fractional", "n-plus-bool", "dim-float", "dim-string",
        "invariants-kind-fractional", "retract-n-minus-float",
        "retract-kind-float"])
def test_cli_malformed_file_exits_2(tmp_path, capsys, command, data):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(data))
    assert cli.main([command[0], str(f), *command[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_tolerance_env_reaches_the_membership_check(tmp_path):
    """KREINLAB_TOL scales the bound the ``invariants`` command applies:
    the generated U(2,2) element's residual (about 1e-15) passes the
    default 1e-8 and fails 1e-8 * 1e-9."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("KREINLAB_TOL", None)

    def run(*argv, **extra):
        return subprocess.run([sys.executable, "-m", "kreinlab.cli", *argv],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=dict(env, **extra), timeout=300)

    assert run("gen", "U", "2", "2", "--seed", "1", "--out", "u.json").returncode == 0
    assert run("invariants", "u.json", "--kind", "unitary").returncode == 0
    scaled = run("invariants", "u.json", "--kind", "unitary", KREINLAB_TOL="1e-9")
    assert scaled.returncode == 2
    assert "not J-unitary" in scaled.stderr


def test_path_file_roundtrip(tmp_path):
    K = krein.make_standard(1, 1)
    data = {
        "kind": "hermitian", "n_plus": 1, "n_minus": 1, "name": "stored",
        "samples": [
            {"t": 0.0, "entries": [[0, 0], [1, 0], [-1, 0], [0, 0]]},
            {"t": 2.0, "entries": [[2, 0], [1, 0], [-1, 0], [-2, 0]]},
        ],
    }
    p = tmp_path / "path.json"
    p.write_text(json.dumps(data))
    path = fileio.read_path_file(p)
    np.testing.assert_allclose(path(1.0), [[1, 1], [-1, -1]])
    assert path.kind == "hermitian" and path.t_end == 2.0


def test_cli_gen_invariants_roundtrip(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert cli.main(["gen", "O", "1", "1", "--seed", "7",
                     "--out", str(out)]) == 0
    assert cli.main(["invariants", str(out), "--kind", "unitary"]) == 0
    captured = capsys.readouterr().out
    payload = json.loads(captured[captured.index("{"):])
    assert payload["group"] == "O(1,1)"
    assert payload["global_sig"] == payload["identity_n_plus_minus_n_minus"]
    assert payload["sec"] in (0, 1)


def test_cli_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["gen", "U", "2", "2", "--seed", "9", "--out", str(a)])
    cli.main(["gen", "U", "2", "2", "--seed", "9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_cli_gen_incompatible_dims(tmp_path):
    code = cli.main(["gen", "SP-R", "2", "1",
                     "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_cli_gen_zero_hermitian(tmp_path, capsys):
    out = tmp_path / "z.json"
    assert cli.main(["gen", "hermitian", "1", "1", "--zero",
                     "--out", str(out)]) == 0
    mf = fileio.read_matrix_file(out)
    assert np.all(mf.matrix == 0)


def test_cli_invariants_ambiguous_exit_code(tmp_path):
    # J-hermitian with eigenvalues in the classification ambiguity band
    K = krein.make_standard(1, 1)
    h = 3e-7 * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    f = tmp_path / "amb.json"
    fileio.write_matrix_file(f, h, K)
    assert cli.main(["invariants", str(f), "--kind", "hermitian"]) == 3


def test_cli_invariants_nonmember_exit_code(tmp_path):
    K = krein.make_standard(1, 1)
    f = tmp_path / "bad.json"
    fileio.write_matrix_file(f, np.diag([2.0, 1.0]), K)
    assert cli.main(["invariants", str(f), "--kind", "unitary"]) == 2


@pytest.mark.parametrize("command", (["retract"],
                                     ["invariants", "--kind", "hermitian"]))
def test_cli_real_structure_nonmember_exit_code(tmp_path, capsys, command):
    # J-hermitian, but not fixed by the real structure its file declares
    R = make_real_structure((1, 1), 3, 3)
    f = tmp_path / "h.json"
    fileio.write_matrix_file(f, krein.random_j_hermitian(R.K, 3), R.K, R)
    assert cli.main([command[0], str(f), *command[1:]]) == 2
    assert "operator is not a member of the symmetry class" in \
        capsys.readouterr().err


def test_cli_track_scenario(tmp_path, capsys):
    csv_out = tmp_path / "t.csv"
    ev_out = tmp_path / "e.json"
    assert cli.main(["track", "tb", "--grid", "9", "--out-csv", str(csv_out),
                     "--out-events", str(ev_out)]) == 0
    events = json.loads(ev_out.read_text())["events"]
    assert [e["event_kind"] for e in events] == ["TB"]
    header = csv_out.read_text().splitlines()[0]
    assert header == "t,track_id,re,im,nu_plus,nu_minus,region"


def test_cli_track_stored_path_file(tmp_path):
    ts = np.linspace(0.0, 2.0, 21)
    samples = []
    for t in ts:
        h = np.array([[t, 1.0], [-1.0, -t]], dtype=complex)
        samples.append({"t": float(t),
                        "entries": [[float(x.real), float(x.imag)]
                                    for x in h.ravel()]})
    data = {"kind": "hermitian", "n_plus": 1, "n_minus": 1,
            "name": "stored-collision", "samples": samples}
    p = tmp_path / "path.json"
    p.write_text(json.dumps(data))
    ev_out = tmp_path / "ev.json"
    assert cli.main(["track", str(p), "--grid", "9",
                     "--out-events", str(ev_out)]) == 0
    events = json.loads(ev_out.read_text())["events"]
    assert any(e["event_kind"] == "KC" and abs(e["t0"] - 1.0) < 1e-3
               for e in events)


def test_cli_track_unknown_scenario():
    assert cli.main(["track", "missing-scenario"]) == 2


def test_cli_retract(tmp_path, capsys):
    m = tmp_path / "m.json"
    cli.main(["gen", "SP-R", "2", "2", "--seed", "4", "--out", str(m)])
    # unitary member file; retract expects a hermitian operator, so build one
    R = make_real_structure((1, -1), 2, 2)
    h = random_member(R, "hermitian", 4)
    fileio.write_matrix_file(m, h, R.K, R)
    out = tmp_path / "trace.json"
    assert cli.main(["retract", str(m), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["terminal_class"] == "symmetric"


def test_cli_retract_refuses_unbalanced(tmp_path, capsys):
    K = krein.make_standard(2, 1)
    f = tmp_path / "m.json"
    fileio.write_matrix_file(f, krein.random_j_hermitian(K, 0), K)
    assert cli.main(["retract", str(f)]) == 2
    assert "N+ = N-" in capsys.readouterr().err


def test_cli_verify_small(capsys):
    assert cli.main(["verify", "factorization", "--n", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert "max_residuals" in payload
