"""Trajectory tracking, event detection, taxonomy, scenario library."""

import numpy as np
import pytest

from kreinlab import krein
from kreinlab.errors import MembershipError, StepUnderflow, UnknownScenario
from kreinlab.homotopy import (OperatorPath, detect_events, scenario_library,
                               track, trajectories_to_csv,
                               verify_krein_stability)
from kreinlab.realsym import make_real_structure


def rotation_pair_path():
    K = krein.make_standard(1, 1)

    def sampler(t):
        return np.diag([np.exp(1j * t), np.exp(-1j * t)])

    return OperatorPath(sampler=sampler, structure=K, kind="unitary",
                        t_start=0.0, t_end=np.pi, name="rotation-pair")


def test_track_rotation_pair_inertia():
    path = rotation_pair_path()
    trajs = track(path, initial_grid=9, record_inertia=True)
    assert len(trajs) == 2
    for tr in trajs:
        for s in tr.samples:
            assert s.region == "unit-circle"
    # interior samples carry the definite inertia of each branch
    interior = [k for k, s in enumerate(trajs[0].samples)
                if 0.3 < s.t < np.pi - 0.3]
    nus = set()
    for tr in trajs:
        for k in interior:
            nus.add(tr.samples[k].nu.as_tuple())
    assert nus == {(1, 0), (0, 1)}


def test_track_finex_constant():
    path = scenario_library("finex", {"sigma": 1, "sigma_prime": 1})
    trajs = track(path, initial_grid=7, record_inertia=True)
    for tr in trajs:
        vals = tr.values()
        assert np.allclose(vals, vals[0], atol=1e-9)
        target = round(vals[0].real)
        expected_nu = (1, 0) if target == 1 else (0, 1)
        for s in tr.samples:
            assert s.nu.as_tuple() == expected_nu
    assert detect_events(trajs, path) == []


def test_track_kc2x2_closed_form():
    path = scenario_library("kc2x2")
    trajs = track(path, initial_grid=9)
    for tr in trajs:
        for s in tr.samples:
            t = s.t
            lam = np.emath.sqrt(t * t - 1.0)
            assert min(abs(s.value - lam), abs(s.value + lam)) <= 1e-8
    events = detect_events(trajs, path)
    assert len(events) == 1
    e = events[0]
    assert e.event_kind == "KC" and e.direction == "arrival"
    assert abs(e.t0 - 1.0) <= 1e-4
    assert abs(e.lambda0) <= 1e-5
    assert e.multiplicity == 2


def test_kc2x2_as_symplectic_is_tb():
    # the same family is a kind (1,-1) member; through 0 it reads as a
    # tangent bifurcation
    K = krein.make_standard(1, 1)
    R = make_real_structure((1, -1), 1, 1)

    def sampler(t):
        return np.array([[t, 1.0], [-1.0, -t]], dtype=complex)

    path = OperatorPath(sampler=sampler, structure=K, kind="hermitian",
                        real_structure=R, t_start=0.0, t_end=2.0)
    trajs = track(path, initial_grid=9)
    events = detect_events(trajs, path)
    assert [e.event_kind for e in events] == ["TB"]


@pytest.mark.parametrize("name", ["tb", "pd", "mtb", "mpd", "qkc", "kc2x2"])
def test_scenarios_match_expected_events(name):
    path = scenario_library(name)
    trajs = track(path, initial_grid=9)
    events = [e for e in detect_events(trajs, path)
              if e.event_kind != "PASS_THROUGH"]
    expected = path.expected_events
    assert len(events) == len(expected)
    events = sorted(events, key=lambda e: (e.lambda0.real, e.lambda0.imag))
    expected = sorted(expected, key=lambda d: (complex(d["lambda0"]).real,
                                               complex(d["lambda0"]).imag))
    for e, d in zip(events, expected):
        assert e.event_kind == d["event_kind"]
        assert abs(e.t0 - d["t0"]) <= 1e-4
        assert abs(e.lambda0 - complex(d["lambda0"])) <= 1e-4
        assert e.multiplicity == d["multiplicity"]
        assert e.direction == d["direction"]
        ok, _ = verify_krein_stability([e], trajs)
        assert ok


def test_scenario_membership_along_path():
    for name in ("finex", "tb", "mtb", "qkc"):
        path = scenario_library(name)
        assert path.verify_membership(n_samples=9) <= 1e-7


def test_events_time_reversal():
    path = scenario_library("tb")
    fwd = detect_events(track(path, initial_grid=9), path)
    rev_path = path.reversed()
    rev = detect_events(track(rev_path, initial_grid=9), rev_path)
    assert len(fwd) == len(rev) == 1
    assert fwd[0].direction == "departure"
    assert rev[0].direction == "arrival"
    assert abs((path.t_end - rev[0].t0) - fwd[0].t0) <= 1e-3
    assert rev[0].event_kind == fwd[0].event_kind


def test_krein_stability_flags_synthetic_violation():
    path = scenario_library("tb")
    trajs = track(path, initial_grid=9)
    events = detect_events(trajs, path)
    ok, _ = verify_krein_stability(events, trajs)
    assert ok
    from kreinlab.signature import InertiaPair
    events[0].inertia_before = InertiaPair(2, 0)  # definite: forbidden
    ok, violations = verify_krein_stability(events, trajs)
    assert not ok and len(violations) == 1


def test_definite_structure_never_departs():
    # J positive definite: the operator class is selfadjoint, spectrum stays
    # real along any path
    K = krein.make_standard(3, 0)

    def sampler(t):
        h0 = krein.random_j_hermitian(K, 8)
        h1 = krein.random_j_hermitian(K, 9)
        return (1 - t) * h0 + t * h1

    path = OperatorPath(sampler=sampler, structure=K, kind="hermitian")
    trajs = track(path, initial_grid=7)
    events = detect_events(trajs, path)
    assert all(e.event_kind == "PASS_THROUGH" for e in events)


def test_pass_through_detected_on_rotation_path():
    path = rotation_pair_path()
    trajs = track(path, initial_grid=9)
    events = detect_events(trajs, path)
    hits = [e for e in events if e.event_kind == "PASS_THROUGH"]
    assert hits
    # crossing at lambda = -1 when the angle reaches pi
    assert any(abs(e.lambda0 + 1.0) < 1e-2 for e in hits)


def test_step_underflow_on_discontinuous_path():
    K = krein.make_standard(1, 1)

    def sampler(t):
        return np.diag([2.0, 0.5]) if t < 0.5 else np.diag([-2.0, -0.5])

    path = OperatorPath(sampler=sampler, structure=K, kind="unitary")
    with pytest.raises(StepUnderflow):
        track(path, initial_grid=5)


def test_csv_export_columns():
    path = scenario_library("finex")
    trajs = track(path, initial_grid=3, record_inertia=True)
    text = trajectories_to_csv(trajs)
    lines = text.strip().splitlines()
    assert lines[0] == "t,track_id,re,im,nu_plus,nu_minus,region"
    assert len(lines) == 1 + 2 * 3
    row = lines[1].split(",")
    assert row[6] == "unit-circle"
    for line in lines[1:]:
        row = line.split(",")
        assert row[6] == "unit-circle" and row[4] != "" and row[5] != ""


def test_from_samples_interpolation_and_membership():
    K = krein.make_standard(1, 1)
    ts = [0.0, 0.5, 1.0]
    mats = [np.diag([np.exp(1j * t), np.exp(-1j * t)]) for t in ts]
    path = OperatorPath.from_samples(ts, mats, K, "unitary")
    mid = path(0.25)
    np.testing.assert_allclose(mid, (mats[0] + mats[1]) / 2)
    with pytest.raises(MembershipError):
        # linear interpolation of unitaries leaves the group at this scale
        bad = OperatorPath.from_samples(
            [0.0, 1.0], [np.eye(2), np.diag([1j, -1j])], K, "unitary")
        bad.verify_membership(n_samples=5)


def test_global_signature_constant_along_library_paths():
    from kreinlab.signature import global_signature

    for name in ("finex", "kc2x2", "qkc", "tb", "mtb", "pd", "mpd"):
        path = scenario_library(name)
        sigs = {global_signature(path(t), path.structure, path.kind).global_sig
                for t in np.linspace(path.t_start, path.t_end, 5)}
        assert sigs == {path.structure.n_plus - path.structure.n_minus}, name


def test_cluster_inertia_undecided_when_frame_svd_fails(monkeypatch):
    # a LAPACK failure in the frame of the projection is a typed
    # NoConvergence, which leaves the inertia undecided instead of aborting
    from kreinlab import homotopy

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    path = rotation_pair_path()
    members = path.sample(1.0)[1][:1]
    assert homotopy._cluster_inertia(path, 1.0, members) is not None
    monkeypatch.setattr(np.linalg, "svd", fail)
    assert homotopy._cluster_inertia(path, 1.0, members) is None


def test_track_programming_error_in_inertia_propagates(monkeypatch):
    from kreinlab import homotopy

    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(homotopy, "form_inertia", broken)
    with pytest.raises(TypeError, match="injected"):
        track(rotation_pair_path(), initial_grid=9, record_inertia=True)


def count_cluster_inertia(monkeypatch):
    """Parameters of every ``_cluster_inertia`` call, in call order."""
    from kreinlab import homotopy

    ts = []
    raw = homotopy._cluster_inertia

    def counted(path, t, members):
        ts.append(float(t))
        return raw(path, t, members)

    monkeypatch.setattr(homotopy, "_cluster_inertia", counted)
    return ts


def test_cli_track_reads_inertia_only_at_event_sites(monkeypatch, capsys):
    from kreinlab import cli

    path = scenario_library("mtb")
    trajs = track(path, initial_grid=33)
    ts = count_cluster_inertia(monkeypatch)
    detect_events(trajs, path)
    at_events = len(ts)
    assert at_events > 0
    ts.clear()
    assert cli.main(["track", "mtb"]) == 0
    assert len(ts) == at_events


def test_site_inertia_read_at_the_reading_parameter(monkeypatch):
    # readings shifted off the requested parameter, as after a jittered
    # retry of an ambiguous region tag: a site's inertia must be read on
    # the sample its members came from
    from kreinlab import homotopy

    path = rotation_pair_path()
    trajs = track(path, initial_grid=9)
    raw = homotopy._regions
    returned = set()

    def shifted(path, t):
        reading = raw(path, t + 1e-9 * path.span)
        returned.add(reading[0])
        return reading

    monkeypatch.setattr(homotopy, "_regions", shifted)
    ts = count_cluster_inertia(monkeypatch)
    events = detect_events(trajs, path)
    assert [e.event_kind for e in events].count("PASS_THROUGH") == 2
    assert ts and all(t in returned for t in ts)


@pytest.mark.parametrize("name", ["finex", "kc2x2", "qkc", "tb", "mtb",
                                  "pd", "mpd"])
def test_track_and_events_sample_each_t_once(name, monkeypatch):
    sampled = []
    raw = OperatorPath.__call__

    def counted(self, t):
        sampled.append(float(t))
        return raw(self, t)

    monkeypatch.setattr(OperatorPath, "__call__", counted)
    path = scenario_library(name)
    detect_events(track(path, initial_grid=33), path)
    assert len(sampled) == len(set(sampled))


@pytest.mark.parametrize("name", ["mtb", "qkc", "kc2x2"])
def test_events_on_filled_store_match_fresh_path(name):
    path = scenario_library(name)
    trajs = track(path)
    filled = [e.to_dict() for e in detect_events(trajs, path)]
    fresh = [e.to_dict() for e in detect_events(trajs, scenario_library(name))]
    assert filled == fresh and filled


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        scenario_library("nope")
    with pytest.raises(UnknownScenario):
        scenario_library("finex", {"bogus": 1.0})
