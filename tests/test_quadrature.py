"""Stacked, nested trapezoid quadrature of Riesz projections, checked against
the rule evaluated one node at a time with an LU solve per node."""

import numpy as np
import pytest
import scipy.linalg as sla

from kreinlab import config, homotopy, numerics, spectral
from kreinlab.errors import QuadratureDivergence


def loop_rule(t_mat, center, radius, points):
    """Reference trapezoid rule: one LU factorization and solve per node."""
    n = t_mat.shape[0]
    eye = np.eye(n, dtype=complex)
    acc = np.zeros((n, n), dtype=complex)
    for w in np.exp(2j * np.pi * np.arange(points) / points):
        z = center + radius * w
        acc += radius * w * sla.lu_solve(
            sla.lu_factor(z * eye - t_mat, check_finite=False), eye,
            check_finite=False)
    return acc / points


def loop_doubling(t_mat, center, radius, tol):
    """Node count at which the reference doubling loop stops (converged or
    at the cap), whether it converged, and its last projection."""
    points = tol.quad_start
    while True:
        p = loop_rule(t_mat, center, radius, points)
        if numerics.norm(p @ p - p) <= tol.riesz:
            return points, True, p
        if points >= tol.quad_cap:
            return points, False, p
        points *= 2


def rel_diff(a, b):
    return numerics.norm(a - b) / numerics.norm(b)


def random_nonnormal(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + 3.0 * np.triu(g, 1)


def isolating_circle(t_mat):
    """Circle around the eigenvalue of largest modulus, halfway to the rest."""
    eigs = np.linalg.eigvals(t_mat)
    k = int(np.argmax(np.abs(eigs)))
    rest = np.delete(eigs, k)
    radius = 0.5 * float(np.min(np.abs(rest - eigs[k]))) if rest.size else 1.0
    return complex(eigs[k]), radius


CASES = [("random", n, seed) for n in (2, 4, 16, 30) for seed in (0, 1)] \
    + [("jordan", 3, None)]


def case_operator(kind, n, seed):
    if kind == "jordan":
        t_mat = np.eye(3) + np.eye(3, k=1)
        return t_mat.astype(complex), 1.0 + 0.0j, 0.5
    t_mat = random_nonnormal(n, seed)
    return (t_mat, *isolating_circle(t_mat))


@pytest.mark.parametrize("points", [64, 256, 1024])
@pytest.mark.parametrize("kind, n, seed", CASES)
def test_stacked_rule_matches_node_loop(kind, n, seed, points):
    t_mat, center, radius = case_operator(kind, n, seed)
    p = spectral._quadrature(t_mat, center, radius, points)
    assert rel_diff(p, loop_rule(t_mat, center, radius, points)) <= 1e-13


@pytest.mark.parametrize("kind, n, seed", CASES)
def test_midpoint_nodes_complete_the_doubled_rule(kind, n, seed):
    t_mat, center, radius = case_operator(kind, n, seed)
    p = spectral._quadrature(t_mat, center, radius, 64)
    for points in (64, 128):
        p = 0.5 * (p + spectral._quadrature(t_mat, center, radius, points,
                                            offset=0.5))
    assert rel_diff(p, loop_rule(t_mat, center, radius, 256)) <= 1e-13


def test_singular_node_raises_typed():
    with pytest.raises(QuadratureDivergence, match=r"z = 1"):
        spectral._quadrature(np.diag([1.0, 2.0]).astype(complex), 0.0, 1.0, 64)


@pytest.fixture
def riesz_calls(monkeypatch):
    """Record, for every Riesz projection, its contour, the resolvents it
    evaluated, the node count of its last rule and whether it converged."""
    calls = []
    current = {}
    inv, quad, riesz = np.linalg.inv, spectral._quadrature, \
        spectral.riesz_projection

    def counting_inv(a):
        if a.ndim == 3:
            current["resolvents"] += a.shape[0]
        return inv(a)

    def recording_quad(t_mat, center, radius, points, offset=0.0):
        current.setdefault("circle", (t_mat, center, radius))
        current["nodes"] = 2 * points if offset else points
        return quad(t_mat, center, radius, points, offset)

    def recording_riesz(*args, **kwargs):
        current.clear()
        current["resolvents"] = 0
        try:
            p = riesz(*args, **kwargs)
        except QuadratureDivergence:
            calls.append(dict(current, converged=False, projection=None))
            raise
        calls.append(dict(current, converged=True, projection=p))
        return p

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(spectral, "_quadrature", recording_quad)
    monkeypatch.setattr(spectral, "riesz_projection", recording_riesz)
    return calls


@pytest.mark.parametrize("d_out, nodes", [(1.6, 128), (1.3, 256), (1.15, 512),
                                          (1.07, 1024), (1.02, None)])
def test_riesz_node_count_matches_loop(riesz_calls, d_out, nodes):
    # the cluster {-1, 1} is enclosed by a circle of radius (1 + d_out) / 2
    # about 0, so the trapezoid error decays like ((1 + d_out) / 2 d_out)^N
    rng = np.random.default_rng(0)
    s = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    t_mat = s @ np.diag([-1.0, 1.0, d_out]) @ np.linalg.inv(s)
    tol = config.DEFAULT
    if nodes is None:
        with pytest.raises(QuadratureDivergence):
            spectral.riesz_projection(t_mat, [-1.0, 1.0])
    else:
        spectral.riesz_projection(t_mat, [-1.0, 1.0])
    (call,) = riesz_calls
    points, converged, p = loop_doubling(*call["circle"], tol)
    assert (points, converged) == (nodes or tol.quad_cap, nodes is not None)
    # the loop evaluated 64 + 128 + ... + points resolvents
    assert call["resolvents"] == call["nodes"] == points
    if converged:
        assert rel_diff(call["projection"], p) <= 1e-13


@pytest.mark.parametrize("scenario", ["mtb", "mpd"])
def test_track_evaluates_each_node_once(riesz_calls, scenario):
    path = homotopy.scenario_library(scenario)
    homotopy.detect_events(homotopy.track(path, record_inertia=True), path)
    tol = config.DEFAULT
    assert all(c["resolvents"] == c["nodes"] for c in riesz_calls)
    assert {c["nodes"] for c in riesz_calls} <= {64, 128, 256, 512, 1024}
    # samples next to the collision refine and some diverge at the cap,
    # where the loop evaluated 1984 resolvents.  There ||P|| reaches 1e4 and
    # ||P^2 - P|| is rounding noise about the bound, so which of them
    # converge depends on the summation order and is not compared with
    # the loop.
    assert any(c["converged"] and c["nodes"] >= 128 for c in riesz_calls)
    diverged = [c for c in riesz_calls if not c["converged"]]
    assert diverged
    assert all(c["resolvents"] == tol.quad_cap for c in diverged)
