"""Each operator is partitioned once and checked for membership once."""

import sys
from pathlib import Path

import numpy as np
import pytest

from kreinlab import (fileio, homotopy, krein, numerics, realsym, retraction,
                      spectral)

DATA = Path(__file__).resolve().parent / "data"


def count_outer_calls(monkeypatch, functions, first_arg=None) -> dict:
    """Wrap every kreinlab binding of ``functions`` and count the calls made
    while no other counted call is open, only those whose first argument is
    ``first_arg`` when it is given; ``args`` lists their first arguments."""
    counter = {"calls": 0, "depth": 0, "args": []}

    def wrap(fn):
        def wrapper(*args, **kwargs):
            if counter["depth"] == 0 and (first_arg is None
                                          or args[0] is first_arg):
                counter["calls"] += 1
                counter["args"].append(args[0])
            counter["depth"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                counter["depth"] -= 1
        return wrapper

    wrappers = {id(fn): wrap(fn) for fn in functions}
    for name, mod in list(sys.modules.items()):
        if name == "kreinlab" or name.startswith("kreinlab."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(obj)])
    return counter


@pytest.mark.parametrize("kind, n_plus, n_minus, invariant",
                         [((1, 1), 2, 1, "sec"), ((-1, -1), 2, 2, "sig2")])
def test_full_invariant_report_partitions_once(monkeypatch, kind, n_plus,
                                               n_minus, invariant):
    R = realsym.make_real_structure(kind, n_plus, n_minus)
    a = realsym.random_member(R, "unitary", seed=3)
    j_residual = krein.is_j_unitary(a, R.K).residual
    partitions = count_outer_calls(monkeypatch, [spectral.spectral_partition])
    checks = count_outer_calls(monkeypatch, [krein.is_j_unitary,
                                             krein.is_j_hermitian,
                                             realsym.is_member])
    rep = realsym.full_invariant_report(a, R, "unitary")
    assert partitions["calls"] == 1
    assert checks["calls"] == 1
    assert getattr(rep, invariant) in (0, 1)
    assert rep.membership_residual == j_residual


def test_retraction_partitions_h_once(monkeypatch):
    K = krein.make_standard(2, 2)
    h = krein.random_j_hermitian(K, 5)
    partitions = count_outer_calls(monkeypatch, [spectral.spectral_partition])
    flat = count_outer_calls(monkeypatch, [spectral.flat_partition])
    trace = retraction.retract_to_model(h, K)
    # H is split from its eigenvectors (shared by Sig and flatten), with no
    # quadrature; the flat and the lifted operators carry projections, and
    # only the terminal is partitioned by interpolation
    assert partitions["calls"] == 0
    assert flat["calls"] == 1
    assert trace.sig_initial == trace.sig_terminal == 0
    # a conjugate pair near the axis: ||P_+-|| over the eigenvector bound,
    # so H takes the one quadrature partition
    mf = fileio.read_matrix_file(DATA / "retract_fallback_u_m2.json")
    trace = retraction.retract_to_model(mf.matrix, mf.K)
    assert partitions["calls"] == 1
    assert flat["calls"] == 2
    assert trace.sig_initial == trace.sig_terminal == 0


def record_stacks(monkeypatch) -> list:
    """Record the parameters of every stacked evaluation of a straightening
    path, one list per stack."""
    stacks = []
    operators = retraction.StraightenResult.operators

    def recorded(res, ts, K):
        stacks.append([float(t) for t in ts])
        return operators(res, ts, K)

    monkeypatch.setattr(retraction.StraightenResult, "operators", recorded)
    return stacks


SEGMENT_GRID = [float(t) for t in
                np.linspace(0.0, 1.0, retraction.SEGMENT_SAMPLES)]


@pytest.mark.parametrize("kind, m", [(None, 2), ((1, -1), 3), ((-1, -1), 3)])
def test_retraction_path_membership_samples(monkeypatch, kind, m):
    K = krein.make_standard(m, m)
    if kind is None:
        R, h = None, krein.random_j_hermitian(K, 5)
    else:
        R = realsym.make_real_structure(kind, m, m)
        h = realsym.random_member(R, "hermitian", 5)
    samples = []
    residual = homotopy.OperatorPath.membership_residual

    def counted(path, t):
        samples.append((path.name, t))
        return residual(path, t)

    monkeypatch.setattr(homotopy.OperatorPath, "membership_residual", counted)
    stacks = record_stacks(monkeypatch)
    trace = retraction.retract_to_model(h, K, R)
    # the affine flatten and lift segments are certified at their ends: H
    # passed its class check and D ends the flatten, so only the lift's end
    # is sampled besides, where the lift moved D; the straightening segment
    # is evaluated once, as one stack of SEGMENT_SAMPLES parameters, and
    # checked on that stack
    flat, lift, straight = trace.segments
    moved = not np.array_equal(lift.end, flat.end)
    affine = ["flatten"] + ["lift"] * moved
    assert [name for name, _ in samples] == affine
    assert [t for _, t in samples] == [1.0] * len(affine)
    assert stacks == [SEGMENT_GRID]


@pytest.mark.parametrize("kind, m, moved, checks",
                         [(None, 2, True, 4), ((-1, -1), 3, False, 4)],
                         ids=("plain", "kernel"))
def test_retraction_membership_checks_per_operator(monkeypatch, kind, m,
                                                   moved, checks):
    """Membership checks of one retraction, matched to the operators by
    value: H once, the flattened D twice (the lift stage's entry check and
    the flatten end), and the lifted end once when the lift moved D.  The
    straightening's samples, the terminal among them, are checked as one
    stack outside the single-operator predicates.  The forced (1,1)-kernel
    of kind (-1,-1) at m = 3 is left in place by a zero V and adds the
    check of its complement block."""
    K = krein.make_standard(m, m)
    if kind is None:
        R, h = None, krein.random_j_hermitian(K, 5)
    else:
        R = realsym.make_real_structure(kind, m, m)
        h = realsym.random_member(R, "hermitian", 5)
    counter = count_outer_calls(monkeypatch, [krein.is_j_hermitian,
                                              realsym.is_member])
    stacks = record_stacks(monkeypatch)
    trace = retraction.retract_to_model(h, K, R)
    flat, lift, _ = trace.segments
    checked = counter["args"]

    def times(a):
        return sum(np.array_equal(x, a) for x in checked)

    assert times(h) == 1
    assert times(flat.end) == 2
    assert moved == (not np.array_equal(lift.end, flat.end))
    if moved:
        assert times(lift.end) == 1
    assert times(trace.terminal) == 0
    assert counter["calls"] == checks
    assert stacks == [SEGMENT_GRID]


@pytest.mark.parametrize("kind, m", [(None, 2), ((1, -1), 3), ((-1, -1), 3)])
def test_retraction_samples_each_path_once_per_t(monkeypatch, kind, m):
    # the straightening segment is evaluated once, as a stack whose first
    # and last rows are its start and the terminal; its sampler is not called
    K = krein.make_standard(m, m)
    if kind is None:
        R, h = None, krein.random_j_hermitian(K, 5)
    else:
        R = realsym.make_real_structure(kind, m, m)
        h = realsym.random_member(R, "hermitian", 5)
    samples = []
    call = homotopy.OperatorPath.__call__

    def counted(path, t):
        samples.append((id(path), float(t)))
        return call(path, t)

    monkeypatch.setattr(homotopy.OperatorPath, "__call__", counted)
    stacks = record_stacks(monkeypatch)
    trace = retraction.retract_to_model(h, K, R)
    straight = trace.segments[2]
    assert len(samples) == len(set(samples))
    assert all(pid != id(straight.path) for pid, _ in samples)
    assert stacks == [SEGMENT_GRID]
    assert straight.start.base is not None
    assert straight.start.base is trace.terminal.base


def test_lift_with_zero_v_reuses_the_flat_checks(monkeypatch):
    """Kind (-1,-1) with a (1,1)-kernel: V = 0, so the lifted end is D and
    the lift takes neither new eigenvalues nor a second flat partition."""
    R = realsym.make_real_structure((-1, -1), 3, 3)
    h = realsym.random_member(R, "hermitian", 5)
    seg = retraction.spectral_flatten(h, R.K, R)
    eigvals = count_outer_calls(monkeypatch, [numerics.eigvals])
    flat = count_outer_calls(monkeypatch, [spectral._flat_partition])
    lift = retraction.lift_kernel(seg, R.K, R)
    assert lift.kernel_dim == 2 and lift.kernel_inertia == (1, 1)
    assert lift.segment.end is seg.end
    assert lift.segment.projections is seg.projections
    assert eigvals["calls"] == 0
    assert flat["calls"] == 1


def test_retraction_checks_h_membership_once(monkeypatch):
    K = krein.make_standard(2, 2)
    h = krein.random_j_hermitian(K, 5)
    checks = count_outer_calls(monkeypatch, [krein.is_j_hermitian,
                                             realsym.is_member], first_arg=h)
    retraction.retract_to_model(h, K)
    assert checks["calls"] == 1


@pytest.mark.parametrize("kind, m", [((1, 1), 2), ((-1, -1), 3)])
def test_retraction_checks_h_class_once(monkeypatch, kind, m):
    # one class check covers J and the real structure
    R = realsym.make_real_structure(kind, m, m)
    h = realsym.random_member(R, "hermitian", 5)
    checks = count_outer_calls(monkeypatch, [krein.is_j_hermitian,
                                             realsym.is_member], first_arg=h)
    retraction.retract_to_model(h, R.K, R)
    assert checks["calls"] == 1
