"""Each operator is partitioned once and checked for membership once."""

import sys

import pytest

from kreinlab import homotopy, krein, realsym, retraction, spectral


def count_outer_calls(monkeypatch, functions, first_arg=None) -> dict:
    """Wrap every kreinlab binding of ``functions`` and count the calls made
    while no other counted call is open, only those whose first argument is
    ``first_arg`` when it is given."""
    counter = {"calls": 0, "depth": 0}

    def wrap(fn):
        def wrapper(*args, **kwargs):
            if counter["depth"] == 0 and (first_arg is None
                                          or args[0] is first_arg):
                counter["calls"] += 1
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
    # quadrature only for H (shared by Sig and flatten); the flat, the
    # lifted and the terminal operators are partitioned by interpolation
    assert partitions["calls"] == 1
    assert flat["calls"] == 3
    assert trace.sig_initial == trace.sig_terminal == 0


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
    trace = retraction.retract_to_model(h, K, R)
    # the affine flatten and lift segments are certified at their endpoints,
    # the straightening segment at SEGMENT_SAMPLES points
    straight = trace.segments[2].path.name
    assert [name for name, _ in samples] == \
        ["flatten"] * 2 + ["lift"] * 2 + [straight] * 9
    assert [t for name, t in samples if name != straight] == [0.0, 1.0] * 2


def test_retraction_checks_h_membership_once(monkeypatch):
    K = krein.make_standard(2, 2)
    h = krein.random_j_hermitian(K, 5)
    checks = count_outer_calls(monkeypatch, [krein.is_j_hermitian,
                                             realsym.is_member], first_arg=h)
    retraction.retract_to_model(h, K)
    assert checks["calls"] == 1
