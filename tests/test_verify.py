"""The randomized suites run the package's checks of the paper's identities."""

from kreinlab import cayley, realsym, spectral, verify


def test_verify_suites_reach_the_paper_checks(monkeypatch):
    checks = (spectral.check_projection_symmetry, spectral.fredholm_corrector,
              realsym.check_spectral_symmetries, cayley.cayley_inv_op,
              cayley.pick_zeta)
    calls = {fn.__name__: 0 for fn in checks}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in checks:
        for mod in (spectral, realsym, cayley, verify):
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted(fn))
    results = (verify.suite_signature_law(n=6), verify.suite_kramers(n=2),
               verify.suite_cayley(n=2))
    assert all(calls.values()), calls
    keys = ("reflection", "real_symmetry", "closure", "roundtrip")
    residuals = {}
    for out in results:
        assert out["passed"], out["failures"]
        residuals.update(out["max_residuals"])
    assert all(residuals[k] <= 1e-8 for k in keys), residuals


def test_suite_cayley_maps_each_operator_once(monkeypatch):
    """The round trip starts from the C(H) that transport_report built: one
    Cayley map of H per instance, and one on the way back."""
    calls = []
    forward = cayley.cayley_op

    def counted(*args, **kwargs):
        calls.append(args[0])
        return forward(*args, **kwargs)

    for mod in (cayley, verify):
        monkeypatch.setattr(mod, "cayley_op", counted)
    assert verify.suite_cayley(n=3)["passed"]
    assert len(calls) == 2 * 3
