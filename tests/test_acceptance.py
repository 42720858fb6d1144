"""Acceptance suite: one test per criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Every criterion is checked at its stated tolerance; runtimes
are asserted where the criterion pins one.
"""

import time

import numpy as np

from kreinlab import cayley, krein, numerics, signature, verify
from kreinlab.homotopy import OperatorPath, scenario_library
from kreinlab.realsym import make_real_structure, random_member
from tests.test_krein import finex_matrix


def _report(num, name, start, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"[{num:2d}/10] {status} - {name} "
          f"({time.monotonic() - start:.1f}s)")
    assert ok, name


def test_01_finite_dimension_signature_law():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for k in range(200):
        total = int(rng.integers(2, 17))
        n_plus = int(rng.integers(1, total))
        K = krein.make_standard(n_plus, total - n_plus)
        h = krein.random_j_hermitian(K, rng.integers(2 ** 63))
        rep = signature.global_signature(h, K, "hermitian")
        assert rep.global_sig == K.n_plus - K.n_minus, f"instance {k}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(1, "signature law Sig = N+ - N- (200 hermitian, dims <= 16)", start)


def test_02_hyperbolic_family_reproduction():
    start = time.monotonic()
    K = krein.make_standard(1, 1)
    for sigma in (1, -1):
        for t in (0.0, 0.5, 1.0, 2.0):
            t_mat = finex_matrix(t, sigma=sigma)
            rep = signature.global_signature(t_mat, K, "unitary")
            by_val = {round(r.center.real): r.sig for r in rep.rows}
            assert by_val[1] == sigma, (sigma, t)
            assert by_val[-1] == -sigma, (sigma, t)
            assert rep.global_sig == 0
            assert signature.sec(t_mat, K) == sigma % 2 == 1
    _report(2, "pinned +-1 family: Sig(+-1) = +-sigma, Sig = 0, Sec = 1", start)


def test_03_riesz_projection_suite():
    start = time.monotonic()
    out = verify.suite_riesz(n=100, seed=103)
    assert out["passed"], out["failures"][:5]
    worst = out["max_residuals"]
    assert worst["idempotency"] <= 1e-8
    assert worst["commutation"] <= 1e-8
    assert worst["sum"] <= 1e-7
    assert worst["trace"] <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(3, "Riesz projections (100 non-normal 10x10)", start)


def test_04_cayley_transport():
    start = time.monotonic()
    out = verify.suite_cayley(n=50, seed=104)
    assert out["passed"], out["failures"][:5]
    _report(4, "Cayley transport of Sig and per-cluster inertia (50)", start)


def test_05_kramers_degeneracy():
    start = time.monotonic()
    out = verify.suite_kramers(n=100, seed=105)
    assert out["passed"], out["failures"][:5]
    _report(5, "Kramers degeneracy, 100 members per eta = -1 kind", start)


def _pinned_sec_path(seed):
    """Member path of O(2,2) with a pinned simple eigenvalue at +1."""
    base = scenario_library("finex", {"sigma": 1, "sigma_prime": 1})
    R4 = make_real_structure((1, 1), 2, 2)
    R1 = make_real_structure((1, 1), 1, 1)
    other = random_member(R1, "hermitian", seed)

    def sampler(t):
        big = np.zeros((4, 4), dtype=complex)
        blk_a = base(t)
        blk_b = numerics.matrix_exp(1j * t * other)
        for blk, rows in ((blk_a, [0, 2]), (blk_b, [1, 3])):
            for i, ri in enumerate(rows):
                for j, rj in enumerate(rows):
                    big[ri, rj] = blk[i, j]
        return big

    return OperatorPath(sampler=sampler, structure=R4.K, kind="unitary",
                        real_structure=R4, name="pinned-sec")


def test_06_kind_constraints_and_sec_stability():
    start = time.monotonic()
    rng = np.random.default_rng(106)
    from kreinlab.realsym import full_invariant_report

    for kind in ((1, 1), (-1, -1), (-1, 1), (1, -1)):
        dims = (2, 2)
        R = make_real_structure(kind, *dims)
        for k in range(100):
            t_mat = random_member(R, "unitary", rng.integers(2 ** 63))
            rep = full_invariant_report(t_mat, R, "unitary")
            if kind == (1, -1):
                assert rep.global_sig == 0
            elif kind == (-1, 1):
                assert rep.global_sig % 2 == 0
            elif kind == (-1, -1):
                assert rep.global_sig == 0 and rep.sig2 in (0, 1)
            else:
                assert rep.sec in (0, 1)
    # Sec constant along sampled kind (1,1) member paths
    R = make_real_structure((1, 1), 2, 2)
    for k in range(20):
        h0 = random_member(R, "hermitian", rng.integers(2 ** 63))
        h1 = random_member(R, "hermitian", rng.integers(2 ** 63))

        def sampler(t, h0=h0, h1=h1):
            return numerics.matrix_exp(1j * ((1 - t) * h0 + t * h1))

        path = OperatorPath(sampler=sampler, structure=R.K, kind="unitary",
                            real_structure=R)
        secs = {signature.sec(path(t), R.K) for t in np.linspace(0, 1, 5)}
        assert len(secs) == 1
    # non-vacuous case: eigenvalue pinned at +1, Sec identically 1
    for k in range(3):
        path = _pinned_sec_path(2000 + k)
        secs = {signature.sec(path(t), path.structure)
                for t in np.linspace(0, 1, 5)}
        assert secs == {1}
    _report(6, "per-kind invariant constraints + Sec path stability", start)


def test_07_bifurcation_taxonomy():
    start = time.monotonic()
    out = verify.suite_taxonomy(n=500, seed=107)
    assert out["passed"], out["failures"][:5]
    assert out["stability_violations"] == 0
    counts = out["event_counts"]
    for kind_name in ("KC", "QKC", "TB", "MTB", "PD", "MPD"):
        assert counts.get(kind_name, 0) >= 1, f"{kind_name} never demonstrated"
    _report(7, "taxonomy closure (500 paths/kind) + curated scenarios + "
               "Krein stability", start)


def test_08_retraction_pipeline():
    start = time.monotonic()
    out = verify.suite_retraction(n=100, seed=108)
    assert out["passed"], out["failures"][:5]
    worst = out["max_residuals"]
    assert worst["membership"] <= 1e-7
    assert worst["chain"] <= 1e-7
    assert worst["terminal_spectrum"] <= 1e-6
    assert worst["terminal_symmetry"] <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(8, "retraction pipeline, 100 instances per kind + 100 plain", start)


def test_09_unitary_factorization():
    start = time.monotonic()
    out = verify.suite_factorization(n=100, seed=109)
    assert out["passed"], out["failures"][:5]
    worst = out["max_residuals"]
    assert worst["symmetric"] <= 1e-9
    assert worst["odd_symmetric"] <= 1e-9
    _report(9, "unitary factorizations w^t w and s* w^t s w (100 + 100)", start)


def test_10_index_example():
    start = time.monotonic()
    rng = np.random.default_rng(110)
    for k in range(50):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        r = int(rng.integers(0, min(m, n) + 1))
        if r:
            left = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
            right = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            a = left @ right
        else:
            a = np.zeros((m, n), dtype=complex)
        svals = np.linalg.svd(a, compute_uv=False) if min(m, n) else np.zeros(0)
        rank = int(np.sum(svals > 1e-10 * max(1.0, svals[0] if len(svals) else 1)))
        assert rank == r
        h, K = signature.build_index_example(a)
        sig = signature.global_signature(h, K, "hermitian").global_sig
        assert sig == (n - rank) - (m - rank) == n - m, f"instance {k}"
    _report(10, "index example Sig = dim ker A - dim ker A* (50 shapes)", start)
