import threading
import time

import numpy as np
import pytest
import scipy.linalg

from ridgeless_iv.matops import (
    InvalidMatrix,
    NotPSD,
    cholesky_lower,
    cholesky_solve,
    pseudoinverse,
    psd_eigvals,
    psd_sqrt,
)


def random_psd(rng, dim, rank=None):
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank))
    return g @ g.T


def test_pseudoinverse_and_psd_sqrt_reject_invalid():
    for fn in (pseudoinverse, psd_sqrt, psd_eigvals):
        with pytest.raises(InvalidMatrix):
            fn(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(InvalidMatrix):
            fn(np.ones((2, 3)))
        with pytest.raises(InvalidMatrix):
            fn(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pseudoinverse_penrose_identities():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(2, 51))
        rank = int(rng.integers(1, dim + 1))
        a = random_psd(rng, dim, rank)
        ap = pseudoinverse(a)
        scale = 1.0 + np.linalg.norm(a)
        assert np.linalg.norm(a @ ap @ a - a) <= 1e-8 * scale
        assert np.linalg.norm(ap @ a @ ap - ap) <= 1e-8 * (1.0 + np.linalg.norm(ap))
        assert np.linalg.norm((a @ ap) - (a @ ap).T) <= 1e-8 * scale
        assert np.linalg.norm((ap @ a) - (ap @ a).T) <= 1e-8 * scale


def test_pseudoinverse_rank_deficient_diag():
    a = np.diag([4.0, 0.0, 1.0])
    ap = pseudoinverse(a)
    assert np.allclose(ap, np.diag([0.25, 0.0, 1.0]))


def test_pseudoinverse_rejects_indefinite():
    a = np.diag([1.0, -1.0])
    with pytest.raises(NotPSD):
        pseudoinverse(a)
    with pytest.raises(NotPSD):
        psd_eigvals(a)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(3)
    for _ in range(25):
        dim = int(rng.integers(2, 40))
        a = random_psd(rng, dim, int(rng.integers(1, dim + 1)))
        r = psd_sqrt(a)
        assert np.linalg.norm(r @ r - a) <= 1e-7 * (1.0 + np.linalg.norm(a))
        # sqrt and pseudoinverse commute through the shared eigenbasis; the
        # square-rooted spectrum needs a sqrt-scaled rank cutoff
        rp = pseudoinverse(r, rel_tol=1e-7)
        assert np.linalg.norm(psd_sqrt(pseudoinverse(a)) - rp) <= 1e-6 * (
            1.0 + np.linalg.norm(rp)
        )


def test_cholesky_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(11)
    for dim, width in ((1, 3), (8, 30), (150, 750), (400, 526)):
        a = random_psd(rng, dim, width)
        b = rng.standard_normal(dim)
        factor, ok = cholesky_lower(a)
        ref = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
        assert ok
        assert np.array_equal(np.tril(factor), np.tril(ref[0]))
        assert np.array_equal(
            cholesky_solve(factor, b), scipy.linalg.cho_solve(ref, b, check_finite=False)
        )
    assert np.array_equal(a, a.T)  # input untouched


def test_cholesky_reports_failure():
    for a in (np.diag([1.0, 0.0, 2.0]), np.diag([1.0, -1.0])):
        assert not cholesky_lower(a)[1]


def test_cholesky_releases_the_gil():
    # a thread that only sleeps must keep waking while a long factorization
    # runs; a call that held the GIL would hold it off for the whole call
    rng = np.random.default_rng(5)
    a = random_psd(rng, 1500, 1600)
    wakes = []
    done = threading.Event()

    def ticker():
        while not done.is_set():
            time.sleep(0.001)
            wakes.append(time.perf_counter())

    t = threading.Thread(target=ticker)
    t.start()
    time.sleep(0.01)
    t0 = time.perf_counter()
    cholesky_lower(a)
    t1 = time.perf_counter()
    done.set()
    t.join()
    inside = [w for w in wakes if t0 < w < t1]
    assert t1 - t0 < 0.02 or len(inside) >= 2
