import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import ridgeless_iv
from references import lower_tail_design
from ridgeless_iv import matops
from ridgeless_iv.matops import (
    InvalidMatrix,
    NotPSD,
    cholesky_lower,
    cholesky_solve,
    lower_tail_qr,
    lower_tail_qr_solve,
    pseudoinverse,
    psd_eigvals,
)


def random_psd(rng, dim, width):
    g = rng.standard_normal((dim, width))
    return g @ g.T


def test_psd_eigvals_rejects_invalid():
    with pytest.raises(InvalidMatrix):
        psd_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        psd_eigvals(np.ones((2, 3)))
    with pytest.raises(InvalidMatrix):
        psd_eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_psd_eigvals_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_eigvals(np.diag([1.0, -1.0]))


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


def assert_releases_the_gil(call):
    # a thread that only sleeps must keep waking while a long LAPACK call
    # runs; a call that held the GIL would hold it off for the whole LAPACK
    # part, which is most of the call, leaving one long gap between wakes
    wakes = []
    done = threading.Event()

    def ticker():
        while not done.is_set():
            time.sleep(0.001)
            wakes.append(time.perf_counter())

    t = threading.Thread(target=ticker)
    t.start()
    try:
        time.sleep(0.01)
        t0 = time.perf_counter()
        call()
        t1 = time.perf_counter()
    finally:
        # a call that raises must still stop the ticker, or the interpreter
        # waits on it forever at exit
        done.set()
        t.join()
    # the ticker sleeps 1 ms at a time, so a call shorter than 20 ms leaves
    # too few wakes to tell a released GIL from a held one
    assert t1 - t0 >= 0.02, f"call took {t1 - t0:.3f} s, too short to judge"
    stamps = [t0] + [w for w in wakes if t0 < w < t1] + [t1]
    assert max(np.diff(stamps)) < 0.5 * (t1 - t0)


def test_cholesky_releases_the_gil():
    # symmetric, strictly diagonally dominant with a positive diagonal, so
    # positive definite without an n^3 product
    dim = 3000
    a = np.random.default_rng(5).uniform(-1.0, 1.0, (dim, dim))
    a += a.T
    a[np.diag_indices(dim)] = 2.0 * dim
    assert_releases_the_gil(lambda: cholesky_lower(a))


@pytest.mark.parametrize(
    "shape, rank",
    [((40, 90), 40), ((60, 60), 60), ((90, 40), 40), ((70, 120), 25)],
    ids=["wide", "square", "tall", "rank_deficient"],
)
def test_pseudoinverse_is_the_truncated_svd_solve(shape, rank):
    # wide, square, tall and rank-deficient designs against the SVD solve
    # that keeps the singular values above the interpolator's cutoff
    rng = np.random.default_rng(13)
    m, n = shape
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    b = rng.standard_normal(m)
    a_in, b_in = a.copy(), b.copy()
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    r = int(np.count_nonzero(s > matops.default_rank_tol(max(m, n)) * s[0]))
    assert r == rank
    ref = vt[:r].T @ ((u[:, :r].T @ b) / s[:r])
    cond = s[0] / s[r - 1]
    x = pseudoinverse(a, b)
    assert np.linalg.norm(x - ref) <= 1e-14 * cond * np.linalg.norm(ref)
    assert np.array_equal(a, a_in) and np.array_equal(b, b_in)  # inputs untouched


@pytest.mark.parametrize("c, rank", [(0.5, 29), (2.0, 30)])
def test_pseudoinverse_cuts_at_the_rank_tolerance(c, rank):
    # a 30 x 60 design with singular values (1, ..., 1, c tau): below the
    # cutoff tau the last direction is dropped, above it kept.  Rounding the
    # product moves the last singular value by about eps, a 1e-4 share of
    # c tau, and x's coordinates with it
    rng = np.random.default_rng(17)
    u = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    v = np.linalg.qr(rng.standard_normal((60, 30)))[0]
    s = np.ones(30)
    s[-1] = c * matops.default_rank_tol(60)
    b = rng.standard_normal(30)
    x = pseudoinverse((u * s) @ v.T, b)
    coef = u.T @ b  # x's coordinates along v are coef / s on the kept directions
    assert abs((v[:, -1] @ x) * s[-1] / coef[-1] - (rank == 30)) <= 1e-3
    head = v[:, :29].T @ x
    assert np.linalg.norm(head - coef[:29]) <= 1e-3 * np.linalg.norm(coef[:29])


def test_pseudoinverse_releases_the_gil():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((900, 1000))
    b = rng.standard_normal(900)
    assert_releases_the_gil(lambda: pseudoinverse(a, b))


@pytest.mark.parametrize("n, head", [(1, 1), (5, 1), (40, 7), (33, 90)])
def test_lower_tail_qr_matches_scipy_bit_for_bit(n, head):
    rng = np.random.default_rng(19)
    x = lower_tail_design(rng, n, head)
    x_in = x.copy()
    factor, t = lower_tail_qr(x)
    nb = min(matops._QR_BLOCK, n)
    r, v, ref_t, info = scipy.linalg.lapack.dtpqrt(0, nb, x[:, head:].T, x[:, :head].T)
    assert info == 0
    assert np.array_equal(factor[:, head:].T, r)
    assert np.array_equal(factor[:, :head].T, v)
    assert np.array_equal(t.T, ref_t)
    assert np.array_equal(x, x_in)  # input untouched


@pytest.mark.parametrize("head", [0, 1, 6, 60])
def test_lower_tail_qr_solve_is_min_norm(head):
    # one solve, unrefined, on designs of head width 0, 1 and several
    rng = np.random.default_rng(31)
    for n in (1, 2, 9, 50):
        x = lower_tail_design(rng, n, head)
        y = rng.standard_normal(n)
        y_in = y.copy()
        factor, t = lower_tail_qr(x)
        theta = lower_tail_qr_solve(factor, t, y)
        ref = scipy.linalg.pinv(x) @ y
        assert np.linalg.norm(theta - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(y, y_in)


def test_lower_tail_qr_rejects_tall_or_empty_designs():
    for shape in ((3, 2), (0, 4), (4,)):
        with pytest.raises(ValueError, match="1 <= n <= p"):
            lower_tail_qr(np.ones(shape))


def test_lower_tail_qr_releases_the_gil():
    x = lower_tail_design(np.random.default_rng(37), 1500, 300)
    assert_releases_the_gil(lambda: lower_tail_qr(x))


def test_lapack_signature_mismatch_raises_import_error():
    with pytest.raises(ImportError, match="dpotrf"):
        matops._lapack("dpotrf", "void (char *, int *, double *, int *)")


def test_missing_cython_lapack_names_the_folder_searched(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg.cython_lapack", raising=False)
    monkeypatch.setattr(matops, "_scipy_linalg_dir", lambda: tmp_path)
    with pytest.raises(ImportError, match=str(tmp_path)):
        matops._load_cython_lapack()


def test_run_paths_never_import_scipy_linalg():
    # a fresh interpreter, since the test modules import scipy.linalg
    # themselves; no sweep, tail check or dense eigensolve may import it, and
    # afterwards scipy.linalg must still import and find the extension
    # module matops loaded
    script = textwrap.dedent(
        """
        import sys

        import numpy as np

        from ridgeless_iv import cgmt_lab, harness, matops

        harness.run_setup(harness.ExperimentConfig(setup="ii", n_grid=(100,), repetitions=1))
        harness.run_setup(
            harness.ExperimentConfig(
                setup="vii", n_grid=(100,), repetitions=1, estimators=("ridgeless", "lasso_iv")
            )
        )
        cgmt_lab.tail_dominance_check(cgmt_lab.slice_model(4), 3, 8, max_workers=1)
        matops.psd_eigvals(np.eye(3))
        matops.pseudoinverse(np.ones((2, 3)), np.ones(2))
        assert "scipy.linalg" not in sys.modules, "a run path imported scipy.linalg"

        import scipy.linalg
        import scipy.linalg.cython_lapack

        assert scipy.linalg.cython_lapack is matops._CYTHON_LAPACK
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        factor, ok = matops.cholesky_lower(a)
        ref = scipy.linalg.cho_factor(a, lower=True)
        assert ok and np.array_equal(np.tril(factor), np.tril(ref[0]))
        """
    )
    src = str(Path(ridgeless_iv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
