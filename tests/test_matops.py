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
from ridgeless_iv import matops
from ridgeless_iv.matops import (
    InvalidMatrix,
    NotPSD,
    cholesky_lower,
    cholesky_solve,
    gelsy_lstsq,
    pseudoinverse,
    psd_eigvals,
)


def random_psd(rng, dim, rank=None):
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank))
    return g @ g.T


def test_pseudoinverse_and_psd_eigvals_reject_invalid():
    for fn in (pseudoinverse, psd_eigvals):
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
    time.sleep(0.01)
    t0 = time.perf_counter()
    call()
    t1 = time.perf_counter()
    done.set()
    t.join()
    stamps = [t0] + [w for w in wakes if t0 < w < t1] + [t1]
    assert t1 - t0 < 0.02 or max(np.diff(stamps)) < 0.5 * (t1 - t0)


def test_cholesky_releases_the_gil():
    a = random_psd(np.random.default_rng(5), 1500, 1600)
    assert_releases_the_gil(lambda: cholesky_lower(a))


@pytest.mark.parametrize(
    "shape, rank",
    [((40, 90), 40), ((60, 60), 60), ((90, 40), 40), ((70, 120), 25)],
    ids=["wide", "square", "tall", "rank_deficient"],
)
def test_gelsy_lstsq_matches_scipy_bit_for_bit(shape, rank):
    # wide, square, tall and rank-deficient designs, at the cutoff the
    # interpolator uses and at a much smaller one
    rng = np.random.default_rng(13)
    m, n = shape
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    b = rng.standard_normal(m)
    a_in, b_in = a.copy(), b.copy()
    for rcond in (matops.default_rank_tol(max(m, n)), 1e-15):
        ref = scipy.linalg.lstsq(a, b, cond=rcond, check_finite=False, lapack_driver="gelsy")
        assert np.array_equal(gelsy_lstsq(a, b, rcond), ref[0])
    assert np.array_equal(a, a_in) and np.array_equal(b, b_in)  # inputs untouched


def test_gelsy_lstsq_releases_the_gil():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((900, 1000))
    b = rng.standard_normal(900)
    assert_releases_the_gil(lambda: gelsy_lstsq(a, b, 1e-12))


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
    # themselves; afterwards scipy.linalg must still import and find the
    # extension module matops loaded
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
