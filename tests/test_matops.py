import numpy as np
import pytest

from ridgeless_iv.matops import (
    InvalidMatrix,
    NotPSD,
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
