import numpy as np
import pytest

from ridgeless_iv.matops import (
    InvalidMatrix,
    NotPSD,
    null_space_basis,
    pseudoinverse,
    psd_sqrt,
    sym_eig,
)


def random_psd(rng, dim, rank=None):
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank))
    return g @ g.T


def test_sym_eig_diagonal():
    a = np.diag([3.0, 1.0, 2.0])
    dec = sym_eig(a)
    assert np.allclose(dec.eigenvalues, [3.0, 2.0, 1.0])
    # eigenvectors are signed unit coordinates in descending-eigenvalue order
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [0, 2, 1]])
    q, lam = dec.eigenvectors, dec.eigenvalues
    assert np.allclose((q * lam) @ q.T, a)


def test_sym_eig_hand_2x2():
    # [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors (1,1)/sqrt2, (1,-1)/sqrt2
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    dec = sym_eig(a)
    assert np.allclose(dec.eigenvalues, [3.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(dec.eigenvectors[:, 0], [s, s])
    assert np.allclose(dec.eigenvectors[:, 1], [s, -s])


def test_sym_eig_sign_convention():
    rng = np.random.default_rng(7)
    a = random_psd(rng, 6)
    dec = sym_eig(a)
    for j in range(6):
        col = dec.eigenvectors[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        assert col[nz[0]] > 0


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(InvalidMatrix):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        sym_eig(np.ones((2, 3)))
    with pytest.raises(InvalidMatrix):
        sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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


def test_null_space_basis():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((5, 12))
    basis = null_space_basis(m)
    assert basis.shape == (12, 7)
    assert np.allclose(basis.T @ basis, np.eye(7), atol=1e-12)
    assert np.abs(m @ basis).max() <= 1e-10 * np.abs(m).max()
    # full column rank gives an empty basis
    tall = rng.standard_normal((9, 4))
    assert null_space_basis(tall).shape == (4, 0)
