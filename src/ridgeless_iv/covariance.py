"""Covariance constructions for the endogenous linear model.

The covariate covariance is split into a latent-noise block (the part of X
correlated with the regression error) and an instrumented signal block (the
part an instrument can reach).  Both blocks are diagonal in one shared
coordinate basis, so the whole model is two eigenvalue vectors; that keeps
every experiment cheap even at p in the thousands.

Everything here acts on eigenvalue vectors: the truncation level of a
spectrum, the split at that level, the pattern rotation and the validated
model.  The spectrum families that produce the vectors are the custom
profiles in harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matops import default_rank_tol


class InvalidSpectrum(ValueError):
    """Eigenvalue vector is empty, increasing, negative, or all zero."""


class EndogeneityTooStrong(ValueError):
    """Covariate-error covariance exceeds what the noise variance allows."""


class InvalidModel(ValueError):
    """Model vector is mis-shaped, negative or non-finite, or the noise
    level is not finite and positive."""


# --------------------------------------------------------------------------
# the pattern rotation


def _pattern_matrix(p: int) -> np.ndarray:
    j = np.arange(1, p + 1)
    return (np.abs(j[:, None] - j[None, :]) != p - 2).astype(float)


def _gram_schmidt_pattern(p: int) -> np.ndarray:
    """Modified Gram-Schmidt on the pattern matrix's columns, in index order.

    A column whose residual drops below 1e-10 is replaced by the standard
    basis vector of the same index and orthogonalized again.
    """
    pat = _pattern_matrix(p)
    u = np.zeros((p, p))
    for j in range(p):
        v = pat[:, j].copy()
        for _ in range(2):  # re-orthogonalize for stability
            v -= u[:, :j] @ (u[:, :j].T @ v)
        if np.linalg.norm(v) < 1e-10:
            v = np.zeros(p)
            v[j] = 1.0
            for _ in range(2):
                v -= u[:, :j] @ (u[:, :j].T @ v)
        u[:, j] = v / np.linalg.norm(v)
    return u


class PatternRotation:
    """Orthonormal map built from the all-ones-minus-antiband pattern.

    For p >= 7 the Gram-Schmidt output has a closed form: three leading
    columns supported on {all coordinates} + spikes at p-1, p; duplicate
    all-ones columns 4..p-2 fall back to basis vectors and orthogonalize to
    spike-minus-window vectors; the last two columns live on coordinates
    1..3.  Products cost O(p).  Small p uses the dense construction.
    """

    _DENSE_BELOW = 7

    def __init__(self, p: int):
        if p < 2:
            raise ValueError(f"pattern rotation needs p >= 2, got {p}")
        self.p = p
        if p < self._DENSE_BELOW:
            self._dense = _gram_schmidt_pattern(p)
            return
        self._dense = None
        self._a1 = 1.0 / math.sqrt(p - 1.0)
        d = math.sqrt((p - 1.0) * (2.0 * p - 3.0))
        self._g2 = 1.0 / d
        self._h2 = math.sqrt((p - 1.0) / (2.0 * p - 3.0))
        self._k2 = -(p - 2.0) / d
        self._g3 = -1.0 / math.sqrt((2.0 * p - 3.0) * (p - 2.0))
        self._h3 = math.sqrt((p - 2.0) / (2.0 * p - 3.0))
        # middle fallback columns j = 4..p-2 (1-based)
        mid_j = np.arange(4, p - 1, dtype=float)
        self._mid_m = p + 2.0 - mid_j
        self._mid_s = 1.0 / np.sqrt(1.0 - 1.0 / self._mid_m)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.p,):
            raise ValueError(f"expected a length-{self.p} vector")
        if self._dense is not None:
            return self._dense @ v
        p = self.p
        y = np.zeros(p)
        c1 = v[0] * self._a1
        y += c1
        y[p - 2] -= c1
        y += v[1] * self._g2
        y[p - 2] += v[1] * (self._h2 - self._g2)
        y[p - 1] += v[1] * (self._k2 - self._g2)
        y += v[2] * self._g3
        y[p - 2] += v[2] * (self._h3 - self._g3)
        y[p - 1] += v[2] * (self._h3 - self._g3)
        vm = v[3 : p - 2]
        if vm.size:
            t = vm * self._mid_s / self._mid_m
            y[3 : p - 2] += vm * self._mid_s
            y[:3] -= t.sum()
            y[3 : p - 2] -= np.cumsum(t)
        y[0] += v[p - 2] * (-2.0 / math.sqrt(6.0))
        y[1] += v[p - 2] / math.sqrt(6.0)
        y[2] += v[p - 2] / math.sqrt(6.0)
        y[1] -= v[p - 1] / math.sqrt(2.0)
        y[2] += v[p - 1] / math.sqrt(2.0)
        return y


# --------------------------------------------------------------------------
# the covariance split


def truncation_level(eigenvalues: np.ndarray, n: int) -> int | None:
    """Smallest k with (tail mass after k) / (next eigenvalue) > n.

    Returns None when no level within the spectrum qualifies.
    """
    eigs = np.asarray(eigenvalues, dtype=float)
    if eigs.size == 0 or not np.any(eigs > 0):
        raise InvalidSpectrum("spectrum has no positive eigenvalue")
    tails = np.cumsum(eigs[::-1])[::-1]  # tails[k] = sum of eigs[k:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(eigs > 0, tails / np.where(eigs > 0, eigs, 1.0), 0.0)
    hits = np.flatnonzero(ratios > n)
    return int(hits[0]) if hits.size else None


def split_eigs(base_eigs: np.ndarray, k: int, leak: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(latent-noise, signal) diagonals: the first k base eigenvalues go to
    the latent-noise block less a share leak, which stays in the signal
    block.  leak 0 is the orthogonal split."""
    base = np.asarray(base_eigs, dtype=float)
    p = base.size
    if not 0 <= k <= p:
        raise ValueError(f"level {k} outside [0, {p}]")
    endo = np.zeros(p)
    endo[:k] = (1.0 - leak) * base[:k]
    return endo, base - endo


# --------------------------------------------------------------------------
# the model


def latent_support(endo_eigs: np.ndarray) -> np.ndarray:
    """Mask of the latent-noise eigenvalues above default_rank_tol(p) times
    the largest: the support a pseudo-inverse sees (endo_rank, whitened_cross,
    the pseudo-inverse functionals), which must not invert rounding.  A draw
    keeps every positive entry instead (sampling._latent_width)."""
    top = endo_eigs.max(initial=0.0)
    p = endo_eigs.size
    return endo_eigs > default_rank_tol(p) * top if top > 0 else np.zeros(p, bool)


@dataclass(frozen=True)
class EndogenousModel:
    """The endogenous linear model, diagonal in one coordinate basis.

    signal_eigs and endo_eigs are the diagonals of the instrumented-signal
    and latent-noise blocks, true_coef the coefficient vector.
    whitened_cross is the (latent block)^(-1/2) covariate-error covariance;
    it vanishes off the block's support (endo_support).  noise_var is the
    error variance.  split_kind is read off the two diagonals.

    Construction validates the model: the vectors must be finite and of one
    length, the eigenvalues nonnegative, noise_var finite and positive, and
    the covariate-error energy |whitened_cross|^2 at most noise_var, which
    is when the joint factor-and-error covariance is positive semidefinite:
    its eigenvalues are 1 but for a 2x2 pencil on the whitened_cross
    direction and the error, whose determinant is noise_var minus that
    energy.  build takes a noise level instead of a variance and projects
    a whitened request onto the support.
    """

    signal_eigs: np.ndarray
    endo_eigs: np.ndarray
    true_coef: np.ndarray
    whitened_cross: np.ndarray
    noise_var: float

    def __post_init__(self):
        shape = np.shape(self.signal_eigs)
        for name in ("signal_eigs", "endo_eigs", "true_coef", "whitened_cross"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.ndim != 1 or v.size == 0 or v.shape != shape:
                raise InvalidModel(f"{name} must be a nonempty vector shaped {shape}, got {v.shape}")
            if not np.all(np.isfinite(v)):
                raise InvalidModel(f"{name} has non-finite entries")
            if name.endswith("_eigs") and np.any(v < 0):
                raise InvalidModel(f"{name} has negative entries")
            object.__setattr__(self, name, v)
        if np.any(self.whitened_cross[~self.endo_support] != 0.0):
            raise InvalidModel("whitened_cross is nonzero off the latent-noise support")
        noise_var = float(self.noise_var)
        if not (math.isfinite(noise_var) and noise_var > 0):
            raise InvalidModel(f"noise variance must be finite and positive, got {noise_var}")
        object.__setattr__(self, "noise_var", noise_var)
        energy = float(self.whitened_cross @ self.whitened_cross)
        if energy > noise_var * (1.0 + 1e-12):
            raise EndogeneityTooStrong(
                f"covariate-error energy {energy:g} exceeds noise variance {noise_var:g}"
            )

    @classmethod
    def build(
        cls,
        signal_eigs,
        endo_eigs,
        true_coef,
        whitened_cross=None,
        noise_sd: float | None = None,
    ) -> "EndogenousModel":
        """Model from a whitened endogeneity request and a noise level.

        whitened_cross is restricted to the latent block's support; None
        means an exogenous model.  noise_sd defaults to twice the realized
        whitened norm, which leaves three quarters of the error variance
        unexplained by the covariates.
        """
        endo = np.asarray(endo_eigs, dtype=float)
        if whitened_cross is None:
            realized = np.zeros(endo.shape)
        elif np.shape(whitened_cross) != endo.shape:
            raise InvalidModel(f"whitened_cross must be shaped {endo.shape}")
        else:
            realized = np.where(latent_support(endo), whitened_cross, 0.0)
        if noise_sd is None:
            energy = float(realized @ realized)
            noise_sd = 2.0 * math.sqrt(energy) if energy > 0 else 1.0
        if not noise_sd > 0:
            raise InvalidModel(f"noise_sd must be positive, got {noise_sd}")
        return cls(signal_eigs, endo, true_coef, realized, float(noise_sd) ** 2)

    @property
    def p(self) -> int:
        return self.true_coef.size

    @property
    def total_eigs(self) -> np.ndarray:
        return self.endo_eigs + self.signal_eigs

    @property
    def split_kind(self) -> str:
        """"exogenous" with no positive latent eigenvalue, "nonorthogonal"
        when the signal diagonal is positive on a latent coordinate, else
        "orthogonal".  It selects the condition mode and the norm bound's
        constant; the CGMT comparison solver refuses "nonorthogonal"."""
        latent = self.endo_eigs > 0.0
        if not latent.any():
            return "exogenous"
        return "nonorthogonal" if np.any(self.signal_eigs[latent] > 0.0) else "orthogonal"

    @property
    def endo_support(self) -> np.ndarray:
        return latent_support(self.endo_eigs)

    def endo_rank(self) -> int:
        return int(np.count_nonzero(self.endo_support))

    @property
    def cross_cov(self) -> np.ndarray:
        """The covariate-error covariance, sqrt(endo_eigs) * whitened_cross."""
        return np.sqrt(np.where(self.endo_support, self.endo_eigs, 0.0)) * self.whitened_cross

    @property
    def resid_noise_var(self) -> float:
        """Error variance left after the covariate-explained part."""
        w = self.whitened_cross
        return max(self.noise_var - float(w @ w), 0.0)
