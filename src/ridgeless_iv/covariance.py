"""Covariance constructions for the endogenous linear model.

The covariate covariance is split into a latent-noise block (the part of X
correlated with the regression error) and an instrumented signal block (the
part an instrument can reach).  Both blocks are diagonal in one shared
coordinate basis, so the whole model is two eigenvalue vectors; that keeps
every experiment cheap even at p in the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .matops import default_rank_tol


class InvalidProfile(ValueError):
    """Spectrum profile has a nonpositive or malformed parameter."""


class InvalidSpectrum(ValueError):
    """Eigenvalue vector is empty, increasing, negative, or all zero."""


class InvalidAlpha(ValueError):
    """Non-orthogonal split needs a leakage exponent strictly above 1."""


class EndogeneityTooStrong(ValueError):
    """Covariate-error covariance exceeds what the noise variance allows."""


# --------------------------------------------------------------------------
# dimension rules and spectrum profiles


@dataclass(frozen=True)
class DimensionRule:
    """Named map from sample size n to covariate dimension p.

    kind: "multiple" (p = value*n), "power" (p = floor(n**value)),
    or "fixed" (p = value).
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("multiple", "power", "fixed"):
            raise InvalidProfile(f"unknown dimension rule {self.kind!r}")
        if self.value <= 0:
            raise InvalidProfile("dimension rule parameter must be positive")

    def __call__(self, n: int) -> int:
        if self.kind == "multiple":
            return int(round(self.value * n))
        if self.kind == "power":
            return int(math.floor(n ** self.value))
        return int(self.value)


# named tail-noise rules so profiles stay JSON-serializable
NOISE_RULES: dict[str, Callable[[int], float]] = {
    "zero": lambda n: 0.0,
    "exp_sqrt_decay": lambda n: math.exp(-math.sqrt(n)) / math.sqrt(n),
}


@dataclass(frozen=True)
class LogPolySpectrum:
    """Eigenvalues scale * i^-1 * (log(i+1) * log_factor)^-beta."""

    scale: float
    beta: float
    log_factor: float = 1.0
    p_rule: DimensionRule = field(default_factory=lambda: DimensionRule("multiple", 5.0))

    def __post_init__(self):
        if self.scale <= 0 or self.beta <= 0 or self.log_factor <= 0:
            raise InvalidProfile("LogPoly parameters must be positive")

    def eigenvalues(self, n: int) -> np.ndarray:
        p = self.p_rule(n)
        i = np.arange(1, p + 1, dtype=float)
        return self.scale / i / (np.log(i + 1.0) * self.log_factor) ** self.beta


@dataclass(frozen=True)
class ExpPlusNoiseSpectrum:
    """Eigenvalues scale * exp(-i/tau) + noise(n), a flat n-dependent floor."""

    tau: float
    scale: float
    noise: str = "exp_sqrt_decay"
    p_rule: DimensionRule = field(default_factory=lambda: DimensionRule("power", 1.5))

    def __post_init__(self):
        if self.tau <= 0 or self.scale <= 0:
            raise InvalidProfile("ExpPlusNoise parameters must be positive")
        if self.noise not in NOISE_RULES:
            raise InvalidProfile(f"unknown noise rule {self.noise!r}")

    def eigenvalues(self, n: int) -> np.ndarray:
        p = self.p_rule(n)
        i = np.arange(1, p + 1, dtype=float)
        return self.scale * np.exp(-i / self.tau) + NOISE_RULES[self.noise](n)


@dataclass(frozen=True)
class ExplicitSpectrum:
    """Fixed eigenvalue vector, independent of n."""

    values: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise InvalidProfile("explicit spectrum must be a nonempty vector")
        if np.any(v < 0) or np.any(np.diff(v) > 0):
            raise InvalidProfile("explicit spectrum must be descending and nonnegative")

    def eigenvalues(self, n: int) -> np.ndarray:
        return np.asarray(self.values, dtype=float).copy()


def spectrum(profile, n: int) -> tuple[int, np.ndarray]:
    """Evaluate a profile at sample size n, validating shape and monotonicity."""
    if n < 1:
        raise InvalidProfile("sample size must be at least 1")
    eigs = profile.eigenvalues(n)
    if eigs.size == 0 or np.any(eigs < 0) or np.any(np.diff(eigs) > 1e-15):
        raise InvalidSpectrum("profile produced a non-descending or negative spectrum")
    return eigs.size, eigs


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
        nrm = np.linalg.norm(v)
        if nrm < 1e-10:
            raise InvalidProfile(f"pattern rotation degenerate at column {j + 1}")
        u[:, j] = v / nrm
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
            raise InvalidProfile("rotation needs p >= 2")
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
# covariance splits


def split_orthogonal_eigs(base_eigs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    base = np.asarray(base_eigs, dtype=float)
    p = base.size
    if not 0 <= k <= p:
        raise ValueError(f"level {k} outside [0, {p}]")
    endo = np.zeros(p)
    endo[:k] = base[:k]
    return endo, base - endo


def split_nonorthogonal_eigs(
    base_eigs: np.ndarray, k: int, alpha: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    if alpha <= 1.0:
        raise InvalidAlpha(f"leakage exponent must exceed 1, got {alpha}")
    base = np.asarray(base_eigs, dtype=float)
    p = base.size
    if not 0 <= k <= p:
        raise ValueError(f"level {k} outside [0, {p}]")
    endo = np.zeros(p)
    endo[:k] = (1.0 - float(n) ** (-alpha)) * base[:k]
    return endo, base - endo


# --------------------------------------------------------------------------
# assembled models


@dataclass(frozen=True)
class CovarianceModel:
    """Split covariate covariance, diagonal in the coordinate basis.

    endo_eigs / signal_eigs are the diagonals of the latent-noise and
    instrumented-signal blocks.  rotation (a PatternRotation or None) only
    affects how whitened endogeneity vectors are mapped in.
    """

    p: int
    endo_eigs: np.ndarray
    signal_eigs: np.ndarray
    trunc_level: int
    split_kind: str
    alpha: float | None = None
    rotation: PatternRotation | None = None

    @property
    def total_eigs(self) -> np.ndarray:
        return self.endo_eigs + self.signal_eigs

    def rotate(self, v: np.ndarray) -> np.ndarray:
        if self.rotation is None:
            return np.asarray(v, dtype=float).copy()
        return self.rotation.matvec(v)

    @property
    def endo_support(self) -> np.ndarray:
        """Mask of the latent-noise eigenvalues above the rank cutoff."""
        e = self.endo_eigs
        top = e.max(initial=0.0)
        return e > default_rank_tol(self.p) * top if top > 0 else np.zeros(self.p, bool)

    def endo_rank(self) -> int:
        return int(np.count_nonzero(self.endo_support))


def build_covariance(
    profile,
    n: int,
    split_kind: str = "orthogonal",
    alpha: float | None = None,
    rotation: str | None = "pattern",
) -> CovarianceModel:
    """Spectrum -> truncation level -> split, with the standard rotation."""
    p, eigs = spectrum(profile, n)
    k = truncation_level(eigs, n)
    if k is None:
        raise InvalidSpectrum("no truncation level within the spectrum")
    if split_kind == "orthogonal":
        endo, sig = split_orthogonal_eigs(eigs, k)
        alpha_out = None
    elif split_kind == "nonorthogonal":
        if alpha is None:
            raise InvalidAlpha("nonorthogonal split needs alpha")
        endo, sig = split_nonorthogonal_eigs(eigs, k, alpha, n)
        alpha_out = float(alpha)
    else:
        raise ValueError(f"unknown split kind {split_kind!r}")
    rot = PatternRotation(p) if rotation == "pattern" else None
    return CovarianceModel(
        p=p,
        endo_eigs=endo,
        signal_eigs=sig,
        trunc_level=k,
        split_kind=split_kind,
        alpha=alpha_out,
        rotation=rot,
    )


@dataclass(frozen=True)
class EndogenousModel:
    """Covariance split plus coefficients, endogeneity, and noise levels.

    whitened_cross holds the realized (endo block)^(-1/2) covariate-error
    covariance: the requested vector restricted to the support of the
    latent-noise block.  cross_cov is the covariate-error covariance itself,
    cross_cov = sqrt(endo_eigs) * whitened_cross.
    """

    cov: CovarianceModel
    true_coef: np.ndarray
    cross_cov: np.ndarray
    whitened_cross: np.ndarray
    noise_var: float
    resid_noise_var: float
    requested_whitened: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.cov.p

    def joint_min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the joint factor-and-error covariance.

        The (2p+1)-dim matrix is block [[I,0,0],[0,I,rho],[0,rho^T,s2]];
        all eigenvalues are 1 except the pair from the 2x2 pencil on
        (rho direction, error), so no dense assembly is needed.
        """
        s2 = self.noise_var
        r2 = float(self.whitened_cross @ self.whitened_cross)
        lo = 0.5 * (1.0 + s2 - math.sqrt((1.0 - s2) ** 2 + 4.0 * r2))
        return min(1.0, lo)


def _as_vector(rule, p: int) -> np.ndarray:
    v = rule(p) if callable(rule) else rule
    v = np.asarray(v, dtype=float)
    if v.shape != (p,):
        raise ValueError(f"expected a length-{p} vector, got shape {v.shape}")
    return v


def assemble_model(
    cov: CovarianceModel,
    true_coef,
    whitened_cross=None,
    cross_cov=None,
    noise_sd: float | None = None,
) -> EndogenousModel:
    """Validated model from a covariance split and an endogeneity request.

    Exactly one of whitened_cross (run through the rotation) or cross_cov
    (natural coordinates) may be given; neither means an exogenous model.
    noise_sd defaults to twice the realized whitened norm, which leaves
    three quarters of the error variance unexplained by the covariates.
    """
    p = cov.p
    theta = _as_vector(true_coef, p)
    if whitened_cross is not None and cross_cov is not None:
        raise ValueError("give whitened_cross or cross_cov, not both")

    support = cov.endo_support
    root = np.sqrt(np.where(support, cov.endo_eigs, 0.0))

    requested = None
    if whitened_cross is not None:
        requested = cov.rotate(_as_vector(whitened_cross, p))
    elif cross_cov is not None:
        w = _as_vector(cross_cov, p)
        requested = np.where(support, w / np.where(support, root, 1.0), 0.0)
    realized = np.where(support, requested, 0.0) if requested is not None else np.zeros(p)
    cross = root * realized

    endo_energy = float(realized @ realized)
    if noise_sd is None:
        noise_sd = 2.0 * math.sqrt(endo_energy) if endo_energy > 0 else 1.0
    if noise_sd <= 0:
        raise ValueError("noise_sd must be positive")
    noise_var = float(noise_sd) ** 2
    if endo_energy > noise_var * (1.0 + 1e-12):
        raise EndogeneityTooStrong(
            f"covariate-error energy {endo_energy:g} exceeds noise variance {noise_var:g}"
        )
    resid = noise_var - endo_energy
    if resid < 0.0:  # only roundoff away from zero after the check above
        resid = 0.0

    model = EndogenousModel(
        cov=cov,
        true_coef=theta,
        cross_cov=cross,
        whitened_cross=realized,
        noise_var=noise_var,
        resid_noise_var=resid,
        requested_whitened=requested,
    )
    if model.joint_min_eigenvalue() < -1e-8:
        raise EndogeneityTooStrong("joint factor covariance not positive semidefinite")
    return model
