"""Risk functionals, effective ranks, closed-form bounds, and the
sufficient-condition checker for benign overfitting with endogeneity.

Rank functionals take a dense PSD matrix or a 1-d eigenvalue vector; the
projected error takes the signal block's diagonal.  Model functionals read
the two eigenvalue vectors of the model's diagonal blocks directly, which
keeps dimension in the thousands cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .covariance import EndogenousModel
from .matops import default_rank_tol, psd_sqrt


class ZeroMatrix(ValueError):
    """Effective ranks are undefined for the zero matrix."""


class MissingSelector(ValueError):
    """Custom norms need a subgradient selector and a dual norm."""


class ModelInconsistent(ValueError):
    """Stored and recomputed noise quantities disagree beyond tolerance."""


class DegenerateNoise(ValueError):
    """Norm bound requires strictly positive leftover noise variance."""


def _eigs_of(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 1:
        return np.sort(sigma)[::-1]
    return np.sort(scipy.linalg.eigvalsh(sigma))[::-1]


def projected_rmse(theta: np.ndarray, theta0: np.ndarray, signal_eigs) -> float:
    """Squared error of theta against theta0 weighted by the signal diagonal."""
    d = np.asarray(theta, dtype=float) - np.asarray(theta0, dtype=float)
    s = np.asarray(signal_eigs, dtype=float)
    if s.shape != d.shape:
        raise ValueError(f"metric shape {s.shape} does not match theta shape {d.shape}")
    return float(d @ (s * d))


def effective_ranks(sigma) -> tuple[float, float]:
    """(trace/op-norm, trace^2/trace-of-square) of a PSD matrix."""
    eigs = _eigs_of(sigma)
    tr = float(eigs.sum())
    if tr <= 0 or eigs[0] <= 0:
        raise ZeroMatrix("effective ranks need a nonzero PSD matrix")
    return tr / float(eigs[0]), tr * tr / float(eigs @ eigs)


@dataclass(frozen=True)
class NormRankEstimate:
    r_norm: float
    R_norm: float
    stderr_r: float
    stderr_R: float
    mc_samples: int
    projection_checked: bool


def _delta_method(num, den, num_scale_sq):
    """Plug-in ranks and stderrs for (mean(num)/s)^2 and (mean(num)/mean(den))^2."""
    m = num.size
    a, d = float(num.mean()), float(den.mean())
    va = float(num.var(ddof=1)) / m
    vd = float(den.var(ddof=1)) / m
    cad = float(np.cov(num, den, ddof=1)[0, 1]) / m
    r = a * a / num_scale_sq
    se_r = 2.0 * a / num_scale_sq * math.sqrt(va)
    big_r = (a / d) ** 2
    ga, gd = 2.0 * a / d**2, -2.0 * a**2 / d**3
    var_R = ga * ga * va + gd * gd * vd + 2.0 * ga * gd * cad
    return r, big_r, se_r, math.sqrt(max(var_R, 0.0))


def norm_effective_ranks(
    sigma,
    norm: str = "l2",
    mc_samples: int = 10_000,
    seed: int = 0,
    dual_fn=None,
    selector_fn=None,
    sup_weighted: float | None = None,
) -> NormRankEstimate:
    """Monte Carlo general-norm effective ranks.

    Draws H ~ N(0, I), evaluates the dual norm of Sigma^{1/2}H and the
    Sigma-weighted length of the minimal dual subgradient, and returns
    delta-method standard errors for both rank estimates.
    """
    eigs_or_dense = np.asarray(sigma, dtype=float)
    diag = eigs_or_dense.ndim == 1
    if diag:
        root = np.sqrt(eigs_or_dense)
        diag_sigma = eigs_or_dense
        dim = eigs_or_dense.size
    else:
        root = psd_sqrt(eigs_or_dense)
        diag_sigma = np.diag(eigs_or_dense)
        dim = eigs_or_dense.shape[0]
    if not np.any(diag_sigma > 0):
        raise ZeroMatrix("norm effective ranks need a nonzero matrix")

    rng = np.random.default_rng(seed)
    h = rng.standard_normal((mc_samples, dim))
    y = h * root[None, :] if diag else h @ root  # rows are Sigma^{1/2} H

    if norm == "l2":
        num = np.linalg.norm(y, axis=1)
        # v* = y/|y|; its Sigma-length is |Sigma^{1/2} y| / |y|
        wy = y * root[None, :] if diag else y @ root
        den = np.linalg.norm(wy, axis=1) / np.where(num > 0, num, 1.0)
        eigs = _eigs_of(sigma)
        sup = math.sqrt(float(eigs[0]))
        checked = True
    elif norm == "l1":
        num = np.abs(y).max(axis=1)
        picks = np.abs(y).argmax(axis=1)  # argmax takes the lowest index on ties
        den = np.sqrt(diag_sigma if diag else np.diag(eigs_or_dense))[picks]
        sup = math.sqrt(float((diag_sigma if diag else np.diag(eigs_or_dense)).max()))
        checked = False
    elif norm == "custom":
        if dual_fn is None or selector_fn is None or sup_weighted is None:
            raise MissingSelector("custom norm needs dual_fn, selector_fn, sup_weighted")
        num = np.array([float(dual_fn(row)) for row in y])
        den = np.empty(mc_samples)
        for i, row in enumerate(y):
            v = np.asarray(selector_fn(row), dtype=float)
            den[i] = math.sqrt(float(v @ (diag_sigma * v))) if diag else math.sqrt(
                float(v @ (eigs_or_dense @ v))
            )
        sup = float(sup_weighted)
        checked = False
    else:
        raise ValueError(f"unknown norm {norm!r}")

    r, big_r, se_r, se_R = _delta_method(num, den, sup * sup)
    return NormRankEstimate(
        r_norm=r,
        R_norm=big_r,
        stderr_r=se_r,
        stderr_R=se_R,
        mc_samples=mc_samples,
        projection_checked=checked,
    )


# --------------------------------------------------------- model functionals


def _support(model: EndogenousModel) -> np.ndarray:
    e = model.cov.endo_eigs
    top = e.max(initial=0.0)
    return e > default_rank_tol(model.p) * top if top > 0 else np.zeros(model.p, bool)


def _whitened_cross(model: EndogenousModel) -> np.ndarray:
    """Recompute (endo block)^{-1/2} cross covariance from stored pieces."""
    sup = _support(model)
    root = np.sqrt(np.where(sup, model.cov.endo_eigs, 1.0))
    return np.where(sup, model.cross_cov / root, 0.0)


def sigma_tilde2(model: EndogenousModel) -> float:
    """Noise variance left after removing the covariate-explained part."""
    white = _whitened_cross(model)
    val = model.noise_var - float(white @ white)
    if val < -1e-10 * max(1.0, model.noise_var):
        raise ModelInconsistent(f"residual noise variance {val:g} is negative")
    if abs(val - model.resid_noise_var) > 1e-10 * max(1.0, model.noise_var):
        raise ModelInconsistent("stored residual noise variance disagrees")
    return max(val, 0.0)


def pinv_cross_norm(model: EndogenousModel) -> float:
    """Euclidean norm of (latent-noise block)^+ applied to the cross covariance."""
    white = _whitened_cross(model)
    sup = _support(model)
    root = np.sqrt(np.where(sup, model.cov.endo_eigs, 1.0))
    return float(np.linalg.norm(np.where(sup, white / root, 0.0)))


def cross_signal_energy(model: EndogenousModel) -> float:
    """Signal-weighted energy of the amplified cross covariance:
    cross^T (endo^+) signal (endo^+) cross."""
    white = _whitened_cross(model)
    sup = _support(model)
    lam = np.where(sup, model.cov.endo_eigs, 1.0)
    amp = np.where(sup, white / np.sqrt(lam), 0.0)
    return float(amp @ (model.cov.signal_eigs * amp))


def eta_delta(model: EndogenousModel, n: int, delta: float) -> float:
    """Deviation factor sqrt(log(1/delta)) * (1/sqrt(r) + sqrt(rank/n) + n/R)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    r, big_r = effective_ranks(model.cov.signal_eigs)
    rank_u = model.cov.endo_rank()
    return math.sqrt(math.log(1.0 / delta)) * (
        1.0 / math.sqrt(r) + math.sqrt(rank_u / n) + n / big_r
    )


# ------------------------------------------------------------------- bounds


@dataclass(frozen=True)
class BoundReport:
    delta: float
    gamma_delta: float | None = None
    eta_delta: float | None = None
    epsilon: float | None = None
    epsilon_principal: float | None = None
    eta1: float | None = None
    eta2: float | None = None
    rmse_bound: float | None = None
    rmse_principal: float | None = None
    norm_bound: float | None = None
    norm_principal: float | None = None
    constants_used: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    def rows(self) -> list[dict]:
        row = {"delta": self.delta}
        for name in (
            "gamma_delta",
            "eta_delta",
            "epsilon",
            "epsilon_principal",
            "eta1",
            "eta2",
            "rmse_bound",
            "rmse_principal",
            "norm_bound",
            "norm_principal",
        ):
            value = getattr(self, name)
            if value is not None:
                row[name] = value
        for key, value in self.flags.items():
            row[f"flag_{key}"] = value
        return [row]


def rmse_upper_bound(
    model: EndogenousModel, n: int, delta: float, B: float, C1: float = 32.0
) -> BoundReport:
    """Closed-form risk bound at ball radius B, plus the principal part.

    The literal bound is (1 + gamma) B^2 tr(signal)/n - leftover noise with
    gamma = C1 (sqrt(log(1/d)/r) + sqrt(log(1/d)/n) + sqrt(rank/n)); the
    principal part is (1 + eta)(1 v sigma) psi(t), psi(t) = t + t^2, at
    t = (pinv-cross norm + |theta0|) sqrt(tr(signal)/n), constants dropped.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    theta_norm = float(np.linalg.norm(model.true_coef))
    if B < theta_norm:
        raise ValueError(f"ball radius {B:g} below |theta0| = {theta_norm:g}")
    r, _ = effective_ranks(model.cov.signal_eigs)
    rank_u = model.cov.endo_rank()
    log_term = math.log(1.0 / delta)
    gamma = C1 * (
        math.sqrt(log_term / r) + math.sqrt(log_term / n) + math.sqrt(rank_u / n)
    )
    tr_sig = float(model.cov.signal_eigs.sum())
    s_tilde2 = sigma_tilde2(model)
    literal = (1.0 + gamma) * B * B * tr_sig / n - s_tilde2

    eta = eta_delta(model, n, delta)
    t = (pinv_cross_norm(model) + theta_norm) * math.sqrt(tr_sig / n)
    principal = (1.0 + eta) * max(1.0, math.sqrt(s_tilde2)) * (t + t * t)
    return BoundReport(
        delta=delta,
        gamma_delta=gamma,
        eta_delta=eta,
        rmse_bound=literal,
        rmse_principal=principal,
        constants_used={"C1": C1, "ball_radius": B},
        flags={"gamma_le_1": gamma <= 1.0},
    )


def norm_upper_bound(model: EndogenousModel, n: int, delta: float) -> BoundReport:
    """High-probability radius for the interpolator's Euclidean norm.

    B = (1+eps)^{1/2} (|theta0| + pinv-cross norm + (2 eta1 + resid sd + eta2)
    sqrt(n / tr(signal))).  The literal variant multiplies the deviation eps
    by the printed ceiling (56 orthogonal, 160 non-orthogonal); the principal
    variant uses constant 1.  The mean dual length E|signal^{1/2}H| inside
    eta2 is replaced by its upper bound sqrt(tr), which can only enlarge B.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    s_tilde2 = sigma_tilde2(model)
    if s_tilde2 <= 0.0:
        raise DegenerateNoise("norm bound needs positive leftover noise variance")
    s_tilde = math.sqrt(s_tilde2)
    sig = model.cov.signal_eigs
    r, big_r = effective_ranks(sig)
    tr_sig = float(sig.sum())
    tr_sq = float(sig @ sig)
    cross_tr = float(model.cov.endo_eigs @ sig)
    rank_u = model.cov.endo_rank()
    log_term = math.log(1.0 / delta)

    pc = pinv_cross_norm(model)
    mixed = math.sqrt(cross_signal_energy(model))  # |signal^{1/2} endo^+ cross|
    eta1 = math.sqrt(n / big_r) * mixed
    eta2 = math.sqrt(
        tr_sig / n * (1.0 + math.sqrt(2.0 * math.log(8.0 / delta) / r)) ** 2 * pc * pc
        + mixed * mixed
    )
    eps_raw = math.sqrt(log_term) * (
        math.sqrt(rank_u / n)
        + (1.0 + cross_tr / tr_sq) * (n / big_r)
        + (pc / s_tilde) * math.sqrt(tr_sig / n)
    )
    ceiling = 56.0 if model.cov.split_kind == "orthogonal" else 160.0
    eps_lit = ceiling * eps_raw

    theta_norm = float(np.linalg.norm(model.true_coef))
    tail = (2.0 * eta1 + s_tilde + eta2) * math.sqrt(n / tr_sig)
    literal = math.sqrt(1.0 + eps_lit) * (theta_norm + pc + tail)
    principal = math.sqrt(1.0 + eps_raw) * (theta_norm + pc + tail)
    return BoundReport(
        delta=delta,
        epsilon=eps_lit,
        epsilon_principal=eps_raw,
        eta1=eta1,
        eta2=eta2,
        norm_bound=literal,
        norm_principal=principal,
        constants_used={"C2": ceiling},
        flags={"eps_le_1": eps_raw <= 1.0, "R_dominates_log": big_r >= log_term**2},
    )


# --------------------------------------------------------------- conditions


@dataclass(frozen=True)
class Verdict:
    decreasing: bool
    final: float


@dataclass(frozen=True)
class ConditionReport:
    n_grid: tuple
    mode: str
    sequences: dict
    verdicts: dict

    def rows(self) -> list[dict]:
        out = []
        for i, n in enumerate(self.n_grid):
            row = {"n": n}
            for name, values in self.sequences.items():
                row[name] = values[i]
            out.append(row)
        return out


_MONO_SLACK = 1e-12


def _is_decreasing(values: np.ndarray) -> bool:
    return bool(
        np.all(values[1:] < values[:-1] + _MONO_SLACK * np.maximum(1.0, np.abs(values[:-1])))
    )


def evaluate_conditions(model_factory, n_grid, mode: str = "orthogonal") -> ConditionReport:
    """Tabulate the sufficient-condition sequences over a sample-size grid.

    model_factory(n) must return the assembled model at that n.  All modes
    report the basic trio (rank_ratio, eff_dim, aliasing); the orthogonal
    mode adds the endogeneity sequence, the non-orthogonal mode adds its
    scaled variant plus the block-overlap sequences, and the exogenous mode
    adds only the block-overlap rank sequence.
    """
    if mode not in ("orthogonal", "nonorthogonal", "exogenous"):
        raise ValueError(f"unknown mode {mode!r}")
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 3 or any(b < a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("need a nondecreasing grid with at least 3 points")

    names = ["rank_ratio", "eff_dim", "aliasing"]
    if mode == "orthogonal":
        names += ["endo"]
    elif mode == "nonorthogonal":
        names += ["endo_nonortho", "cross_rank", "mixed"]
    else:
        names += ["cross_rank"]
    seq = {name: np.empty(len(n_grid)) for name in names}

    for i, n in enumerate(n_grid):
        model = model_factory(n)
        sig = model.cov.signal_eigs
        _, big_r = effective_ranks(sig)
        tr_sig = float(sig.sum())
        tr_sq = float(sig @ sig)
        seq["rank_ratio"][i] = model.cov.endo_rank() / n
        seq["eff_dim"][i] = n / big_r
        seq["aliasing"][i] = float(np.linalg.norm(model.true_coef)) * math.sqrt(tr_sig / n)
        if mode == "orthogonal":
            seq["endo"][i] = pinv_cross_norm(model) * math.sqrt(tr_sig / n)
        elif mode == "nonorthogonal":
            s_tilde = math.sqrt(sigma_tilde2(model))
            seq["endo_nonortho"][i] = (
                pinv_cross_norm(model) / s_tilde * math.sqrt(tr_sig / n)
                if s_tilde > 0
                else math.inf
            )
            seq["cross_rank"][i] = (n / big_r) * (float(model.cov.endo_eigs @ sig) / tr_sq)
            seq["mixed"][i] = cross_signal_energy(model)
        else:
            seq["cross_rank"][i] = (n / big_r) * (float(model.cov.endo_eigs @ sig) / tr_sq)

    for name, values in seq.items():
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ModelInconsistent(f"sequence {name} has invalid entries")
    verdicts = {
        name: Verdict(decreasing=_is_decreasing(values), final=float(values[-1]))
        for name, values in seq.items()
    }
    return ConditionReport(n_grid=n_grid, mode=mode, sequences=seq, verdicts=verdicts)
