"""Risk functionals, effective ranks, closed-form bounds, and the
sufficient-condition checker for benign overfitting with endogeneity.

effective_ranks takes a dense PSD matrix or a 1-d eigenvalue vector; the
projected error takes a covariance's diagonal.  Model functionals read the
two eigenvalue vectors of the model's diagonal blocks directly, which keeps
dimension in the thousands cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .covariance import EndogenousModel
from .matops import NotPSD, psd_eigvals


class ZeroMatrix(ValueError):
    """Effective ranks are undefined for the zero matrix."""


class ModelInconsistent(ValueError):
    """A condition sequence has a negative or non-finite entry."""


class DegenerateNoise(ValueError):
    """Norm bound requires strictly positive leftover noise variance."""


def _eigs_of(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1:
        return psd_eigvals(sigma)
    if not np.all(np.isfinite(sigma) & (sigma >= 0)):
        raise NotPSD("eigenvalue vector needs finite nonnegative entries")
    return np.sort(sigma)[::-1]


def projected_rmse(theta: np.ndarray, theta0: np.ndarray, signal_eigs) -> float:
    """Squared error of theta against theta0 weighted by the signal diagonal."""
    d = np.asarray(theta, dtype=float) - np.asarray(theta0, dtype=float)
    s = np.asarray(signal_eigs, dtype=float)
    if s.shape != d.shape:
        raise ValueError(f"metric shape {s.shape} does not match theta shape {d.shape}")
    return float(d @ (s * d))


def effective_ranks(sigma) -> tuple[float, float]:
    """(trace/op-norm, trace^2/trace-of-square) of a PSD matrix.

    A dense matrix that is not square, finite and symmetric raises
    InvalidMatrix; one with an eigenvalue below the psd_eigvals tolerance, or
    an eigenvalue vector with a negative or non-finite entry, raises NotPSD.
    """
    eigs = _eigs_of(sigma)
    tr = float(eigs.sum())
    if tr <= 0 or eigs[0] <= 0:
        raise ZeroMatrix("effective ranks need a nonzero PSD matrix")
    return tr / float(eigs[0]), tr * tr / float(eigs @ eigs)


# --------------------------------------------------------- model functionals


def _amplified_cross(model: EndogenousModel) -> np.ndarray:
    """(latent-noise block)^+ applied to the cross covariance, through the
    whitened form."""
    sup = model.endo_support
    root = np.sqrt(np.where(sup, model.endo_eigs, 1.0))
    return np.where(sup, model.whitened_cross / root, 0.0)


def pinv_cross_norm(model: EndogenousModel) -> float:
    """Euclidean norm of (latent-noise block)^+ applied to the cross covariance."""
    return float(np.linalg.norm(_amplified_cross(model)))


def cross_signal_energy(model: EndogenousModel) -> float:
    """Signal-weighted energy of the amplified cross covariance:
    cross^T (endo^+) signal (endo^+) cross."""
    amp = _amplified_cross(model)
    return float(amp @ (model.signal_eigs * amp))


def eta_delta(model: EndogenousModel, n: int, delta: float) -> float:
    """Deviation factor sqrt(log(1/delta)) * (1/sqrt(r) + sqrt(rank/n) + n/R)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    r, big_r = effective_ranks(model.signal_eigs)
    rank_u = model.endo_rank()
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
        """One row: every number that is set, in field order, then the flags."""
        row = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("constants_used", "flags") and getattr(self, f.name) is not None
        }
        row.update((f"flag_{key}", value) for key, value in self.flags.items())
        return [row]


_C1 = 32.0  # the risk bound's printed constant


def rmse_upper_bound(model: EndogenousModel, n: int, delta: float, B: float) -> BoundReport:
    """Closed-form risk bound at ball radius B, plus the principal part.

    The literal bound is (1 + gamma) B^2 tr(signal)/n - leftover noise with
    gamma = C1 (sqrt(log(1/d)/r) + sqrt(log(1/d)/n) + sqrt(rank/n)); the
    principal part is (1 + eta)(1 v sigma) psi(t), psi(t) = t + t^2, at
    t = (pinv-cross norm + |theta0|) sqrt(tr(signal)/n), constants dropped.
    C1 is the printed constant 32.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    theta_norm = float(np.linalg.norm(model.true_coef))
    if B < theta_norm:
        raise ValueError(f"ball radius {B:g} below |theta0| = {theta_norm:g}")
    r, _ = effective_ranks(model.signal_eigs)
    rank_u = model.endo_rank()
    log_term = math.log(1.0 / delta)
    gamma = _C1 * (
        math.sqrt(log_term / r) + math.sqrt(log_term / n) + math.sqrt(rank_u / n)
    )
    tr_sig = float(model.signal_eigs.sum())
    s_tilde2 = model.resid_noise_var
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
        constants_used={"C1": _C1, "ball_radius": B},
        flags={"gamma_le_1": gamma <= 1.0},
    )


def norm_upper_bound(model: EndogenousModel, n: int, delta: float) -> BoundReport:
    """High-probability radius for the interpolator's Euclidean norm.

    B = (1+eps)^{1/2} (|theta0| + pinv-cross norm + (2 eta1 + resid sd + eta2)
    sqrt(n / tr(signal))).  The literal variant multiplies the deviation eps
    by the printed ceiling (160 non-orthogonal, else 56); the principal
    variant uses constant 1.  The mean dual length E|signal^{1/2}H| inside
    eta2 is replaced by its upper bound sqrt(tr), which can only enlarge B.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    s_tilde2 = model.resid_noise_var
    if s_tilde2 <= 0.0:
        raise DegenerateNoise("norm bound needs positive leftover noise variance")
    s_tilde = math.sqrt(s_tilde2)
    sig = model.signal_eigs
    r, big_r = effective_ranks(sig)
    tr_sig = float(sig.sum())
    tr_sq = float(sig @ sig)
    cross_tr = float(model.endo_eigs @ sig)
    rank_u = model.endo_rank()
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
    ceiling = 160.0 if model.split_kind == "nonorthogonal" else 56.0
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


def evaluate_conditions(model_factory, n_grid) -> ConditionReport:
    """Tabulate the sufficient-condition sequences over a sample-size grid.

    model_factory(n) must return the assembled model at that n; the mode is
    the models' split kind, which every model on the grid must share.  All
    modes report the basic trio (rank_ratio, eff_dim, aliasing); the
    orthogonal mode adds the endogeneity sequence, the non-orthogonal mode
    adds its scaled variant plus the block-overlap sequences, and the
    exogenous mode adds only the block-overlap rank sequence.  Mixed split
    kinds raise ValueError.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 3 or any(b < a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("need a nondecreasing grid with at least 3 points")
    models = [model_factory(n) for n in n_grid]
    kinds = {model.split_kind for model in models}
    if len(kinds) != 1:
        raise ValueError(f"models need one split kind, got {sorted(kinds)}")
    (mode,) = kinds

    names = ["rank_ratio", "eff_dim", "aliasing"]
    if mode == "orthogonal":
        names += ["endo"]
    elif mode == "nonorthogonal":
        names += ["endo_nonortho", "cross_rank", "mixed"]
    else:
        names += ["cross_rank"]
    seq = {name: np.empty(len(n_grid)) for name in names}

    for i, (n, model) in enumerate(zip(n_grid, models)):
        sig = model.signal_eigs
        _, big_r = effective_ranks(sig)
        tr_sig = float(sig.sum())
        tr_sq = float(sig @ sig)
        seq["rank_ratio"][i] = model.endo_rank() / n
        seq["eff_dim"][i] = n / big_r
        seq["aliasing"][i] = float(np.linalg.norm(model.true_coef)) * math.sqrt(tr_sig / n)
        if "cross_rank" in seq:
            seq["cross_rank"][i] = (n / big_r) * (float(model.endo_eigs @ sig) / tr_sq)
        if mode == "orthogonal":
            seq["endo"][i] = pinv_cross_norm(model) * math.sqrt(tr_sig / n)
        elif mode == "nonorthogonal":
            s_tilde = math.sqrt(model.resid_noise_var)
            seq["endo_nonortho"][i] = (
                pinv_cross_norm(model) / s_tilde * math.sqrt(tr_sig / n)
                if s_tilde > 0
                else math.inf
            )
            seq["mixed"][i] = cross_signal_energy(model)

    for name, values in seq.items():
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ModelInconsistent(f"sequence {name} has invalid entries")
    verdicts = {
        name: Verdict(decreasing=_is_decreasing(values), final=float(values[-1]))
        for name, values in seq.items()
    }
    return ConditionReport(n_grid=n_grid, mode=mode, sequences=seq, verdicts=verdicts)
