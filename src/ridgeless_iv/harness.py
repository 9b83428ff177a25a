"""Named experiment setups, Monte Carlo orchestration, and file emission.

Nine named setups cover the simulation study: six projected-RMSE setups on
two spectrum families (orthogonal, non-orthogonal, and sparse-coefficient
variants), which are custom profiles built by the same code as setup
"custom", and three estimator-comparison setups where an explicit window of
coordinates is endogenous.  A config object selects the setup, grid, seeds,
and estimators; runs are deterministic given the base seed no matter how
many workers execute the repetitions.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import json
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .covariance import (
    EndogenousModel,
    InvalidSpectrum,
    PatternRotation,
    split_eigs,
    truncation_level,
)
from .estimators import min_norm_interpolator, split_sample_lasso_iv
from .metrics import projected_rmse
from .sampling import sample_dataset


class UnknownSetup(ValueError):
    """Setup id is not one of the nine named setups."""


class InvalidConfig(ValueError):
    """Config field fails validation."""


class InvalidAlpha(InvalidConfig):
    """Nonorthogonal split needs a leakage exponent strictly above 1."""


class OutputError(OSError):
    """Output directory or file cannot be written."""


ESTIMATOR_NAMES = ("ridgeless", "lasso_iv")

OUTPUT_DIR_ENV = "RIDGELESS_IV_OUTPUT_DIR"

RUNS_HEADER = ("setup", "n", "rep", "estimator", "projected_rmse")
PLOT_HEADER = ("n", "mean", "stderr")


# --------------------------------------------------------------------------
# custom profiles


def _lookup(rules: dict, kind, what: str):
    if kind not in rules:
        raise InvalidConfig(f"unknown {what} {kind!r}; expected one of {tuple(rules)}")
    return rules[kind]


def _check_positive(params: dict, where: str) -> None:
    for key, value in params.items():
        if not (_is_number(value) and value > 0):
            raise InvalidConfig(f"{where} {key} must be a positive number, got {value!r}")


def _sparse_inverse_sqrt(i: np.ndarray, scale: float = 1.0) -> np.ndarray:
    # support: every fifth index starting at 1, capped at 100
    keep = (i <= 100) & ((i.astype(int) + 4) % 5 == 0)
    return np.where(keep, scale / np.sqrt(i), 0.0)


def _exp_decay(i: np.ndarray, scale: float = 1.0, tau: float = 4.0) -> np.ndarray:
    _check_positive({"tau": tau}, "cross rule exp_decay")
    return scale * np.exp(-i / tau)


# rule kind -> (the keys it reads besides kind, vector over the 1-based
# index i given those keys); cross kind "none" is no endogeneity
_COEF_RULES = {
    "inverse_sqrt": (("scale",), lambda i, scale=1.0: scale / np.sqrt(i)),
    "sparse_inverse_sqrt": (("scale",), _sparse_inverse_sqrt),
}
_CROSS_RULES = {
    "inverse": (("scale",), lambda i, scale=1.0: scale / i),
    "exp_decay": (("scale", "tau"), _exp_decay),
    "none": ((), None),
}
# dim rule kind -> p at sample size n given the rule's value; a rule may ask
# for at most _MAX_DIM coordinates, over 300 times the largest named setup's p
_MAX_DIM = 10**7
_DIM_RULES = {
    "multiple": lambda n, value: int(round(value * n)),
    "power": lambda n, value: math.floor(n ** float(value)),
    "fixed": lambda n, value: _integer("fixed dim value", value),
}
# noise rule -> the flat floor that exp_plus_noise adds at sample size n
_NOISE_RULES = {
    "zero": lambda n: 0.0,
    "exp_sqrt_decay": lambda n: math.exp(-math.sqrt(n)) / math.sqrt(n),
}
# spectrum family -> (the profile keys its spectrum reads, with their
# defaults, None for a required key; the eigenvalues at sample size n given
# those keys, a dim rule passed on as the 1-based index i).  Every family
# also reads the model keys, and a profile may hold no other key.
_FAMILIES = {
    "log_poly": (
        {"scale": None, "beta": None, "log_factor": 1.0,
         "dim": {"kind": "multiple", "value": 5.0}},
        lambda n, i, scale, beta, log_factor: scale / i / (np.log(i + 1.0) * log_factor) ** beta,
    ),
    "exp_plus_noise": (
        {"tau": None, "scale": None, "noise": "exp_sqrt_decay",
         "dim": {"kind": "power", "value": 1.5}},
        lambda n, i, tau, scale, noise: (
            scale * np.exp(-i / tau) + _lookup(_NOISE_RULES, noise, "noise rule")(n)
        ),
    ),
    "explicit": ({"values": None}, lambda n, values: np.array(values, dtype=float)),
}
_MODEL_KEYS = {"family", "split", "alpha", "rotation", "coef", "cross", "noise_sd"}


def _dimension(rule, n: int) -> int:
    if not isinstance(rule, dict) or set(rule) != {"kind", "value"}:
        raise InvalidConfig(f"dim rule takes exactly the keys kind and value, got {rule!r}")
    dimension = _lookup(_DIM_RULES, rule["kind"], "dimension rule")
    _check_positive({"value": rule["value"]}, "dim rule")
    try:
        p = dimension(n, rule["value"])
    except OverflowError:  # n ** value beyond the float range
        p = math.inf
    if p > _MAX_DIM:
        raise InvalidConfig(f"dim rule {rule!r} asks for more than {_MAX_DIM} coordinates at n={n}")
    return p


def _family_eigs(profile: dict, n: int) -> np.ndarray:
    """The spectrum of the profile's family at sample size n: a nonempty,
    descending, nonnegative eigenvalue vector."""
    if n < 1:
        raise InvalidConfig("sample size must be at least 1")
    family = profile.get("family")
    keys, eigenvalues = _lookup(_FAMILIES, family, "profile family")
    unread = set(profile) - _MODEL_KEYS - set(keys)
    if unread:
        raise InvalidConfig(f"profile family {family!r} does not read {sorted(unread)}")
    params = {key: profile.get(key, default) for key, default in keys.items() if key != "dim"}
    missing = sorted(key for key, value in params.items() if value is None)
    if missing:
        raise InvalidConfig(f"profile family {family!r} needs values for {missing}")
    # every family key but a rule name or a list of values is a positive number
    numeric = {k: v for k, v in params.items() if not isinstance(v, (str, list, tuple))}
    _check_positive(numeric, f"profile family {family!r}")
    if "dim" in keys:
        dim = profile.get("dim")
        p = _dimension(keys["dim"] if dim is None else dim, n)
        params["i"] = np.arange(1, p + 1, dtype=float)
    eigs = eigenvalues(n, **params)
    if eigs.ndim != 1 or eigs.size == 0 or np.any(eigs < 0) or np.any(np.diff(eigs) > 0):
        raise InvalidSpectrum(
            f"profile spectrum must be a nonempty, descending, nonnegative vector at n={n}"
        )
    return eigs


def _split(profile: dict, n: int) -> float:
    """The share n^-alpha of the latent block that the profile's
    nonorthogonal split leaves in the signal block (0 for the orthogonal
    split)."""
    split, alpha = profile.get("split", "orthogonal"), profile.get("alpha")
    if split == "orthogonal":
        if alpha is not None:
            raise InvalidConfig("alpha applies only to the nonorthogonal split")
        return 0.0
    if split != "nonorthogonal":
        raise InvalidConfig(f"unknown split {split!r}")
    if alpha is None or not alpha > 1.0:
        raise InvalidAlpha(f"nonorthogonal split needs a leakage exponent alpha > 1, got {alpha}")
    leak = float(n) ** (-alpha)
    if 1.0 - leak == 1.0:  # split_eigs would leave no share in the signal block
        raise InvalidConfig(f"alpha {alpha} leaks nothing at n={n}: n^-alpha rounds away against 1")
    return leak


def _profile_vector(rule: dict | None, rules: dict, default_kind: str, p: int):
    rule = dict(rule or {"kind": default_kind})
    kind = rule.pop("kind", default_kind)
    reads, vector = _lookup(rules, kind, "rule kind")
    unread = set(rule) - set(reads)
    if unread:
        raise InvalidConfig(f"rule kind {kind!r} does not read {sorted(unread)}")
    if vector is None:
        return None
    return vector(np.arange(1, p + 1, dtype=float), **{k: float(v) for k, v in rule.items()})


def _profile_blocks(profile: dict, n: int, extend: int = 0):
    """The profile's truncation level k, signal and latent diagonals (the
    latent block extended by extend coordinates past k), and its
    coefficient and cross vectors (None for cross kind "none")."""
    eigs = _family_eigs(profile, n)
    if profile.get("rotation", "pattern") not in ("pattern", None):
        raise InvalidConfig(f"unknown rotation {profile['rotation']!r}")
    leak = _split(profile, n)
    k = truncation_level(eigs, n)
    if k is None:
        raise InvalidSpectrum("no truncation level within the spectrum")
    endo, sig = split_eigs(eigs, k + extend, leak)
    theta = _profile_vector(profile.get("coef"), _COEF_RULES, "inverse_sqrt", eigs.size)
    cross = _profile_vector(profile.get("cross"), _CROSS_RULES, "none", eigs.size)
    return k, sig, endo, theta, cross


def _custom_model(profile: dict, n: int) -> EndogenousModel:
    _, sig, endo, theta, rho = _profile_blocks(profile, n)
    if rho is not None and profile.get("rotation", "pattern") == "pattern":
        rho = PatternRotation(rho.size).matvec(rho)
    noise_sd = profile.get("noise_sd")
    return EndogenousModel.build(
        sig,
        endo,
        theta,
        rho,
        noise_sd=float(noise_sd) if noise_sd is not None else None,
    )


# --------------------------------------------------------------------------
# named setups

# the spectrum families with their cross rules: slow log-poly decay with
# p = 5n, and fast exponential decay plus an n-dependent floor with p = n^{3/2}
_LOG_POLY_FAMILY = {
    "family": "log_poly", "scale": 300.0, "beta": 2.0, "log_factor": math.e / 2,
    "dim": {"kind": "multiple", "value": 5.0}, "cross": {"kind": "inverse", "scale": 2.0},
}
_EXP_NOISE_FAMILY = {
    "family": "exp_plus_noise", "tau": 2.0, "scale": 10.0, "noise": "exp_sqrt_decay",
    "dim": {"kind": "power", "value": 1.5},
    "cross": {"kind": "exp_decay", "scale": 3.0, "tau": 4.0},
}
_ORTHOGONAL = {"split": "orthogonal"}
_LEAKED = {"split": "nonorthogonal", "alpha": 1.01}
_DENSE = {"coef": {"kind": "inverse_sqrt", "scale": 20.0}}
_SPARSE = {"coef": {"kind": "sparse_inverse_sqrt", "scale": 20.0}}

# the projected-RMSE setups: whitened endogeneity through the pattern
# rotation, diagonal split
_PROFILES = {
    "i": {**_LOG_POLY_FAMILY, **_ORTHOGONAL, **_DENSE},
    "ii": {**_EXP_NOISE_FAMILY, **_ORTHOGONAL, **_DENSE},
    "iii": {**_LOG_POLY_FAMILY, **_LEAKED, **_DENSE},
    "iv": {**_EXP_NOISE_FAMILY, **_LEAKED, **_DENSE},
    "v": {**_LOG_POLY_FAMILY, **_ORTHOGONAL, **_SPARSE},
    "vi": {**_LOG_POLY_FAMILY, **_LEAKED, **_SPARSE},
}


def _window_model(n: int, head_coef: bool = False, shifted: bool = False) -> EndogenousModel:
    """A comparison setup: setup iii's spectrum, leak and rules, but with
    covariate-error correlation only on an n/10-wide window of coordinates,
    given in natural coordinates (no rotation) and whitened by the latent
    block for the model.  The window is the support of whitened_cross.

    The shifted variant moves the first fifth of the window past the
    truncation level; the latent block is extended to cover it, since a
    factor model can only realize correlation inside the latent block's
    range.  head_coef truncates the coefficient vector at 0.8 n.
    """
    k = n // 10
    shift = k // 5 if shifted else 0
    if k < 1 or (shifted and shift < 1):
        raise InvalidConfig(f"endogenous window is empty at n={n}")
    kstar, sig, endo, theta, cross = _profile_blocks(_PROFILES["iii"], n, shift)
    if k > kstar:
        raise InvalidConfig(f"endogenous window exceeds the latent block at n={n}")
    if head_coef:
        theta = np.where(np.arange(1, theta.size + 1) <= 0.8 * n, theta, 0.0)
    window = np.r_[shift:k, kstar : kstar + shift]
    rho = np.zeros(cross.size)
    rho[window] = cross[window] / np.sqrt(endo[window])
    return EndogenousModel.build(sig, endo, theta, rho)


# setup id -> model factory
_SETUPS = {
    **{sid: functools.partial(_custom_model, profile) for sid, profile in _PROFILES.items()},
    "vii": _window_model,
    "viii": functools.partial(_window_model, head_coef=True),
    "ix": functools.partial(_window_model, shifted=True),
}
SETUP_IDS = tuple(_SETUPS)
# the comparison setups: a window of endogenous columns, which the two-stage
# baseline instruments
WINDOW_SETUPS = ("vii", "viii", "ix")


def setup_model(setup_id: str, n: int) -> EndogenousModel:
    """Assembled model for a named setup.  Its endogenous columns are the
    support of whitened_cross: a window for the comparison setups, the
    latent block (through the rotation) for the projected-RMSE setups."""
    return _setup_entry(setup_id)(n)


def _setup_entry(setup_id: str):
    if setup_id not in _SETUPS:
        raise UnknownSetup(f"unknown setup {setup_id!r}; expected one of {SETUP_IDS}")
    return _SETUPS[setup_id]


def default_grid(setup_id: str, full_scale: bool = False) -> tuple[int, ...]:
    """Sample-size grid: a desk-scale default, or the full-study grid.

    Desk runs keep p at a few thousand so a full sweep stays in minutes.
    The full-scale grid runs to n=1000; the comparison setups start at 100,
    the projected-RMSE setups at 200.
    """
    _setup_entry(setup_id)  # validates the id
    if not full_scale:
        return (100, 200, 300, 400)
    start = 100 if setup_id in WINDOW_SETUPS else 200
    return tuple(range(start, 1001, 100))


# --------------------------------------------------------------------------
# config


def _is_number(value) -> bool:
    # a finite real: bool is an int subclass, but true is no sample size,
    # seed or parameter, and neither is inf (JSON 1e309) or nan
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and (isinstance(value, numbers.Integral) or math.isfinite(value))
    )


def _integer(name: str, value) -> int:
    """value as an int; a bool, a string or a float with a fractional part
    is an InvalidConfig, not silently truncated."""
    if not _is_number(value) or not (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    ):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    return int(value)


_PROFILE_STRINGS = ("family", "noise", "split", "rotation", "kind")
_PROFILE_RULES = ("dim", "coef", "cross")


def _check_profile_types(profile, where: str = "profile") -> None:
    """JSON types in a custom profile and its rules: strings under the keys
    in _PROFILE_STRINGS, a list of numbers under values, and a number
    anywhere else (null where allowed).  The values themselves are checked
    when a model is built."""
    if not isinstance(profile, dict):
        raise InvalidConfig(f"{where} must be a mapping, got {profile!r}")
    for key, value in profile.items():
        name = f"{where} {key}"
        if key in _PROFILE_RULES and value is not None:
            _check_profile_types(value, name)
        elif key == "values":
            if not (isinstance(value, (list, tuple)) and all(map(_is_number, value))):
                raise InvalidConfig(f"{name} must be a list of numbers, got {value!r}")
        elif value is not None and not (
            isinstance(value, str) if key in _PROFILE_STRINGS else _is_number(value)
        ):
            raise InvalidConfig(f"{name} has the wrong type: {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a setup, a sample-size grid, and execution knobs.

    The JSON document form mirrors these fields one to one.  dof only
    applies to the student_t instrument law; profile only to setup
    "custom"; output_dir None defers to the output-dir environment
    variable, then the working directory.
    """

    setup: str
    n_grid: tuple
    repetitions: int = 30
    base_seed: int = 0
    instrument_dist: str = "gaussian"
    dof: float | None = None
    estimators: tuple = ("ridgeless",)
    profile: dict | None = None
    output_dir: str | None = None

    def __post_init__(self):
        if self.setup not in SETUP_IDS and self.setup != "custom":
            raise UnknownSetup(f"unknown setup {self.setup!r}")
        if self.setup == "custom":
            _check_profile_types(self.profile)
        elif self.profile is not None:
            raise InvalidConfig("profile applies only to setup 'custom'")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise InvalidConfig(f"output_dir must be a string, got {self.output_dir!r}")
        grid = tuple(_integer("n_grid entry", n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if not self.n_grid:
            raise InvalidConfig("n_grid must be nonempty")
        if any(n < 1 for n in self.n_grid):
            raise InvalidConfig("n_grid entries must be positive")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise InvalidConfig("n_grid must be strictly ascending")
        object.__setattr__(self, "repetitions", _integer("repetitions", self.repetitions))
        if self.repetitions < 1:
            raise InvalidConfig("repetitions must be at least 1")
        object.__setattr__(self, "base_seed", _integer("base_seed", self.base_seed))
        if self.base_seed < 0:
            raise InvalidConfig("base_seed must be nonnegative")
        if self.instrument_dist not in ("gaussian", "student_t"):
            raise InvalidConfig(f"unknown instrument law {self.instrument_dist!r}")
        if self.instrument_dist == "student_t":
            if not _is_number(self.dof) or not float(self.dof) > 2:
                raise InvalidConfig(
                    f"student_t instrument needs a finite dof > 2, got {self.dof!r}"
                )
            object.__setattr__(self, "dof", float(self.dof))
        elif self.dof is not None:
            raise InvalidConfig("dof applies only to the student_t instrument law")
        est = tuple(self.estimators)
        if not est:
            raise InvalidConfig("estimator list must be nonempty")
        if len(set(est)) != len(est):
            raise InvalidConfig("estimator list has duplicates")
        unknown = [e for e in est if e not in ESTIMATOR_NAMES]
        if unknown:
            raise InvalidConfig(f"unknown estimators {unknown}")
        if "lasso_iv" in est and self.setup not in WINDOW_SETUPS:
            raise InvalidConfig(
                f"lasso_iv needs a setup with a designated endogenous window {WINDOW_SETUPS}"
            )
        object.__setattr__(self, "estimators", est)


_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


def config_to_json(cfg: ExperimentConfig) -> str:
    doc = {name: getattr(cfg, name) for name in _CONFIG_FIELDS}
    return json.dumps(doc, indent=2) + "\n"


def config_from_json(text: str) -> ExperimentConfig:
    """Parse the JSON mirror; a missing or null n_grid takes the setup's
    desk-scale default grid."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvalidConfig(f"config is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise InvalidConfig("config document must be a JSON object")
    unknown = set(doc) - set(_CONFIG_FIELDS)
    if unknown:
        raise InvalidConfig(f"unknown config keys {sorted(unknown)}")
    if "setup" not in doc:
        raise InvalidConfig("config needs a setup id")
    kwargs = {k: doc[k] for k in _CONFIG_FIELDS[2:] if k in doc and doc[k] is not None}
    grid = doc.get("n_grid")
    try:
        if grid is None:
            if doc["setup"] == "custom":
                raise InvalidConfig("custom setup needs an explicit n_grid")
            grid = default_grid(doc["setup"])
        return ExperimentConfig(setup=doc["setup"], n_grid=grid, **kwargs)
    except TypeError as err:  # a JSON value of the wrong kind, e.g. "n_grid": 100
        raise InvalidConfig(f"config value has the wrong type: {err}") from err


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_json(fh.read())


# --------------------------------------------------------------------------
# runs


@dataclass(frozen=True)
class RunRecord:
    setup: str
    n: int
    repetition: int
    estimator: str
    projected_rmse: float
    seed: int


@dataclass(frozen=True)
class AggregateRow:
    setup: str
    n: int
    estimator: str
    mean: float
    stdev: float
    stderr: float
    repetitions: int


@dataclass(frozen=True)
class ExperimentResult:
    """Per-repetition records plus recomputable aggregates.

    records are ordered by (n, repetition, estimator-order in the config),
    so identical configs produce identical record tuples no matter the
    worker count.  started/elapsed_seconds are metadata only and never
    reach the emitted files.
    """

    config: ExperimentConfig
    records: tuple
    aggregates: tuple
    started: str
    elapsed_seconds: float

    def mean_rmse(self, n: int, estimator: str) -> float:
        for row in self.aggregates:
            if row.n == n and row.estimator == estimator:
                return row.mean
        raise KeyError(f"no aggregate for n={n}, estimator={estimator!r}")


def repetition_seed(base_seed: int, n: int, rep: int) -> int:
    """Stable per-repetition seed, independent of execution order."""
    ss = np.random.SeedSequence([int(base_seed), int(n), int(rep)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def aggregate_records(records, estimator_order) -> tuple:
    """Mean/stdev/stderr per (n, estimator), recomputed from the records.

    stdev is the sample standard deviation (ddof=1), zero for a single
    repetition; stderr = stdev / sqrt(repetitions).
    """
    by_key: dict[tuple, list] = {}
    for rec in records:
        by_key.setdefault((rec.n, rec.estimator), []).append(rec.projected_rmse)
    order = {name: pos for pos, name in enumerate(estimator_order)}
    rows = []
    for (n, est) in sorted(by_key, key=lambda k: (k[0], order.get(k[1], len(order)))):
        vals = np.asarray(by_key[(n, est)], dtype=float)
        stdev = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        rows.append(
            AggregateRow(
                setup=records[0].setup,
                n=n,
                estimator=est,
                mean=float(vals.mean()),
                stdev=stdev,
                stderr=stdev / math.sqrt(vals.size),
                repetitions=int(vals.size),
            )
        )
    return tuple(rows)


def _reraise_at(err: Exception, where: str):
    """Raise err again as its own type, its message prefixed with where; a
    type whose constructor needs other arguments gets where as a note."""
    try:
        located = type(err)(f"{where}: {err}")
    except Exception:
        located = None
    if located is None:
        err.add_note(where)
        raise err
    raise located from err


def _model_for(cfg: ExperimentConfig, n: int):
    try:
        if cfg.setup == "custom":
            return _custom_model(cfg.profile, n)
        return setup_model(cfg.setup, n)
    except ValueError as err:
        _reraise_at(err, f"setup {cfg.setup!r} at n={n}")


def _run_repetition(cfg: ExperimentConfig, n: int, model, rep: int):
    seed = repetition_seed(cfg.base_seed, n, rep)
    data = sample_dataset(model, n, seed, cfg.instrument_dist, cfg.dof)
    out = []
    for name in cfg.estimators:
        if name == "ridgeless":
            fit = min_norm_interpolator(data.X, data.Y)
        else:
            fit = split_sample_lasso_iv(data, np.flatnonzero(model.whitened_cross))
        out.append(
            RunRecord(
                setup=cfg.setup,
                n=n,
                repetition=rep,
                estimator=name,
                # in the sample's own columns, which a compressed sample redefines
                projected_rmse=projected_rmse(fit.theta_hat, data.true_coef, data.signal_eigs),
                seed=seed,
            )
        )
    return out


# glibc mallopt parameters (malloc.h) and the values pinned for them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds at the ceiling (32 and 64 MB)
    that its adaptive rule reaches on its own after freeing one large block.

    A repetition allocates and frees a few MB of arrays (X, W1, and the copy
    of X that a compressed fit factors by QR).  Left adaptive, the
    thresholds follow the largest block freed so far, so the heap is
    trimmed (or the block unmapped) after most repetitions and the next one
    faults the same pages in again.  On the 16-repetition setup ii batch
    over n = 100..400 with two workers and one BLAS thread (2-core host,
    two 12 s loops each), pinned thresholds gave 6 minor page faults per
    batch and 0.4-0.5 s of system time per loop, adaptive ones 3,200-3,900
    faults per batch and 2.4-2.6 s; with two workers each trim also has to
    flush the TLB of the CPU running the other.  Pinned, freed blocks below
    64 MB stay in the heap for the next repetition.  A no-op where the C
    library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def run_setup(cfg: ExperimentConfig, max_workers: int | None = None) -> ExperimentResult:
    """Execute the configured experiment.

    Repetitions run independently on derived seeds, optionally across a
    thread pool; the result is identical bytes for any worker count because
    every record is a pure function of (base_seed, n, repetition) and the
    output order is fixed up front.  An exception inside a repetition is
    raised again with its type kept and (setup, n, rep, seed) in front of
    its message; its records attribute holds the records of every task
    before the failing one, in task order, for any worker count.  The first
    call pins the process's malloc thresholds (_pin_malloc_thresholds).
    """
    _pin_malloc_thresholds()
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.perf_counter()
    tasks = []
    for n in cfg.n_grid:
        model = _model_for(cfg, n)
        tasks.extend((n, model, rep) for rep in range(cfg.repetitions))

    def run_one(task):
        n, model, rep = task
        try:
            return _run_repetition(cfg, n, model, rep)
        except Exception as err:
            seed = repetition_seed(cfg.base_seed, n, rep)
            _reraise_at(err, f"setup {cfg.setup!r} at n={n}, rep {rep}, seed {seed}")

    workers = int(max_workers) if max_workers else 1
    chunks = []
    try:
        if workers > 1 and len(tasks) > 1:
            # largest n first, so the last tasks are short and no worker idles
            # long on another's; results are still read in task order
            order = sorted(range(len(tasks)), key=lambda i: -tasks[i][0])
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {i: pool.submit(run_one, tasks[i]) for i in order}
                try:
                    for i in range(len(tasks)):
                        chunks.append(futures[i].result())
                finally:
                    for future in futures.values():
                        future.cancel()
        else:
            for task in tasks:
                chunks.append(run_one(task))
    except Exception as err:
        err.records = tuple(rec for chunk in chunks for rec in chunk)
        raise
    records = tuple(rec for chunk in chunks for rec in chunk)
    return ExperimentResult(
        config=cfg,
        records=records,
        aggregates=aggregate_records(records, cfg.estimators),
        started=started,
        elapsed_seconds=time.perf_counter() - t0,
    )


# --------------------------------------------------------------------------
# emission


def resolve_output_dir(explicit: str | None = None) -> str:
    """Explicit argument, then the environment variable, then cwd."""
    if explicit:
        return explicit
    return os.environ.get(OUTPUT_DIR_ENV) or "."


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit_outputs(result: ExperimentResult, kind: str, output_dir: str | None = None):
    """Write run records (kind="csv") or per-estimator plot data
    (kind="plotdata"); returns the written paths.

    The runs file is one long-format row per (setup, n, rep, estimator);
    plot data is one file per estimator with (n, mean, stderr) columns.
    """
    if kind not in ("csv", "plotdata"):
        raise ValueError(f"unknown output kind {kind!r}")
    if not result.records:
        raise ValueError("result has no records to emit")
    out = resolve_output_dir(output_dir or result.config.output_dir)
    try:
        os.makedirs(out, exist_ok=True)
        if kind == "csv":
            path = os.path.join(out, f"runs_{result.config.setup}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(RUNS_HEADER)
                for rec in result.records:
                    writer.writerow(
                        [rec.setup, rec.n, rec.repetition, rec.estimator, _fmt(rec.projected_rmse)]
                    )
            return [path]
        paths = []
        for name in result.config.estimators:
            path = os.path.join(out, f"plot_{result.config.setup}_{name}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(PLOT_HEADER)
                for row in result.aggregates:
                    if row.estimator == name:
                        writer.writerow([row.n, _fmt(row.mean), _fmt(row.stderr)])
            paths.append(path)
        return paths
    except OSError as err:
        raise OutputError(f"cannot write outputs under {out!r}: {err}") from err


# --------------------------------------------------------------------------
# condition-checker families

CONDITION_GRID = tuple(range(100, 801, 100))


def _family_fixed_p_identity(n: int) -> EndogenousModel:
    # fixed dimension: the signal block cannot absorb a growing sample
    return EndogenousModel.build(np.ones(50), np.zeros(50), np.full(50, 0.5), noise_sd=1.0)


# the condition mode of each family is its models' split kind
CONDITION_FAMILIES = {
    "logpoly_orthogonal": functools.partial(setup_model, "i"),
    "expnoise_orthogonal": functools.partial(setup_model, "ii"),
    # steeper leakage than the simulation setups: n^-2 per top eigenvalue
    "logpoly_nonorthogonal": functools.partial(_custom_model, {**_PROFILES["iii"], "alpha": 2.0}),
    "fixed_p_identity": _family_fixed_p_identity,
}


def condition_family(name: str):
    """Model factory for a named family, accepting either a family name or
    a named setup id."""
    if name in CONDITION_FAMILIES:
        return CONDITION_FAMILIES[name]
    if name in SETUP_IDS:
        return functools.partial(setup_model, name)
    raise UnknownSetup(
        f"unknown family {name!r}; expected a setup id or one of {sorted(CONDITION_FAMILIES)}"
    )
