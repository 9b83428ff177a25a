"""Named experiment setups, Monte Carlo orchestration, and file emission.

Nine named setups cover the simulation study: six projected-RMSE setups on
two spectrum families (orthogonal, non-orthogonal, and sparse-coefficient
variants) and three estimator-comparison setups where an explicit window of
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
    CovarianceModel,
    DimensionRule,
    EndogenousModel,
    ExpPlusNoiseSpectrum,
    ExplicitSpectrum,
    LogPolySpectrum,
    assemble_model,
    build_covariance,
    spectrum,
    truncation_level,
)
from .estimators import min_norm_interpolator, split_sample_lasso_iv
from .metrics import projected_rmse
from .sampling import sample_dataset


class UnknownSetup(ValueError):
    """Setup id is not one of the nine named setups."""


class InvalidConfig(ValueError):
    """Config field fails validation."""


class OutputError(OSError):
    """Output directory or file cannot be written."""


SETUP_IDS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")
ESTIMATOR_NAMES = ("ridgeless", "lasso_iv")

OUTPUT_DIR_ENV = "RIDGELESS_IV_OUTPUT_DIR"

RUNS_HEADER = ("setup", "n", "rep", "estimator", "projected_rmse")
PLOT_HEADER = ("n", "mean", "stderr")

# slowly decaying spectrum, p proportional to n
_LOG_POLY = LogPolySpectrum(
    scale=300.0, beta=2.0, log_factor=math.e / 2, p_rule=DimensionRule("multiple", 5.0)
)
# fast exponential decay plus an n-dependent floor, p = n^{3/2}
_EXP_NOISE = ExpPlusNoiseSpectrum(tau=2.0, scale=10.0)
# leakage exponent shared by every non-orthogonal setup
_LEAK_ALPHA = 1.01


# --------------------------------------------------------------------------
# coefficient and endogeneity rules


def _coef_dense(i: np.ndarray, scale: float = 20.0) -> np.ndarray:
    return scale / np.sqrt(i)


def _coef_sparse(i: np.ndarray, scale: float = 20.0) -> np.ndarray:
    # support: every fifth index starting at 1, capped at 100
    keep = (i <= 100) & ((i.astype(int) + 4) % 5 == 0)
    return np.where(keep, scale / np.sqrt(i), 0.0)


def _rho_inverse(i: np.ndarray, scale: float = 2.0) -> np.ndarray:
    return scale / i


def _rho_exp(i: np.ndarray, scale: float = 3.0, tau: float = 4.0) -> np.ndarray:
    return scale * np.exp(-i / tau)


def _spectrum_setup(profile, split_kind, alpha, coef_rule, rho_rule):
    """Factory for the projected-RMSE setups: whitened endogeneity through
    the pattern rotation, diagonal split.  Returns (build, split kind)."""

    def build(n: int):
        cov = build_covariance(
            profile, n, split_kind=split_kind, alpha=alpha, rotation="pattern"
        )
        i = np.arange(1, cov.p + 1, dtype=float)
        model = assemble_model(cov, coef_rule(i), whitened_cross=rho_rule(i))
        return model, None

    return build, split_kind


def _window_setup(head_coef: bool = False, shifted: bool = False):
    """Factory for the comparison setups: an n/10-wide window of coordinates
    carries covariate-error correlation 2/i, given directly in natural
    coordinates (no rotation).

    The shifted variant moves the first fifth of the window past the
    truncation level; the latent block is extended to cover it, since a
    factor model can only realize correlation inside the latent block's
    range.  head_coef truncates the coefficient vector at 0.8 n.  Returns
    (build, split kind).
    """

    def build(n: int):
        k = n // 10
        shift = k // 5 if shifted else 0
        if k < 1 or (shifted and shift < 1):
            raise InvalidConfig(f"endogenous window is empty at n={n}")
        p, eigs = spectrum(_LOG_POLY, n)
        kstar = truncation_level(eigs, n)
        if kstar is None or k > kstar:
            raise InvalidConfig(f"endogenous window exceeds the latent block at n={n}")
        block = kstar + shift
        scale = 1.0 - float(n) ** (-_LEAK_ALPHA)
        endo = np.zeros(p)
        endo[:block] = scale * eigs[:block]
        cov = CovarianceModel(
            p=p,
            endo_eigs=endo,
            signal_eigs=eigs - endo,
            trunc_level=kstar,
            split_kind="nonorthogonal",
            alpha=_LEAK_ALPHA,
        )
        i = np.arange(1, p + 1, dtype=float)
        theta = _coef_dense(i)
        if head_coef:
            theta = np.where(i <= 0.8 * n, theta, 0.0)
        window = np.zeros(p, dtype=bool)
        window[shift:k] = True
        window[kstar : kstar + shift] = True
        omega = np.where(window, 2.0 / i, 0.0)
        model = assemble_model(cov, theta, cross_cov=omega)
        return model, np.flatnonzero(window)

    return build, "nonorthogonal"


# setup id -> (model factory, split kind)
_SETUPS = {
    "i": _spectrum_setup(_LOG_POLY, "orthogonal", None, _coef_dense, _rho_inverse),
    "ii": _spectrum_setup(_EXP_NOISE, "orthogonal", None, _coef_dense, _rho_exp),
    "iii": _spectrum_setup(_LOG_POLY, "nonorthogonal", _LEAK_ALPHA, _coef_dense, _rho_inverse),
    "iv": _spectrum_setup(_EXP_NOISE, "nonorthogonal", _LEAK_ALPHA, _coef_dense, _rho_exp),
    "v": _spectrum_setup(_LOG_POLY, "orthogonal", None, _coef_sparse, _rho_inverse),
    "vi": _spectrum_setup(_LOG_POLY, "nonorthogonal", _LEAK_ALPHA, _coef_sparse, _rho_inverse),
    "vii": _window_setup(),
    "viii": _window_setup(head_coef=True),
    "ix": _window_setup(shifted=True),
}

# comparison setups declare which columns the two-stage baseline instruments
_WINDOW_SETUPS = ("vii", "viii", "ix")


def setup_model(setup_id: str, n: int) -> tuple[EndogenousModel, np.ndarray | None]:
    """Assembled model for a named setup, plus its endogenous column indices.

    The index array is None for setups without a designated endogenous
    window (the projected-RMSE setups spread endogeneity over the whole
    latent block through the rotation).
    """
    return _setup_entry(setup_id)[0](n)


def setup_mode(setup_id: str) -> str:
    """Condition-report mode matching the setup's split kind."""
    return _setup_entry(setup_id)[1]


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
    start = 100 if setup_id in _WINDOW_SETUPS else 200
    return tuple(range(start, 1001, 100))


# --------------------------------------------------------------------------
# custom profiles

_COEF_KINDS = ("inverse_sqrt", "sparse_inverse_sqrt")
_CROSS_KINDS = ("inverse", "exp_decay", "none")
# rule kinds whose only parameter is a scale, mapped to the named-setup rules
_SCALED_RULES = {
    "inverse_sqrt": _coef_dense,
    "sparse_inverse_sqrt": _coef_sparse,
    "inverse": _rho_inverse,
}
_PROFILE_KEYS = {
    "family",
    "scale",
    "beta",
    "log_factor",
    "tau",
    "noise",
    "values",
    "dim",
    "split",
    "alpha",
    "rotation",
    "coef",
    "cross",
    "noise_sd",
}


def _profile_spectrum(profile: dict):
    family = profile.get("family")
    dim = profile.get("dim")
    rule = DimensionRule(**dim) if dim is not None else None
    try:
        if family == "log_poly":
            kw = {"scale": profile["scale"], "beta": profile["beta"]}
            kw["log_factor"] = profile.get("log_factor", 1.0)
            if rule is not None:
                kw["p_rule"] = rule
            return LogPolySpectrum(**kw)
        if family == "exp_plus_noise":
            kw = {"tau": profile["tau"], "scale": profile["scale"]}
            kw["noise"] = profile.get("noise", "exp_sqrt_decay")
            if rule is not None:
                kw["p_rule"] = rule
            return ExpPlusNoiseSpectrum(**kw)
        if family == "explicit":
            return ExplicitSpectrum(values=tuple(profile["values"]))
    except KeyError as err:
        raise InvalidConfig(f"custom profile missing key {err}") from err
    raise InvalidConfig(f"unknown profile family {family!r}")


def _profile_vector(rule: dict | None, kind_set, default_kind, p: int):
    rule = dict(rule or {"kind": default_kind})
    kind = rule.pop("kind", default_kind)
    if kind not in kind_set:
        raise InvalidConfig(f"unknown rule kind {kind!r}; expected one of {kind_set}")
    scale = float(rule.pop("scale", 1.0))
    tau = float(rule.pop("tau", 4.0))
    if rule:
        raise InvalidConfig(f"unknown rule keys {sorted(rule)}")
    if kind == "none":
        return None
    i = np.arange(1, p + 1, dtype=float)
    if kind == "exp_decay":
        return _rho_exp(i, scale, tau)
    return _SCALED_RULES[kind](i, scale)


def _custom_model(profile: dict, n: int) -> tuple[EndogenousModel, None]:
    if not isinstance(profile, dict):
        raise InvalidConfig("custom setup needs a profile mapping")
    extra = set(profile) - _PROFILE_KEYS
    if extra:
        raise InvalidConfig(f"unknown profile keys {sorted(extra)}")
    prof = _profile_spectrum(profile)
    split = profile.get("split", "orthogonal")
    if split not in ("orthogonal", "nonorthogonal"):
        raise InvalidConfig(f"unknown split {split!r}")
    rotation = profile.get("rotation", "pattern")
    if rotation not in ("pattern", None):
        raise InvalidConfig(f"unknown rotation {rotation!r}")
    cov = build_covariance(
        prof, n, split_kind=split, alpha=profile.get("alpha"), rotation=rotation
    )
    theta = _profile_vector(profile.get("coef"), _COEF_KINDS, "inverse_sqrt", cov.p)
    rho = _profile_vector(profile.get("cross"), _CROSS_KINDS, "none", cov.p)
    noise_sd = profile.get("noise_sd")
    model = assemble_model(
        cov,
        theta,
        whitened_cross=rho,
        noise_sd=float(noise_sd) if noise_sd is not None else None,
    )
    return model, None


# --------------------------------------------------------------------------
# config


def _is_number(value) -> bool:
    # bool is an int subclass, but true is no sample size or seed
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(name: str, value) -> int:
    """value as an int; a bool, a string or a float with a fractional part
    is an InvalidConfig, not silently truncated."""
    if not _is_number(value) or not (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    ):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        if self.setup == "custom" and self.profile is None:
            raise InvalidConfig("custom setup needs a profile")
        if self.setup != "custom" and self.profile is not None:
            raise InvalidConfig("profile applies only to setup 'custom'")
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
                raise InvalidConfig(f"student_t instrument needs dof > 2, got {self.dof!r}")
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
        if "lasso_iv" in est and self.setup not in _WINDOW_SETUPS:
            raise InvalidConfig(
                "lasso_iv needs a setup with a designated endogenous window (vii, viii, ix)"
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


def _run_repetition(cfg: ExperimentConfig, n: int, model, endo_idx, rep: int):
    seed = repetition_seed(cfg.base_seed, n, rep)
    data = sample_dataset(model, n, seed, cfg.instrument_dist, cfg.dof)
    out = []
    for name in cfg.estimators:
        if name == "ridgeless":
            fit = min_norm_interpolator(data.X, data.Y)
        else:
            fit = split_sample_lasso_iv(data, endo_idx)
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

    A repetition allocates and frees a few MB of arrays (X, W1, the Gram).
    Left adaptive, the thresholds follow the largest block freed so far, so
    the heap is trimmed (or the block unmapped) after most repetitions and
    the next one faults the same pages in again: about 7,500 page faults
    per 16-repetition setup ii sweep over n = 100..400, a quarter of its
    CPU time in the kernel; with two workers each trim also has to flush
    the TLB of the CPU running the other.  Pinned, freed blocks below
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
        model, endo_idx = _model_for(cfg, n)
        tasks.extend((n, model, endo_idx, rep) for rep in range(cfg.repetitions))

    def run_one(task):
        n, model, endo_idx, rep = task
        try:
            return _run_repetition(cfg, n, model, endo_idx, rep)
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


def _named_family(setup_id: str):
    return (lambda n: setup_model(setup_id, n)[0]), setup_mode(setup_id)


def _family_logpoly_nonorthogonal(n: int) -> EndogenousModel:
    # steeper leakage than the simulation setups: n^-2 per top eigenvalue
    cov = build_covariance(_LOG_POLY, n, split_kind="nonorthogonal", alpha=2.0)
    i = np.arange(1, cov.p + 1, dtype=float)
    return assemble_model(cov, _coef_dense(i), whitened_cross=_rho_inverse(i))


def _family_fixed_p_identity(n: int) -> EndogenousModel:
    # fixed dimension: the signal block cannot absorb a growing sample
    cov = CovarianceModel(
        p=50,
        endo_eigs=np.zeros(50),
        signal_eigs=np.ones(50),
        trunc_level=0,
        split_kind="orthogonal",
    )
    return assemble_model(cov, np.full(50, 0.5), noise_sd=1.0)


CONDITION_FAMILIES = {
    "logpoly_orthogonal": _named_family("i"),
    "expnoise_orthogonal": _named_family("ii"),
    "logpoly_nonorthogonal": (_family_logpoly_nonorthogonal, "nonorthogonal"),
    "fixed_p_identity": (_family_fixed_p_identity, "exogenous"),
}


def condition_family(name: str):
    """(model factory, condition mode) for a named family, accepting either
    a family name or a named setup id."""
    if name in CONDITION_FAMILIES:
        return CONDITION_FAMILIES[name]
    if name in SETUP_IDS:
        return _named_family(name)
    raise UnknownSetup(
        f"unknown family {name!r}; expected a setup id or one of {sorted(CONDITION_FAMILIES)}"
    )
