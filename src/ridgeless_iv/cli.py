"""Command-line front end.

Exit codes: 0 on success, 2 on validation failure, 3 on I/O failure.
"""

from __future__ import annotations

import functools
import os
from dataclasses import replace

import click
import numpy as np

from . import __version__
from .cgmt_lab import NoFeasiblePoint, slice_model, tail_dominance_check
from .harness import (
    CONDITION_GRID,
    OUTPUT_DIR_ENV,
    WINDOW_SETUPS,
    ExperimentConfig,
    condition_family,
    default_grid,
    emit_outputs,
    load_config,
    run_setup,
    setup_model,
)
from .metrics import (
    effective_ranks,
    evaluate_conditions,
    norm_upper_bound,
    rmse_upper_bound,
)


def guarded(fn):
    """Map validation errors, and a CGMT check whose draws are all
    infeasible, to exit 2 and I/O errors to exit 3."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except (ValueError, NoFeasiblePoint) as err:
            click.echo(f"error: {err}", err=True)
            raise SystemExit(2) from err
        except OSError as err:
            click.echo(f"error: {err}", err=True)
            raise SystemExit(3) from err

    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="ridgeless-iv")
def main():
    """Minimum-norm interpolation lab for endogenous high-dimensional regression."""


@main.command()
@click.option("--config", "config_path", required=True, metavar="FILE",
              help="JSON experiment config.")
@click.option("--seed", type=int, default=None, help="Override the config base seed.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Repetition thread count (never changes the output bytes).")
@click.option("--output-dir", default=None, metavar="DIR",
              help=f"Output directory; default is the config value, then ${OUTPUT_DIR_ENV}, then cwd.")
@guarded
def simulate(config_path, seed, workers, output_dir):
    """Run a configured experiment and write runs plus plot-data CSV files."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg = replace(cfg, base_seed=seed)
    result = run_setup(cfg, max_workers=workers)
    paths = emit_outputs(result, "csv", output_dir)
    paths += emit_outputs(result, "plotdata", output_dir)
    for row in result.aggregates:
        click.echo(
            f"setup {row.setup} n={row.n} {row.estimator}: mean={row.mean:.6g} "
            f"stderr={row.stderr:.3g} reps={row.repetitions}"
        )
    click.echo(f"elapsed {result.elapsed_seconds:.2f} s")
    for path in paths:
        click.echo(f"wrote {path}")


@main.command()
@click.option("--matrix", "source", required=True, metavar="CSV|SETUP@N",
              help="Path to a CSV matrix, or a named setup at a sample size, e.g. iii@200.")
@guarded
def ranks(source):
    """Effective ranks: trace over operator norm, and squared trace over
    squared Frobenius norm.  A CSV matrix must be symmetric PSD."""
    if os.path.exists(source):
        mat = np.loadtxt(source, delimiter=",", ndmin=2)
        r, big_r = effective_ranks(mat)
        click.echo(f"dim={mat.shape[0]} r={r:.6g} R={big_r:.6g}")
        return
    setup_id, sep, tail = source.partition("@")
    if not sep:
        raise ValueError(f"no such file, and {source!r} is not of the form SETUP@N")
    try:
        n = int(tail)
    except ValueError:
        raise ValueError(f"bad sample size {tail!r} in {source!r}") from None
    model = setup_model(setup_id, n)
    for label, eigs in (
        ("total", model.total_eigs),
        ("signal", model.signal_eigs),
        ("latent", model.endo_eigs),
    ):
        r, big_r = effective_ranks(eigs)
        click.echo(f"{label}: p={model.p} r={r:.6g} R={big_r:.6g}")


@main.command()
@click.option("--profile", "name", required=True,
              help="Condition family name or setup id.")
@click.option("--n-grid", "n_grid", type=int, multiple=True,
              help="Sample sizes (repeat the flag); default 100..800 step 100.")
@guarded
def conditions(name, n_grid):
    """Sufficient-condition sequences over a sample-size grid."""
    grid = tuple(n_grid) if n_grid else CONDITION_GRID
    report = evaluate_conditions(condition_family(name), grid)
    names = list(report.sequences)
    click.echo("n " + " ".join(names))
    for row in report.rows():
        click.echo(f"{row['n']} " + " ".join(f"{row[k]:.6g}" for k in names))
    for key, verdict in report.verdicts.items():
        trend = "decreasing" if verdict.decreasing else "not decreasing"
        click.echo(f"{key}: {trend}, final={verdict.final:.6g}")


@main.command()
@click.option("--setup", "setup_id", required=True, help="Named setup id.")
@click.option("--n", "n", type=int, required=True, help="Sample size.")
@click.option("--delta", type=float, required=True, help="Failure probability.")
@guarded
def bounds(setup_id, n, delta):
    """High-probability norm ceiling and risk ceiling for a named setup."""
    model = setup_model(setup_id, n)
    norm_report = norm_upper_bound(model, n, delta)
    risk_report = rmse_upper_bound(model, n, delta, B=norm_report.norm_bound)
    for label, report in (("norm", norm_report), ("risk", risk_report)):
        for key, value in report.rows()[0].items():
            click.echo(f"{label}.{key}={value:.6g}" if isinstance(value, float)
                       else f"{label}.{key}={value}")


@main.command("cgmt-check")
@click.option("--n", "n", type=int, required=True, help="Rows per instance.")
@click.option("--p", "p", type=int, required=True, help="Total dimension.")
@click.option("--reps", type=int, required=True, help="Monte Carlo repetitions.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--grid-size", type=int, default=20, show_default=True,
              help="Threshold grid points.")
@guarded
def cgmt_check(n, p, reps, seed, grid_size):
    """Tail-dominance check: the constrained-maximum tail must stay below
    twice the surrogate tail plus sampling slack at every threshold."""
    model = slice_model(p=p)
    report = tail_dominance_check(model, n, reps, seed=seed, grid_size=grid_size)
    for row in report.rows():
        click.echo(
            f"c={row['c']:.6g} primary={row['p_phi_gt']:.4f} "
            f"surrogate={row['p_phi_ao_ge']:.4f} "
            f"se=({row['stderr_po']:.4f},{row['stderr_ao']:.4f}) "
            f"violation={row['violation']}"
        )
    for key, value in report.flags.items():
        click.echo(f"flag {key}={value}")
    click.echo(f"violations: {report.violations} of {len(report.c_grid)} thresholds "
               f"({report.reps} reps)")


@main.command()
@click.option("--setup", "setup_id", required=True,
              type=click.Choice(WINDOW_SETUPS),
              help="Comparison setup with a designated endogenous window.")
@click.option("--n-grid", "n_grid", type=int, multiple=True,
              help="Sample sizes (repeat the flag); default is the desk grid.")
@click.option("--reps", type=int, default=30, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--full-grid", is_flag=True, help="Use the full-scale grid to n=1000.")
@click.option("--workers", type=int, default=1, show_default=True)
@guarded
def compare(setup_id, n_grid, reps, seed, full_grid, workers):
    """Mean projected RMSE of the interpolator against the two-stage lasso."""
    grid = tuple(n_grid) if n_grid else default_grid(setup_id, full_scale=full_grid)
    cfg = ExperimentConfig(
        setup=setup_id,
        n_grid=grid,
        repetitions=reps,
        base_seed=seed,
        estimators=("ridgeless", "lasso_iv"),
    )
    result = run_setup(cfg, max_workers=workers)
    all_below = True
    for n in cfg.n_grid:
        ours = result.mean_rmse(n, "ridgeless")
        base = result.mean_rmse(n, "lasso_iv")
        all_below &= ours < base
        click.echo(f"n={n}: ridgeless={ours:.6g} lasso_iv={base:.6g} "
                   f"ratio={ours / base:.3g}")
    click.echo(f"ridgeless below baseline at every n: {all_below}")


if __name__ == "__main__":
    main()
