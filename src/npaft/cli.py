"""Command-line surface: fit, summarize, survcurve, pdp, simulate, crossval,
calibrate.

Configuration comes from YAML files (flags override config); every command
writes only inside its output directory and leaves exactly one manifest
there (command, config echo, seed, input digests, version, timestamps).
Exit codes: 0 success, 2 input error, 3 numeric failure, 4 config error.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import functools
import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__
from .bench import ResidualFamily, SimScenario, cross_validation_score, \
    format_benchmark_table, run_benchmark
from .data import CovariateSchema, load_dataset
from .engine import MOVE_ORDER, FitConfig, PosteriorDraws, fit
from .errors import ConfigError, DataError, NumericError
from .forest import ForestPrior
from .hte import (differential_effect, effect_distribution, ite_draws,
                  partial_dependence, proportion_benefiting, survival_curve)
from .mixture import CdpHyper, calibrate_scale

EXIT_INPUT, EXIT_NUMERIC, EXIT_CONFIG = 2, 3, 4

DRAWS_FILE = "draws.npz"
FORESTS_FILE = "forests.npz"


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FileNotFoundError as exc:
            _fail(EXIT_INPUT, f"input not found: {exc}")
        except DataError as exc:
            _fail(EXIT_INPUT, f"[data] {exc}")
        except ConfigError as exc:
            _fail(EXIT_CONFIG, f"[config] {exc}")
        except NumericError as exc:
            _fail(EXIT_NUMERIC, f"[numeric] {exc}")
    return wrapper


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_yaml(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise DataError(f"config not found: {p}")
    with open(p, "r", encoding="utf-8") as fh:
        return _mapping(yaml.safe_load(fh), f"config {p}")


class _Manifest:
    def __init__(self, command: str, out_dir: Path, config_echo: dict,
                 seed, inputs: dict[str, Path]):
        self.doc = {
            "command": command,
            "config": config_echo,
            "seed": seed,
            "input_digest": {name: _sha256(Path(p)) for name, p in inputs.items()},
            "tool_version": __version__,
            "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        self.out_dir = out_dir

    def finish(self):
        self.doc["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with open(self.out_dir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# dataclass fields set from the data or by calibration, never from YAML
_NOT_FROM_YAML = frozenset({"sigma_tau_sq", "zeta"})


def _yaml_keys(cls) -> set[str]:
    """The keys a YAML mapping may give for the dataclass ``cls``."""
    return {f.name for f in dataclasses.fields(cls)} - _NOT_FROM_YAML


def _mapping(doc, what: str) -> dict:
    """A YAML level as a mapping; a level left empty (null) reads as ``{}``."""
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a mapping, got {type(doc).__name__}")
    return doc


def _reject_unknown(doc: dict, allowed, what: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _from_yaml(cls, doc, what: str, **resolved):
    """Build ``cls`` from a YAML mapping, rejecting keys that are not its
    settable fields; ``resolved`` overrides the mapping's values."""
    doc = _mapping(doc, what)
    _reject_unknown(doc, _yaml_keys(cls), what)
    try:
        return cls(**{**doc, **resolved})
    except TypeError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _seed(seed: int | None, doc: dict) -> int:
    """The flag's seed, else the config's."""
    seed = doc.get("seed") if seed is None else seed
    if seed is None:
        raise ConfigError("a seed is required (flag --seed or config key 'seed')")
    return int(seed)


def _fit_config_from(doc, seed: int | None, keep_forests: bool | None) -> FitConfig:
    doc = _mapping(doc, "fit config")
    resolved = {"seed": _seed(seed, doc),
                "hyper": _from_yaml(CdpHyper, doc.get("hyper"), "hyper"),
                "prior": _from_yaml(ForestPrior, doc.get("prior"), "prior")}
    if keep_forests is not None:
        resolved["keep_forests"] = keep_forests
    return _from_yaml(FitConfig, doc, "fit config", **resolved)


@click.group()
@click.version_option(__version__)
def main():
    """Nonparametric survival-time treatment-effect modeling."""


@main.command("fit")
@click.argument("data_path", type=click.Path())
@click.argument("schema_path", type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML fit configuration.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--keep-forests/--no-keep-forests", default=None,
              help="Retain per-draw forest snapshots for prediction.")
@click.option("--delimiter", default=",", show_default=True)
@_guarded
def cmd_fit(data_path, schema_path, config_path, out_path, seed, keep_forests, delimiter):
    """Fit the model to a survival dataset and write posterior draws."""
    doc = _load_yaml(config_path)
    config = _fit_config_from(doc, seed, keep_forests)
    schema = CovariateSchema.from_yaml(schema_path)
    data = load_dataset(data_path, schema, delimiter)
    out = _out_dir(out_path)
    manifest = _Manifest("fit", out, config.to_jsonable(), config.seed,
                         {"data": data_path, "schema": schema_path})
    draws = fit(data, config)
    draws.save(out / DRAWS_FILE)
    if config.keep_forests:
        draws.save_forests(out / FORESTS_FILE)
    header = ["draw", "chain", "iteration", "sigma", "M", "occupied", "max_index"]
    header += [f"proposed_{m}" for m in MOVE_ORDER] + [f"accepted_{m}" for m in MOVE_ORDER]
    rows = []
    for d in range(draws.n_draws):
        rows.append([d, int(draws.chain_id[d]), int(draws.iteration[d]),
                     float(draws.sigma[d]), float(draws.M[d]),
                     int(draws.occupied[d]), int(draws.max_index[d])]
                    + draws.acc_proposed[d].tolist() + draws.acc_accepted[d].tolist())
    _write_csv(out / "diagnostics.csv", header, rows)
    manifest.finish()
    click.echo(f"wrote {draws.n_draws} draws to {out / DRAWS_FILE}")


def _load_draws(draws_dir: str, need_forests: bool = False) -> PosteriorDraws:
    d = Path(draws_dir)
    f = d / DRAWS_FILE
    if not f.exists():
        raise DataError(f"no draw file at {f}")
    draws = PosteriorDraws.load(f)
    forests = d / FORESTS_FILE
    if forests.exists():
        draws.load_forests(forests)
    elif need_forests:
        raise DataError("forest checkpoints absent; rerun fit with --keep-forests")
    return draws


def _check_summary_identities(dte, benefit) -> None:
    # estimand identities are enforced on every summarize run
    if benefit.q_mean != benefit.p_hat_mean:
        raise NumericError("identity violated: mean of Q != mean per-patient "
                           "benefit probability")
    if not np.array_equal(dte.d_star, np.abs(2.0 * dte.d - 1.0)):
        raise NumericError("identity violated: D* != |2D - 1|")


@main.command("summarize")
@click.argument("draws_dir", type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--scale", type=click.Choice(["log", "ratio"]), default="log",
              show_default=True)
@click.option("--grid-points", type=int, default=101, show_default=True)
@click.option("--bandwidth", type=float, default=None,
              help="Kernel bandwidth for the effect density (default: data-driven rule).")
@click.option("--thresholds", default="0,0.1,0.25", show_default=True,
              help="Comma-separated benefit thresholds.")
@click.option("--level", type=float, default=0.95, show_default=True)
@_guarded
def cmd_summarize(draws_dir, out_path, scale, grid_points, bandwidth, thresholds, level):
    """Posterior treatment-effect summaries and plot-ready CSV files."""
    eps = tuple(_parse_values(thresholds, "--thresholds"))
    if grid_points < 1:
        raise ConfigError(f"--grid-points must be >= 1, got {grid_points}")
    draws = _load_draws(draws_dir)
    out = _out_dir(out_path)
    manifest = _Manifest("summarize", out,
                         {"scale": scale, "grid_points": grid_points,
                          "bandwidth": bandwidth, "thresholds": thresholds,
                          "level": level},
                         None, {"draws": Path(draws_dir) / DRAWS_FILE})
    ite = ite_draws(draws, scale)
    dte = differential_effect(ite)
    benefit = proportion_benefiting(ite, eps, level)
    _check_summary_identities(dte, benefit)

    lo, hi = float(ite.values.min()), float(ite.values.max())
    pad = 0.05 * (hi - lo) if hi > lo else max(abs(lo), 1.0) * 0.05
    grid = np.linspace(lo - pad, hi + pad, grid_points)
    dist = effect_distribution(ite, grid, bandwidth, level)

    point = ite.point_estimates()
    ci_lo, ci_hi = ite.intervals(level)
    _write_csv(out / "ite.csv",
               ["patient", "estimate", "lower", "upper", "d", "d_star", "evidence"],
               [[i, float(point[i]), float(ci_lo[i]), float(ci_hi[i]),
                 float(dte.d[i]), float(dte.d_star[i]), str(dte.evidence[i])]
                for i in range(point.shape[0])])
    _write_csv(out / "effect_cdf.csv", ["t", "cdf", "lower", "upper"],
               [[float(t), float(c), float(l_), float(u_)] for t, c, l_, u_ in
                zip(dist.grid, dist.cdf, dist.cdf_lower, dist.cdf_upper)])
    _write_csv(out / "effect_density.csv", ["t", "density"],
               [[float(t), float(h)] for t, h in zip(dist.grid, dist.density)])

    summary = {
        "schema_version": 1,
        "n_patients": int(ite.n_patients),
        "n_draws": int(ite.n_draws),
        "scale": scale,
        "headline": {"pct_strong": dte.pct_strong, "pct_mild": dte.pct_mild},
        "benefit": {
            "q_mean": benefit.q_mean,
            "q_lower": benefit.q_lower,
            "q_upper": benefit.q_upper,
            "q_eps": {str(k): v for k, v in benefit.q_eps.items()},
            "bands": [[label, pct] for label, pct in benefit.bands],
        },
        "effect_distribution": {
            "bandwidth": dist.bandwidth,
            "grid_min": float(grid[0]),
            "grid_max": float(grid[-1]),
            "grid_points": int(grid.shape[0]),
        },
        "files": {"ite": "ite.csv", "effect_cdf": "effect_cdf.csv",
                  "effect_density": "effect_density.csv"},
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.finish()
    click.echo(f"strong evidence: {dte.pct_strong:.2f}%  mild: {dte.pct_mild:.2f}%  "
               f"benefiting: {100 * benefit.q_mean:.1f}%")


def _number(tok: str, kind, what: str):
    try:
        value = kind(tok)
    except ValueError:
        raise ConfigError(f"{what}: {tok.strip()!r} is not a valid {kind.__name__}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{what}: {tok.strip()!r} is not a finite number")
    return value


def _parse_values(spec: str, what: str) -> list[float]:
    """Comma-separated numbers, at least one."""
    values = [_number(tok, float, what) for tok in spec.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"{what} {spec!r} lists no values")
    return values


def _parse_grid(spec: str, what: str) -> np.ndarray:
    """``start:stop:count`` or comma-separated values."""
    if ":" not in spec:
        return np.array(_parse_values(spec, what))
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{what} {spec!r} must be start:stop:count or CSV values")
    count = _number(parts[2], int, what)
    if count < 1:
        raise ConfigError(f"{what} {spec!r}: count must be >= 1, got {count}")
    return np.linspace(_number(parts[0], float, what), _number(parts[1], float, what), count)


@main.command("survcurve")
@click.argument("draws_dir", type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--arm", type=click.IntRange(0, 1), required=True)
@click.option("--patient", type=int, required=True,
              help="Training-row index (0-based).")
@click.option("--times", required=True,
              help="Evaluation times: start:stop:count or comma-separated values.")
@click.option("--level", type=float, default=0.95, show_default=True)
@_guarded
def cmd_survcurve(draws_dir, out_path, arm, patient, times, level):
    """Posterior survival curve for one patient and arm."""
    draws = _load_draws(draws_dir)
    grid = _parse_grid(times, "--times")
    curve = survival_curve(draws, arm, grid, patient=patient, level=level)
    out = _out_dir(out_path)
    manifest = _Manifest("survcurve", out,
                         {"arm": arm, "patient": patient, "times": times, "level": level},
                         None, {"draws": Path(draws_dir) / DRAWS_FILE})
    _write_csv(out / "survival.csv", ["time", "survival", "lower", "upper"],
               [[float(t), float(s), float(l_), float(u_)] for t, s, l_, u_ in
                zip(curve.times, curve.mean, curve.lower, curve.upper)])
    manifest.finish()
    click.echo(f"wrote survival curve ({grid.shape[0]} times) to {out / 'survival.csv'}")


@main.command("pdp")
@click.argument("draws_dir", type=click.Path())
@click.argument("data_path", type=click.Path())
@click.argument("schema_path", type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--covariate", required=True, help="Encoded covariate name.")
@click.option("--grid", "grid_spec", default=None,
              help="start:stop:count or CSV values (default: observed quantiles).")
@click.option("--grid-points", type=int, default=20, show_default=True)
@click.option("--draw-stride", type=int, default=10, show_default=True)
@click.option("--level", type=float, default=0.95, show_default=True)
@click.option("--delimiter", default=",", show_default=True)
@_guarded
def cmd_pdp(draws_dir, data_path, schema_path, out_path, covariate, grid_spec,
            grid_points, draw_stride, level, delimiter):
    """Partial dependence of the treatment effect on one covariate."""
    if grid_points < 1:
        raise ConfigError(f"--grid-points must be >= 1, got {grid_points}")
    draws = _load_draws(draws_dir, need_forests=True)
    schema = CovariateSchema.from_yaml(schema_path)
    data = load_dataset(data_path, schema, delimiter)
    names = schema.encoded_names
    if covariate not in names:
        raise DataError(f"unknown covariate {covariate!r}; encoded columns: {names}")
    column = names.index(covariate)
    if grid_spec is not None:
        grid = _parse_grid(grid_spec, "--grid")
    else:
        qs = np.linspace(0.05, 0.95, grid_points)
        grid = np.unique(np.quantile(data.X[:, column], qs))
    pd_ = partial_dependence(draws, data, column, grid, draw_stride, level)
    out = _out_dir(out_path)
    manifest = _Manifest("pdp", out,
                         {"covariate": covariate, "grid": grid.tolist(),
                          "draw_stride": draw_stride, "level": level},
                         None, {"draws": Path(draws_dir) / DRAWS_FILE,
                                "data": data_path, "schema": schema_path})
    _write_csv(out / "partial_dependence.csv",
               ["z", "effect", "lower", "upper", "extrapolated"],
               [[float(z), float(m), float(l_), float(u_), int(e)] for z, m, l_, u_, e in
                zip(pd_.grid, pd_.mean, pd_.lower, pd_.upper, pd_.extrapolated)])
    manifest.finish()
    click.echo(f"wrote partial dependence for {covariate!r}")


def _scenario_from(doc) -> SimScenario:
    doc = _mapping(doc, "scenario")
    resolved = {k: tuple(doc[k]) for k in ("coefs", "interaction_coefs")
                if doc.get(k) is not None}
    if "n" in doc:
        resolved["n"] = int(doc["n"])
    resolved["family"] = _from_yaml(ResidualFamily, doc.get("family", {"tag": "normal"}),
                                    "family")
    return _from_yaml(SimScenario, doc, "scenario", **resolved)


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@_guarded
def cmd_simulate(config_path, out_path, seed):
    """Run generative benchmarks and write per-replication metrics.
    Replications run side by side in forked workers, one per usable CPU."""
    doc = _load_yaml(config_path)
    seed = _seed(seed, doc)
    _reject_unknown(doc, ("seed", "scenarios", "reps", "fit"), "simulate config")
    scenarios = [_scenario_from(s) for s in doc.get("scenarios") or []]
    if not scenarios:
        raise ConfigError("config declares no scenarios")
    reps = int(doc.get("reps", 1))
    fit_doc = _mapping(doc.get("fit"), "fit")
    fit_config = _fit_config_from(fit_doc, seed=0, keep_forests=False)
    out = _out_dir(out_path)
    manifest = _Manifest("simulate", out,
                         {"scenarios": doc.get("scenarios"), "reps": reps,
                          "fit": fit_doc},
                         seed, {"config": config_path})
    rows = run_benchmark(scenarios, reps, fit_config, seed)
    header = ["scenario", "kind", "n", "censoring", "family", "rep", "rmse",
              "mcprop", "coverage", "pct_strong", "pct_mild", "censored_fraction"]
    _write_csv(out / "benchmark.csv", header,
               [[row[h] for h in header] for row in rows])
    with open(out / "table.txt", "w", encoding="utf-8") as fh:
        fh.write(format_benchmark_table(rows))
    manifest.finish()
    click.echo(f"wrote {len(rows)} replication rows")


_CV_AXES = ("q", "k", "n_trees")


def _cv_axes(doc, what: str) -> dict:
    """A crossval setting or grid: a mapping over the axes it can vary."""
    doc = _mapping(doc, what)
    _reject_unknown(doc, _CV_AXES, what)
    return doc


@main.command("crossval")
@click.argument("data_path", type=click.Path())
@click.argument("schema_path", type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--folds", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--delimiter", default=",", show_default=True)
@_guarded
def cmd_crossval(data_path, schema_path, config_path, out_path, folds, seed, delimiter):
    """Censoring-weighted cross-validation over hyperparameter settings."""
    doc = _load_yaml(config_path)
    seed = _seed(seed, doc)
    _reject_unknown(doc, ("seed", "fit", "grid", "settings"), "crossval config")
    if doc.get("grid") is not None and doc.get("settings") is not None:
        raise ConfigError("give crossval either 'grid' or 'settings', not both")
    base = _mapping(doc.get("fit"), "fit")
    # a setting or grid axis that is absent keeps the fit block's value
    base_config = _fit_config_from(base, seed, keep_forests=True)
    hyper, prior = base_config.hyper, base_config.prior
    settings = doc.get("settings")
    if settings is not None:
        if not isinstance(settings, list):
            raise ConfigError("crossval settings must be a list of mappings")
        settings = [_cv_axes(s, "setting") for s in settings]
    else:
        grid_doc = _cv_axes(doc.get("grid"), "grid")
        scalar = sorted(k for k, v in grid_doc.items() if not isinstance(v, list))
        if scalar:
            raise ConfigError(f"crossval grid axes must be lists: {scalar}")
        settings = [{"q": q, "k": k, "n_trees": J}
                    for q in grid_doc.get("q", [hyper.q])
                    for k in grid_doc.get("k", [prior.k])
                    for J in grid_doc.get("n_trees", [prior.n_trees])]
    schema = CovariateSchema.from_yaml(schema_path)
    data = load_dataset(data_path, schema, delimiter)
    out = _out_dir(out_path)
    manifest = _Manifest("crossval", out,
                         {"folds": folds, "settings": settings, "fit": base},
                         seed, {"data": data_path, "schema": schema_path})
    rows = []
    for s_i, setting in enumerate(settings):
        config = dataclasses.replace(
            base_config, seed=seed + s_i,
            hyper=dataclasses.replace(hyper, q=float(setting.get("q", hyper.q))),
            prior=dataclasses.replace(prior, k=float(setting.get("k", prior.k)),
                                      n_trees=int(setting.get("n_trees", prior.n_trees))))
        used = [config.hyper.q, config.prior.k, config.prior.n_trees]
        # identical fold split for every setting so scores are comparable
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        fold_scores, mean_score = cross_validation_score(data, folds, config, rng)
        rows += [[s_i, *used, f_i, score] for f_i, score in enumerate(fold_scores)]
        rows.append([s_i, *used, "mean", mean_score])
    _write_csv(out / "cv.csv", ["setting", "q", "k", "n_trees", "fold", "cv_abs"], rows)
    manifest.finish()
    click.echo(f"wrote cross-validation scores for {len(settings)} settings")


@main.command("calibrate")
@click.option("--sigma-w", type=float, required=True,
              help="Rough residual scale estimate.")
@click.option("--q", type=float, default=CdpHyper.q, show_default=True)
@click.option("--nu", type=float, default=CdpHyper.nu, show_default=True)
@click.option("--psi1", type=float, default=CdpHyper.psi1, show_default=True)
@click.option("--psi2", type=float, default=CdpHyper.psi2, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_guarded
def cmd_calibrate(sigma_w, q, nu, psi1, psi2, out_path):
    """Solve for the base-measure variance of the residual mixture."""
    hyper = CdpHyper(psi1=psi1, psi2=psi2, nu=nu, q=q)
    st2 = calibrate_scale(sigma_w, hyper)
    click.echo(f"sigma_tau_sq = {st2!r}")
    if out_path:
        out = _out_dir(out_path)
        manifest = _Manifest("calibrate", out,
                             {"sigma_w": sigma_w, "q": q, "nu": nu, "psi1": psi1,
                              "psi2": psi2},
                             None, {})
        with open(out / "calibration.json", "w", encoding="utf-8") as fh:
            json.dump({"sigma_tau_sq": st2, "sigma_w": sigma_w, "q": q}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        manifest.finish()


if __name__ == "__main__":
    main()
