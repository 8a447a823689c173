import csv
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from npaft import CdpHyper, FitConfig, ForestPrior, ResidualFamily, SimScenario, fit
from npaft import cli
from npaft.cli import DRAWS_FILE, EXIT_CONFIG, EXIT_INPUT, EXIT_NUMERIC, FORESTS_FILE, main
from conftest import make_dataset
from test_engine import small_config

TINY_FIT = {"iterations": 30, "burn_in": 10, "calibration_draws": 5000,
            "prior": {"n_trees": 5}, "hyper": {"H": 10}}


@pytest.fixture
def run_dir(small_data, tmp_path):
    """A fit's output directory, as ``npaft fit --keep-forests`` leaves it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        draws = fit(small_data, small_config(keep_forests=True))
    draws.save(tmp_path / DRAWS_FILE)
    draws.save_forests(tmp_path / FORESTS_FILE)
    return tmp_path


def write_trial(directory, data):
    """``trial.csv`` and ``schema.yaml`` for ``data``, as ``npaft fit`` reads them."""
    names = [f"x{k}" for k in range(data.X.shape[1])]
    with open(directory / "trial.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "status", "trt"] + names)
        for i in range(data.n):
            writer.writerow([repr(float(data.y[i])), int(data.delta[i]), int(data.a[i])]
                            + [repr(float(v)) for v in data.X[i]])
    (directory / "schema.yaml").write_text(yaml.safe_dump({n: "continuous" for n in names}))
    return str(directory / "trial.csv"), str(directory / "schema.yaml")


@pytest.fixture
def trial(tmp_path):
    return write_trial(tmp_path, make_dataset(n=40))


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def invoke(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return CliRunner().invoke(main, [str(a) for a in args])


def test_pdp_with_corrupt_forests_file_exits_with_input_error(run_dir):
    forests = run_dir / FORESTS_FILE
    forests.write_bytes(forests.read_bytes()[:1000])
    result = CliRunner().invoke(main, ["pdp", str(run_dir), "data.csv", "schema.yaml",
                                       "--out", str(run_dir / "pdp"), "--covariate", "x0"])
    assert result.exit_code == EXIT_INPUT == 2
    assert FORESTS_FILE in result.output


def test_summarize_with_truncated_draws_file_exits_with_input_error(run_dir):
    draws = run_dir / DRAWS_FILE
    data = draws.read_bytes()
    draws.write_bytes(data[:len(data) // 2])
    result = CliRunner().invoke(main, ["summarize", str(run_dir),
                                       "--out", str(run_dir / "summary")])
    assert result.exit_code == EXIT_INPUT == 2
    assert DRAWS_FILE in result.output


def test_fit_reruns_are_byte_identical(trial, tmp_path):
    config = write_yaml(tmp_path / "fit.yaml", TINY_FIT)
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        result = invoke("fit", *trial, "--config", config, "--out", out, "--seed", 3)
        assert result.exit_code == 0, result.output
    for name in (DRAWS_FILE, "diagnostics.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    with open(outs[0] / "diagnostics.csv") as fh:
        assert sum(1 for _ in fh) == 1 + 20


# The keys each YAML level accepted when they were listed by hand in cli.py.
ACCEPTED_KEYS = [
    (FitConfig, {"iterations", "burn_in", "thin", "chains", "seed", "keep_forests",
                 "max_split_points", "calibration_draws", "memory_budget_mb",
                 "hyper", "prior"}),
    (CdpHyper, {"psi1", "psi2", "nu", "q", "H"}),
    (ForestPrior, {"alpha", "beta", "n_trees", "k"}),
    (SimScenario, {"kind", "n", "family", "censoring", "name", "coefs",
                   "interaction_coefs", "weibull_shape", "weibull_scale", "p"}),
    (ResidualFamily, {"tag", "variance", "gamma_shape", "t_df", "t_tail_weight"}),
]


@pytest.mark.parametrize("cls, keys", ACCEPTED_KEYS, ids=lambda v: getattr(v, "__name__", ""))
def test_yaml_accepts_exactly_the_settable_fields(cls, keys):
    assert cli._yaml_keys(cls) == keys


def config_error(tmp_path, trial, level: str, key: str):
    """Run the command that reads ``level`` with ``key`` added there."""
    fit_doc = {"seed": 1, "hyper": {}, "prior": {}}
    scenario = {"kind": "aft-linear-null", "n": 20, "family": {"tag": "normal"}}
    if level in ("fit", "hyper", "prior"):
        (fit_doc if level == "fit" else fit_doc[level])[key] = 1
        return invoke("fit", *trial, "--config", write_yaml(tmp_path / "c.yaml", fit_doc),
                      "--out", tmp_path / "out")
    (scenario if level == "scenario" else scenario["family"])[key] = 1
    return invoke("simulate", "--config",
                  write_yaml(tmp_path / "c.yaml", {"seed": 1, "scenarios": [scenario]}),
                  "--out", tmp_path / "out")


@pytest.mark.parametrize("level", ["fit", "hyper", "prior", "scenario", "family"])
def test_unknown_key_exits_with_config_error(tmp_path, trial, level):
    result = config_error(tmp_path, trial, level, "no_such_key")
    assert result.exit_code == EXIT_CONFIG == 4, result.output
    assert f"unknown {level}" in result.output and "no_such_key" in result.output


@pytest.mark.parametrize("level, key", [("hyper", "sigma_tau_sq"), ("prior", "zeta"),
                                        ("prior", "grids"), ("fit", "spill_dir")])
def test_fields_set_from_the_data_are_not_config_keys(tmp_path, trial, level, key):
    result = config_error(tmp_path, trial, level, key)
    assert result.exit_code == EXIT_CONFIG, result.output
    assert key in result.output


@pytest.mark.parametrize("command", ["fit", "simulate", "crossval"])
def test_missing_seed_exits_with_config_error(tmp_path, trial, command):
    doc = {"scenarios": [{"kind": "aft-linear-null", "n": 20}]} if command == "simulate" \
        else {}
    args = [command, *(trial if command != "simulate" else ()),
            "--config", write_yaml(tmp_path / "c.yaml", doc), "--out", tmp_path / "out"]
    result = invoke(*args)
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "a seed is required" in result.output


def test_all_censored_data_exits_with_numeric_error(tmp_path):
    data = make_dataset(n=20)
    censored = type(data).from_arrays(data.y, np.zeros(data.n, dtype=int), data.a, data.X)
    trial = write_trial(tmp_path, censored)
    result = invoke("fit", *trial, "--config", write_yaml(tmp_path / "fit.yaml", TINY_FIT),
                    "--out", tmp_path / "out", "--seed", 1)
    assert result.exit_code == EXIT_NUMERIC == 3, result.output
    assert "likelihood unbounded" in result.output


@pytest.mark.parametrize("cv_doc, expected", [
    # no grid: the fit block's tree count, not the class default of 200
    ({"fit": {"prior": {"n_trees": 50}}}, [(0.5, 2.0, 50)]),
    # a grid with only q keeps the fit block's k and n_trees
    ({"fit": {"prior": {"n_trees": 50, "k": 3.0}}, "grid": {"q": [0.3, 0.7]}},
     [(0.3, 3.0, 50), (0.7, 3.0, 50)]),
    # a setting without k keeps the fit block's k, and cv.csv reports it
    ({"fit": {"prior": {"k": 1.5}}, "settings": [{"q": 0.4, "n_trees": 7}]},
     [(0.4, 1.5, 7)]),
])
def test_crossval_axes_absent_from_the_grid_come_from_the_fit_block(
        tmp_path, trial, monkeypatch, cv_doc, expected):
    seen = []

    def recording_fit(train, config):
        seen.append((config.hyper.q, config.prior.k, config.prior.n_trees))

    monkeypatch.setattr(cli, "fit", recording_fit)
    monkeypatch.setattr(cli, "predict_m", lambda draws, arm, X: np.zeros((1, len(X))))
    out = tmp_path / "cv"
    result = invoke("crossval", *trial, "--config", write_yaml(tmp_path / "cv.yaml", cv_doc),
                    "--out", out, "--folds", 2, "--seed", 5)
    assert result.exit_code == 0, result.output
    assert seen == [s for s in expected for _ in range(2)]
    with open(out / "cv.csv") as fh:
        means = [r for r in csv.DictReader(fh) if r["fold"] == "mean"]
    assert [(float(r["q"]), float(r["k"]), int(r["n_trees"])) for r in means] == expected
