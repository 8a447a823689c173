import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import npaft
from npaft import CdpHyper, FitConfig, ForestPrior, ResidualFamily, SimScenario, fit
from npaft import bench, cli
from npaft.cli import DRAWS_FILE, EXIT_CONFIG, EXIT_INPUT, FORESTS_FILE, main
from conftest import make_dataset
from test_engine import small_config

TINY_FIT = {"iterations": 30, "burn_in": 10,
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


def test_pdp_with_forests_of_another_fit_exits_with_input_error(run_dir, small_data):
    # run_dir holds an 80-draw fit; put a 10-draw fit's forests beside it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        short = fit(small_data, small_config(iterations=50, keep_forests=True))
    short.save_forests(run_dir / FORESTS_FILE)
    trial = write_trial(run_dir, small_data)
    result = invoke("pdp", run_dir, *trial, "--covariate", "x0", "--out", run_dir / "pdp")
    assert result.exit_code == EXIT_INPUT == 2, result.output
    assert "forests of 10 draws, but there are 80 draws" in result.output
    assert not (run_dir / "pdp").exists()


def test_pdp_with_forests_of_another_seed_exits_with_input_error(run_dir, small_data):
    # the same config with another seed: as many draws, other forests
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        other = fit(small_data, small_config(seed=43, keep_forests=True))
    other.save_forests(run_dir / FORESTS_FILE)
    trial = write_trial(run_dir, small_data)
    result = invoke("pdp", run_dir, *trial, "--covariate", "x0", "--out", run_dir / "pdp")
    assert result.exit_code == EXIT_INPUT == 2, result.output
    assert "forests of another fit than these draws" in result.output
    assert not (run_dir / "pdp").exists()


# the commands that read only the draws, and their arguments after the run directory
DRAWS_ONLY = {"summarize": [], "survcurve": ["--arm", 1, "--patient", 3, "--times", "0.5:20:10"]}


@pytest.mark.parametrize("command", list(DRAWS_ONLY))
def test_commands_that_read_only_the_draws_ignore_the_forests_file(run_dir, small_data,
                                                                    command):
    """With another seed's forests beside the draws, and with none, the
    command exits 0 and writes the files it writes beside the fit's own."""
    args = DRAWS_ONLY[command]
    own = invoke(command, run_dir, *args, "--out", run_dir / "own")
    assert own.exit_code == 0, own.output
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        other = fit(small_data, small_config(seed=43, keep_forests=True))
    other.save_forests(run_dir / FORESTS_FILE)
    reseeded = invoke(command, run_dir, *args, "--out", run_dir / "reseeded")
    assert reseeded.exit_code == 0, reseeded.output
    (run_dir / FORESTS_FILE).unlink()
    absent = invoke(command, run_dir, *args, "--out", run_dir / "absent")
    assert absent.exit_code == 0, absent.output
    for out in ("reseeded", "absent"):
        for f in (run_dir / "own").glob("*.csv"):
            assert (run_dir / out / f.name).read_bytes() == f.read_bytes(), (out, f.name)


def test_summarize_with_truncated_draws_file_exits_with_input_error(run_dir):
    draws = run_dir / DRAWS_FILE
    data = draws.read_bytes()
    draws.write_bytes(data[:len(data) // 2])
    result = CliRunner().invoke(main, ["summarize", str(run_dir),
                                       "--out", str(run_dir / "summary")])
    assert result.exit_code == EXIT_INPUT == 2
    assert DRAWS_FILE in result.output


def rewrite_npz(path, name, edit):
    """Rewrite the array ``name`` of the npz file at ``path`` as ``edit`` of it."""
    with np.load(path) as z:
        fields = {k: z[k] for k in z.files}
    fields[name] = edit(fields[name])
    with open(path, "wb") as fh:
        np.savez(fh, **fields)


def test_pdp_with_split_column_past_the_fit_exits_with_input_error(run_dir, small_data):
    rewrite_npz(run_dir / FORESTS_FILE, "var", lambda var: np.where(var >= 0, 9, var))
    trial = write_trial(run_dir, small_data)
    result = invoke("pdp", run_dir, *trial, "--covariate", "x0", "--out", run_dir / "pdp")
    assert result.exit_code == EXIT_INPUT == 2, result.output
    assert f"{FORESTS_FILE} is not a forests file" in result.output
    assert "split column lies outside" in result.output


def test_summarize_with_a_short_draws_column_exits_with_input_error(run_dir):
    rewrite_npz(run_dir / DRAWS_FILE, "sigma", lambda sigma: sigma[:-1])
    result = invoke("summarize", run_dir, "--out", run_dir / "summary")
    assert result.exit_code == EXIT_INPUT == 2, result.output
    assert f"{DRAWS_FILE}: column sigma has shape" in result.output


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
                 "max_split_points", "hyper", "prior"}),
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


def test_calibration_has_no_draw_count_or_seed(tmp_path, trial):
    # the prior's calibration is a quadrature: it takes no draws and no seed
    result = config_error(tmp_path, trial, "fit", "calibration_draws")
    assert result.exit_code == EXIT_CONFIG == 4, result.output
    assert "calibration_draws" in result.output
    for flag in ("--draws", "--seed"):
        result = invoke("calibrate", "--sigma-w", 1.2, flag, 1)
        assert result.exit_code == 2 and "No such option" in result.output, result.output


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
    assert result.exit_code == EXIT_INPUT == 2, result.output
    assert "every row is censored" in result.output


def test_infinite_time_exits_with_input_error_naming_the_row(tmp_path):
    trial = write_trial(tmp_path, make_dataset(n=20))
    csv_path = tmp_path / "trial.csv"
    lines = csv_path.read_text().splitlines()
    lines[5] = "inf" + lines[5][lines[5].index(","):]  # data row 5
    csv_path.write_text("\n".join(lines) + "\n")
    result = invoke("fit", *trial, "--config", write_yaml(tmp_path / "fit.yaml", TINY_FIT),
                    "--out", tmp_path / "out", "--seed", 1)
    assert result.exit_code == EXIT_INPUT == 2, result.output
    assert "non-finite time at row 5" in result.output


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

    monkeypatch.setattr(bench, "fit", recording_fit)
    monkeypatch.setattr(bench, "predict_m", lambda draws, arm, X: np.zeros((1, len(X))))
    out = tmp_path / "cv"
    result = invoke("crossval", *trial, "--config", write_yaml(tmp_path / "cv.yaml", cv_doc),
                    "--out", out, "--folds", 2, "--seed", 5)
    assert result.exit_code == 0, result.output
    assert seen == [s for s in expected for _ in range(2)]
    with open(out / "cv.csv") as fh:
        means = [r for r in csv.DictReader(fh) if r["fold"] == "mean"]
    assert [(float(r["q"]), float(r["k"]), int(r["n_trees"])) for r in means] == expected


def test_summarize_reruns_are_byte_identical(run_dir):
    outs = [run_dir / "summary1", run_dir / "summary2"]
    for out in outs:
        result = invoke("summarize", run_dir, "--out", out)
        assert result.exit_code == 0, result.output
    for name in ("ite.csv", "effect_cdf.csv", "effect_density.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# command -> (its arguments after the run directory and the fit's trial
# files, or the crossval config; the data files it writes)
RERUNS = {
    "survcurve": (lambda run, trial, cv: [run, "--arm", 1, "--patient", 3,
                                          "--times", "0.5:20:10"], ["survival.csv"]),
    "pdp": (lambda run, trial, cv: [run, *trial, "--covariate", "x0", "--grid-points", 4,
                                    "--draw-stride", 7], ["partial_dependence.csv"]),
    "crossval": (lambda run, trial, cv: [*trial, "--config", cv, "--folds", 2, "--seed", 5],
                 ["cv.csv"]),
    "calibrate": (lambda run, trial, cv: ["--sigma-w", 1.2],
                  ["calibration.json"]),
}


@pytest.mark.parametrize("command", list(RERUNS))
def test_data_outputs_of_reruns_are_byte_identical(run_dir, small_data, command):
    arguments, files = RERUNS[command]
    args = arguments(run_dir, write_trial(run_dir, small_data),
                     write_yaml(run_dir / "cv.yaml", {"fit": TINY_FIT}))
    outs = [run_dir / f"{command}1", run_dir / f"{command}2"]
    for out in outs:
        result = invoke(command, *args, "--out", out)
        assert result.exit_code == 0, result.output
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    for doc in manifests:
        assert doc.pop("started") <= doc.pop("finished")
    assert manifests[0] == manifests[1]


def test_empty_yaml_level_reads_as_absent(trial, tmp_path):
    # YAML reads a level with nothing after it (``hyper:``) as null
    without = {k: v for k, v in TINY_FIT.items() if k != "hyper"}
    outs = []
    for name, doc in (("absent", without), ("empty", {**without, "hyper": None})):
        config = write_yaml(tmp_path / f"{name}.yaml", doc)
        outs.append(tmp_path / name)
        result = invoke("fit", *trial, "--config", config, "--out", outs[-1], "--seed", 3)
        assert result.exit_code == 0, result.output
    assert (outs[0] / DRAWS_FILE).read_bytes() == (outs[1] / DRAWS_FILE).read_bytes()


@pytest.mark.parametrize("level, value", [("hyper", [1, 2]), ("prior", 3)])
def test_non_mapping_yaml_level_exits_with_config_error(trial, tmp_path, level, value):
    config = write_yaml(tmp_path / "fit.yaml", {**TINY_FIT, level: value})
    result = invoke("fit", *trial, "--config", config, "--out", tmp_path / "out", "--seed", 3)
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "[config]" in result.output and f"{level} must be a mapping" in result.output


def test_simulate_top_level_typo_exits_with_config_error(tmp_path):
    doc = {"seed": 1, "rep": 3, "scenarios": [{"kind": "aft-linear-null", "n": 20}]}
    result = invoke("simulate", "--config", write_yaml(tmp_path / "sim.yaml", doc),
                    "--out", tmp_path / "out")
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "unknown simulate config keys: ['rep']" in result.output


@pytest.mark.parametrize("cv_doc, message", [
    ({"settings": [{"q": 0.5, "alpha": 0.5}]}, "unknown setting keys: ['alpha']"),
    ({"grid": {"q": [0.5], "alpha": [0.5]}}, "unknown grid keys: ['alpha']"),
    ({"setting": [{"q": 0.5}]}, "unknown crossval config keys: ['setting']"),
    ({"grid": {"q": [0.5]}, "settings": [{"q": 0.5}]}, "either 'grid' or 'settings'"),
    ({"settings": {"q": 0.5}}, "settings must be a list"),
    ({"fit": 5}, "fit must be a mapping"),
    ({"grid": {"q": 0.5, "k": [2.0]}}, "grid axes must be lists: ['q']"),
], ids=["setting", "grid", "top_level", "grid_and_settings", "settings_mapping", "fit_int",
        "grid_scalar"])
def test_crossval_keys_it_cannot_vary_exit_with_config_error(
        tmp_path, trial, monkeypatch, cv_doc, message):
    monkeypatch.setattr(bench, "fit", lambda train, config: pytest.fail("fit was called"))
    result = invoke("crossval", *trial, "--config", write_yaml(tmp_path / "cv.yaml", cv_doc),
                    "--out", tmp_path / "cv", "--folds", 2, "--seed", 5)
    assert result.exit_code == EXIT_CONFIG, result.output
    assert message in result.output


SIM_DOC = {"seed": 3, "reps": 2, "fit": TINY_FIT, "scenarios": [
    {"kind": "aft-linear-null", "n": 30, "censoring": "light", "coefs": [1.0, 0.3, 0.5],
     "family": {"tag": "gumbel"}},
    {"kind": "friedman-hte", "n": 30, "p": 4, "family": {"tag": "std-gamma"}}]}


def test_simulate_reruns_are_byte_identical(tmp_path):
    config = write_yaml(tmp_path / "sim.yaml", SIM_DOC)
    for run in ("a", "b"):
        result = invoke("simulate", "--config", config, "--out", tmp_path / run)
        assert result.exit_code == 0, result.output
    for name in ("benchmark.csv", "table.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    with open(tmp_path / "a" / "benchmark.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["kind"], r["rep"]) for r in rows] == [
        ("aft-linear-null", "0"), ("aft-linear-null", "1"),
        ("friedman-hte", "0"), ("friedman-hte", "1")]


@pytest.mark.parametrize("kind", ["aft-linear-null", "cox-null", "fixed-regression"])
def test_simulate_scenario_without_covariate_coefs_exits_with_config_error(tmp_path, kind):
    doc = {"seed": 1, "fit": TINY_FIT, "scenarios": [{"kind": kind, "n": 20}]}
    result = invoke("simulate", "--config", write_yaml(tmp_path / "sim.yaml", doc),
                    "--out", tmp_path / "out")
    assert result.exit_code == EXIT_CONFIG, result.output
    assert f"scenario '{kind}/n20/none/normal'" in result.output
    assert "at least one covariate coefficient" in result.output


@pytest.mark.parametrize("draw_stride", [0, -1])
def test_pdp_draw_stride_below_one_exits_with_config_error(run_dir, small_data, draw_stride):
    trial = write_trial(run_dir, small_data)
    result = invoke("pdp", run_dir, *trial, "--covariate", "x0", "--draw-stride", draw_stride,
                    "--out", run_dir / "pdp")
    assert result.exit_code == EXIT_CONFIG == 4, result.output
    assert "draw stride" in result.output


@pytest.mark.parametrize("command", ["summarize", "survcurve", "pdp"])
def test_level_outside_zero_one_exits_with_config_error(run_dir, small_data, command):
    args = {"summarize": [run_dir],
            "survcurve": RERUNS["survcurve"][0](run_dir, None, None),
            "pdp": RERUNS["pdp"][0](run_dir, write_trial(run_dir, small_data), None)}[command]
    result = invoke(command, *args, "--level", 1.5, "--out", run_dir / command)
    assert result.exit_code == EXIT_CONFIG == 4, result.output
    assert "level must be strictly between 0 and 1" in result.output


@pytest.mark.parametrize("patient", [-1, 60])
def test_survcurve_patient_out_of_range_exits_with_input_error(run_dir, patient):
    result = invoke("survcurve", run_dir, "--arm", 1, "--patient", patient,
                    "--times", "1,2", "--out", run_dir / "curve")
    assert result.exit_code == EXIT_INPUT == 2, result.output
    assert f"patient index {patient} out of range (n=60)" in result.output
    assert not (run_dir / "curve").exists()


# command -> its arguments before the flag under test
def flag_args(run_dir, small_data, command):
    return {"summarize": [run_dir],
            "survcurve": [run_dir, "--arm", 1, "--patient", 3],
            "pdp": [run_dir, *write_trial(run_dir, small_data), "--covariate", "x0"]}[command]


@pytest.mark.parametrize("command, flag, value, message", [
    ("survcurve", "--times", "1,abc", "--times: 'abc' is not a valid float"),
    ("survcurve", "--times", "1:abc:5", "--times: 'abc' is not a valid float"),
    ("survcurve", "--times", "1:5:2.5", "--times: '2.5' is not a valid int"),
    ("survcurve", "--times", "1:5:0", "count must be >= 1, got 0"),
    ("survcurve", "--times", " , ", "lists no values"),
    ("pdp", "--grid", "1,abc", "--grid: 'abc' is not a valid float"),
    ("pdp", "--grid", "0:1:-3", "count must be >= 1, got -3"),
    ("pdp", "--grid-points", 0, "--grid-points must be >= 1, got 0"),
    ("summarize", "--thresholds", "0,abc", "--thresholds: 'abc' is not a valid float"),
    ("summarize", "--thresholds", ",", "lists no values"),
    ("survcurve", "--times", "1,nan", "--times: 'nan' is not a finite number"),
    ("survcurve", "--times", "1:inf:3", "--times: 'inf' is not a finite number"),
    ("pdp", "--grid", "0,-inf", "--grid: '-inf' is not a finite number"),
    ("summarize", "--thresholds", "0,nan", "--thresholds: 'nan' is not a finite number"),
    ("summarize", "--grid-points", 0, "--grid-points must be >= 1, got 0"),
    ("summarize", "--bandwidth", 0, "bandwidth must be positive, got 0.0"),
    ("summarize", "--bandwidth", -0.5, "bandwidth must be positive, got -0.5"),
    ("summarize", "--bandwidth", "nan", "bandwidth must be positive, got nan"),
])
def test_bad_flag_values_exit_with_config_error(run_dir, small_data, command, flag,
                                                value, message):
    out = run_dir / command
    result = invoke(command, *flag_args(run_dir, small_data, command), flag, value,
                    "--out", out)
    assert result.exit_code == EXIT_CONFIG == 4, result.output
    assert message in result.output
    assert not any(out.glob("*.csv"))


def test_crossval_with_more_folds_than_half_the_rows_exits_before_fitting(
        tmp_path, trial, monkeypatch):
    monkeypatch.setattr(bench, "fit", lambda *args: pytest.fail("fitted a fold"))
    result = invoke("crossval", *trial, "--out", tmp_path / "cv", "--folds", 30,
                    "--seed", 5)
    assert result.exit_code == EXIT_CONFIG, result.output
    assert "30 folds is more than 40 rows allow: at most 20" in result.output


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.special is the one scipy subpackage the package uses; each of
    # these takes a large share of the import time and memory of a command
    heavy = ["scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.spatial"]
    code = ("import sys, npaft, npaft.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith(tuple({heavy!r}))))")
    src = os.path.dirname(os.path.dirname(npaft.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
