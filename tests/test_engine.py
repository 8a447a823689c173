import hashlib
import io
import multiprocessing
import threading
import warnings
from unittest import mock

import numpy as np
import pytest

from npaft import (CdpHyper, ConfigError, DataError, EncodedDataset, FitConfig,
                   ForestPrior, NumericError, PosteriorDraws, ResponseTransform, engine,
                   fit, partial_dependence, predict_m)
from conftest import make_dataset


def small_config(**overrides):
    base = dict(seed=42, iterations=120, burn_in=40, thin=1,
                prior=ForestPrior(n_trees=20), hyper=CdpHyper(H=20))
    base.update(overrides)
    return FitConfig(**base)


# SHA-256 of draws.npz from small_config() on the small_data fixture, taken
# with the copy-per-proposal tree sweep that the statistics-based sweep
# replaced: the rewrite must keep every random draw and every bit. The values
# depend on numpy's random streams and float kernels, so a numpy upgrade may
# change them without any fault in the sampler.
# They were taken again when FitConfig lost memory_budget_mb and spill_dir:
# the header's config echo no longer lists them, and every draw column kept
# its dtype and bytes. They were taken again when the prior calibration
# became a quadrature: sigma_tau_sq moved from 0.198387 (20,000 Monte Carlo
# draws) to 0.198455, within the Monte Carlo's seed-to-seed sd of 0.00055,
# and the config echo lost calibration_draws. They were taken again when the
# intercept fit became a scalar (mu, log sigma) Newton fit: its start is
# np.mean of the log times, not lstsq on a column of ones, and on this
# (uncensored) data mu_aft moved by one ulp, from 1.504779190978811 to
# 1.5047791909788102. Given the earlier transform, the sampler still draws
# the earlier digests bit for bit (LSTSQ_DIGESTS).
PINNED_DIGESTS = {
    1: "ef00b1fd0a8cf471aaf08d304f6372030a3b1cbe65109ad9230ff5b326219eed",
    2: "fe0cecaec50886de2e2f3def4a23478ff89ad94f3c4f28aaa05abbfa0d1459d2",
}
LSTSQ_TRANSFORM = ResponseTransform(1.504779190978811, 0.6809018728156577)
LSTSQ_DIGESTS = {
    1: "942ccfeb1b92101c8ebe4a6cf75999806c40a7fd6e26716bd27cdfe2ba3cfe41",
    2: "141fc056d689a9e2421f1c8d1cc26efbbc4ff9064207389510ee337adb36f624",
}
# SHA-256 of draws.npz from small_config() on make_dataset(censor_frac=0.3).
# The digests above are taken on uncensored data, where imputation draws
# nothing; this one also pins the truncated-normal draws of censored rows.
CENSORED_DIGEST = "a5c577e26fe69b51f9ef6275f7dc4f3a67be21840e07033376199215b673811f"
DIGEST_NOTE = (f"digests recorded with numpy 2.4, running numpy {np.__version__}; "
               "across numpy versions a mismatch may come from numpy's random streams "
               "or float kernels rather than from the sampler")


def assert_same_forests(a, b):
    for f in ("var", "cut", "left", "right", "value", "nodes_per_tree", "trees_per_draw",
              "n_cols"):
        assert np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True), f


def acceptance_rates(draws: PosteriorDraws) -> dict[str, float]:
    """Run-level acceptance rate per move type."""
    prop = draws.acc_proposed.sum(axis=0).astype(float)
    acc = draws.acc_accepted.sum(axis=0).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        rates = np.where(prop > 0, acc / prop, np.nan)
    return dict(zip(engine.MOVE_ORDER, rates.tolist()))


def digest(draws: PosteriorDraws) -> str:
    buf = io.BytesIO()
    draws.save(buf)
    return hashlib.sha256(buf.getvalue()).hexdigest()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FitConfig(seed=1, iterations=100, burn_in=100)
        with pytest.raises(ConfigError):
            FitConfig(seed=1, thin=0)
        with pytest.raises(ConfigError):
            FitConfig(seed=1, iterations=103, burn_in=100, thin=2)
        with pytest.raises(ConfigError):
            FitConfig(seed=1, chains=0)
        with pytest.raises(ConfigError):
            FitConfig(seed=None)

    def test_draw_count(self):
        cfg = FitConfig(seed=1, iterations=7000, burn_in=2000, thin=1)
        assert cfg.draws_per_chain == 5000
        cfg = FitConfig(seed=1, iterations=300, burn_in=100, thin=4)
        assert cfg.draws_per_chain == 50


class TestFit:
    def test_single_retained_draw(self, small_data):
        cfg = small_config(iterations=41, burn_in=40)
        draws = fit(small_data, cfg)
        assert draws.n_draws == 1
        assert draws.iteration[0] == 41

    def test_thinning_counts(self, small_data):
        cfg = small_config(iterations=100, burn_in=40, thin=5)
        draws = fit(small_data, cfg)
        assert draws.n_draws == 12
        assert np.array_equal(np.diff(draws.iteration), np.full(11, 5))

    def test_determinism_bytes(self, small_data):
        a = fit(small_data, small_config())
        b = fit(small_data, small_config())
        assert digest(a) == digest(b)

    @pytest.mark.parametrize("chains", sorted(PINNED_DIGESTS))
    def test_draws_match_pinned_digest(self, small_data, chains):
        draws = fit(small_data, small_config(chains=chains))
        assert digest(draws) == PINNED_DIGESTS[chains], DIGEST_NOTE

    def test_censored_draws_match_pinned_digest(self):
        draws = fit(make_dataset(censor_frac=0.3), small_config())
        assert digest(draws) == CENSORED_DIGEST, DIGEST_NOTE

    @pytest.mark.parametrize("chains", sorted(LSTSQ_DIGESTS))
    def test_draws_given_the_lstsq_transform_match_its_digest(self, small_data, chains):
        with mock.patch.object(engine, "fit_intercept_lognormal_aft",
                               return_value=LSTSQ_TRANSFORM):
            draws = fit(small_data, small_config(chains=chains))
        assert draws.transform == LSTSQ_TRANSFORM
        assert digest(draws) == LSTSQ_DIGESTS[chains], DIGEST_NOTE

    def test_single_arm_data_rejected(self):
        data = make_dataset(n=40)
        for arm in (0, 1):
            one_arm = EncodedDataset.from_arrays(data.y, data.delta,
                                                 np.full(data.n, arm), data.X)
            with pytest.raises(DataError, match=f"every row is in arm {arm}"):
                fit(one_arm, small_config())

    def test_different_seed_differs(self, small_data):
        a = fit(small_data, small_config())
        b = fit(small_data, small_config(seed=43))
        assert digest(a) != digest(b)

    def test_chains_concatenate(self, small_data):
        draws = fit(small_data, small_config(chains=2))
        per = small_config().draws_per_chain
        assert draws.n_draws == 2 * per
        assert np.array_equal(np.unique(draws.chain_id), [0, 1])

    def test_mixture_snapshots_satisfy_invariants(self, small_data):
        draws = fit(small_data, small_config())
        sums = draws.pi.sum(axis=1)
        assert np.all(sums == 1.0)
        assert np.all(np.abs(np.einsum("dh,dh->d", draws.pi, draws.tau)) < 1e-10)

    def test_original_scale_location_added_back(self, small_data):
        draws = fit(small_data, small_config())
        # fits must sit near the observed log-time location, not near zero
        assert abs(draws.m0.mean() - np.log(small_data.y).mean()) < 1.0

    def test_step_order_trace(self, small_data):
        steps = []
        cfg = small_config(iterations=5, burn_in=4)
        fit(small_data, cfg, trace_hook=lambda c, t, step, _: steps.append((t, step)))
        expected = ["trees", "labels", "sticks", "locations", "mass_scale", "impute"]
        for t in range(1, 6):
            assert [s for tt, s in steps if tt == t] == expected

    def test_no_censoring_imputation_is_noop(self):
        data = make_dataset(n=40, censor_frac=0.0)
        observed = {}

        def hook(chain, t, step, payload):
            if step == "impute":
                observed[t] = np.array(payload)

        cfg = small_config(iterations=30, burn_in=20)
        draws = fit(data, cfg, trace_hook=hook)
        log_y_tr = np.log(data.y) - draws.transform.mu_aft
        for t, vals in observed.items():
            assert np.allclose(vals, log_y_tr, rtol=0, atol=1e-12)

    def test_censored_rows_imputed_above_bound(self):
        data = make_dataset(n=50, censor_frac=0.3)
        seen = []

        def hook(chain, t, step, payload):
            if step == "impute":
                seen.append(np.array(payload))

        draws = fit(data, small_config(iterations=30, burn_in=20), trace_hook=hook)
        log_y_tr = np.log(data.y) - draws.transform.mu_aft
        cens = data.delta == 0
        for vals in seen:
            assert np.all(vals[cens] > log_y_tr[cens])
            assert np.allclose(vals[~cens], log_y_tr[~cens], atol=1e-12)

    def test_acceptance_rates_strictly_inside_unit_interval(self):
        data = make_dataset(n=60, seed=5)
        cfg = small_config(iterations=540, burn_in=40)
        draws = fit(data, cfg)
        rates = acceptance_rates(draws)
        for kind, rate in rates.items():
            assert 0.0 < rate < 1.0, f"{kind}: {rate}"

    def test_constant_model_recovery(self):
        # pure noise around a constant: posterior mean within 2 posterior sds
        g = np.random.default_rng(7)
        n = 50
        y = np.exp(1.0 + g.normal(0.0, 0.5, n))
        data = EncodedDataset.from_arrays(y, np.ones(n, int),
                                          g.integers(0, 2, n),
                                          g.standard_normal((n, 3)))
        cfg = FitConfig(seed=3, iterations=800, burn_in=300,
                        prior=ForestPrior(n_trees=50), hyper=CdpHyper(H=25))
        draws = fit(data, cfg)
        truth = 1.0
        ok = 0
        for m in (draws.m0, draws.m1):
            mean = m.mean(axis=0)
            sd = m.std(axis=0, ddof=1)
            ok += int(np.sum(np.abs(mean - truth) <= 2.0 * sd))
        assert ok >= 0.9 * 2 * n

    def test_truncation_monitor_warns(self):
        # H=2 with spread-out residuals: the top component is always occupied
        data = make_dataset(n=50, noise=1.2, seed=11)
        cfg = small_config(hyper=CdpHyper(H=2), iterations=60, burn_in=20)
        with pytest.warns(RuntimeWarning, match="truncation"):
            fit(data, cfg)


def fit_digest(data, cfg) -> str:
    return digest(fit(data, cfg))


def chain_of(rng: np.random.Generator) -> int:
    """The chain that owns a component stream: chain k's streams are spawned
    from the root's child 1 + k."""
    return rng.bit_generator.seed_seq.spawn_key[0] - 1


needs_pool = pytest.mark.skipif(engine._pool_size(2) == 0,
                                reason="needs fork and two usable CPUs")


@needs_pool
class TestParallelChains:
    def test_more_chains_than_cpus_match_in_process(self, small_data):
        cfg = small_config(chains=3, keep_forests=True)
        assert 0 < engine._pool_size(3) <= 3
        pooled = fit(small_data, cfg)
        in_process = fit(small_data, cfg, trace_hook=lambda *args: None)
        assert digest(pooled) == digest(in_process)
        assert_same_forests(pooled.forests, in_process.forests)
        assert multiprocessing.active_children() == []

    def test_worker_numeric_error_reaches_caller(self, small_data, monkeypatch):
        original = engine.update_mass_and_scale

        def nan_mass_in_chain_1(state, resid, hyper, rng):
            original(state, resid, hyper, rng)
            if chain_of(rng) == 1:
                state.M = float("nan")

        monkeypatch.setattr(engine, "update_mass_and_scale", nan_mass_in_chain_1)
        with pytest.raises(NumericError, match="non-finite M at iteration 1"):
            fit(small_data, small_config(chains=2))
        assert multiprocessing.active_children() == []

    def test_in_process_when_hooked_single_chain_or_threaded(self):
        assert engine._pool_size(1) == 0
        assert engine._pool_size(2, in_process=True) == 0
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert engine._pool_size(2) == 0
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_fit_inside_daemonic_worker_runs_in_process(self, small_data):
        # a daemonic pool worker may not start processes of its own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(fit_digest, (small_data, small_config(chains=2)))
            assert got.get(timeout=120) == PINNED_DIGESTS[2], DIGEST_NOTE

    def test_worker_warnings_reach_caller_in_chain_order(self, small_data, monkeypatch):
        original = engine.update_stick_weights

        def warn_each_sweep(state, rng):
            original(state, rng)
            warnings.warn(f"sticks of chain {chain_of(rng)}", UserWarning)

        monkeypatch.setattr(engine, "update_stick_weights", warn_each_sweep)
        cfg = small_config(chains=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit(small_data, cfg)
        ours = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
        assert ours == [f"sticks of chain {k}" for k in range(3) for _ in range(cfg.iterations)]


class TestPredict:
    def test_training_row_consistency(self, small_data):
        draws = fit(small_data, small_config(keep_forests=True))
        for i in (0, 3, 17):
            x = small_data.X[i]
            assert np.max(np.abs(predict_m(draws, 1, x) - draws.m1[:, i])) < 1e-10
            assert np.max(np.abs(predict_m(draws, 0, x) - draws.m0[:, i])) < 1e-10

    def test_identical_rows_identical_predictions(self, small_data):
        draws = fit(small_data, small_config(keep_forests=True))
        x = small_data.X[2]
        a = predict_m(draws, 1, x)
        b = predict_m(draws, 1, x.copy())
        assert np.array_equal(a, b)

    def test_matrix_shape(self, small_data):
        draws = fit(small_data, small_config(keep_forests=True))
        out = predict_m(draws, 0, small_data.X[:5])
        assert out.shape == (draws.n_draws, 5)

    def test_covariate_width_mismatch(self, small_data):
        draws = fit(small_data, small_config(keep_forests=True))
        assert small_data.p_enc == 3
        for width in (1, 2, 4, 6):  # too narrow and too wide
            X = np.zeros((2, width))
            with pytest.raises(DataError, match=f"{width} covariates, the fit had 3"):
                predict_m(draws, 1, X)
            data = EncodedDataset.from_arrays(np.ones(2), np.ones(2, int),
                                              np.array([0, 1]), X)
            with pytest.raises(DataError, match=f"{width} covariates, the fit had 3"):
                partial_dependence(draws, data, 0, np.array([0.0]))

    def test_non_finite_covariate_is_a_data_error(self, small_data):
        # NaN fails every u <= c test, so without the check it would go right
        # at every split and come back as a finite fit
        draws = fit(small_data, small_config(keep_forests=True))
        X = small_data.X[:4].copy()
        X[2, 1] = np.nan
        with pytest.raises(DataError, match="non-finite covariate nan at row 2, column 1"):
            predict_m(draws, 1, X)
        x = small_data.X[0].copy()
        x[0] = -np.inf
        with pytest.raises(DataError, match="non-finite covariate -inf at row 0, column 0"):
            predict_m(draws, 0, x)

    @pytest.mark.parametrize("arm", [2, -1, 0.5])
    def test_arm_other_than_0_or_1_is_a_config_error(self, small_data, arm):
        draws = fit(small_data, small_config(keep_forests=True))
        with pytest.raises(ConfigError, match=f"arm must be 0 or 1, got {arm}"):
            predict_m(draws, arm, small_data.X[0])

    def test_requires_forests(self, small_data):
        draws = fit(small_data, small_config(keep_forests=False))
        with pytest.raises(DataError, match="keep_forests"):
            predict_m(draws, 1, small_data.X[0])

    def test_heldout_step_function_recovery(self):
        # depth-1 truth in x1: log t = 1 + 0.8*(x1 > 0)
        g = np.random.default_rng(15)
        n = 120
        X = g.standard_normal((n, 2))
        a = g.integers(0, 2, n)
        y = np.exp(1.0 + 0.8 * (X[:, 0] > 0) + g.normal(0, 0.3, n))
        data = EncodedDataset.from_arrays(y, np.ones(n, int), a, X)
        cfg = FitConfig(seed=9, iterations=600, burn_in=200,
                        prior=ForestPrior(n_trees=50), hyper=CdpHyper(H=20),
                        keep_forests=True)
        draws = fit(data, cfg)
        for x_new, truth in (([1.2, 0.0], 1.8), ([-1.2, 0.0], 1.0)):
            pm = predict_m(draws, 0, np.array(x_new))
            assert abs(pm.mean() - truth) <= 2.0 * max(pm.std(ddof=1), 0.05)


class TestPersistence:
    def test_save_load_roundtrip(self, small_data, tmp_path):
        draws = fit(small_data, small_config(keep_forests=True))
        f = tmp_path / "draws.npz"
        draws.save(f)
        back = PosteriorDraws.load(f)
        assert np.array_equal(back.m0, draws.m0)
        assert np.array_equal(back.tau, draws.tau)
        assert back.transform == draws.transform
        assert back.config == draws.config

        # the exact path is written, whatever its suffix
        ff = tmp_path / "forests.json"
        draws.save_forests(ff)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["draws.npz", "forests.json"]
        back.load_forests(ff)
        assert back.forests.n_draws == draws.n_draws == 80
        assert_same_forests(back.forests, draws.forests)
        x = small_data.X[4]
        assert np.array_equal(predict_m(back, 1, x), predict_m(draws, 1, x))

    def test_bad_forest_file_rejected(self, small_data, tmp_path):
        draws = fit(small_data, small_config(keep_forests=True))
        good = tmp_path / "forests.npz"
        draws.save_forests(good)
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(good.read_bytes()[:len(good.read_bytes()) // 2])
        old_json = tmp_path / "forests.json"
        old_json.write_text('{"schema_version": 1, "draws": []}')
        for bad in (truncated, old_json):
            with pytest.raises(DataError, match=bad.name):
                draws.load_forests(bad)

    def test_forests_of_another_draw_count_are_a_data_error(self, small_data, tmp_path):
        draws = fit(small_data, small_config(keep_forests=True))
        short = tmp_path / "forests.npz"
        fit(small_data, small_config(iterations=50, keep_forests=True)).save_forests(short)
        with pytest.raises(DataError, match="forests.npz holds the forests of 10 draws, "
                                            "but there are 80 draws"):
            draws.load_forests(short)

    def test_forests_of_another_fit_with_as_many_draws_are_a_data_error(self, small_data,
                                                                         tmp_path):
        draws = fit(small_data, small_config(keep_forests=True))
        other = tmp_path / "forests.npz"
        fit(small_data, small_config(seed=43, keep_forests=True)).save_forests(other)
        with pytest.raises(DataError, match="forests.npz holds the forests of another fit"):
            draws.load_forests(other)
        assert draws.forests is not None  # the draws keep their own forests

    def test_forests_file_of_schema_2_is_a_data_error(self, small_data, tmp_path):
        draws = fit(small_data, small_config(keep_forests=True))
        f = tmp_path / "forests.npz"
        draws.save_forests(f)
        with np.load(f) as z:
            fields = {k: z[k] for k in z.files if k != "draws_digest"}
        fields["schema_version"] = np.int32(2)
        with open(f, "wb") as fh:
            np.savez(fh, **fields)
        with pytest.raises(DataError, match="not a forests file of schema 3: it has schema 2"):
            draws.load_forests(f)

    @pytest.mark.parametrize("case, message", [
        ("var-past-n_cols", r"a split column lies outside \[-1, 4\)"),
        ("var-below-leaf", "a split column lies outside"),
        ("leaf-child", "a leaf has a child"),
        ("child-past-block", "a child lies outside its tree's node block"),
        ("child-before-block", "a child lies outside its tree's node block"),
        ("child-is-root", "a node is not the child of exactly one node"),
        ("float-left", "a node array has the wrong dtype"),
    ])
    def test_forests_that_cannot_be_walked_are_a_data_error(self, small_data, tmp_path,
                                                            case, message):
        """A forests file with this fit's digest whose trees ``predict_m``
        would index out of range, or walk in a loop, is refused by name. The
        edited node ``i`` is the first split node, in draw 0, whose tree's
        node block is [lo, hi); ``leaf`` is the first leaf after it."""
        draws = fit(small_data, small_config(keep_forests=True))
        assert draws.forests.n_cols == 4  # the arm and three covariates
        f = tmp_path / "forests.npz"
        draws.save_forests(f)
        with np.load(f) as z:
            fields = {k: z[k] for k in z.files}
        var = fields["var"]
        i = int(np.flatnonzero(var >= 0)[0])
        node_at = np.concatenate([[0], np.cumsum(fields["nodes_per_tree"])])
        tree = int(np.searchsorted(node_at, i, side="right")) - 1
        assert tree < fields["trees_per_draw"][0]  # in draw 0, whose first node is 0
        lo, hi = int(node_at[tree]), int(node_at[tree + 1])
        leaf = i + int(np.flatnonzero(var[i:] < 0)[0])
        edits = {"var-past-n_cols": ("var", i, 4), "var-below-leaf": ("var", leaf, -2),
                 "leaf-child": ("left", leaf, lo), "child-past-block": ("right", i, hi),
                 "child-before-block": ("left", i, lo - 1), "child-is-root": ("left", i, lo)}
        if case == "float-left":
            fields["left"] = fields["left"].astype(float)
        else:
            name, at, value = edits[case]
            fields[name][at] = value
        with open(f, "wb") as fh:
            np.savez(fh, **fields)
        with pytest.raises(DataError, match=f"forests.npz is not a forests file of schema 3: "
                                            f"{message}"):
            draws.load_forests(f)

    @pytest.mark.parametrize("column, cut, message", [
        ("sigma", np.s_[:-1], r"column sigma has shape \(79,\), expected \(80,\)"),
        ("tau", np.s_[:-1], r"column tau has shape \(79, 20\), expected \(80, 20\)"),
        ("m1", np.s_[:-1], "column m1 has shape"),
        ("m1", np.s_[:, :-1], "column m1 has shape"),
        ("tau", np.s_[:, :-1], "column tau has shape"),
        ("acc_proposed", np.s_[:, :-1], r"column acc_proposed has shape \(80, 3\), expected"),
        ("m0", np.s_[:, 0], "columns m0 and pi must be 2-D"),
    ])
    def test_draw_column_of_another_shape_is_a_data_error(self, small_data, tmp_path,
                                                          column, cut, message):
        draws = fit(small_data, small_config())
        f = tmp_path / "draws.npz"
        draws.save(f)
        with np.load(f) as z:
            fields = {k: z[k] for k in z.files}
        fields[column] = fields[column][cut]
        with open(f, "wb") as fh:
            np.savez(fh, **fields)
        with pytest.raises(DataError, match=f"cannot read draw file .*draws.npz: {message}"):
            PosteriorDraws.load(f)

    def test_truncated_draw_file_is_a_data_error_naming_it(self, small_data, tmp_path):
        draws = fit(small_data, small_config())
        good = tmp_path / "draws.npz"
        draws.save(good)
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(good.read_bytes()[:len(good.read_bytes()) // 2])
        with pytest.raises(DataError, match="cannot read draw file .*truncated.npz"):
            PosteriorDraws.load(truncated)

    def test_save_is_byte_deterministic(self, small_data, tmp_path):
        draws = fit(small_data, small_config())
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        draws.save(a)
        draws.save(b)
        assert a.read_bytes() == b.read_bytes()
