import dataclasses

import numpy as np

from npaft import bench
from npaft.bench import ResidualFamily, SimScenario
from npaft.engine import FitConfig
from npaft.forest import ForestPrior
from npaft.mixture import CdpHyper


class TestRunReplication:
    def test_fit_config_carried_over_whole(self, monkeypatch, tmp_path):
        seen = []
        real_fit = bench.fit

        def recording_fit(data, cfg):
            seen.append(cfg)
            return real_fit(data, cfg)

        monkeypatch.setattr(bench, "fit", recording_fit)
        scenario = SimScenario(kind="aft-linear-null", n=40,
                               family=ResidualFamily("normal"),
                               coefs=(6.5, 0.25, 0.3, -0.2))
        fit_config = FitConfig(seed=1, iterations=30, burn_in=20,
                               prior=ForestPrior(n_trees=5), hyper=CdpHyper(H=10),
                               calibration_draws=5_000, keep_forests=True,
                               memory_budget_mb=0.0001, spill_dir=str(tmp_path))
        bench.run_replication(scenario, fit_config, np.random.SeedSequence(3))
        (cfg,) = seen
        assert cfg.spill_dir == str(tmp_path)
        assert cfg.keep_forests is False
        # only the seed and keep_forests differ from the caller's config
        assert dataclasses.replace(cfg, seed=1, keep_forests=True) == fit_config
