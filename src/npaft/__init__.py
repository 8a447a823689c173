"""Nonparametric Bayesian accelerated failure time modeling.

A tree-ensemble regression of log failure times with a mean-constrained
mixture residual, sampled by blocked Gibbs with censored-data augmentation;
posterior summaries of treatment-effect heterogeneity; and simulation
benchmarks with censoring-aware scoring.
"""

from .data import (CovariateSchema, ColumnSpec, EncodedDataset, ResponseTransform,
                   fit_intercept_lognormal_aft, load_dataset, split_point_grid,
                   transform_responses)
from .engine import FitConfig, PosteriorDraws, fit, predict_m
from .errors import ConfigError, DataError, NumericError
from .forest import (Forest, ForestPrior, PackedForest, Tree, TreeWorkspace,
                     backfit_sweep, draw_leaf_values, leaf_log_marginal,
                     mh_update_tree, propose_tree_move, split_prob)
from .hte import (BenefitSummary, DteSummary, EffectDistribution, IteDraws,
                  PartialDependence, SurvivalCurve, allocate,
                  differential_effect, effect_distribution, ite_draws,
                  partial_dependence, proportion_benefiting, survival_curve)
from .mixture import (CdpHyper, CdpState, calibrate_scale, impute_censored,
                      sample_truncnorm_lower, update_cluster_labels,
                      update_cluster_locations, update_mass_and_scale,
                      update_stick_weights)
from .bench import (KaplanMeier, MetricRow, ResidualFamily, SimData, SimScenario,
                    apply_censoring, cross_validation_score, gen_friedman_scenario,
                    gen_null_aft, gen_null_cox, gen_residuals, run_benchmark,
                    score_replication)

__version__ = "0.1.0"
