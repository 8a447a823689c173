"""Metric definitions and their computation from a finished run.

End-to-end metrics come from untraced runs (``--trace 0``); per-layer
metrics come from the spans and counters of the traced fits and post-fit
rounds (``--trace 1``). A timing is the median of each cohort's samples,
averaged over the run's cohorts, so every cohort weighs the same however
many rounds the clock allows. Each per-layer entry names the end-to-end metric and
workload it is expected to move, written down before any optimisation.
"""

from __future__ import annotations

import resource

import numpy as np

# name -> (unit, better, what it measures)
END_TO_END = {
    "setup_s": ("s", "lower", "import npaft and generate the first cohort; median of this process and 4 fresh interpreters"),
    "fit_s": ("s", "lower", "engine.fit with forests kept"),
    "summarize_s": ("s", "lower", "ITE draws, differential effect, benefit, effect distribution"),
    "survcurve_s": ("s", "lower", "survival curves for the workload's patients"),
    "pdp_s": ("s", "lower", "partial dependence on the first covariate"),
    "predict_s": ("s", "lower", "predict_m on the held-out fold, both arms"),
    "artifact_mb": ("MB", "lower", "bytes of draws.npz + forests.json / 1e6"),
    "peak_rss_mb": ("MiB", "lower", "peak resident set size of the benchmark process"),
}

_COUNT = "a count; moves only if random-number use changes"
MOVES = ("grow", "prune", "change", "swap")

# name -> (unit, better, end-to-end metric and workload it should move)
PER_LAYER = {
    "engine.sweep_ms.p50": ("ms", "lower", "fit_s, all workloads"),
    "engine.sweep_ms.p90": ("ms", "lower", "fit_s, all workloads"),
    "engine.retain_ms_per_draw": ("ms", "lower", "fit_s on sweep-n20k"),
    "engine.save_ms": ("ms", "lower", "artifact write, both workloads; too unsteady for an end-to-end bound"),
    "engine.load_ms": ("ms", "lower", "artifact read, both workloads; too unsteady for an end-to-end bound"),
    "engine.forests_bytes_per_draw": ("B", "lower", "artifact_mb on sweep-n200"),
    "forest.trees_ms_per_sweep": ("ms", "lower", "fit_s on sweep-n200"),
    **{f"forest.propose_us.{m}": ("us", "lower", "fit_s on sweep-n200") for m in MOVES},
    "forest.leaf_draw_us_per_tree": ("us", "lower", "fit_s on sweep-n20k"),
    "forest.route_ns_per_row_tree": ("ns", "lower", "pdp_s and predict_s, both workloads"),
    **{f"forest.accept_ratio.{m}": ("ratio", "higher", _COUNT) for m in MOVES},
    **{f"forest.nonviable_ratio.{m}": ("ratio", "lower", _COUNT) for m in MOVES},
    "forest.leaves_per_tree": ("count", "lower", _COUNT),
    "mixture.labels_ms_per_sweep": ("ms", "lower", "fit_s on sweep-n20k"),
    "mixture.impute_ms_per_sweep": ("ms", "lower", "fit_s on sweep-n20k"),
    "mixture.tail_rows": ("count", "lower", "fit_s on sweep-n20k"),
    "mixture.small_steps_ms_per_sweep": ("ms", "lower", "predicted to move nothing"),
    "mixture.calibrate_ms": ("ms", "lower", "fit_s, all workloads"),
    "mixture.truncation_hit_ratio": ("ratio", "lower", _COUNT),
    "mixture.calibration_discarded": ("count", "lower", _COUNT),
    "data.intercept_fit_ms": ("ms", "lower", "fit_s on sweep-n20k"),
    "data.intercept_fit_failed": ("count", "lower", "known defect; fit_s on sweep-n20k"),
    "hte.effect_distribution_ms": ("ms", "lower", "summarize_s on sweep-n20k"),
    "hte.survival_curve_ms": ("ms", "lower", "survcurve_s, both workloads"),
    "hte.default_bandwidth_failed": ("count", "lower", "known defect; summarize_s on sweep-n20k"),
    "hte.pdp_route_share": ("ratio", "lower", "pdp_s, both workloads"),
    "trace.overhead_ratio": ("ratio", "lower", "traced fit_s / untraced fit_s"),
}

# end-to-end timings and the runner sample list each is the median of
TIMED_OPS = {"fit_s": "fit", "summarize_s": "summarize", "survcurve_s": "survcurve",
             "pdp_s": "pdp", "predict_s": "predict"}


def upper_percentile(values) -> tuple[str, float]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it, else the max."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", float(np.percentile(values, p))
    return "max", float(np.max(values))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values, what: str) -> float:
    if len(values) == 0:
        raise RuntimeError(f"no successful {what} to measure")
    return float(np.median(values))


def mean(values, what: str) -> float:
    if len(values) == 0:
        raise RuntimeError(f"no successful {what} to measure")
    return float(np.mean(values))


def cohort_mean(by_cohort: dict, what: str) -> float:
    """The mean over cohorts of each cohort's median sample."""
    return mean([float(np.median(v)) for v in by_cohort.values() if len(v)], what)


def end_to_end(runner, setup_samples: list[float]) -> dict[str, float]:
    out = {"setup_s": median(setup_samples, "set-up")}
    for metric, op in TIMED_OPS.items():
        out[metric] = cohort_mean(runner.samples[op], op)
    out["artifact_mb"] = mean(list(runner.artifact_bytes.values()), "save") / 1e6
    out["peak_rss_mb"] = peak_rss_mib()
    return out


def _mean(x) -> float:
    return float(np.mean(x)) if len(x) else 0.0


def per_layer(runner) -> dict[str, float]:
    """Timings pool every traced fit and post-fit round; counts come from
    the first traced fit alone (the run's first cohort), so they repeat
    exactly for a seed however many rounds the time allows."""
    tr = runner.tracer
    first = 1  # fit 0 runs untraced, fit 1 refits its cohort traced
    counts = tr.counts[first]
    A = tr.arrays()
    nid = {n: i for i, n in enumerate(tr.names)}
    dur = A["end"] - A["start"]
    has_parent = A["parent"] >= 0
    self_time = dur - np.bincount(A["parent"][has_parent], weights=dur[has_parent],
                                  minlength=dur.size)

    def sel(name: str) -> np.ndarray:
        return A["name"] == nid.get(name, -1)

    def total(name: str, arr=dur) -> float:
        return float(arr[sel(name)].sum())

    sweeps = max(int(sel("forest.backfit_sweep").sum()), 1)
    retained = max(int(sel("forest.Forest.counterfactual_total").sum()), 1)
    out: dict[str, float] = {}

    gaps = np.concatenate([np.diff(s) for s in tr.sweep_stamps.values()] or [np.empty(0)])
    out["engine.sweep_ms.p50"] = 1e3 * float(np.percentile(gaps, 50)) if gaps.size else 0.0
    out["engine.sweep_ms.p90"] = 1e3 * float(np.percentile(gaps, 90)) if gaps.size else 0.0
    out["engine.retain_ms_per_draw"] = 1e3 * (total("forest.Forest.counterfactual_total")
                                              + total("forest.pack_forest")) / retained
    out["engine.save_ms"] = 1e3 * median(dur[sel("op.save")], "traced save")
    out["engine.load_ms"] = 1e3 * median(dur[sel("op.load")], "traced load")
    out["engine.forests_bytes_per_draw"] = mean(
        list(runner.forests_bytes.values()), "save") / runner.draws.n_draws

    out["forest.trees_ms_per_sweep"] = 1e3 * total("forest.backfit_sweep", self_time) / sweeps
    propose = sel("forest.propose_tree_move")
    stats = {m: [0, 0] for m in MOVES}
    for (run, _), f in tr.last_forest.items():
        if run == first:
            for m, (proposed, accepted) in f.move_stats.items():
                stats[m][0] += proposed
                stats[m][1] += accepted
    for m in MOVES:
        viable = propose & (A["tag"] == nid.get(m, -1))
        nonviable = propose & (A["tag"] == nid.get(m + ".nonviable", -1))
        out[f"forest.propose_us.{m}"] = 1e6 * _mean(dur[viable | nonviable])
        # non-viable proposals count as proposed in move_stats, so both
        # ratios share the one base: every non-None proposal of that kind
        proposed = max(stats[m][0], 1)
        out[f"forest.accept_ratio.{m}"] = stats[m][1] / proposed
        out[f"forest.nonviable_ratio.{m}"] = int((nonviable & (A["run"] == first)).sum()) / proposed
    out["forest.leaf_draw_us_per_tree"] = 1e6 * _mean(dur[sel("forest.draw_leaf_values")])
    row_trees = sum(c["route_row_trees"] for c in tr.counts.values())
    out["forest.route_ns_per_row_tree"] = (1e9 * total("forest.PackedForest.predict_matrix")
                                           / max(row_trees, 1))
    out["forest.leaves_per_tree"] = counts["retained_leaves"] / max(counts["retained_trees"], 1)

    out["mixture.labels_ms_per_sweep"] = 1e3 * total("mixture.update_cluster_labels") / sweeps
    out["mixture.impute_ms_per_sweep"] = 1e3 * total("mixture.impute_censored") / sweeps
    out["mixture.tail_rows"] = counts["tail_rows"]
    out["mixture.small_steps_ms_per_sweep"] = 1e3 * sum(
        total(n) for n in ("mixture.update_stick_weights", "mixture.update_cluster_locations",
                           "mixture.update_mass_and_scale")) / sweeps
    out["mixture.calibrate_ms"] = 1e3 * _mean(dur[sel("mixture.calibrate_scale")])
    out["mixture.truncation_hit_ratio"] = runner.truncation_hit[0]
    out["mixture.calibration_discarded"] = float(runner.calibration_discarded[0])

    intercept = runner.pooled("intercept_fit") + list(dur[sel("data.fit_intercept_lognormal_aft")])
    out["data.intercept_fit_ms"] = 1e3 * median(intercept, "intercept fit")
    out["data.intercept_fit_failed"] = float(runner.intercept_failed)

    out["hte.effect_distribution_ms"] = 1e3 * _mean(dur[sel("hte.effect_distribution")])
    out["hte.survival_curve_ms"] = 1e3 * _mean(dur[sel("hte.survival_curve")])
    out["hte.default_bandwidth_failed"] = float(len(runner.bandwidth_failed))
    under_pdp = sel("forest.PackedForest.predict_matrix") & (A["name"][A["root"]] == nid.get("op.pdp", -1))
    out["hte.pdp_route_share"] = float(dur[under_pdp].sum()) / max(total("op.pdp"), 1e-12)
    out["trace.overhead_ratio"] = (cohort_mean(runner.samples["fit_traced"], "traced fit")
                                   / cohort_mean(runner.samples["fit"], "untraced fit"))
    return out
