"""Blocked Gibbs sampler over the tree ensemble and the residual mixture.

One iteration executes, in fixed order: (1) a backfitting sweep over all
trees against the mixture-shifted complete-data responses, (2) cluster-label
resampling, (3) stick-weight resampling, (4) conjugate atom draws with
recentering, (5) mass and kernel-variance updates, (6) truncated-normal
imputation of censored responses. Retained draws store both arms' ensemble
fits for every training row (with the response-scale location added back),
the mixture snapshot, and per-sweep sampler diagnostics.

Randomness derives from one root seed: ``SeedSequence(seed)`` spawns one
calibration stream plus one sequence per chain, and each chain spawns six
component streams (tree moves/leaf draws, labels, sticks, locations,
mass/scale, imputation). Adding diagnostics therefore never perturbs draws,
and a (seed, data, config) triple reproduces results bit for bit, whether
the chains run one after another in this process or side by side in forked
workers (see ``fit``).
"""

from __future__ import annotations

import json
import math
import mmap
import multiprocessing
import os
import tempfile
import threading
import warnings
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace
from multiprocessing.pool import ExceptionWithTraceback
from pathlib import Path

import numpy as np

from .data import EncodedDataset, ResponseTransform, fit_intercept_lognormal_aft, \
    split_point_grid, transform_responses
from .errors import ConfigError, DataError, NumericError
from .forest import Forest, ForestPrior, PackedForest, TreeWorkspace, backfit_sweep, \
    pack_forest, MOVE_PROBS
from .mixture import CdpHyper, calibrate_scale, impute_censored, init_state, \
    update_cluster_labels, update_cluster_locations, update_mass_and_scale, \
    update_stick_weights

MOVE_ORDER = tuple(MOVE_PROBS)
DRAWS_SCHEMA_VERSION = 1
FORESTS_SCHEMA_VERSION = 2
_FOREST_FIELDS = ("var", "cut", "left", "right", "value")


@dataclass
class FitConfig:
    """Sampler run configuration."""

    seed: int
    iterations: int = 7000
    burn_in: int = 2000
    thin: int = 1
    chains: int = 1
    hyper: CdpHyper = field(default_factory=CdpHyper)
    prior: ForestPrior = field(default_factory=ForestPrior)
    keep_forests: bool = False
    max_split_points: int = 100
    calibration_draws: int = 1_000_000
    memory_budget_mb: float = 4096.0
    spill_dir: str | None = None

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("a seed is required")
        if not self.iterations > self.burn_in >= 0:
            raise ConfigError(
                f"need iterations > burn_in >= 0, got {self.iterations}, {self.burn_in}")
        if self.thin < 1:
            raise ConfigError(f"thin must be >= 1, got {self.thin}")
        if (self.iterations - self.burn_in) % self.thin != 0:
            raise ConfigError("iterations - burn_in must be divisible by thin")
        if self.chains < 1:
            raise ConfigError(f"chains must be >= 1, got {self.chains}")

    @property
    def draws_per_chain(self) -> int:
        return (self.iterations - self.burn_in) // self.thin

    def to_jsonable(self) -> dict:
        doc = asdict(self)
        doc["prior"].pop("grids", None)
        return doc


def _column(about: str, dtype, *shape):
    """A draws-file column: its header description, its dtype and its shape
    per draw, where ``"n"`` stands for the patient count and ``"H"`` for the
    truncation level. Columns are written in the order they are declared."""
    return field(metadata={"about": about, "dtype": np.dtype(dtype), "shape": shape})


@dataclass
class PosteriorDraws:
    """Retained samples plus diagnostics; the substrate for every summary.
    Each column holds one row per retained draw."""

    # fits on the original log-time scale
    m0: np.ndarray = _column("control-arm fit per patient", np.float64, "n")
    m1: np.ndarray = _column("treated-arm fit per patient", np.float64, "n")
    pi: np.ndarray = _column("mixture weights", np.float64, "H")
    tau: np.ndarray = _column("centered atoms", np.float64, "H")
    sigma: np.ndarray = _column("kernel scale", np.float64)
    M: np.ndarray = _column("mass parameter", np.float64)
    chain_id: np.ndarray = _column("chain", np.int16)
    iteration: np.ndarray = _column("iteration", np.int32)  # 1-based, within the chain
    occupied: np.ndarray = _column("occupied clusters", np.int32)
    max_index: np.ndarray = _column("max occupied index", np.int32)  # 1-based
    acc_proposed: np.ndarray = _column("per-sweep proposals " + "/".join(MOVE_ORDER),
                                       np.int32, len(MOVE_ORDER))
    acc_accepted: np.ndarray = _column("per-sweep acceptances " + "/".join(MOVE_ORDER),
                                       np.int32, len(MOVE_ORDER))
    transform: ResponseTransform
    config: dict
    sigma_tau_sq: float
    forests: list[PackedForest] | None = None

    @property
    def n_draws(self) -> int:
        return self.m0.shape[0]

    @property
    def n_patients(self) -> int:
        return self.m0.shape[1]

    def acceptance_rates(self) -> dict[str, float]:
        """Run-level acceptance rate per move type."""
        prop = self.acc_proposed.sum(axis=0).astype(float)
        acc = self.acc_accepted.sum(axis=0).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            rates = np.where(prop > 0, acc / prop, np.nan)
        return dict(zip(MOVE_ORDER, rates.tolist()))

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the columnar draw container (npz with a JSON header entry)."""
        header = {
            "schema_version": DRAWS_SCHEMA_VERSION,
            "config": self.config,
            "mu_aft": self.transform.mu_aft,
            "sigma_aft": self.transform.sigma_aft,
            "sigma_tau_sq": self.sigma_tau_sq,
            "columns": {c.name: c.metadata["about"] for c in _COLUMNS},
        }
        def write(fh):
            np.savez(fh, header=np.frombuffer(
                json.dumps(header, sort_keys=True).encode(), dtype=np.uint8),
                **{c.name: np.asarray(getattr(self, c.name)) for c in _COLUMNS})

        if hasattr(path, "write"):
            write(path)
        else:
            with open(path, "wb") as fh:
                write(fh)

    @classmethod
    def load(cls, path: str | Path) -> "PosteriorDraws":
        with np.load(path) as z:
            header = json.loads(bytes(z["header"]).decode())
            if header.get("schema_version") != DRAWS_SCHEMA_VERSION:
                raise DataError(f"unsupported draw-file schema: {header.get('schema_version')}")
            return cls(**{c.name: z[c.name] for c in _COLUMNS},
                       transform=ResponseTransform(header["mu_aft"], header["sigma_aft"]),
                       config=header["config"], sigma_tau_sq=header["sigma_tau_sq"])

    def save_forests(self, path: str | Path) -> None:
        """Write every retained draw's forest to one ``.npz`` at exactly
        ``path``: the draws' node arrays end to end, the node count of each
        tree, the tree count of each draw, and the predictor column count."""
        if self.forests is None:
            raise DataError("no forests retained; refit with keep_forests=True")
        fs = self.forests
        with open(path, "wb") as fh:  # a bare path would get ".npz" appended
            np.savez(fh, schema_version=np.int32(FORESTS_SCHEMA_VERSION),
                     n_cols=np.int32(fs[0].n_cols),
                     trees_per_draw=np.array([pf.n_trees for pf in fs], dtype=np.int32),
                     nodes_per_tree=np.concatenate([np.diff(pf.offsets) for pf in fs]),
                     **{f: np.concatenate([getattr(pf, f) for pf in fs])
                        for f in _FOREST_FIELDS})

    def load_forests(self, path: str | Path) -> None:
        """Read a file written by ``save_forests``."""
        bad = f"{path} is not a forests file of schema {FORESTS_SCHEMA_VERSION}"
        try:
            with np.load(path, allow_pickle=False) as z:
                version = int(z["schema_version"])
                if version != FORESTS_SCHEMA_VERSION:
                    raise DataError(f"{bad}: it has schema {version}")
                n_cols = int(z["n_cols"])
                trees_per_draw, nodes_per_tree = z["trees_per_draw"], z["nodes_per_tree"]
                fields = {f: z[f] for f in _FOREST_FIELDS}
        except (OSError, ValueError, TypeError, KeyError, EOFError,
                zipfile.BadZipFile) as exc:
            raise DataError(f"{bad}: {exc}") from None
        tree_start = np.concatenate([[0], np.cumsum(nodes_per_tree)])
        draw_start = np.concatenate([[0], np.cumsum(trees_per_draw)])
        if (draw_start[-1] != nodes_per_tree.shape[0]
                or any(a.shape != (tree_start[-1],) for a in fields.values())):
            raise DataError(f"{bad}: its node, tree and draw counts disagree")
        forests = []
        for t0, t1 in zip(draw_start[:-1], draw_start[1:]):
            n0, n1 = tree_start[t0], tree_start[t1]
            forests.append(PackedForest(**{f: a[n0:n1] for f, a in fields.items()},
                                        offsets=(tree_start[t0:t1 + 1] - n0).astype(np.int32),
                                        n_cols=n_cols))
        self.forests = forests


_COLUMNS = tuple(f for f in fields(PosteriorDraws) if "about" in f.metadata)


def _build_grids(U: np.ndarray, max_points: int) -> list[np.ndarray]:
    return [split_point_grid(U[:, k], max_points) for k in range(U.shape[1])]


def _shared(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zeroed array in anonymous shared memory, so rows that a forked chain
    worker writes are the parent's rows too."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _draw_store(total: int, n: int, H: int, budget_mb: float, spill_dir: str | None
                ) -> tuple[dict[str, np.ndarray], tempfile.TemporaryDirectory | None]:
    """Zeroed draw columns by name, in memory shared with forked chain
    workers, or in disk-backed memmaps when together they exceed the memory
    budget. The spill directory is returned too (None when nothing spilled)
    and must outlive the columns."""
    sizes = {"n": n, "H": H}
    specs = [(c.name, (total, *(sizes.get(s, s) for s in c.metadata["shape"])),
              c.metadata["dtype"]) for c in _COLUMNS]
    nbytes = sum(math.prod(shape) * dtype.itemsize for _, shape, dtype in specs)
    if nbytes <= budget_mb * 2 ** 20:
        return {name: _shared(shape, dtype) for name, shape, dtype in specs}, None
    tmpdir = tempfile.TemporaryDirectory(dir=spill_dir, prefix="npaft-spill-")
    return {name: np.lib.format.open_memmap(Path(tmpdir.name) / f"{name}.npy", mode="w+",
                                            dtype=dtype, shape=shape)
            for name, shape, dtype in specs}, tmpdir


def _check_finite(iteration: int, **named) -> None:
    for name, arr in named.items():
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite {name} at iteration {iteration}")


@dataclass
class _ChainJob:
    """What every chain reads: fixed before the first chain starts."""

    config: FitConfig
    hyper: CdpHyper
    prior: ForestPrior
    transform: ResponseTransform
    U: np.ndarray                 # (n, 1 + p) arm column, then covariates
    grids: list[np.ndarray]
    delta: np.ndarray
    log_y_tr: np.ndarray          # transformed log responses; censored rows at their bound
    seqs: list[np.random.SeedSequence]  # one per chain
    store: dict[str, np.ndarray]  # the draw columns, see ``_draw_store``


def _run_chain(job: _ChainJob, chain: int,
               trace_hook=None) -> tuple[list[PackedForest] | None, int]:
    """Run one chain and write its retained draws into its own rows of
    ``job.store``. Returns the chain's packed forests (None unless
    ``keep_forests``) and the number of sweeps that hit the truncation level."""
    config, hyper, transform, store = job.config, job.hyper, job.transform, job.store
    comp = job.seqs[chain].spawn(6)
    rng_trees, rng_labels, rng_sticks, rng_locs, rng_mass, rng_imp = map(
        np.random.default_rng, comp)

    ws = TreeWorkspace(job.U, job.grids)
    forest = Forest(ws, job.prior)
    state = init_state(job.U.shape[0], hyper, transform.sigma_aft)
    flipped_arm = 1.0 - job.U[:, 0]
    arm_is_treated = job.U[:, 0] == 1.0
    logy_c = job.log_y_tr.copy()  # censored rows start at their bound
    d_idx = chain * config.draws_per_chain
    forests: list[PackedForest] | None = [] if config.keep_forests else None
    hit_truncation = 0

    for t in range(1, config.iterations + 1):
        stats_before = {k: list(v) for k, v in forest.move_stats.items()}
        shifted = logy_c - state.tau[state.S]
        backfit_sweep(forest, shifted, state.sigma, rng_trees)
        if trace_hook:
            trace_hook(chain, t, "trees", forest)

        resid = logy_c - forest.m_total
        update_cluster_labels(state, resid, rng_labels)
        if trace_hook:
            trace_hook(chain, t, "labels", state)
        update_stick_weights(state, rng_sticks)
        if trace_hook:
            trace_hook(chain, t, "sticks", state)
        update_cluster_locations(state, resid, hyper, rng_locs)
        if trace_hook:
            trace_hook(chain, t, "locations", state)
        update_mass_and_scale(state, resid, hyper, rng_mass)
        if trace_hook:
            trace_hook(chain, t, "mass_scale", state)
        logy_c = impute_censored(state, forest.m_total, job.delta,
                                 job.log_y_tr, rng_imp)
        if trace_hook:
            trace_hook(chain, t, "impute", logy_c)

        _check_finite(t, m=forest.m_total, sigma_sq=state.sigma_sq,
                      M=state.M, tau=state.tau, responses=logy_c)
        if state.max_occupied_index == hyper.H:
            hit_truncation += 1

        if t > config.burn_in and (t - config.burn_in) % config.thin == 0:
            state.check_invariants()
            m_obs = forest.m_total
            m_flip = forest.counterfactual_total(flipped_arm)
            store["m1"][d_idx] = np.where(arm_is_treated, m_obs, m_flip) + transform.mu_aft
            store["m0"][d_idx] = np.where(arm_is_treated, m_flip, m_obs) + transform.mu_aft
            store["pi"][d_idx] = state.pi
            store["tau"][d_idx] = state.tau
            store["sigma"][d_idx] = state.sigma
            store["M"][d_idx] = state.M
            store["chain_id"][d_idx] = chain
            store["iteration"][d_idx] = t
            store["occupied"][d_idx] = state.occupied
            store["max_index"][d_idx] = state.max_occupied_index
            for mi, mv in enumerate(MOVE_ORDER):
                after = forest.move_stats.get(mv, [0, 0])
                before = stats_before.get(mv, [0, 0])
                store["acc_proposed"][d_idx, mi] = after[0] - before[0]
                store["acc_accepted"][d_idx, mi] = after[1] - before[1]
            if forests is not None:
                forests.append(pack_forest(forest))
            d_idx += 1
    return forests, hit_truncation


_WORKER_JOB: _ChainJob | None = None  # set in each forked pool worker only


def _set_worker_job(job: _ChainJob) -> None:
    global _WORKER_JOB
    _WORKER_JOB = job


def _pool_chain(chain: int):
    """Pool task: run ``chain`` in a forked worker. Warnings are recorded
    under the filters the worker inherited, and an exception is returned
    with its remote traceback, so the parent can replay both in chain order."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = _run_chain(_WORKER_JOB, chain)
        except Exception as exc:
            result = ExceptionWithTraceback(exc, exc.__traceback__)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _pool_size(chains: int, trace_hook) -> int:
    """Forked workers for a fit: one per chain up to the usable CPUs, or 0
    to run the chains in this process. A trace hook observes live forest
    and state objects, so traced fits stay in-process; so do fits where
    forking is unavailable or unsafe (a daemonic pool worker may not have
    children, and other threads may hold locks a forked child would keep)."""
    if (chains < 2 or trace_hook is not None
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    workers = min(chains, cpus)
    return workers if workers > 1 else 0


def _run_chains(job: _ChainJob, trace_hook) -> list[tuple[list[PackedForest] | None, int]]:
    """Every chain's (forests, truncation hits), in chain order."""
    chains = job.config.chains
    workers = _pool_size(chains, trace_hook)
    if not workers:
        return [_run_chain(job, chain, trace_hook) for chain in range(chains)]
    results = []
    registry: dict = {}  # dedupes re-issued warnings across chains, as one process would
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_set_worker_job, initargs=(job,)) as pool:
        for result, caught in pool.imap(_pool_chain, range(chains)):
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno,
                                       registry=registry)
            if isinstance(result, BaseException):
                raise result
            results.append(result)
    return results


def fit(data: EncodedDataset, config: FitConfig,
        trace_hook=None) -> PosteriorDraws:
    """Run the full sampler and materialize posterior draws.

    With more than one chain, the chains run in forked worker processes, one
    per usable CPU; each worker holds its own chain's working set (forest,
    mixture state, random streams) and writes its retained draws straight
    into memory shared with this process. The result is byte-identical to
    running the chains one after another, which is what happens for a single
    chain, on one CPU, or where ``fork`` is unavailable.

    ``trace_hook(chain, iteration, step, payload)``, when given, is invoked
    after every step of every iteration, making the step order auditable.
    The hook sees live objects, so a traced fit runs its chains in this
    process.
    """
    arms = np.unique(data.a)
    if arms.size < 2:
        raise DataError(f"every row is in arm {int(arms[0])}; treatment effects "
                        "need rows in both arms")
    transform = fit_intercept_lognormal_aft(data)
    data_tr = transform_responses(data, transform)

    root = np.random.SeedSequence(config.seed)
    seqs = root.spawn(1 + config.chains)
    rng_cal = np.random.default_rng(seqs[0])

    hyper = config.hyper
    if hyper.sigma_tau_sq is None:
        st2 = calibrate_scale(transform.sigma_aft, hyper,
                              config.calibration_draws, rng_cal)
        hyper = replace(hyper, sigma_tau_sq=st2)

    U = np.column_stack([data_tr.a.astype(float), data_tr.X])
    grids = _build_grids(U, config.max_split_points)
    prior = config.prior.resolved(zeta=4.0 * transform.sigma_aft, grids=grids)
    store, spill = _draw_store(config.chains * config.draws_per_chain, data_tr.n, hyper.H,
                               config.memory_budget_mb, config.spill_dir)
    job = _ChainJob(config=config, hyper=hyper, prior=prior, transform=transform,
                    U=U, grids=grids, delta=data_tr.delta, log_y_tr=np.log(data_tr.y),
                    seqs=seqs[1:], store=store)
    results = _run_chains(job, trace_hook)

    frac_hit = sum(hits for _, hits in results) / (config.chains * config.iterations)
    if frac_hit > 0.01:
        warnings.warn(
            f"maximum occupied component index reached the truncation level in "
            f"{frac_hit:.1%} of sweeps; consider increasing H", RuntimeWarning)

    forests = [pf for chain_forests, _ in results for pf in chain_forests] \
        if config.keep_forests else None
    draws = PosteriorDraws(**store, transform=transform, config=config.to_jsonable(),
                           sigma_tau_sq=hyper.sigma_tau_sq, forests=forests)
    draws._spill = spill  # keep any spill files alive with the draws
    return draws


def predict_m(draws: PosteriorDraws, a: int, x: np.ndarray) -> np.ndarray:
    """Per-draw regression-function values at new covariates.

    ``x`` is one encoded covariate vector or a matrix of rows; returns shape
    (draws,) or (draws, rows) on the original log-time scale. Covariates of
    another width than the fit's raise a ``DataError``.
    """
    if draws.forests is None:
        raise DataError("forest checkpoints were not retained; "
                        "refit with keep_forests=True to enable prediction")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    U = np.column_stack([np.full(X.shape[0], float(a)), X])
    out = np.empty((draws.n_draws, X.shape[0]))
    for d, pf in enumerate(draws.forests):
        out[d] = pf.predict_matrix(U)
    out += draws.transform.mu_aft
    return out[:, 0] if single else out
