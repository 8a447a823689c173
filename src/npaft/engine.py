"""Blocked Gibbs sampler over the tree ensemble and the residual mixture.

One iteration executes, in fixed order: (1) a backfitting sweep over all
trees against the mixture-shifted complete-data responses, (2) cluster-label
resampling, (3) stick-weight resampling, (4) conjugate atom draws with
recentering, (5) mass and kernel-variance updates, (6) truncated-normal
imputation of censored responses. Retained draws store both arms' ensemble
fits for every training row (with the response-scale location added back),
the mixture snapshot, and per-sweep sampler diagnostics.

Randomness derives from one root seed: ``SeedSequence(seed)`` spawns one
sequence per chain (after a first one that nothing draws from, so each
chain's sequence keeps its spawn index), and each chain spawns six
component streams (tree moves/leaf draws, labels, sticks, locations,
mass/scale, imputation). Adding diagnostics therefore never perturbs draws,
and a (seed, data, config) triple reproduces results bit for bit, whether
the chains run one after another in this process or side by side in forked
workers (see ``fit``).
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import multiprocessing
import os
import threading
import warnings
import zipfile
from collections.abc import Callable
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
FORESTS_SCHEMA_VERSION = 3
_FOREST_ARRAYS = ("trees_per_draw", "nodes_per_tree", "var", "cut", "left", "right", "value")


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
        return asdict(self)


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
    forests: PackedForest | None = None  # every retained draw's forest

    @property
    def n_draws(self) -> int:
        return self.m0.shape[0]

    @property
    def n_patients(self) -> int:
        return self.m0.shape[1]

    def _digest(self) -> str:
        """SHA-256 of the draws' chain, iteration and scale bytes: what ties
        a forests file to the fit that wrote it."""
        h = hashlib.sha256()
        for name in ("chain_id", "iteration", "sigma"):
            h.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        return h.hexdigest()

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
        """Read a file written by ``save``; a missing or unreadable file, a
        truncated one included, is a ``DataError`` naming it, and so is one
        with a column of the wrong shape (``_check_column_shapes``)."""
        try:
            with np.load(path) as z:
                header = json.loads(bytes(z["header"]).decode())
                version = header.get("schema_version")
                if version == DRAWS_SCHEMA_VERSION:
                    columns = {c.name: z[c.name] for c in _COLUMNS}
                    _check_column_shapes(columns)
                    return cls(**columns,
                               transform=ResponseTransform(header["mu_aft"],
                                                           header["sigma_aft"]),
                               config=header["config"], sigma_tau_sq=header["sigma_tau_sq"])
        except (ValueError, TypeError, KeyError, OSError, EOFError,
                zipfile.BadZipFile) as exc:
            raise DataError(f"cannot read draw file {path}: {exc}") from None
        raise DataError(f"unsupported draw-file schema: {version}")

    def save_forests(self, path: str | Path) -> None:
        """Write every retained draw's forest to one ``.npz`` at exactly
        ``path``: the draws' node arrays end to end, the node count of each
        tree, the tree count of each draw, the predictor column count, and
        the draws' ``_digest``."""
        if self.forests is None:
            raise DataError("no forests retained; refit with keep_forests=True")
        pf = self.forests
        with open(path, "wb") as fh:  # a bare path would get ".npz" appended
            np.savez(fh, schema_version=np.int32(FORESTS_SCHEMA_VERSION),
                     n_cols=np.int32(pf.n_cols), **{f: getattr(pf, f) for f in _FOREST_ARRAYS},
                     draws_digest=np.array(self._digest()))

    def load_forests(self, path: str | Path) -> None:
        """Read a file written by ``save_forests``; a file that is not
        forests ``predict_matrix`` can walk (``_forest_problem``), or of
        another draw count than these draws', or saved with other draws, is
        a ``DataError`` naming it."""
        bad = f"{path} is not a forests file of schema {FORESTS_SCHEMA_VERSION}"
        try:
            with np.load(path, allow_pickle=False) as z:
                version = int(z["schema_version"])
                if version != FORESTS_SCHEMA_VERSION:
                    raise DataError(f"{bad}: it has schema {version}")
                pf = PackedForest(**{f: z[f] for f in _FOREST_ARRAYS}, n_cols=int(z["n_cols"]))
                digest = str(z["draws_digest"])
        except (OSError, ValueError, TypeError, KeyError, EOFError,
                zipfile.BadZipFile) as exc:
            raise DataError(f"{bad}: {exc}") from None
        problem = _forest_problem(pf)
        if problem:
            raise DataError(f"{bad}: {problem}")
        if pf.n_draws != self.n_draws:
            raise DataError(f"{path} holds the forests of {pf.n_draws} draws, "
                            f"but there are {self.n_draws} draws")
        if digest != self._digest():
            raise DataError(f"{path} holds the forests of another fit than these draws")
        self.forests = pf


_COLUMNS = tuple(f for f in fields(PosteriorDraws) if "about" in f.metadata)


def _check_column_shapes(columns: dict[str, np.ndarray]) -> None:
    """Raise a ``DataError`` naming the first draws-file column whose shape
    is not (draws, *its per-draw shape), with the draw count and ``n`` taken
    from ``m0`` and ``H`` from ``pi``."""
    m0, pi = columns["m0"], columns["pi"]
    if m0.ndim != 2 or pi.ndim != 2:
        raise DataError(f"columns m0 and pi must be 2-D, got shapes {m0.shape} and {pi.shape}")
    sizes = {"n": m0.shape[1], "H": pi.shape[1]}
    for c in _COLUMNS:
        want = (m0.shape[0], *(sizes.get(s, s) for s in c.metadata["shape"]))
        if columns[c.name].shape != want:
            raise DataError(f"column {c.name} has shape {columns[c.name].shape}, "
                            f"expected {want}")


def _forest_problem(pf: PackedForest) -> str | None:
    """What keeps ``pf`` from being forests that ``predict_matrix`` can
    walk, or None: a node array of the wrong dtype, counts that disagree
    with the node arrays or each other, a split column outside [-1, n_cols),
    a leaf with a child, a child outside its own tree's node block, or a node
    that is not the child of exactly one node (a root of none), which could
    make a walk loop."""
    ints = (pf.var, pf.left, pf.right, pf.nodes_per_tree, pf.trees_per_draw)
    if (any(a.dtype.kind not in "iu" for a in ints)
            or any(a.dtype.kind != "f" for a in (pf.cut, pf.value))):
        return "a node array has the wrong dtype"
    if (pf.nodes_per_tree.ndim != 1 or pf.trees_per_draw.ndim != 1
            or (pf.nodes_per_tree < 1).any() or (pf.trees_per_draw < 0).any()
            or pf.trees_per_draw.sum() != pf.n_trees
            or any(a.shape != (pf.nodes_per_tree.sum(),)
                   for a in (pf.var, pf.cut, pf.left, pf.right, pf.value))):
        return "its node, tree and draw counts disagree"
    if ((pf.var < -1) | (pf.var >= pf.n_cols)).any():
        return f"a split column lies outside [-1, {pf.n_cols})"
    leaf = pf.var == -1
    if (pf.left[leaf] != -1).any() or (pf.right[leaf] != -1).any():
        return "a leaf has a child"
    # child indices count from the first node of their draw
    node_at = np.concatenate([[0], np.cumsum(pf.nodes_per_tree, dtype=np.int64)])
    first_tree = np.cumsum(pf.trees_per_draw) - pf.trees_per_draw
    tree_of = np.repeat(np.arange(pf.n_trees), pf.nodes_per_tree)[~leaf]
    base = np.tile(np.repeat(node_at[first_tree], pf.trees_per_draw)[tree_of], 2)
    block = np.tile(tree_of, 2)
    children = np.concatenate([pf.left[~leaf], pf.right[~leaf]]) + base
    if ((children < node_at[block]) | (children >= node_at[block + 1])).any():
        return "a child lies outside its tree's node block"
    parents = np.bincount(children, minlength=node_at[-1])
    parents[node_at[:-1]] += 1  # so a tree's root, which has no parent, counts 1
    if (parents != 1).any():
        return "a node is not the child of exactly one node"
    return None


def _draw_store(total: int, n: int, H: int) -> dict[str, np.ndarray]:
    """Zeroed draw columns by name, each in anonymous shared memory, so rows
    that a forked chain worker writes are the parent's rows too."""
    sizes = {"n": n, "H": H}
    store = {}
    for c in _COLUMNS:
        shape = (total, *(sizes.get(s, s) for s in c.metadata["shape"]))
        dtype = c.metadata["dtype"]
        count = math.prod(shape)
        buf = mmap.mmap(-1, max(count * dtype.itemsize, 1))
        store[c.name] = np.frombuffer(buf, dtype, count).reshape(shape)
    return store


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
    trace_hook: Callable | None = None  # see ``fit``


def _run_chain(job: _ChainJob, chain: int) -> tuple[list[PackedForest] | None, int]:
    """Run one chain and write its retained draws into its own rows of
    ``job.store``. Returns the chain's packed forests (None unless
    ``keep_forests``) and the number of sweeps that hit the truncation level."""
    config, hyper, transform, store = job.config, job.hyper, job.transform, job.store
    trace_hook = job.trace_hook
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


_WORKER_TASK: tuple[Callable, object] | None = None  # set in each forked pool worker only


def _set_worker_task(fn: Callable, job) -> None:
    global _WORKER_TASK
    _WORKER_TASK = fn, job


def _pool_task(i: int):
    """Pool task: run ``fn(job, i)`` in a forked worker. Warnings are recorded
    under the filters the worker inherited, and an exception is returned
    with its remote traceback, so the parent can replay both in task order."""
    fn, job = _WORKER_TASK
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = fn(job, i)
        except Exception as exc:
            result = ExceptionWithTraceback(exc, exc.__traceback__)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _pool_size(count: int, in_process: bool = False) -> int:
    """Forked workers for ``count`` tasks: one per task up to the usable
    CPUs, or 0 to run the tasks in this process. Tasks also stay in-process
    when asked to, or where forking is unavailable or unsafe (a daemonic
    pool worker may not have children, and other threads may hold locks a
    forked child would keep)."""
    if (count < 2 or in_process
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    workers = min(count, cpus)
    return workers if workers > 1 else 0


def map_tasks(fn: Callable, job, count: int, in_process: bool = False) -> list:
    """``[fn(job, i) for i in range(count)]``, run in forked workers (see
    ``_pool_size``). The workers inherit ``fn`` and ``job`` by forking, so
    neither is pickled and ``fn`` may be a closure; only ``i``, results and
    warnings are. Results, worker warnings and the first exception arrive in
    task order, as they would in this process."""
    workers = _pool_size(count, in_process)
    if not workers:
        return [fn(job, i) for i in range(count)]
    results = []
    registry: dict = {}  # dedupes re-issued warnings across tasks, as one process would
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_set_worker_task, initargs=(fn, job)) as pool:
        for result, caught in pool.imap(_pool_task, range(count)):
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

    With more than one chain, the chains run in forked worker processes
    (``map_tasks``), one per usable CPU; each worker holds its own chain's
    working set (forest, mixture state, random streams) and writes its
    retained draws straight into memory shared with this process. The result
    is byte-identical to running the chains one after another, which is what
    happens for a single chain, on one CPU, or where ``fork`` is unavailable.

    ``trace_hook(chain, iteration, step, payload)``, when given, is invoked
    after every step of every iteration, making the step order auditable.
    The hook sees live objects, so a traced fit runs its chains in this
    process.
    """
    arms = np.unique(data.a)
    if arms.size < 2:
        raise DataError(f"every row is in arm {int(arms[0])}; treatment effects "
                        "need rows in both arms")
    if not data.delta.any():
        raise DataError("every row is censored; the model needs observed event times")
    if data.delta.all() and np.all(data.y == data.y[0]):
        raise DataError(f"every row is an event at the same time, {data.y[0]:g}; "
                        "the residual scale cannot be estimated")
    transform = fit_intercept_lognormal_aft(data)
    data_tr = transform_responses(data, transform)

    # seqs[0] is unused: chain c keeps spawn index c + 1
    seqs = np.random.SeedSequence(config.seed).spawn(1 + config.chains)

    hyper = config.hyper
    if hyper.sigma_tau_sq is None:
        hyper = replace(hyper, sigma_tau_sq=calibrate_scale(transform.sigma_aft, hyper))

    U = np.column_stack([data_tr.a.astype(float), data_tr.X])
    grids = [split_point_grid(col, config.max_split_points) for col in U.T]
    prior = replace(config.prior, zeta=4.0 * transform.sigma_aft)
    store = _draw_store(config.chains * config.draws_per_chain, data_tr.n, hyper.H)
    job = _ChainJob(config=config, hyper=hyper, prior=prior, transform=transform,
                    U=U, grids=grids, delta=data_tr.delta, log_y_tr=np.log(data_tr.y),
                    seqs=seqs[1:], store=store, trace_hook=trace_hook)
    results = map_tasks(_run_chain, job, config.chains, in_process=trace_hook is not None)

    frac_hit = sum(hits for _, hits in results) / (config.chains * config.iterations)
    if frac_hit > 0.01:
        warnings.warn(
            f"maximum occupied component index reached the truncation level in "
            f"{frac_hit:.1%} of sweeps; consider increasing H", RuntimeWarning)

    forests = PackedForest.stack([pf for chain_forests, _ in results for pf in chain_forests]) \
        if config.keep_forests else None
    return PosteriorDraws(**store, transform=transform, config=config.to_jsonable(),
                          sigma_tau_sq=hyper.sigma_tau_sq, forests=forests)


def check_arm(a) -> None:
    if a not in (0, 1):
        raise ConfigError(f"arm must be 0 or 1, got {a!r}")


def predict_m(draws: PosteriorDraws, a: int, x: np.ndarray) -> np.ndarray:
    """Per-draw regression-function values at new covariates.

    ``x`` is one encoded covariate vector or a matrix of rows; returns shape
    (draws,) or (draws, rows) on the original log-time scale. An arm other
    than 0 or 1 is a ``ConfigError``; a non-finite covariate, which would
    go right at every split, and covariates of another width than the
    fit's are ``DataError``s.
    """
    check_arm(a)
    if draws.forests is None:
        raise DataError("forest checkpoints were not retained; "
                        "refit with keep_forests=True to enable prediction")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"non-finite covariate {X[i, j]} at row {i}, column {j}")
    out = draws.forests.predict_matrix(np.column_stack([np.full(X.shape[0], float(a)), X]))
    out += draws.transform.mu_aft
    return out[:, 0] if single else out
