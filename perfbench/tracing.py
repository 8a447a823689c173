"""Outside-in tracing: spans around npaft's public functions, no source edits.

``patched(tracer)`` replaces each traced function on the module (or class)
whose code calls it with a wrapper that records a span (name, start, end,
parent span, root span, run id) and, for a few functions, a tag or counter
computed from the arguments or result. Wrappers never touch a random
generator, so traced fits must produce byte-identical draws; the benchmark
checks that. Spans stay in memory until ``save``.
"""

from __future__ import annotations

import contextlib
import functools
import json
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from npaft import engine, forest, mixture


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.tag = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.sweep_stamps: dict[tuple[int, int], list[float]] = defaultdict(list)
        self.last_forest: dict[tuple[int, int], object] = {}

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.tag.append(-1)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.root.append(self.stack[0] if self.stack else idx)
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self.intern(name))
        t0 = perf_counter()
        try:
            yield idx
        finally:
            self._close(idx, t0, perf_counter())

    def wrap(self, name: str, fn, after=None):
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())
            if after is not None:
                after(self, idx, args, out)
            return out
        return traced

    def hook(self, chain, iteration, step, payload) -> None:
        """``engine.fit`` trace hook: time every ``trees`` step and keep the
        chain's forest, whose move statistics hold the acceptances."""
        if step == "trees":
            self.sweep_stamps[(self.run_id, chain)].append(perf_counter())
            self.last_forest[(self.run_id, chain)] = payload

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "tag": np.frombuffer(self.tag, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "root": np.frombuffer(self.root, dtype=np.int64),
                "run": np.frombuffer(self.run, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())


def _tag_proposal(tr: Tracer, idx: int, args, prop) -> None:
    if prop is None:
        tr.tag[idx] = tr.intern("none")
    else:
        tr.tag[idx] = tr.intern(prop.kind if prop.viable else prop.kind + ".nonviable")


def _count_leaves(tr: Tracer, idx: int, args, out) -> None:
    trees = args[0].trees
    tr.counts[tr.run_id]["retained_trees"] += len(trees)
    tr.counts[tr.run_id]["retained_leaves"] += sum(t.n_leaves for t in trees)


def _count_route(tr: Tracer, idx: int, args, out) -> None:
    tr.counts[tr.run_id]["route_row_trees"] += np.atleast_2d(args[1]).shape[0] * args[0].n_trees


def _count_tail(tr: Tracer, idx: int, args, out) -> None:
    mean, sd, lower = (np.asarray(v, dtype=float) for v in args[:3])
    a = np.atleast_1d((lower - mean) / sd)
    tr.counts[tr.run_id]["tail_rows"] += int(np.count_nonzero(a > mixture.TAIL_SWITCH))


# (owner, attribute, span name, after-callback); the owner is the module or
# class through which npaft's own code looks the function up
TARGETS = (
    (engine, "fit_intercept_lognormal_aft", "data.fit_intercept_lognormal_aft", None),
    (engine, "calibrate_scale", "mixture.calibrate_scale", None),
    (engine, "backfit_sweep", "forest.backfit_sweep", None),
    (engine, "update_cluster_labels", "mixture.update_cluster_labels", None),
    (engine, "update_stick_weights", "mixture.update_stick_weights", None),
    (engine, "update_cluster_locations", "mixture.update_cluster_locations", None),
    (engine, "update_mass_and_scale", "mixture.update_mass_and_scale", None),
    (engine, "impute_censored", "mixture.impute_censored", None),
    (engine, "pack_forest", "forest.pack_forest", None),
    (forest, "propose_tree_move", "forest.propose_tree_move", _tag_proposal),
    (forest, "draw_leaf_values", "forest.draw_leaf_values", None),
    (forest.Forest, "counterfactual_total", "forest.Forest.counterfactual_total", _count_leaves),
    (forest.PackedForest, "predict_matrix", "forest.PackedForest.predict_matrix", _count_route),
    (mixture, "sample_truncnorm_lower", "mixture.sample_truncnorm_lower", _count_tail),
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, name, after), (_, _, fn) in zip(TARGETS, originals):
            setattr(owner, attr, tracer.wrap(name, fn, after))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
