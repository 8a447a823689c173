"""Binary regression trees, tree-ensemble prior, and the Metropolis-Hastings
backfitting sweep.

Trees store nodes in parallel lists indexed by node id (slot 0 is the root,
freed slots are recycled). Decision rules are ``u[k] <= c`` with cut values
drawn from per-column quantile grids; rule legality is tracked in grid-index
space, so a proposal can never create a logically empty leaf, and proposals
that would strand a leaf with zero training rows are rejected outright.
Live trees and packed snapshots carry the same node fields (``var``, ``cut``,
``left``, ``right``), and one function reads a decision rule: ``tree_fit``
gives the fit at every row, for predictions and counterfactuals, and with
node ids for values, the leaf each row reaches, for the moves.

The structure prior splits a depth-``d`` node with probability
``alpha * (1 + d)**-beta``; a node with no legal cut is a forced leaf. Leaf
values carry a Normal(0, zeta^2 / (4 J k^2)) prior, integrated out in closed
form for the acceptance ratio.

A proposal never copies the tree and leaves it as it was. Grow and prune are
scored from the (sum, count) sufficient statistics of one leaf and its two
children; change and swap re-route only the rows of the affected subtree
and score its leaves' statistics. The tree changes
only when the move is accepted (``apply_move``). One ``bincount`` pass per
tree gives the leaf sums of the partial residuals; the sweep keeps them
current through an accepted move and reuses them for the leaf-value draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError

# proposal mixture (grow, prune, change, swap)
MOVE_GROW, MOVE_PRUNE, MOVE_CHANGE, MOVE_SWAP = "grow", "prune", "change", "swap"
MOVE_PROBS = {MOVE_GROW: 0.25, MOVE_PRUNE: 0.25, MOVE_CHANGE: 0.40, MOVE_SWAP: 0.10}
_MOVE_EDGES = tuple(itertools.accumulate(MOVE_PROBS.values()))[:-1]  # swap takes the rest


@dataclass
class ForestPrior:
    """Tree-ensemble prior: split penalties, tree count, node-value scale."""

    alpha: float = 0.95
    beta: float = 2.0
    n_trees: int = 200
    k: float = 2.0
    zeta: float | None = None  # 4 * sigma_aft, set from the response fit

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.k <= 0:
            raise ConfigError(f"k must be > 0, got {self.k}")
        if self.zeta is not None and self.zeta <= 0:
            raise ConfigError(f"zeta must be > 0, got {self.zeta}")

    @property
    def sigma_mu2(self) -> float:
        """Leaf-value prior variance zeta^2 / (4 J k^2)."""
        if self.zeta is None:
            raise ConfigError("zeta is unset; it is derived from the response-scale fit")
        return self.zeta ** 2 / (4.0 * self.n_trees * self.k ** 2)


def split_prob(depth: int, prior: ForestPrior) -> float:
    """Probability that a node at the given depth splits: alpha*(1+depth)^-beta."""
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    return prior.alpha * (1.0 + depth) ** (-prior.beta)


def leaf_log_marginal(residual_sum: float, residual_sq_sum: float, count: int,
                      sigma: float, prior: ForestPrior) -> float:
    """Log of the leaf marginal likelihood with the node-value prior integrated out.

    ``log ∫ prod_i N(r_i; mu, sigma^2) N(mu; 0, sigma_mu^2) dmu`` evaluated
    from the sufficient statistics (sum, sum of squares, count).
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if sigma <= 0:
        raise ConfigError(f"sigma must be > 0, got {sigma}")
    s2 = sigma * sigma
    sm2 = prior.sigma_mu2
    denom = s2 + count * sm2
    return (-0.5 * count * math.log(2.0 * math.pi * s2)
            - residual_sq_sum / (2.0 * s2)
            + 0.5 * math.log(s2 / denom)
            + sm2 * residual_sum ** 2 / (2.0 * s2 * denom))


def _collapsed_term(total: float, count: int, s2: float, sm2: float) -> float:
    # leaf_log_marginal minus the pieces that are invariant under re-partitioning
    # a fixed row set: -(n/2) log(2 pi s2) and -sum(r^2)/(2 s2)
    denom = s2 + count * sm2
    return 0.5 * math.log(s2 / denom) + sm2 * (total * total) / (2.0 * s2 * denom)


class TreeWorkspace:
    """Shared per-chain view of the predictor matrix and split grids."""

    def __init__(self, U: np.ndarray, grids: list[np.ndarray]):
        U = np.asarray(U, dtype=float)
        if U.ndim != 2:
            raise ConfigError("predictor matrix must be 2-D")
        if len(grids) != U.shape[1]:
            raise ConfigError("one split grid per predictor column is required")
        self.U = np.ascontiguousarray(U)
        self.cols = [np.ascontiguousarray(U[:, k]) for k in range(U.shape[1])]
        self.grids = [np.asarray(g, dtype=float) for g in grids]
        self.n, self.p = U.shape
        self.grid_sizes = [g.size for g in self.grids]
        self.splittable_cols = [k for k, size in enumerate(self.grid_sizes) if size >= 1]
        # (col, lo, hi) of every splittable column at an unconstrained node
        self.full_legal = [(k, 0, self.grid_sizes[k]) for k in self.splittable_cols]
        self.legal_pos = {k: i for i, k in enumerate(self.splittable_cols)}


def tree_fit(var, cut, left, right, value, cols, node: int):
    """The fit of the tree below ``node`` at every row of ``cols`` (one
    array per predictor column), so each row gets its leaf's stored value
    bit for bit. A row goes left when ``cols[var[w]] <= cut[w]``.

    A leaf gives its value. A node whose children are both leaves indexes
    the two-entry table (right value, left value) with its boolean mask,
    which ``take`` reads as 0 or 1 without a branch per row; ``np.where``
    branches on every row and costs about three times as much on a random
    mask of 20,000 rows. Any other node selects with one ``np.where``
    between its children's fits, a leaf child's value taken without a call.
    """
    k = var[node]
    if k < 0:
        return value[node]
    lw, rw = left[node], right[node]
    if var[lw] < 0 and var[rw] < 0:
        return np.array((value[rw], value[lw])).take(cols[k] <= cut[node])
    return np.where(cols[k] <= cut[node],
                    value[lw] if var[lw] < 0 else tree_fit(var, cut, left, right, value, cols, lw),
                    value[rw] if var[rw] < 0 else tree_fit(var, cut, left, right, value, cols, rw))


class Tree:
    """One binary decision tree bound to a workspace.

    Node fields live in parallel lists; ``var[v] == -1`` marks a leaf, and
    ``cut[v]`` is the threshold ``grids[var[v]][cut_idx[v]]`` (NaN at leaves).
    ``leaf_of_row`` maps every training row to its leaf node id and
    ``count[v]`` holds the number of rows in leaf ``v``; every structural
    operation keeps both consistent.
    """

    __slots__ = ("ws", "var", "cut_idx", "cut", "left", "right", "parent", "depth",
                 "values", "leaf_ids", "internal_ids", "leaf_of_row", "count", "free")

    def __init__(self, ws: TreeWorkspace):
        self.ws = ws
        self.var = [-1]
        self.cut_idx = [-1]
        self.cut = [math.nan]
        self.left = [-1]
        self.right = [-1]
        self.parent = [-1]
        self.depth = [0]
        self.values = np.zeros(1)
        self.leaf_ids = [0]
        self.internal_ids: list[int] = []
        self.leaf_of_row = np.zeros(ws.n, dtype=np.intp)
        self.count = [ws.n]
        self.free: list[int] = []

    # -- structure -----------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    def _alloc(self) -> int:
        if self.free:
            return self.free.pop()
        self.var.append(-1)
        self.cut_idx.append(-1)
        self.cut.append(math.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.parent.append(-1)
        self.depth.append(0)
        self.count.append(0)
        if len(self.var) > self.values.shape[0]:
            self.values = np.append(self.values, 0.0)
        return len(self.var) - 1

    def set_rule(self, v: int, var: int, cut_idx: int) -> None:
        """Set node ``v``'s rule; ``var == -1`` makes it a leaf."""
        self.var[v] = var
        self.cut_idx[v] = cut_idx
        self.cut[v] = self.ws.grids[var][cut_idx] if var >= 0 else math.nan

    def grow_leaf(self, leaf: int, var: int, cut_idx: int, rows: np.ndarray,
                  goes_left: np.ndarray) -> tuple[int, int]:
        """Split ``leaf`` on (var, cut); ``rows`` are its rows and
        ``goes_left`` is true where a row goes to the left child."""
        lid, rid = self._alloc(), self._alloc()
        d = self.depth[leaf] + 1
        for nid in (lid, rid):
            self.set_rule(nid, -1, -1)
            self.left[nid] = self.right[nid] = -1
            self.parent[nid] = leaf
            self.depth[nid] = d
            self.values[nid] = 0.0
        self.set_rule(leaf, var, cut_idx)
        self.left[leaf], self.right[leaf] = lid, rid
        self.leaf_ids.remove(leaf)
        self.leaf_ids.extend((lid, rid))
        self.internal_ids.append(leaf)
        n_left = int(np.count_nonzero(goes_left))
        self.count[lid] = n_left
        self.count[rid] = rows.shape[0] - n_left
        self.leaf_of_row[rows] = np.array((rid, lid)).take(goes_left)
        return lid, rid

    def prune_node(self, v: int, rows_mask: np.ndarray) -> None:
        """Collapse an internal node whose children are both leaves."""
        lid, rid = self.left[v], self.right[v]
        self.leaf_ids.remove(lid)
        self.leaf_ids.remove(rid)
        self.free.extend((rid, lid))
        self.set_rule(v, -1, -1)
        self.left[v] = self.right[v] = -1
        self.internal_ids.remove(v)
        self.leaf_ids.append(v)
        self.count[v] = self.count[lid] + self.count[rid]
        self.leaf_of_row[rows_mask] = v

    def prunable_nodes(self) -> list[int]:
        return [v for v in self.internal_ids
                if self.var[self.left[v]] < 0 and self.var[self.right[v]] < 0]

    def leaves_under(self, v: int) -> list[int]:
        out, stack = [], [v]
        while stack:
            w = stack.pop()
            if self.var[w] < 0:
                out.append(w)
            else:
                stack.append(self.left[w])
                stack.append(self.right[w])
        return out

    def uses_column(self, k: int) -> bool:
        return any(self.var[v] == k for v in self.internal_ids)

    # -- rule legality ---------------------------------------------------

    def intervals_at(self, v: int) -> dict[int, tuple[int, int]]:
        """Legal cut-index interval [lo, hi) per column constrained above ``v``."""
        iv: dict[int, tuple[int, int]] = {}
        sizes = self.ws.grid_sizes
        child, node = v, self.parent[v]
        while node >= 0:
            k, ci = self.var[node], self.cut_idx[node]
            lo, hi = iv.get(k, (0, sizes[k]))
            if child == self.left[node]:
                hi = min(hi, ci)
            else:
                lo = max(lo, ci + 1)
            iv[k] = (lo, hi)
            child, node = node, self.parent[node]
        return iv

    def legal_columns(self, intervals: dict[int, tuple[int, int]]) -> list[tuple[int, int, int]]:
        """Columns with at least one legal cut, as (col, lo, hi) triples.

        Starts from the workspace's full list and touches only the columns
        in ``intervals``; the result must not be modified.
        """
        full = self.ws.full_legal
        if not intervals:
            return full
        out = list(full)
        pos = self.ws.legal_pos
        dropped = []
        for k, (lo, hi) in intervals.items():
            if hi > lo:
                out[pos[k]] = (k, lo, hi)
            else:
                dropped.append(pos[k])
        for i in sorted(dropped, reverse=True):
            del out[i]
        return out

    def n_legal_columns(self, intervals: dict[int, tuple[int, int]]) -> int:
        """``len(legal_columns(intervals))`` without building the list."""
        return (len(self.ws.splittable_cols)
                - sum(1 for lo, hi in intervals.values() if hi <= lo))

    # -- routing -----------------------------------------------------------

    def reroute_subtree(self, v: int) -> tuple[np.ndarray, np.ndarray, dict[int, int]] | None:
        """Route the rows now under ``v`` through its current rules.

        Returns the rows (ascending), the leaf each reaches, and the row
        count per leaf under ``v``, in ``leaves_under`` order; None when some
        leaf would get no row. ``leaf_of_row`` is left as it was.
        """
        leaves = self.leaves_under(v)
        lut = np.zeros(len(self.var), dtype=bool)
        lut[leaves] = True
        rows = np.nonzero(lut[self.leaf_of_row])[0]
        # each row's "fit" is the id of the leaf it reaches
        cols = {k: self.ws.cols[k][rows] for k in set(self.var) if k >= 0}
        leaf_of = tree_fit(self.var, self.cut, self.left, self.right, range(len(self.var)),
                           cols, v)
        n = np.bincount(leaf_of, minlength=len(self.var)).tolist()
        counts = {leaf: n[leaf] for leaf in leaves}
        if 0 in counts.values():
            return None
        return rows, leaf_of, counts

    def fit_vector(self) -> np.ndarray:
        return self.values[self.leaf_of_row]

    def validate_subtree(self, v: int,
                         intervals: dict[int, tuple[int, int]] | None = None
                         ) -> tuple[bool, float]:
        """Check rule legality below ``v``; return (ok, rule log-prior sum).

        The rule log-prior of an internal node is
        ``-log(#legal columns) - log(#legal cuts of its column)``.
        ``intervals`` are those at ``v``, computed when not given.
        """
        base = self.intervals_at(v) if intervals is None else intervals
        var, cut, sizes = self.var, self.cut_idx, self.ws.grid_sizes
        total = 0.0
        if var[v] < 0:
            return True, total
        # internal nodes only, each with its intervals and legal-column count
        stack = [(v, base, self.n_legal_columns(base))]
        while stack:
            w, iv, n_legal = stack.pop()
            k, ci = var[w], cut[w]
            lo, hi = iv.get(k, (0, sizes[k]))
            if not lo <= ci < hi:
                return False, -math.inf
            total += -math.log(n_legal) - math.log(hi - lo)
            lw, rw = self.left[w], self.right[w]
            if var[lw] >= 0:
                ivl = dict(iv)
                ivl[k] = (lo, ci)
                stack.append((lw, ivl, n_legal - (ci <= lo)))
            if var[rw] >= 0:
                ivr = dict(iv)
                ivr[k] = (ci + 1, hi)
                stack.append((rw, ivr, n_legal - (ci + 1 >= hi)))
        return True, total


@dataclass
class Proposal:
    """One candidate tree move: its log prior and proposal ratios, and what
    ``apply_move`` needs to carry it out. Building it leaves the tree as it was."""

    kind: str
    viable: bool = False
    log_prior_ratio: float = -math.inf
    log_q_ratio: float = 0.0
    node: int = -1                    # grown leaf, pruned node, or top of the changed subtree
    rules: tuple = ()                 # (node, var, cut_idx) rules the move sets
    rows: np.ndarray | None = None    # grow: the leaf's rows; change/swap: subtree rows
    goes_left: np.ndarray | None = None  # grow: true where a row goes to the left child
    leaves: np.ndarray | None = None  # change/swap: new leaf per row
    counts: dict | None = None        # change/swap: rows per leaf under ``node`` after the move


def _child_splittable(n_legal: int, lo: int, hi: int) -> bool:
    # the child differs from its parent only in the split column's interval
    # [lo, hi); it can split if that is non-empty or another column is legal
    return hi > lo or n_legal > 1


def _split_log_prior(tree: Tree, v: int, n_legal: int, width: int, lo: int,
                     ci: int, hi: int, prior: ForestPrior) -> float:
    """Log prior ratio of splitting leaf ``v`` on a rule with ``width`` legal
    cuts at index ``ci`` of [lo, hi), against leaving it a leaf."""
    d = tree.depth[v]
    p_d = split_prob(d, prior)
    p_d1 = split_prob(d + 1, prior)
    lpr = math.log(p_d) - math.log1p(-p_d) - math.log(n_legal) - math.log(width)
    if _child_splittable(n_legal, lo, ci):
        lpr += math.log1p(-p_d1)
    if _child_splittable(n_legal, ci + 1, hi):
        lpr += math.log1p(-p_d1)
    return lpr


def _propose_grow(tree: Tree, rng: np.random.Generator, prior: ForestPrior) -> Proposal | None:
    leaves = tree.leaf_ids
    leaf = leaves[rng.integers(len(leaves))]
    legal = tree.legal_columns(tree.intervals_at(leaf))
    if not legal:
        return None
    k, lo, hi = legal[rng.integers(len(legal))]
    ci = int(rng.integers(lo, hi))
    rows = np.nonzero(tree.leaf_of_row == leaf)[0]
    goes_left = tree.ws.cols[k][rows] <= tree.ws.grids[k][ci]
    if not 0 < np.count_nonzero(goes_left) < rows.shape[0]:
        return Proposal(MOVE_GROW)  # would strand an empty leaf

    width = hi - lo
    lpr = _split_log_prior(tree, leaf, len(legal), width, lo, ci, hi, prior)
    # after the grow the leaf is prunable, and its parent no longer is if
    # the leaf's sibling is a leaf
    p = tree.parent[leaf]
    n_prunable_new = len(tree.prunable_nodes()) + 1
    if p >= 0 and tree.var[tree.left[p]] < 0 and tree.var[tree.right[p]] < 0:
        n_prunable_new -= 1
    lqr = (math.log(MOVE_PROBS[MOVE_PRUNE]) - math.log(n_prunable_new)
           - math.log(MOVE_PROBS[MOVE_GROW])
           + math.log(len(leaves)) + math.log(len(legal)) + math.log(width))
    return Proposal(MOVE_GROW, True, lpr, lqr, node=leaf, rules=((leaf, k, ci),),
                    rows=rows, goes_left=goes_left)


def _propose_prune(tree: Tree, rng: np.random.Generator, prior: ForestPrior) -> Proposal | None:
    prunable = tree.prunable_nodes()
    if not prunable:
        return None
    v = prunable[rng.integers(len(prunable))]
    intervals = tree.intervals_at(v)
    n_legal = tree.n_legal_columns(intervals)
    k, ci = tree.var[v], tree.cut_idx[v]
    lo, hi = intervals.get(k, (0, tree.ws.grid_sizes[k]))
    width = hi - lo
    lpr = -_split_log_prior(tree, v, n_legal, width, lo, ci, hi, prior)
    lqr = (math.log(MOVE_PROBS[MOVE_GROW]) - math.log(tree.n_leaves - 1)
           - math.log(n_legal) - math.log(width)
           - math.log(MOVE_PROBS[MOVE_PRUNE]) + math.log(len(prunable)))
    return Proposal(MOVE_PRUNE, True, lpr, lqr, node=v)


def _propose_rules(tree: Tree, kind: str, v: int, rules: tuple,
                   intervals: dict[int, tuple[int, int]]) -> Proposal:
    """Score setting ``rules`` in the subtree at ``v`` (change and swap).

    The rules are set only while the subtree's legality is checked and its
    rows are re-routed, then put back. The move is viable when every rule
    stays legal and every leaf under ``v`` keeps a row; its log prior ratio
    is the change in the subtree's rule log-prior.
    """
    old = tuple((w, tree.var[w], tree.cut_idx[w]) for w, _, _ in rules)
    for rule in rules:
        tree.set_rule(*rule)
    try:
        ok_new, rules_new = tree.validate_subtree(v, intervals)
        routed = tree.reroute_subtree(v) if ok_new else None
    finally:
        for rule in old:
            tree.set_rule(*rule)
    if routed is None:
        return Proposal(kind)
    _, rules_old = tree.validate_subtree(v, intervals)
    rows, leaves, counts = routed
    return Proposal(kind, True, rules_new - rules_old, 0.0, node=v, rules=rules,
                    rows=rows, leaves=leaves, counts=counts)


def _propose_change(tree: Tree, rng: np.random.Generator, prior: ForestPrior) -> Proposal | None:
    if not tree.internal_ids:
        return None
    v = tree.internal_ids[rng.integers(len(tree.internal_ids))]
    intervals = tree.intervals_at(v)
    legal = tree.legal_columns(intervals)
    k_new, lo, hi = legal[rng.integers(len(legal))]
    ci_new = int(rng.integers(lo, hi))
    k_old = tree.var[v]
    lo_old, hi_old = intervals.get(k_old, (0, tree.ws.grid_sizes[k_old]))
    prop = _propose_rules(tree, MOVE_CHANGE, v, ((v, k_new, ci_new),), intervals)
    if prop.viable:
        prop.log_q_ratio = math.log(hi - lo) - math.log(hi_old - lo_old)
    return prop


def _propose_swap(tree: Tree, rng: np.random.Generator, prior: ForestPrior) -> Proposal | None:
    var, cut = tree.var, tree.cut_idx
    pairs = [(v, c) for v in tree.internal_ids
             for c in (tree.left[v], tree.right[v]) if var[c] >= 0]
    if not pairs:
        return None
    v, c = pairs[rng.integers(len(pairs))]
    # pair count is structure-determined, hence unchanged: symmetric proposal
    return _propose_rules(tree, MOVE_SWAP, v,
                          ((v, var[c], cut[c]), (c, var[v], cut[v])),
                          tree.intervals_at(v))


_PROPOSERS = {MOVE_GROW: _propose_grow, MOVE_PRUNE: _propose_prune,
              MOVE_CHANGE: _propose_change, MOVE_SWAP: _propose_swap}


def propose_tree_move(tree: Tree, rng: np.random.Generator,
                      prior: ForestPrior) -> Proposal | None:
    """Draw a move type and score a candidate move; the tree is not changed.

    Returns None when the drawn move type has no legal instance (a no-op
    draw); returns a non-viable Proposal when the candidate would strand an
    empty leaf or an illegal rule (an outright rejection).
    """
    u = rng.random()
    if u < _MOVE_EDGES[0]:
        kind = MOVE_GROW
    elif u < _MOVE_EDGES[1]:
        kind = MOVE_PRUNE
    elif u < _MOVE_EDGES[2]:
        kind = MOVE_CHANGE
    else:
        kind = MOVE_SWAP
    return _PROPOSERS[kind](tree, rng, prior)


def apply_move(tree: Tree, prop: Proposal) -> None:
    """Carry out a viable proposal on the tree it was built from."""
    v = prop.node
    if prop.kind == MOVE_GROW:
        _, k, ci = prop.rules[0]
        tree.grow_leaf(v, k, ci, prop.rows, prop.goes_left)
    elif prop.kind == MOVE_PRUNE:
        lor = tree.leaf_of_row
        tree.prune_node(v, (lor == tree.left[v]) | (lor == tree.right[v]))
    else:
        for rule in prop.rules:
            tree.set_rule(*rule)
        tree.leaf_of_row[prop.rows] = prop.leaves
        for leaf, c in prop.counts.items():
            tree.count[leaf] = c


def leaf_sums(tree: Tree, partial_residuals: np.ndarray) -> list[float]:
    """Sum of the partial residuals per node id (0 at internal nodes), with
    room for the two nodes a grow may add. Each leaf's rows are summed in
    row order, so a sum taken the same way over an ascending list of one
    leaf's rows has the same bits."""
    return np.bincount(tree.leaf_of_row, weights=partial_residuals,
                       minlength=len(tree.var) + 2).tolist()


def _log_lik_ratio(tree: Tree, prop: Proposal, partial_residuals: np.ndarray,
                   sigma: float, prior: ForestPrior, sums: list[float]):
    """Log marginal-likelihood ratio of a viable proposal from per-leaf
    (sum, count) statistics; ``sums`` are the current tree's ``leaf_sums``.

    Also returns the residual sums of the leaves the move creates (grow:
    left and right child; change and swap: a ``bincount`` by node id), in
    row order, so an accepted move can update ``sums`` exactly.
    """
    s2 = sigma * sigma
    sm2 = prior.sigma_mu2
    v = prop.node
    count = tree.count
    if prop.kind == MOVE_GROW:
        # each side summed in row order, as ``leaf_sums`` adds up a leaf
        s_right, s_left = np.bincount(prop.goes_left, weights=partial_residuals[prop.rows],
                                      minlength=2).tolist()
        n_left = int(np.count_nonzero(prop.goes_left))
        n_right = prop.rows.shape[0] - n_left
        llr = (_collapsed_term(s_left, n_left, s2, sm2)
               + _collapsed_term(s_right, n_right, s2, sm2)
               - _collapsed_term(sums[v], count[v], s2, sm2))
        return llr, (s_left, s_right)
    if prop.kind == MOVE_PRUNE:
        lid, rid = tree.left[v], tree.right[v]
        s_l, s_r = sums[lid], sums[rid]
        llr = (_collapsed_term(s_l + s_r, count[lid] + count[rid], s2, sm2)
               - _collapsed_term(s_l, count[lid], s2, sm2)
               - _collapsed_term(s_r, count[rid], s2, sm2))
        return llr, None
    new_sums = np.bincount(prop.leaves, weights=partial_residuals[prop.rows],
                           minlength=len(tree.var)).tolist()
    llr = 0.0
    for leaf, c in prop.counts.items():
        llr += (_collapsed_term(new_sums[leaf], c, s2, sm2)
                - _collapsed_term(sums[leaf], count[leaf], s2, sm2))
    return llr, new_sums


def mh_update_tree(tree: Tree, partial_residuals: np.ndarray, sigma: float,
                   prior: ForestPrior, rng: np.random.Generator,
                   stats: dict | None = None,
                   likelihood_on: bool = True,
                   sums: list[float] | None = None) -> Tree:
    """One Metropolis-Hastings structure update, in place; returns ``tree``.

    Acceptance probability is min(1, prior ratio x marginal-likelihood ratio
    x proposal ratio); with ``likelihood_on`` false the chain targets the
    tree prior alone (used by the prior-sampling oracle tests). ``sums``, if
    given, must be the tree's ``leaf_sums`` of ``partial_residuals``; an
    accepted move updates it in place, bit for bit.
    """
    prop = propose_tree_move(tree, rng, prior)
    if prop is None:
        return tree
    if stats is not None:
        rec = stats.setdefault(prop.kind, [0, 0])
        rec[0] += 1
    if not prop.viable:
        return tree
    log_alpha = prop.log_prior_ratio + prop.log_q_ratio
    if likelihood_on:
        if sums is None:
            sums = leaf_sums(tree, partial_residuals)
        llr, new_sums = _log_lik_ratio(tree, prop, partial_residuals, sigma, prior, sums)
        log_alpha += llr
    if math.log(rng.random()) < log_alpha:
        if stats is not None:
            stats[prop.kind][1] += 1
        apply_move(tree, prop)
        if likelihood_on:
            v = prop.node
            if prop.kind == MOVE_GROW:
                sums[tree.left[v]], sums[tree.right[v]] = new_sums
            elif prop.kind == MOVE_PRUNE:
                sums[v] = float(np.bincount(tree.leaf_of_row == v,
                                            weights=partial_residuals, minlength=2)[1])
            else:
                for leaf in prop.counts:
                    sums[leaf] = new_sums[leaf]
    return tree


def draw_leaf_values(tree: Tree, partial_residuals: np.ndarray, sigma: float,
                     prior: ForestPrior, rng: np.random.Generator,
                     sums: list[float] | None = None) -> Tree:
    """Redraw every leaf value from its conjugate normal posterior.

    ``sums``, if given, must be the tree's ``leaf_sums`` of
    ``partial_residuals``.
    """
    if sums is None:
        sums = leaf_sums(tree, partial_residuals)
    s2 = sigma * sigma
    sm2 = prior.sigma_mu2
    z = rng.standard_normal(len(tree.leaf_ids)).tolist()
    values, count = tree.values, tree.count
    for leaf, zi in zip(tree.leaf_ids, z):
        denom = count[leaf] * sm2 + s2
        values[leaf] = sm2 * sums[leaf] / denom + math.sqrt(sm2 * s2 / denom) * zi
    return tree


class Forest:
    """A fixed-size collection of trees with cached per-row fits."""

    def __init__(self, ws: TreeWorkspace, prior: ForestPrior):
        self.ws = ws
        self.prior = prior
        self.trees = [Tree(ws) for _ in range(prior.n_trees)]
        self.fits = [np.zeros(ws.n) for _ in range(prior.n_trees)]
        self.m_total = np.zeros(ws.n)
        self.move_stats: dict[str, list[int]] = {}

    def counterfactual_total(self, flipped_arm: np.ndarray) -> np.ndarray:
        """Ensemble fit with the arm column (column 0) replaced, reusing cached
        fits of trees that never split on it."""
        cols = list(self.ws.cols)
        cols[0] = np.ascontiguousarray(flipped_arm, dtype=float)
        total = self.m_total.copy()
        for j, t in enumerate(self.trees):
            if t.uses_column(0):
                total += tree_fit(t.var, t.cut, t.left, t.right, t.values, cols, 0) - self.fits[j]
        return total


def backfit_sweep(forest: Forest, shifted_responses: np.ndarray, sigma: float,
                  rng: np.random.Generator) -> Forest:
    """One backfitting pass: update each tree against its partial residuals.

    For tree j the partial residuals are the shifted responses minus every
    other tree's fit; the structure move and the leaf redraw both see the
    same residuals. The ensemble cache is rebuilt exactly on exit.
    """
    resid = shifted_responses - forest.m_total
    prior = forest.prior
    for j, tree in enumerate(forest.trees):
        partial = resid + forest.fits[j]
        sums = leaf_sums(tree, partial)
        mh_update_tree(tree, partial, sigma, prior, rng, forest.move_stats, sums=sums)
        draw_leaf_values(tree, partial, sigma, prior, rng, sums=sums)
        new_fit = tree.fit_vector()
        resid += forest.fits[j] - new_fit
        forest.fits[j] = new_fit
    # summed in tree order in place: the bits of np.add.reduce over the
    # fits, without stacking them into one (n_trees, n) array first
    total = forest.fits[0].copy()
    for fit_j in forest.fits[1:]:
        total += fit_j
    forest.m_total = total
    return forest


# -- compact snapshots of the retained draws ------------------------------

@dataclass
class PackedForest:
    """Every retained draw's forest as flat arrays of its live nodes, laid out
    as in the forests file: the draws end to end, each tree's nodes one block
    in tree order. The node fields are those of a live ``Tree``."""

    var: np.ndarray             # int32, -1 marks a leaf
    cut: np.ndarray             # float64 cut values (NaN at leaves)
    left: np.ndarray            # int32 node index from the draw's first node (-1 at leaves)
    right: np.ndarray
    value: np.ndarray           # float64 leaf values (0 at internal nodes)
    nodes_per_tree: np.ndarray  # int32, over the trees of all draws
    trees_per_draw: np.ndarray  # int32
    n_cols: int                 # predictor columns: the arm, then the covariates

    @property
    def n_trees(self) -> int:
        return self.nodes_per_tree.shape[0]

    @property
    def n_draws(self) -> int:
        return self.trees_per_draw.shape[0]

    @classmethod
    def stack(cls, packs: list[PackedForest]) -> PackedForest:
        """The draws of ``packs``, in order, as one object. It is built field
        by field, and each field is dropped from the inputs (set to None) once
        it is copied, so at most one field is held twice; the inputs are
        spent."""
        stacked = {}
        for f in fields(cls):
            if f.name != "n_cols":
                stacked[f.name] = np.concatenate([getattr(pf, f.name) for pf in packs])
                for pf in packs:
                    setattr(pf, f.name, None)
        return cls(**stacked, n_cols=packs[0].n_cols)

    def arm_trees(self, draw_stride: int) -> PackedForest:
        """Every ``draw_stride``-th draw with only its trees that split on the
        arm (column 0): any other tree gives a row the same fit in both arms,
        so it cancels from a treated-minus-control difference. A draw may keep
        no tree. Each kept tree's children shift by the nodes dropped before
        it in its draw."""
        sizes = self.nodes_per_tree
        tree_of = np.repeat(np.arange(self.n_trees), sizes)
        draw_of = np.repeat(np.arange(self.n_draws), self.trees_per_draw)
        kept = draw_of % draw_stride == 0
        kept &= np.bincount(tree_of[self.var == 0], minlength=self.n_trees) > 0
        dropped = np.concatenate([[0], np.cumsum(np.where(kept, 0, sizes))])
        first_tree = np.concatenate([[0], np.cumsum(self.trees_per_draw)])[:-1]
        shift = np.repeat((dropped[:-1] - dropped[first_tree][draw_of])[kept], sizes[kept])
        node = kept[tree_of]
        var = self.var[node]
        leaf = var < 0
        left = np.where(leaf, -1, self.left[node] - shift).astype(np.int32)
        right = np.where(leaf, -1, self.right[node] - shift).astype(np.int32)
        trees_per_draw = np.bincount(draw_of[kept], minlength=self.n_draws)[::draw_stride]
        return PackedForest(var, self.cut[node], left, right, self.value[node],
                            sizes[kept], trees_per_draw.astype(np.int32), self.n_cols)

    def predict_matrix(self, U: np.ndarray) -> np.ndarray:
        """Every draw's ensemble fit for every row of ``U``, shape (draws,
        rows); each draw adds its trees' fits in tree order. Rows of another
        width than the fit's are a ``DataError``."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if U.shape[1] != self.n_cols:
            raise DataError(f"rows have {U.shape[1] - 1} covariates, the fit had "
                            f"{self.n_cols - 1} (each row is the arm, then the covariates)")
        cols = np.ascontiguousarray(U.T)
        out = np.zeros((self.n_draws, U.shape[0]))
        node_at = np.concatenate([[0], np.cumsum(self.nodes_per_tree)])
        tree_at = np.concatenate([[0], np.cumsum(self.trees_per_draw)]).tolist()
        for total, t0, t1 in zip(out, tree_at, tree_at[1:]):
            n0, n1 = int(node_at[t0]), int(node_at[t1])  # lists of one draw's nodes at a time
            nodes = [a[n0:n1].tolist()
                     for a in (self.var, self.cut, self.left, self.right, self.value)]
            for root in (node_at[t0:t1] - n0).tolist():
                total += tree_fit(*nodes, cols, root)
        return out


def pack_forest(forest: Forest) -> PackedForest:
    """One draw: the live nodes of every tree copied into flat arrays, in slot
    order; freed slots are dropped and child indices renumbered to match."""
    trees = forest.trees
    slots = [len(t.var) for t in trees]
    n = sum(slots)

    def flat(name, dtype):
        return np.fromiter(itertools.chain.from_iterable(getattr(t, name) for t in trees),
                           dtype, n)

    var, cut = flat("var", np.int32), flat("cut", np.float64)
    left, right = flat("left", np.intp), flat("right", np.intp)
    value = np.concatenate([t.values[:k] for t, k in zip(trees, slots)])
    base = np.cumsum([0] + slots[:-1])
    live = np.ones(n, dtype=bool)
    live[[b + f for t, b in zip(trees, base) for f in t.free]] = False
    new_id = np.cumsum(live) - 1
    leaf = var < 0
    shift = np.repeat(base, slots)
    # a leaf's -1 child indexes some other slot here; np.where drops it
    left = np.where(leaf, -1, new_id[left + shift])
    right = np.where(leaf, -1, new_id[right + shift])
    value[~leaf] = 0.0
    return PackedForest(var[live], cut[live], left[live].astype(np.int32),
                        right[live].astype(np.int32), value[live],
                        np.array([k - len(t.free) for t, k in zip(trees, slots)], np.int32),
                        np.array([len(trees)], np.int32), forest.ws.p)
