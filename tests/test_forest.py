import gc
import math

import numpy as np
import pytest
from scipy.stats import norm

from npaft import (ConfigError, DataError, Forest, ForestPrior, Tree, TreeWorkspace,
                   backfit_sweep, draw_leaf_values, leaf_log_marginal,
                   mh_update_tree, split_prob)
from npaft.data import split_point_grid
from npaft.forest import (MOVE_CHANGE, MOVE_GROW, MOVE_PRUNE, MOVE_SWAP, PackedForest,
                          _log_lik_ratio, _propose_change, _propose_grow,
                          _propose_prune, _propose_swap, apply_move, leaf_sums,
                          pack_forest, tree_fit)


def make_ws(U, max_points=100):
    U = np.atleast_2d(np.asarray(U, dtype=float))
    grids = [split_point_grid(U[:, k], max_points) for k in range(U.shape[1])]
    return TreeWorkspace(U, grids)


def split(tree, leaf, var, cut_idx):
    """Test helper: grow a specific (leaf, var, cut) with rows routed."""
    rows = np.nonzero(tree.leaf_of_row == leaf)[0]
    go_left = tree.ws.cols[var][rows] <= tree.ws.grids[var][cut_idx]
    return tree.grow_leaf(leaf, var, cut_idx, rows, go_left)


@pytest.fixture
def prior():
    return ForestPrior(alpha=0.95, beta=2.0, n_trees=200, k=2.0, zeta=4.0)


def refresh_cache(forest):
    """Test helper: recompute every tree's cached fit and the ensemble total."""
    for j, t in enumerate(forest.trees):
        forest.fits[j] = t.fit_vector()
    forest.m_total = np.add.reduce(forest.fits)


def cache_error(forest):
    """Test helper: largest gap between the cached total and a fresh one."""
    fresh = np.add.reduce([t.fit_vector() for t in forest.trees])
    return float(np.abs(fresh - forest.m_total).max())


def one_tree(ws):
    """A one-tree forest and its tree, for packing a hand-built tree."""
    forest = Forest(ws, ForestPrior(n_trees=1, zeta=1.0))
    return forest, forest.trees[0]


def packed_predict(forest, probes):
    """The fit of a one-draw pack: row 0 of its (draws, rows) prediction."""
    return pack_forest(forest).predict_matrix(np.asarray(probes, dtype=float))[0]


def walk_from(t, v, u):
    """Oracle: the leaf one row reaches from node ``v`` of a live tree,
    following its grid-index rules."""
    while t.var[v] >= 0:
        k = t.var[v]
        v = t.left[v] if u[k] <= t.ws.grids[k][t.cut_idx[v]] else t.right[v]
    return v


class TestTreePredict:
    def test_single_leaf(self):
        forest, t = one_tree(make_ws(np.array([[0.0], [1.0]])))
        t.values[0] = 0.7
        assert packed_predict(forest, [[0.3], [123.0]]).tolist() == [0.7, 0.7]

    def test_depth_one_rule(self):
        forest, t = one_tree(make_ws(np.array([[-1.0], [1.0]])))
        lid, rid = split(t, 0, 0, 0)  # cut at midpoint 0.0
        t.values[lid], t.values[rid] = -1.0, 1.0
        # left on equality at 0.0
        assert packed_predict(forest, [[-2.0], [0.0], [0.5]]).tolist() == [-1.0, -1.0, 1.0]

    def test_depth_three_hand_traced(self):
        # three binary covariates, all 8 cells populated
        U = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)],
                     dtype=float)
        forest, t = one_tree(make_ws(U))
        l0, r0 = split(t, 0, 0, 0)
        l1, r1 = split(t, l0, 1, 0)
        l2, r2 = split(t, r1, 2, 0)
        for node, val in ((l1, 1.0), (l2, 2.0), (r2, 3.0), (r0, 4.0)):
            t.values[node] = val
        # manual rule tracing: x0<=.5 ? (x1<=.5 ? 1 : (x2<=.5 ? 2 : 3)) : 4
        expect = {(0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 0): 2, (0, 1, 1): 3,
                  (1, 0, 0): 4, (1, 0, 1): 4, (1, 1, 0): 4, (1, 1, 1): 4}
        assert packed_predict(forest, list(expect)).tolist() == list(expect.values())

    def test_width_mismatch(self):
        forest, _ = one_tree(make_ws(np.array([[0.0, 1.0], [1.0, 0.0]])))
        pf = pack_forest(forest)
        for probe in ([[0.0]], [[0.0, 1.0, 2.0]]):
            with pytest.raises(DataError, match="covariates"):
                pf.predict_matrix(probe)


class TestForestPredict:
    def test_constant_forest(self, prior):
        ws = make_ws(np.zeros((3, 1)))
        forest = Forest(ws, ForestPrior(n_trees=7, zeta=1.0))
        for t in forest.trees:
            t.values[0] = 0.31
        assert packed_predict(forest, [[0.0]])[0] == pytest.approx(7 * 0.31, rel=1e-15)

    def test_all_zero(self):
        ws = make_ws(np.zeros((3, 1)))
        forest = Forest(ws, ForestPrior(n_trees=5, zeta=1.0))
        assert packed_predict(forest, [[0.0]])[0] == 0.0

    def test_matches_independent_sum(self, rng):
        U = rng.standard_normal((30, 3))
        ws = make_ws(U)
        forest = Forest(ws, ForestPrior(n_trees=5, zeta=2.0))
        resid = rng.standard_normal(30)
        for _ in range(30):
            backfit_sweep(forest, resid, 0.8, rng)
        probes = rng.standard_normal((10, 3))
        batch = packed_predict(forest, probes)
        for i, probe in enumerate(probes):
            total = sum(t.values[walk_from(t, 0, probe)] for t in forest.trees)
            assert batch[i] == pytest.approx(total, abs=1e-12)


class TestSplitProb:
    def test_paper_default_root(self, prior):
        assert split_prob(0, prior) == pytest.approx(0.95)

    def test_no_depth_penalty(self):
        p = ForestPrior(alpha=0.5, beta=0.0, zeta=1.0)
        assert split_prob(0, p) == split_prob(5, p) == 0.5

    def test_depth_one_value(self, prior):
        assert split_prob(1, prior) == pytest.approx(0.95 * 2.0 ** -2)

    def test_strictly_decreasing_when_beta_positive(self, prior):
        probs = [split_prob(d, prior) for d in range(8)]
        assert all(a > b for a, b in zip(probs, probs[1:]))


class TestLeafLogMarginal:
    def test_point_mass_prior_limit(self):
        r = np.array([0.4, -1.2, 0.7])
        tiny = ForestPrior(n_trees=1, k=1.0, zeta=1e-8)
        got = leaf_log_marginal(r.sum(), float(r @ r), 3, 0.9, tiny)
        expect = norm.logpdf(r, 0.0, 0.9).sum()
        assert got == pytest.approx(expect, abs=1e-6)

    def test_single_observation_convolution(self):
        p = ForestPrior(n_trees=2, k=1.5, zeta=2.0)
        got = leaf_log_marginal(0.0, 0.0, 1, 0.7, p)
        expect = norm.logpdf(0.0, 0.0, math.sqrt(0.7 ** 2 + p.sigma_mu2))
        assert got == pytest.approx(expect, abs=1e-12)

    def test_matches_quadrature(self, rng):
        p = ForestPrior(n_trees=3, k=2.0, zeta=3.0)
        r = rng.normal(0.5, 1.0, 4)
        sigma = 0.8
        got = leaf_log_marginal(r.sum(), float(r @ r), 4, sigma, p)
        # trapezoid quadrature over the leaf value
        sd_mu = math.sqrt(p.sigma_mu2)
        mu = np.linspace(-12 * sd_mu, 12 * sd_mu, 200001)
        integrand = np.exp(norm.logpdf(r[:, None], mu[None, :], sigma).sum(axis=0)
                           + norm.logpdf(mu, 0.0, sd_mu))
        expect = math.log(np.trapezoid(integrand, mu))
        assert got == pytest.approx(expect, abs=1e-6)

    def test_input_validation(self, prior):
        with pytest.raises(ConfigError):
            leaf_log_marginal(0.0, 0.0, 0, 1.0, prior)
        with pytest.raises(ConfigError):
            leaf_log_marginal(0.0, 0.0, 1, 0.0, prior)


class TestProposals:
    def test_root_only_tree_move_legality(self, rng, prior):
        ws = make_ws(np.array([[0.0], [1.0]]))
        t = Tree(ws)
        assert _propose_prune(t, rng, prior) is None
        assert _propose_change(t, rng, prior) is None
        assert _propose_swap(t, rng, prior) is None
        prop = _propose_grow(t, rng, prior)
        assert prop is not None and prop.viable

    def test_grow_then_prune_restores_structure(self, rng, prior):
        U = rng.standard_normal((20, 2))
        ws = make_ws(U)
        t = Tree(ws)
        var0, leaf_ids0, leaf_of_row0 = t.var[0], list(t.leaf_ids), t.leaf_of_row.copy()
        grow = _propose_grow(t, rng, prior)
        assert grow.viable
        apply_move(t, grow)
        prune = _propose_prune(t, rng, prior)
        assert prune.viable
        apply_move(t, prune)
        assert t.var[0] == var0 == -1
        assert t.leaf_ids == leaf_ids0
        assert np.array_equal(t.leaf_of_row, leaf_of_row0)
        # inverse pair: proposal and prior ratios cancel exactly
        assert grow.log_prior_ratio + prune.log_prior_ratio == pytest.approx(0.0, abs=1e-12)
        assert grow.log_q_ratio + prune.log_q_ratio == pytest.approx(0.0, abs=1e-12)

    def test_unsplittable_leaf_is_noop(self, rng, prior):
        # one binary covariate: after the root split no leaf can grow
        ws = make_ws(np.array([[0.0], [0.0], [1.0], [1.0]]))
        t = Tree(ws)
        split(t, 0, 0, 0)
        assert _propose_grow(t, rng, prior) is None

    def test_change_same_rule_accepts_with_probability_one(self, rng):
        # a single available rule forces the change proposal to reproduce it
        ws = make_ws(np.array([[0.0], [0.0], [1.0], [1.0]]))
        t = Tree(ws)
        split(t, 0, 0, 0)
        prior = ForestPrior(zeta=1.0)
        var0, cut_idx0 = list(t.var), list(t.cut_idx)
        prop = _propose_change(t, rng, prior)
        assert prop.viable
        assert prop.log_prior_ratio == 0.0
        assert prop.log_q_ratio == 0.0
        apply_move(t, prop)
        assert t.var == var0 and t.cut_idx == cut_idx0

    def test_empty_leaf_proposal_rejected_outright(self, rng, prior):
        # both x values below every candidate cut except one that isolates a row
        U = np.array([[0.0], [0.0], [0.0], [5.0]])
        ws = make_ws(U)
        t = Tree(ws)
        found_reject = False
        for _ in range(200):
            prop = _propose_grow(t, rng, prior)
            if prop is not None and not prop.viable:
                found_reject = True
                break
        # cut 2.5 splits 3|1 rows; with a single grid value every grow is viable,
        # so force the degenerate case: constant rows at a leaf
        assert prop is not None
        if not found_reject:
            # grow then try to grow the all-constant left child
            apply_move(t, prop)
            grown = t
            leaf = grown.left[0]
            rows = np.nonzero(grown.leaf_of_row == leaf)[0]
            assert np.unique(U[rows, 0]).size == 1


def tree_state(t):
    """Everything a move may touch, copied."""
    return (list(t.var), list(t.cut_idx), list(t.left), list(t.right), list(t.parent),
            list(t.depth), list(t.leaf_ids), list(t.internal_ids), list(t.free),
            list(t.count), t.values.copy(), t.leaf_of_row.copy())


def assert_same_state(a, b):
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


def mixed_workspace(rng, n=60):
    # tied and coarse columns make empty-leaf and illegal-rule proposals common
    U = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 4, n),
                         np.round(rng.standard_normal(n), 1), rng.standard_normal(n)])
    return make_ws(U.astype(float), max_points=6)


def partition_log_marginal(t, r, sigma, prior):
    """Oracle: sum of leaf_log_marginal over the tree's leaves."""
    total = 0.0
    for leaf in t.leaf_ids:
        rr = r[t.leaf_of_row == leaf]
        total += leaf_log_marginal(rr.sum(), float(rr @ rr), rr.shape[0], sigma, prior)
    return total


class TestMovePath:
    """Proposals are scored without touching the tree; moves apply in place."""

    PROPOSERS = {MOVE_GROW: _propose_grow, MOVE_PRUNE: _propose_prune,
                 MOVE_CHANGE: _propose_change, MOVE_SWAP: _propose_swap}

    @staticmethod
    def grown_forest(rng, ws, n_trees=6, sweeps=30):
        prior = ForestPrior(n_trees=n_trees, alpha=0.95, beta=0.5, zeta=2.0)
        forest = Forest(ws, prior)
        y = ws.U[:, 1] - ws.U[:, 3] + rng.normal(0, 0.3, ws.n)
        for _ in range(sweeps):
            backfit_sweep(forest, y, 0.4, rng)
        return forest

    def test_unapplied_proposals_leave_tree_unchanged(self, rng):
        ws = mixed_workspace(rng)
        forest = self.grown_forest(rng, ws)
        seen = {kind: [0, 0] for kind in self.PROPOSERS}  # viable, non-viable
        for t in forest.trees:
            before = tree_state(t)
            for kind, propose in self.PROPOSERS.items():
                for _ in range(40):
                    prop = propose(t, rng, forest.prior)
                    assert_same_state(before, tree_state(t))
                    if prop is not None:
                        seen[kind][0 if prop.viable else 1] += 1
        for kind in self.PROPOSERS:
            assert seen[kind][0] > 0, kind
        for kind in (MOVE_GROW, MOVE_CHANGE, MOVE_SWAP):
            assert seen[kind][1] > 0, kind

    def test_rejected_moves_leave_tree_unchanged(self, rng):
        ws = mixed_workspace(rng)
        forest = self.grown_forest(rng, ws)
        prior = forest.prior
        r = rng.standard_normal(ws.n)
        rejected = dict.fromkeys(self.PROPOSERS, 0)
        accepted = dict.fromkeys(self.PROPOSERS, 0)
        for _ in range(60):
            for t in forest.trees:
                before = tree_state(t)
                stats = {}
                sums = leaf_sums(t, r)
                mh_update_tree(t, r, 0.5, prior, rng, stats, sums=sums)
                for kind, (proposed, acc) in stats.items():
                    if acc:
                        accepted[kind] += 1
                    else:
                        rejected[kind] += 1
                        assert_same_state(before, tree_state(t))
                # an accepted move keeps the counts and the leaf sums exact
                counts = np.bincount(t.leaf_of_row, minlength=len(t.var))
                fresh = leaf_sums(t, r)
                for leaf in t.leaf_ids:
                    assert t.count[leaf] == counts[leaf]
                    assert sums[leaf] == fresh[leaf]
        for kind in self.PROPOSERS:
            assert rejected[kind] > 0 and accepted[kind] > 0, kind

    def test_log_lik_ratio_matches_leaf_marginal_oracle(self, rng):
        ws = mixed_workspace(rng)
        forest = self.grown_forest(rng, ws)
        prior = forest.prior
        checked = dict.fromkeys(self.PROPOSERS, 0)
        for t in forest.trees:
            for _ in range(30):
                r = rng.normal(0.0, rng.uniform(0.2, 3.0), ws.n)
                sigma = float(rng.uniform(0.3, 2.0))
                kind = list(self.PROPOSERS)[rng.integers(4)]
                prop = self.PROPOSERS[kind](t, rng, prior)
                if prop is None or not prop.viable:
                    continue
                llr, _ = _log_lik_ratio(t, prop, r, sigma, prior, leaf_sums(t, r))
                old = partition_log_marginal(t, r, sigma, prior)
                apply_move(t, prop)
                new = partition_log_marginal(t, r, sigma, prior)
                assert llr == pytest.approx(new - old, abs=1e-10)
                checked[kind] += 1
        assert all(c > 0 for c in checked.values()), checked


class TestPriorSampling:
    """MH with the likelihood switched off must sample the tree prior."""

    @staticmethod
    def leaf_count_prior_oracle(ws, prior, rng, n_draws):
        """Forward-simulate the generative tree prior, return leaf counts."""
        counts = []
        grids = ws.grids
        for _ in range(n_draws):
            # nodes: (depth, intervals dict col->(lo,hi))
            stack = [(0, {k: (0, grids[k].size) for k in range(ws.p)})]
            leaves = 0
            while stack:
                d, iv = stack.pop()
                legal = [(k, lo, hi) for k, (lo, hi) in iv.items() if hi > lo]
                p_split = prior.alpha * (1.0 + d) ** -prior.beta
                if not legal or rng.random() >= p_split:
                    leaves += 1
                    continue
                k, lo, hi = legal[rng.integers(len(legal))]
                ci = int(rng.integers(lo, hi))
                ivl, ivr = dict(iv), dict(iv)
                ivl[k] = (lo, ci)
                ivr[k] = (ci + 1, hi)
                stack.append((d + 1, ivl))
                stack.append((d + 1, ivr))
            counts.append(leaves)
        return np.bincount(counts, minlength=16)[:16] / n_draws

    def test_chain_matches_forward_simulation(self):
        # two binary covariates, all four cells populated: the training-row
        # emptiness check never binds, so the restricted prior is the prior
        U = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        ws = make_ws(U)
        prior = ForestPrior(alpha=0.7, beta=0.8, n_trees=1, k=2.0,
                            zeta=2.0)
        rng = np.random.default_rng(77)
        tree = Tree(ws)
        resid = np.zeros(4)
        hist = np.zeros(16)
        n_sweeps = 10_000
        for _ in range(n_sweeps):
            tree = mh_update_tree(tree, resid, 1.0, prior, rng, likelihood_on=False)
            hist[min(tree.n_leaves, 15)] += 1
        chain_dist = hist / n_sweeps
        oracle = self.leaf_count_prior_oracle(ws, prior,
                                              np.random.default_rng(1234), 200_000)
        tv = 0.5 * np.abs(chain_dist - oracle).sum()
        assert tv < 0.02, f"TV={tv:.4f}"


def enumerate_two_state_posterior(r, sigma, prior, ws):
    """Exact posterior over {root-only, root-split} on one binary covariate."""
    sm2 = prior.sigma_mu2

    def marg(rows):
        rr = r[rows]
        return leaf_log_marginal(rr.sum(), float(rr @ rr), len(rr), sigma, prior)

    p0 = split_prob(0, prior)
    left = ws.cols[0] <= 0.5
    # children of the split are forced leaves (no legal cuts remain)
    log_w0 = math.log(1 - p0) + marg(np.arange(r.shape[0]))
    log_w1 = math.log(p0) + marg(np.nonzero(left)[0]) + marg(np.nonzero(~left)[0])
    z = np.logaddexp(log_w0, log_w1)
    return math.exp(log_w0 - z), math.exp(log_w1 - z)


class TestMhCorrectness:
    def test_two_point_grow_acceptance_grows_with_separation(self):
        prior = ForestPrior(alpha=0.5, beta=1.0, n_trees=1, k=2.0, zeta=2.0)
        sm2 = prior.sigma_mu2
        sigma = 1.0

        def grow_log_accept(gap):
            # two rows split perfectly by the single cut; analytic ratio
            r = np.array([-gap, gap])
            def collapsed(s, n):
                denom = sigma ** 2 + n * sm2
                return 0.5 * math.log(sigma ** 2 / denom) + sm2 * s ** 2 / (2 * sigma ** 2 * denom)
            llr = (collapsed(-gap, 1) + collapsed(gap, 1)) - collapsed(0.0, 2)
            p0 = split_prob(0, prior)
            lpr = math.log(p0) - math.log(1 - p0)   # children unsplittable
            lqr = math.log(0.25) + math.log(1) - math.log(0.25) - math.log(1)
            return llr + lpr + lqr

        a1, a5, a20 = grow_log_accept(1.0), grow_log_accept(5.0), grow_log_accept(20.0)
        assert a1 < a5 < a20
        assert math.exp(min(a20, 0.0)) == 1.0  # acceptance probability reaches 1

    @pytest.mark.slow
    def test_stationary_distribution_depth_one_enumeration(self):
        # acceptance-criterion oracle: binary covariate, two reachable trees
        U = np.array([[0.0], [0.0], [1.0], [1.0]])
        ws = make_ws(U)
        prior = ForestPrior(alpha=0.6, beta=1.0, n_trees=1, k=2.0,
                            zeta=2.0)
        r = np.array([-1.0, -0.4, 0.5, 0.9])
        sigma = 1.0
        pi0, pi1 = enumerate_two_state_posterior(r, sigma, prior, ws)

        rng = np.random.default_rng(2024)
        tree = Tree(ws)
        occupancy = np.zeros(2)
        n_sweeps = 100_000
        for _ in range(n_sweeps):
            tree = mh_update_tree(tree, r, sigma, prior, rng)
            occupancy[0 if tree.n_leaves == 1 else 1] += 1
        emp = occupancy / n_sweeps
        tv = 0.5 * (abs(emp[0] - pi0) + abs(emp[1] - pi1))
        assert tv < 0.02, f"TV={tv:.4f} emp={emp} exact=({pi0:.4f},{pi1:.4f})"


class TestDrawLeafValues:
    def test_flat_prior_limit_matches_leaf_average(self, rng):
        U = np.zeros((6, 1))
        ws = make_ws(U)
        t = Tree(ws)
        r = rng.normal(2.0, 0.3, 6)
        huge = ForestPrior(n_trees=1, k=1e-6, zeta=4.0)  # enormous leaf variance
        vals = []
        for _ in range(4000):
            draw_leaf_values(t, r, 1.0, huge, rng)
            vals.append(t.values[0])
        assert np.mean(vals) == pytest.approx(r.mean(), abs=0.05)

    def test_conjugate_posterior_moments(self, rng):
        # three rows, residual sum 3, sigma = sigma_mu = 1 -> N(3/4, 1/4)
        U = np.zeros((3, 1))
        t = Tree(make_ws(U))
        r = np.array([1.5, 0.5, 1.0])
        prior = ForestPrior(n_trees=1, k=0.5, zeta=1.0)
        assert prior.sigma_mu2 == pytest.approx(1.0)
        vals = np.empty(200_000)
        for i in range(vals.shape[0]):
            draw_leaf_values(t, r, 1.0, prior, rng)
            vals[i] = t.values[0]
        assert vals.mean() == pytest.approx(0.75, abs=0.005)
        assert vals.var() == pytest.approx(0.25, abs=0.005)


class TestBackfit:
    def test_single_tree_running_residual_identity(self, rng):
        U = rng.standard_normal((10, 2))
        ws = make_ws(U)
        prior = ForestPrior(n_trees=1, zeta=1.0)
        forest = Forest(ws, prior)
        y = rng.standard_normal(10)
        backfit_sweep(forest, y, 1.0, rng)
        assert forest.m_total == pytest.approx(forest.fits[0], abs=0)
        assert cache_error(forest) == 0.0

    def test_zero_response_supnorm_shrinks(self, rng):
        U = rng.standard_normal((25, 2))
        ws = make_ws(U)
        prior = ForestPrior(n_trees=10, k=20.0, zeta=0.5)  # tiny leaf prior
        forest = Forest(ws, prior)
        # displace the fit by hand, then let zero-response sweeps shrink it
        for t in forest.trees:
            t.values[0] = 1.0
        refresh_cache(forest)
        start = np.abs(forest.m_total).max()
        assert start == pytest.approx(10.0)
        sups = []
        for _ in range(100):
            backfit_sweep(forest, np.zeros(25), 1.0, rng)
            sups.append(np.abs(forest.m_total).max())
        # the tiny leaf prior pulls the fit toward zero from the first sweep on
        assert sups[0] < start
        assert np.mean(sups) < 0.05 * start

    def test_cache_consistency_and_no_empty_leaves(self, rng):
        U = rng.standard_normal((40, 3))
        ws = make_ws(U)
        prior = ForestPrior(n_trees=15, zeta=2.0)
        forest = Forest(ws, prior)
        y = U[:, 0] + rng.normal(0, 0.3, 40)
        for _ in range(50):
            backfit_sweep(forest, y, 0.5, rng)
            assert cache_error(forest) < 1e-10
        for t in forest.trees:
            counts = np.bincount(t.leaf_of_row, minlength=len(t.var))
            assert all(counts[leaf] >= 1 for leaf in t.leaf_ids)
            # rules must stay legal against their grids
            ok, _ = t.validate_subtree(0)
            assert ok

    def test_acceptance_stats_populated(self, rng):
        U = rng.standard_normal((30, 2))
        ws = make_ws(U)
        prior = ForestPrior(n_trees=10, zeta=2.0)
        forest = Forest(ws, prior)
        y = U[:, 0] + rng.normal(0, 0.3, 30)
        for _ in range(100):
            backfit_sweep(forest, y, 0.5, rng)
        for kind in (MOVE_GROW, MOVE_PRUNE, MOVE_CHANGE, MOVE_SWAP):
            proposed, accepted = forest.move_stats.get(kind, (0, 0))
            assert proposed > 0
            assert 0 <= accepted <= proposed


class TestPackedForest:
    def test_matches_live_forest(self, rng):
        ws = mixed_workspace(rng)
        forest = TestMovePath.grown_forest(rng, ws, n_trees=8, sweeps=60)
        for t in forest.trees:
            # the cut list tracks cut_idx through every applied and rejected move
            for v in set(range(len(t.var))) - set(t.free):
                if t.var[v] >= 0:
                    assert t.cut[v] == ws.grids[t.var[v]][t.cut_idx[v]]
                else:
                    assert math.isnan(t.cut[v])
            # with node ids for values, the select walk gives each row's leaf
            assert np.all(tree_fit(t.var, t.cut, t.left, t.right, range(len(t.var)),
                                   ws.cols, 0) == t.leaf_of_row)
        # pruned trees leave freed slots, which packing must drop
        assert any(t.free for t in forest.trees)
        pf = pack_forest(forest)
        assert pf.var.shape[0] == sum(len(t.var) - len(t.free) for t in forest.trees)
        assert pf.n_draws == 1 and pf.trees_per_draw.tolist() == [8]
        assert pf.nodes_per_tree.tolist() == [len(t.var) - len(t.free) for t in forest.trees]
        assert np.array_equal(pf.predict_matrix(ws.U), [forest.m_total])

    def test_json_roundtrip(self, rng, tmp_path):
        """Draws' packs of different sizes, stacked, survive the forests file
        (which replaced the JSON form) field for field, and each draw's row of
        the stack's prediction is that draw's own."""
        from npaft.data import ResponseTransform
        from npaft.engine import PosteriorDraws
        ws = make_ws(rng.standard_normal((12, 2)))
        packed = []
        for n_trees in (3, 1):
            forest = Forest(ws, ForestPrior(n_trees=n_trees, zeta=1.0))
            backfit_sweep(forest, rng.standard_normal(12), 1.0, rng)
            packed.append(pack_forest(forest))
        names = ("var", "cut", "left", "right", "value", "nodes_per_tree")
        expected = {name: np.concatenate([getattr(pf, name) for pf in packed])
                    for name in names}
        probes = rng.standard_normal((5, 2))
        own = np.vstack([pf.predict_matrix(probes) for pf in packed])
        stacked = PackedForest.stack(packed)
        assert stacked.trees_per_draw.tolist() == [3, 1] and stacked.n_trees == 4
        for name in names:
            assert np.array_equal(getattr(stacked, name), expected[name], equal_nan=True), name
        # stacking spends its inputs: no field is held twice
        assert all(getattr(pf, name) is None for pf in packed for name in names)
        draws = PosteriorDraws(*([np.zeros((2, 0))] * 12), transform=ResponseTransform(0.0, 1.0),
                               config={}, sigma_tau_sq=1.0, forests=stacked)
        f = tmp_path / "forests.npz"
        draws.save_forests(f)
        draws.forests = None
        draws.load_forests(f)
        back = draws.forests
        assert back.n_cols == stacked.n_cols
        for name in ("var", "cut", "left", "right", "value", "nodes_per_tree", "trees_per_draw"):
            assert np.array_equal(getattr(back, name), getattr(stacked, name),
                                  equal_nan=True), name
        assert np.array_equal(back.predict_matrix(probes), own)

    def test_reroute_subtree_sends_each_row_to_its_walked_leaf(self, rng):
        """From every internal node of grown trees, under the tree's own rule
        there and under a redrawn one: each leaf under the node is counted
        once, in ``leaves_under`` order; the rows are the rows under the
        node, ascending; each row's leaf is the one a rule walk reaches; and
        the counts are the walk's. None exactly when the walk leaves a leaf
        with no row."""
        seen = [0, 0]  # routed, None
        for n in (25, 600):
            ws = mixed_workspace(rng, n)
            forest = TestMovePath.grown_forest(rng, ws)
            assert any(t.internal_ids for t in forest.trees)
            for t in forest.trees:
                for v in t.internal_ids:
                    under = t.leaves_under(v)
                    rows_under = np.nonzero(np.isin(t.leaf_of_row, under))[0]
                    old = (v, t.var[v], t.cut_idx[v])
                    k = ws.splittable_cols[rng.integers(len(ws.splittable_cols))]
                    for rule in (old, (v, k, int(rng.integers(ws.grid_sizes[k])))):
                        t.set_rule(*rule)
                        walked = np.array([walk_from(t, v, ws.U[i]) for i in rows_under])
                        expected = {leaf: int(np.count_nonzero(walked == leaf)) for leaf in under}
                        got = t.reroute_subtree(v)
                        t.set_rule(*old)
                        if 0 in expected.values():
                            assert got is None
                            seen[1] += 1
                            continue
                        rows, leaves, counts = got
                        assert list(counts) == under
                        assert np.array_equal(rows, rows_under)
                        assert np.array_equal(leaves, walked)
                        assert counts == expected
                        seen[0] += 1
        assert seen[0] > 0 and seen[1] > 0, seen

    def test_reroute_subtree_is_none_when_a_leaf_gets_no_row(self):
        t = Tree(make_ws(np.arange(4.0)[:, None]))  # cuts 0.5, 1.5, 2.5
        split(t, 0, 0, 1)  # rows 0, 1 to node 1; rows 2, 3 to node 2
        split(t, 1, 0, 0)  # row 0 to node 3, row 1 to node 4
        rows, leaves, counts = t.reroute_subtree(0)
        assert rows.tolist() == [0, 1, 2, 3] and leaves.tolist() == [3, 4, 2, 2]
        assert counts == {2: 2, 4: 1, 3: 1}
        t.set_rule(1, 0, 2)  # x <= 2.5 sends rows 0 and 1 both to node 3
        assert t.reroute_subtree(0) is None
        assert t.reroute_subtree(1) is None


def packed(trees, n_cols=3):
    """A one-draw ``PackedForest`` from per-tree (var, cut, left, right,
    value) lists whose child indices count from the draw's first node."""
    fields = [np.concatenate([np.asarray(t[i]) for t in trees]) for i in range(5)]
    return PackedForest(fields[0].astype(np.int32), fields[1].astype(float),
                        fields[2].astype(np.int32), fields[3].astype(np.int32),
                        fields[4].astype(float), np.array([len(t[0]) for t in trees], np.int32),
                        np.array([len(trees)], np.int32), n_cols)


NAN = math.nan
# nodes 0-2: x1 <= 0 ? 10 : 20, no arm split
COVARIATE_TREE = ([1, -1, -1], [0.0, NAN, NAN], [1, -1, -1], [2, -1, -1], [0.0, 10.0, 20.0])
# nodes 3-7: x2 <= 0.25 ? 1 : (arm <= 0.5 ? -0.5 : 1.5), the arm split below the root
ARM_TREE = ([2, -1, 0, -1, -1], [0.25, NAN, 0.5, NAN, NAN], [4, -1, 6, -1, -1],
            [5, -1, 7, -1, -1], [0.0, 1.0, 0.0, -0.5, 1.5])
# the same two trees in the other order: the arm tree at nodes 0-4
ARM_TREE_FIRST = (ARM_TREE[0], ARM_TREE[1], [1, -1, 3, -1, -1], [2, -1, 4, -1, -1], ARM_TREE[4])
COVARIATE_TREE_LAST = (COVARIATE_TREE[0], COVARIATE_TREE[1], [6, -1, -1], [7, -1, -1],
                       COVARIATE_TREE[4])


class TestArmTrees:
    def test_keeps_the_arm_tree_with_children_shifted(self):
        sub = packed([COVARIATE_TREE, ARM_TREE]).arm_trees(1)
        assert sub.n_trees == 1 and sub.n_cols == 3
        assert (sub.var.dtype == sub.left.dtype == sub.nodes_per_tree.dtype
                == sub.trees_per_draw.dtype == np.int32)
        assert np.array_equal(sub.var, ARM_TREE[0])
        assert np.array_equal(sub.cut, ARM_TREE[1], equal_nan=True)
        assert np.array_equal(sub.left, [1, -1, 3, -1, -1])
        assert np.array_equal(sub.right, [2, -1, 4, -1, -1])
        assert np.array_equal(sub.value, ARM_TREE[4])
        assert sub.nodes_per_tree.tolist() == [5] and sub.trees_per_draw.tolist() == [1]
        U = np.array([[1, -1, 0.0], [0, -1, 0.0], [1, 1, 1.0], [0, 1, 1.0]])
        assert np.array_equal(sub.predict_matrix(U), [[1.0, 1.0, 1.5, -0.5]])

    def test_forest_with_no_arm_split_predicts_zeros(self):
        sub = packed([COVARIATE_TREE]).arm_trees(1)
        assert sub.n_trees == 0 and sub.var.shape == (0,)
        assert sub.trees_per_draw.tolist() == [0]
        assert np.array_equal(sub.predict_matrix(np.ones((4, 3))), np.zeros((1, 4)))

    def test_strided_draws_keep_children_counted_from_their_draw(self):
        # draw 2 puts its arm tree first, so no node is dropped before it
        draws = PackedForest.stack([packed([COVARIATE_TREE, ARM_TREE]), packed([COVARIATE_TREE]),
                                    packed([ARM_TREE_FIRST, COVARIATE_TREE_LAST])])
        U = np.array([[1, -1, 0.0], [0, -1, 0.0], [1, 1, 1.0], [0, 1, 1.0]])
        arm_fit = [1.0, 1.0, 1.5, -0.5]
        for stride, kept in ((1, [1, 0, 1]), (2, [1, 1]), (3, [1])):
            sub = draws.arm_trees(stride)
            assert sub.trees_per_draw.tolist() == kept
            assert sub.left.tolist() == [1, -1, 3, -1, -1] * sum(kept)
            assert sub.right.tolist() == [2, -1, 4, -1, -1] * sum(kept)
            assert np.array_equal(sub.predict_matrix(U),
                                  [arm_fit if k else [0.0] * 4 for k in kept])

    def test_matches_the_arm_difference_of_a_grown_forest(self, rng):
        ws = mixed_workspace(rng)
        forest = TestMovePath.grown_forest(rng, ws, n_trees=12, sweeps=60)
        uses_arm = [t.uses_column(0) for t in forest.trees]
        assert any(uses_arm) and not all(uses_arm)
        pf = pack_forest(forest)
        sub = pf.arm_trees(1)
        assert sub.n_trees == sum(uses_arm)
        probes = rng.standard_normal((40, ws.p))
        U = np.vstack([probes, probes])
        U[:40, 0], U[40:, 0] = 1.0, 0.0
        full, arm = pf.predict_matrix(U)[0], sub.predict_matrix(U)[0]
        np.testing.assert_allclose(arm[:40] - arm[40:], full[:40] - full[40:],
                                   rtol=0, atol=1e-12)


CUTS = (-1.0, 0.0, 0.5, 1.0)  # random rows take these values too, so some rows equal a cut


def random_tree(rng, n_cols, depth, chain=False):
    """Node lists (var, cut, left, right, value) of a random tree, children
    indexed within the tree, the root first and the other nodes shuffled,
    as recycled slots leave them. ``depth`` 0 is a single leaf; a chain
    splits only its right child, down to ``depth``."""
    depths = [0]  # per node, in creation order
    kids = {}
    stack = [0]
    while stack:
        v = stack.pop()
        d = depths[v]
        if d < depth and (v == 0 or chain or rng.random() < 0.6):
            kids[v] = [len(depths), len(depths) + 1]
            depths += [d + 1, d + 1]
            stack.extend(kids[v][1:] if chain else kids[v])
    order = [0] + (1 + rng.permutation(len(depths) - 1)).tolist()
    slot = {v: i for i, v in enumerate(order)}
    var, cut, left, right, value = [], [], [], [], []
    for v in order:
        if v in kids:
            var.append(int(rng.integers(n_cols)))
            cut.append(float(rng.choice(CUTS)))
            left.append(slot[kids[v][0]])
            right.append(slot[kids[v][1]])
            value.append(0.0)
        else:
            var.append(-1)
            cut.append(math.nan)
            left.append(-1)
            right.append(-1)
            value.append(float(rng.standard_normal()))
    return var, cut, left, right, value


def random_draw(rng, n_cols, n_trees):
    """One draw of random trees, with a single leaf first and a chain deeper
    than 6 second, children counted from the draw's first node."""
    trees, first = [], 0
    for j in range(n_trees):
        depth = 0 if j == 0 else int(rng.integers(1, 5))
        var, cut, left, right, value = random_tree(rng, n_cols, 8 if j == 1 else depth,
                                                   chain=j == 1)
        trees.append((var, cut, [c + first if c >= 0 else c for c in left],
                      [c + first if c >= 0 else c for c in right], value))
        first += len(var)
    return packed(trees, n_cols)


def random_rows(rng, n, n_cols):
    return rng.choice(CUTS, size=(n, n_cols)) + rng.choice([0.0, 0.3], size=(n, n_cols))


def walk_predict(pf, U):
    """Oracle: each row walked down every tree one rule at a time, the leaf
    values added in tree order."""
    out = np.zeros((pf.n_draws, U.shape[0]))
    node = tree = 0
    for d, n_trees in enumerate(pf.trees_per_draw.tolist()):
        first = node
        for _ in range(n_trees):
            for i, u in enumerate(U):
                w = node
                while pf.var[w] >= 0:
                    w = first + (pf.left[w] if u[pf.var[w]] <= pf.cut[w] else pf.right[w])
                out[d, i] += pf.value[w]
            node += int(pf.nodes_per_tree[tree])
            tree += 1
    return out


class TestTreeFit:
    def test_every_node_matches_a_row_walk(self, rng):
        for depth in (0, 1, 3, 8):
            var, cut, left, right, value = random_tree(rng, 3, depth, chain=depth == 8)
            U = random_rows(rng, 30, 3)
            cols = list(U.T)
            for node in range(len(var)):
                want = []
                for u in U:
                    w = node
                    while var[w] >= 0:
                        w = left[w] if u[var[w]] <= cut[w] else right[w]
                    want.append(value[w])
                got = np.broadcast_to(tree_fit(var, cut, left, right, value, cols, node), 30)
                assert got.tolist() == want

    def test_row_equal_to_the_cut_goes_left(self):
        cols = [np.array([0.5, 0.5000000000000001, 0.4999999999999999])]
        fit = tree_fit([0, -1, -1], [0.5, NAN, NAN], [1, -1, -1], [2, -1, -1],
                       [0.0, -1.0, 1.0], cols, 0)
        assert fit.tolist() == [-1.0, 1.0, -1.0]

    def test_counterfactual_total_matches_a_flipped_row_walk(self, rng):
        ws = mixed_workspace(rng)
        forest = TestMovePath.grown_forest(rng, ws, n_trees=12, sweeps=60)
        assert any(t.uses_column(0) for t in forest.trees)
        flipped = 1.0 - ws.U[:, 0]
        U = ws.U.copy()
        U[:, 0] = flipped
        np.testing.assert_allclose(forest.counterfactual_total(flipped),
                                   walk_predict(pack_forest(forest), U)[0], rtol=0, atol=1e-12)


class TestPredictMatrix:
    def test_matches_a_row_walk(self, rng):
        draws = PackedForest.stack([random_draw(rng, 4, n_trees) for n_trees in (1, 5, 3, 12)])
        for n in (1, 2, 50):
            U = random_rows(rng, n, 4)
            assert np.array_equal(draws.predict_matrix(U), walk_predict(draws, U))
        assert np.array_equal(draws.predict_matrix(U[0]), walk_predict(draws, U[:1]))

    def test_arm_trees_with_a_draw_left_empty(self, rng):
        draws = PackedForest.stack([random_draw(rng, 3, 6), packed([COVARIATE_TREE]),
                                    random_draw(rng, 3, 6)])
        sub = draws.arm_trees(1)
        assert sub.trees_per_draw[1] == 0 and sub.n_trees > 0
        U = random_rows(rng, 25, 3)
        got = sub.predict_matrix(U)
        assert np.array_equal(got, walk_predict(sub, U))
        assert not got[1].any()

    def test_leaves_no_reference_cycle(self, rng):
        draws = PackedForest.stack([random_draw(rng, 3, 8) for _ in range(4)])
        U = random_rows(rng, 40, 3)
        gc.collect()
        gc.disable()
        try:
            draws.predict_matrix(U)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPriorValidation:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            ForestPrior(alpha=1.5)
        with pytest.raises(ConfigError):
            ForestPrior(beta=-1)
        with pytest.raises(ConfigError):
            ForestPrior(n_trees=0)
        with pytest.raises(ConfigError):
            ForestPrior(k=0)
        with pytest.raises(ConfigError):
            ForestPrior(zeta=-1)

    def test_leaf_prior_variance(self):
        p = ForestPrior(n_trees=200, k=2.0, zeta=4.0)
        assert p.sigma_mu2 == pytest.approx(16.0 / (4 * 200 * 4))
