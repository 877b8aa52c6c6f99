"""Gates, kernel smoothing, monotone transforms, forward/backward oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namlite.core import (
    KernelConfig,
    backward_pass,
    bin_tables,
    flat_pair_codes,
    forward_pass,
    init_core,
    kernel_weights,
    param_dict,
    sigmoid,
    smooth_step,
    smooth_step_grad,
    smoothing_operator,
)
from namlite.errors import ConfigError, TrainingError

from conftest import random_codes, tiny_core
from oracles import (backward_reference, fd_worst, forward_eta, monotone_output,
                     pair_smoothed_embedding, sigmoid_where, smoothed_embedding)

GAMMAS = (0.01, 1.0, 100.0)


# --- smooth-step gate -------------------------------------------------------


class TestSmoothStep:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_saturation_is_exact(self, gamma):
        assert smooth_step(-gamma / 2, gamma) == 0.0
        assert smooth_step(gamma / 2, gamma) == 1.0
        assert smooth_step(-10 * gamma, gamma) == 0.0
        assert smooth_step(10 * gamma, gamma) == 1.0

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_center_is_half(self, gamma):
        assert smooth_step(0.0, gamma) == 0.5

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_quarter_point(self, gamma):
        """Evaluating the cubic at mu = gamma/4 gives 27/32 for any gamma."""
        np.testing.assert_allclose(smooth_step(gamma / 4, gamma), 0.84375, rtol=1e-12)

    def test_vector_matches_scalar(self):
        mu = np.linspace(-2, 2, 41)
        vec = smooth_step(mu, 1.0)
        scal = np.array([smooth_step(float(m), 1.0) for m in mu])
        np.testing.assert_array_equal(vec, scal)

    @settings(deadline=None, max_examples=100)
    @given(
        st.floats(-1e3, 1e3),
        st.floats(1e-3, 1e3),
        st.floats(0, 1e-2),
    )
    def test_range_and_monotone(self, mu, gamma, step):
        a = smooth_step(mu, gamma)
        b = smooth_step(mu + step, gamma)
        assert 0.0 <= a <= 1.0
        assert b >= a

    def test_nonpositive_gamma_raises(self):
        with pytest.raises(ConfigError):
            smooth_step(0.0, 0.0)
        with pytest.raises(ConfigError):
            smooth_step(0.0, -1.0)


class TestSmoothStepGrad:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_center_slope(self, gamma):
        np.testing.assert_allclose(smooth_step_grad(0.0, gamma), 3 / (2 * gamma), rtol=1e-12)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_zero_outside_open_interval(self, gamma):
        assert smooth_step_grad(-gamma / 2, gamma) == 0.0
        assert smooth_step_grad(gamma / 2, gamma) == 0.0
        assert smooth_step_grad(gamma, gamma) == 0.0

    def test_matches_finite_differences_away_from_kinks(self):
        gamma = 1.3
        mu = np.linspace(-0.6, 0.6, 241)
        mu = mu[np.abs(np.abs(mu) - gamma / 2) > 1e-3]
        h = 1e-6
        fd = (smooth_step(mu + h, gamma) - smooth_step(mu - h, gamma)) / (2 * h)
        np.testing.assert_allclose(smooth_step_grad(mu, gamma), fd, rtol=1e-6, atol=1e-9)


# --- kernel weights -----------------------------------------------------------


class TestKernelWeights:
    def test_phi_zero_is_one_hot(self):
        w = kernel_weights(3, 0.0)
        np.testing.assert_array_equal(w, [0, 0, 0, 1, 0, 0, 0])

    @pytest.mark.parametrize("phi", [0.5, 1.0, 3.0, 50.0])
    def test_center_weight_is_one(self, phi):
        w = kernel_weights(2, phi)
        assert w[2] == 1.0

    def test_phi_three_neighbor_weight(self):
        w = kernel_weights(1, 3.0)
        np.testing.assert_allclose(w[0], np.exp(-1 / 6))
        np.testing.assert_allclose(w[0], 0.84648, atol=5e-6)

    def test_symmetric_and_decreasing(self):
        w = kernel_weights(5, 2.7)
        np.testing.assert_allclose(w, w[::-1])
        half = w[5:]
        assert np.all(np.diff(half) < 0)

    def test_invalid_args_raise(self):
        with pytest.raises(ConfigError):
            kernel_weights(-1, 1.0)
        with pytest.raises(ConfigError):
            kernel_weights(2, -0.5)


class TestSmoothedEmbedding:
    """Decision table for neighborhoods, boundaries, and the missing bin."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.emb = rng.normal(size=(6, 3))  # 5 observed bins + missing row
        self.tables = [self.emb]

    def test_size_zero_is_identity(self):
        cfg = KernelConfig(phi=3.0, size=0)
        for i in range(6):
            np.testing.assert_array_equal(
                smoothed_embedding(self.tables, 0, i, cfg), self.emb[i]
            )

    def test_phi_zero_is_identity(self):
        cfg = KernelConfig(phi=0.0, size=4)
        for i in range(6):
            np.testing.assert_array_equal(
                smoothed_embedding(self.tables, 0, i, cfg), self.emb[i]
            )

    @pytest.mark.parametrize("phi,size", [(1.0, 1), (3.0, 2), (50.0, 5)])
    def test_missing_bin_never_smoothed(self, phi, size):
        cfg = KernelConfig(phi=phi, size=size)
        np.testing.assert_array_equal(
            smoothed_embedding(self.tables, 0, 0, cfg), self.emb[0]
        )

    def test_interior_bin_phi3_k1(self):
        cfg = KernelConfig(phi=3.0, size=1)
        w1 = np.exp(-1 / 6)
        expected = self.emb[3] + w1 * (self.emb[2] + self.emb[4])
        np.testing.assert_allclose(smoothed_embedding(self.tables, 0, 3, cfg), expected)

    def test_boundary_clips_without_reflection(self):
        """Bin 1 has no left neighbor and never borrows the missing row."""
        cfg = KernelConfig(phi=3.0, size=2)
        w = kernel_weights(2, 3.0)
        expected = self.emb[1] + w[3] * self.emb[2] + w[4] * self.emb[3]
        np.testing.assert_allclose(smoothed_embedding(self.tables, 0, 1, cfg), expected)

    def test_operator_structure(self):
        S = smoothing_operator(4, 8, KernelConfig(phi=2.0, size=3))
        assert S[0, 0] == 1.0
        np.testing.assert_array_equal(S[0, 1:], 0.0)
        np.testing.assert_array_equal(S[1:, 0], 0.0)
        np.testing.assert_array_equal(S[5:], 0.0)

    def test_out_of_range_raises(self):
        with pytest.raises(ConfigError):
            smoothed_embedding(self.tables, 0, 6, KernelConfig())


def _operator_by_loop(n_bins, padded, cfg):
    """Reference operator: one kernel weight per in-range (bin, offset)."""
    S = np.zeros((padded, padded))
    S[0, 0] = 1.0
    w = kernel_weights(cfg.size, cfg.phi)
    for i in range(1, n_bins + 1):
        for o in range(-cfg.size, cfg.size + 1):
            t = i + o
            if 1 <= t <= n_bins:
                S[i, t] += w[o + cfg.size]
    return S


@pytest.mark.parametrize("phi", [0.0, 0.7, 3.0, 50.0])
@pytest.mark.parametrize("pad", [1, 5])
def test_smoothing_operator_matches_loop_and_is_symmetric(phi, pad):
    """Backprop multiplies by S where the chain rule has Sᵀ, so S = Sᵀ must hold exactly."""
    for n in range(41):
        for size in (0, 2, 5, n, n + 3):
            cfg = KernelConfig(phi=phi, size=size)
            S = smoothing_operator(n, n + pad, cfg)
            np.testing.assert_array_equal(S, _operator_by_loop(n, n + pad, cfg))
            np.testing.assert_array_equal(S, S.T)


class TestPairSmoothedEmbedding:
    def _oracle(self, emb, ia, ib, cfg):
        """Brute-force 2-D neighborhood sum with per-axis clipping."""
        na, nb = emb.shape[0] - 1, emb.shape[1] - 1
        if ia == 0 and ib == 0:
            return emb[0, 0].astype(np.float64)
        out = np.zeros(emb.shape[-1])
        ra = [0] if ia == 0 else range(-cfg.size, cfg.size + 1)
        rb = [0] if ib == 0 else range(-cfg.size, cfg.size + 1)
        for a in ra:
            ta = ia + a
            if ia != 0 and not 1 <= ta <= na:
                continue
            for b in rb:
                tb = ib + b
                if ib != 0 and not 1 <= tb <= nb:
                    continue
                if cfg.phi == 0:
                    w = 1.0 if (a == 0 and b == 0) else 0.0
                else:
                    w = np.exp(-(a * a + b * b) / (2 * cfg.phi))
                out += w * emb[ta, tb]
        return out

    def test_phi_zero_single_cell(self):
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(5, 4, 2))
        cfg = KernelConfig(phi=0.0, size=3)
        np.testing.assert_allclose(
            pair_smoothed_embedding([emb], 0, (2, 3), cfg), emb[2, 3]
        )

    def test_diagonal_neighbor_weight_phi3(self):
        emb = np.zeros((5, 5, 1))
        emb[3, 3, 0] = 1.0
        cfg = KernelConfig(phi=3.0, size=1)
        got = pair_smoothed_embedding([emb], 0, (2, 2), cfg)
        np.testing.assert_allclose(got[0], np.exp(-2 / 6))
        np.testing.assert_allclose(got[0], 0.71653, atol=5e-6)

    def test_batched_core_smoothing_matches_reference_every_cell(self):
        """Unequal, padded bin counts; feature 1 is each pair's second axis."""
        rng = np.random.default_rng(5)
        cfg = KernelConfig(phi=3.0, size=2)
        core = tiny_core(rng, kernel=cfg, pairs=[(0, 1), (2, 1)])
        M = core.feats.padded
        psm = core.pairs.smoothed(core.feats, core.pairs.emb).reshape(2, M, M, -1)
        for k, (ja, jb) in enumerate(core.pairs.pairs):
            na, nb = (int(core.feats.n_bins[j]) + 1 for j in (ja, jb))
            emb = core.pairs.emb[k, :na, :nb]
            for ia in range(M):
                for ib in range(M):
                    if ia < na and ib < nb:
                        want = pair_smoothed_embedding([emb], 0, (ia, ib), cfg)
                    else:
                        want = np.zeros(emb.shape[-1])
                    np.testing.assert_allclose(psm[k, ia, ib], want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("phi,size", [(0.0, 2), (1.0, 1), (3.0, 2)])
    def test_matches_brute_force_everywhere(self, phi, size):
        rng = np.random.default_rng(11)
        emb = rng.normal(size=(5, 4, 3))
        cfg = KernelConfig(phi=phi, size=size)
        for ia in range(5):
            for ib in range(4):
                got = pair_smoothed_embedding([emb], 0, (ia, ib), cfg)
                np.testing.assert_allclose(got, self._oracle(emb, ia, ib, cfg), atol=1e-12)


# --- monotone transform --------------------------------------------------------


class TestMonotoneOutput:
    def test_increasing_cumulative_squares(self):
        out = monotone_output(np.array([0.7, 1.0, 2.0, 3.0]), 1, 0.0)
        np.testing.assert_allclose(out[1:], [1.0, 5.0, 14.0])
        assert out[0] == 0.7
        assert np.all(np.diff(out[1:]) >= 0)

    def test_zero_raw_gives_constant_offset(self):
        out = monotone_output(np.zeros(5), 1, 2.5)
        np.testing.assert_array_equal(out, 2.5)

    def test_decreasing(self):
        out = monotone_output(np.array([0.0, 1.0, 1.0]), -1, 0.0)
        np.testing.assert_allclose(out[1:], [-1.0, -2.0])

    def test_offset_shifts_everything(self):
        raw = np.array([0.3, 1.0, 2.0])
        np.testing.assert_allclose(
            monotone_output(raw, 1, 1.5), monotone_output(raw, 1, 0.0) + 1.5
        )

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=20))
    def test_direction_property(self, raw):
        raw = np.asarray(raw)
        up = monotone_output(raw, 1, 0.0)
        down = monotone_output(raw, -1, 0.0)
        assert np.all(np.diff(up[1:]) >= 0)
        assert np.all(np.diff(down[1:]) <= 0)

    def test_invalid_direction_raises(self):
        with pytest.raises(ConfigError):
            monotone_output(np.zeros(3), 0, 0.0)

    def test_vector_output_raises(self):
        with pytest.raises(ConfigError):
            monotone_output(np.zeros((3, 2)), 1, 0.0)


# --- forward -------------------------------------------------------------------


class TestModelForward:
    def test_single_open_gate_adds_one_effect(self, rng):
        core = tiny_core(rng, n_bins=(4,))
        core.feats.mu[:] = core.gamma / 2
        codes = np.array([[2], [0], [4]])
        expected = bin_tables(core)[0, [2, 0, 4]]
        np.testing.assert_array_equal(forward_pass(core, codes).eta, expected)

    def test_zero_init_shapes_are_zero(self, rng):
        core = init_core(np.array([4, 2]), 2, KernelConfig(), rng, embedding_dim=5)
        np.testing.assert_array_equal(bin_tables(core), 0.0)

    def test_init_deterministic_under_seed(self):
        a = tiny_core(np.random.default_rng(5))
        b = tiny_core(np.random.default_rng(5))
        for k, v in param_dict(a).items():
            np.testing.assert_array_equal(v, param_dict(b)[k])

    def test_gate_range_respected_by_gates(self, rng):
        core = tiny_core(rng)
        for stack, gamma in core.stacks():
            g = stack.gates(gamma)
            assert np.all((g >= 0) & (g <= 1))


# --- backward (finite-difference oracle) ----------------------------------------


@pytest.mark.parametrize("out", [1, 3])
def test_scatter_bins_sums_like_add_at(out):
    from namlite.core import _scatter_bins

    rng = np.random.default_rng(6)
    codes = rng.integers(0, 7, size=(50, 4))
    d_vals = rng.normal(size=(50, 4, out))
    cells = np.arange(4)[None, :] * 7 + codes
    acc = np.zeros((4 * 7, out))
    np.add.at(acc, cells.ravel(), d_vals.reshape(-1, out))
    np.testing.assert_array_equal(_scatter_bins(d_vals, cells, (4, 7, out)), acc.reshape(4, 7, out))


class TestBackward:
    def test_gradients_match_fd_with_pairs_and_monotone(self):
        rng = np.random.default_rng(42)
        core = tiny_core(
            rng,
            n_bins=(5, 3, 4),
            pairs=[(0, 1), (1, 2)],
            mono_dir=np.array([0, 0, 1]),
        )
        core.feats.mono_off[:] = rng.normal(size=3)
        codes = random_codes(rng, 12, core.feats.n_bins)
        target = rng.normal(size=(12, 1))
        assert fd_worst(core, codes, target, reg=0.07, preg=0.03) < 1e-4

    def test_gradients_match_fd_multi_output(self):
        rng = np.random.default_rng(43)
        core = tiny_core(rng, n_bins=(4, 4), out_dim=3, pairs=[(0, 1)])
        codes = random_codes(rng, 10, core.feats.n_bins)
        target = rng.normal(size=(10, 3))
        assert fd_worst(core, codes, target, reg=0.01, preg=0.02) < 1e-4

    def test_gradients_match_fd_with_saturated_gates(self):
        # Open, closed and fixed-at-1 gates: the gate gradients are 0, and a
        # closed gate cuts its feature's or pair's parameters off the loss.
        rng = np.random.default_rng(44)
        core = tiny_core(rng, n_bins=(5, 3, 4), pairs=[(0, 1), (1, 2)])
        core.feats.mu[:] = [core.gamma, -core.gamma, 0.75 * core.gamma]
        core.pairs.mu[:] = [-core.pair_gamma, core.pair_gamma]
        codes = random_codes(rng, 12, core.feats.n_bins)
        target = rng.normal(size=(12, 1))
        assert fd_worst(core, codes, target, reg=0.07, preg=0.03) < 1e-4
        cache = forward_pass(core, codes)
        grads = backward_pass(core, cache, cache.eta - target, 0.07, 0.03)
        np.testing.assert_array_equal(grads["feat_mu"], 0.0)
        np.testing.assert_array_equal(grads["pair_mu"], 0.0)
        np.testing.assert_array_equal(grads["feat_emb"][1], 0.0)
        np.testing.assert_array_equal(grads["pair_emb"][0], 0.0)

    def test_saturated_gate_gets_zero_gradient(self, rng):
        core = tiny_core(rng)
        core.feats.mu[:] = [core.gamma, -core.gamma, core.gamma / 2]
        codes = random_codes(rng, 9, core.feats.n_bins)
        cache = forward_pass(core, codes)
        grads = backward_pass(core, cache, np.ones((9, 1)), reg_param=0.5)
        np.testing.assert_array_equal(grads["feat_mu"], 0.0)

    def test_all_missing_feature_touches_only_missing_row(self, rng):
        core = tiny_core(rng, n_bins=(4, 4))
        codes = random_codes(rng, 20, core.feats.n_bins)
        codes[:, 1] = 0
        cache = forward_pass(core, codes)
        grads = backward_pass(core, cache, np.ones((20, 1)))
        np.testing.assert_array_equal(grads["feat_emb"][1, 1:], 0.0)
        assert np.any(grads["feat_emb"][1, 0] != 0.0)

    def test_nonfinite_gradient_raises(self, rng):
        """The message names the first non-finite array in layout order."""
        core = tiny_core(rng, pairs=[(0, 1), (1, 2)])
        codes = random_codes(rng, 4, core.feats.n_bins)
        full, pairs_only = forward_pass(core, codes), forward_pass(core, codes, compute_feats=False)
        cases = [
            # Without monotone features the offsets' gradient is 0, so the
            # embeddings come first, and the first stack's before the second's.
            (full, np.inf, {}, "feat_emb"),
            (pairs_only, np.inf, {}, "pair_emb"),
            # An infinite regularizer reaches only the gates, each stack's last array.
            (full, 1.0, dict(reg_param=np.inf), "feat_mu"),
            (full, 1.0, dict(pair_reg_param=np.inf), "pair_mu"),
        ]
        for cache, d, regs, name in cases:
            with np.errstate(invalid="ignore"), pytest.raises(
                    TrainingError, match=rf"non-finite gradient in {name}$"):
                backward_pass(core, cache, np.full((4, 1), d), **regs)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_forward_eta_matches_the_index_pair_gather():
    """The flat gather must keep the memory order of the cells, as the
    (term, cell) gather does: pair cells are column major, and einsum's
    sums follow the order of its operand."""
    rng = np.random.default_rng(53)
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    core = tiny_core(rng, n_bins=(6, 3, 8, 5, 7), pairs=pairs)
    codes = random_codes(rng, 150, core.feats.n_bins)
    cells = flat_pair_codes(core, codes)
    assert not cells.flags.c_contiguous
    got = forward_pass(core, codes, pair_codes=cells).eta
    np.testing.assert_array_equal(_bits(got), _bits(forward_eta(core, codes, cells)))


def _assert_close(got, want, err_msg=""):
    """Equal within 1e-12 of the array's largest magnitude: the compact pair
    pass sums a term's cells without the exact zeros of untouched cells."""
    scale = float(np.max(np.abs(want), initial=0.0))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale, err_msg=err_msg)


def _check_backward(core, cache, codes, d_eta, regs):
    """`backward_pass` against the dense per-entry pass in `oracles`: the
    feature stack bit for bit, the pair stack within 1e-12."""
    got = backward_pass(core, cache, d_eta, *regs)
    want = backward_reference(core, cache, codes, d_eta, *regs)
    assert list(got) == list(want)
    for name in got:
        if name.startswith("feat_"):
            np.testing.assert_array_equal(_bits(got[name]), _bits(want[name]), err_msg=name)
        elif name.startswith("pair_"):
            _assert_close(got[name], want[name], err_msg=name)


class TestBackwardMatchesReference:
    """`backward_pass` against the dense per-entry pass in `oracles`."""

    def test_mains_with_a_monotone_feature(self):
        rng = np.random.default_rng(50)
        core = tiny_core(rng, n_bins=(5, 3, 4), mono_dir=np.array([0, -1, 1]),
                         gates_trainable=False)
        core.feats.mono_off[:] = rng.normal(size=3)
        codes = random_codes(rng, 16, core.feats.n_bins)
        cache = forward_pass(core, codes, compute_pairs=False)
        _check_backward(core, cache, codes, rng.normal(size=(16, 1)), (0.0, 0.0))

    def test_pairs_on_frozen_mains(self):
        rng = np.random.default_rng(51)
        core = tiny_core(rng, n_bins=(5, 3, 4), out_dim=2, pairs=[(0, 1), (1, 2)])
        core.pairs.mu[:] = core.pair_gamma / 2  # fixed at 1
        codes = random_codes(rng, 16, core.feats.n_bins)
        mains = forward_pass(core, codes, compute_pairs=False).eta
        cache = forward_pass(core, codes, eta_offset=mains, compute_feats=False)
        _check_backward(core, cache, codes, rng.normal(size=(16, 2)), (0.0, 0.0))

    def test_selection_before_and_after_a_pruned_row(self):
        """Trainable gates, and the same core again after Adam-like in-place
        moves of mu and after pruning: the gate memo must see both."""
        rng = np.random.default_rng(52)
        core = tiny_core(rng, n_bins=(5, 3, 4), pairs=[(0, 1), (0, 2)],
                         mono_dir=np.array([0, 0, 1]))
        core.feats.mu[:] = [0.1, -0.2, core.gamma]
        codes = random_codes(rng, 16, core.feats.n_bins)
        d_eta = rng.normal(size=(16, 1))
        for step in range(3):
            if step == 1:
                core.feats.mu -= 0.05
                core.pairs.mu += 0.01
            if step == 2:
                core.feats.active[1] = False
                core.pairs.active[0] = False
            _check_backward(core, forward_pass(core, codes), codes, d_eta, (0.07, 0.03))


def _masked_sigmoid(x):
    """Reference for `sigmoid`: split by sign with boolean masks, one exp per side."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestPartialPasses:
    """The passes training runs with one stack frozen, against the full pass."""

    def _full(self):
        rng = np.random.default_rng(46)
        core = tiny_core(rng, n_bins=(5, 3, 4), pairs=[(0, 1), (1, 2)],
                         mono_dir=np.array([0, 0, 1]))
        core.feats.mono_off[:] = rng.normal(size=3)
        codes = random_codes(rng, 12, core.feats.n_bins)
        d_eta = rng.normal(size=(12, 1))
        full = forward_pass(core, codes)
        return core, codes, d_eta, full, backward_pass(core, full, d_eta, 0.07, 0.03)

    @pytest.mark.parametrize("frozen,trained", [("feat", "pair"), ("pair", "feat")])
    def test_matches_full_pass(self, frozen, trained):
        core, codes, d_eta, full, want = self._full()
        runs = {"feat": dict(compute_pairs=False), "pair": dict(compute_feats=False)}
        offset = forward_pass(core, codes, **runs[frozen]).eta
        part = forward_pass(core, codes, eta_offset=offset, **runs[trained])
        np.testing.assert_array_equal(part.eta, full.eta)
        assert set(part.stacks) == {trained}
        got = backward_pass(core, part, d_eta, 0.07, 0.03)
        assert not any(k.startswith(frozen + "_") for k in got)
        names = [k for k in want if k.startswith(trained + "_")]
        assert names and sorted(names) == sorted(k for k in got if k != "flat")
        for k in names:
            np.testing.assert_array_equal(got[k], want[k], err_msg=k)


class TestSigmoid:
    def test_bit_identical_to_the_two_branch_form(self):
        """The one-pass form gives the bits of both branches computed in full
        and picked by np.where, on edge values and on random draws."""
        edge = np.array([0.0, 800.0, 745.2, 709.8, np.nan, np.inf, 1e-300, 5e-324, 36.7, 37.5])
        rng = np.random.default_rng(10)
        for x in [np.concatenate([edge, -edge])] + [rng.normal(scale=s, size=100_000)
                                                    for s in (1e-3, 1.0, 50.0)]:
            np.testing.assert_array_equal(_bits(sigmoid(x)), _bits(sigmoid_where(x)))
        assert isinstance(sigmoid(0.5), np.ndarray) and sigmoid(0.5) == sigmoid_where(0.5)

    def test_bit_identical_to_masked_formula(self):
        rng = np.random.default_rng(9)
        edge = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-300, -1e-300, 709.8, -745.2,
                37.0, -37.0, 2.0, -2.0]
        x = np.concatenate([rng.normal(scale=s, size=400) for s in (1e-9, 1.0, 40.0, 900.0)]
                           + [np.array(edge)]).reshape(2, 3, -1)
        got, want = sigmoid(x), _masked_sigmoid(x)
        assert got.shape == x.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()

    def test_matches_definition_and_is_stable(self):
        x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        s = sigmoid(x)
        assert s[0] == 0.0 and s[4] == 1.0
        assert s[2] == 0.5
        np.testing.assert_allclose(s[1], 1 / (1 + np.exp(30.0)), rtol=1e-12)


def _five_rows(rng):
    core = tiny_core(rng, n_bins=(5, 3, 4), pairs=[(0, 1), (1, 2)])
    return core, random_codes(rng, 5, core.feats.n_bins)


def _one_cell(rng):
    core = tiny_core(rng, n_bins=(5, 3, 4), pairs=[(0, 1), (1, 2)])
    return core, np.repeat(random_codes(rng, 1, core.feats.n_bins), 12, axis=0)


def _padded(rng):
    """Pair (0, 1) spreads over most of its 63 cells; pair (2, 3) sees one cell."""
    core = tiny_core(rng, n_bins=(8, 6, 3, 3), pairs=[(0, 1), (2, 3)])
    codes = random_codes(rng, 60, core.feats.n_bins)
    codes[:, 2:] = [2, 1]
    return core, codes


def _pruned(rng):
    core = tiny_core(rng, n_bins=(5, 3, 4), pairs=[(0, 1), (0, 2), (1, 2)])
    core.pairs.active[1] = False
    return core, random_codes(rng, 20, core.feats.n_bins)


def _wide_sigmoid(rng):
    core = tiny_core(rng, n_bins=(5, 3, 4), out_dim=24, link="sigmoid", pairs=[(0, 1), (0, 2)])
    return core, random_codes(rng, 16, core.feats.n_bins)


def _every_cell(rng):
    """Every (a, b) cell of every pair, missing bins included, in shuffled order."""
    core = tiny_core(rng, n_bins=(2, 2, 2), pairs=[(0, 1), (1, 2), (0, 2)])
    codes = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), -1).reshape(-1, 3)
    return core, rng.permutation(codes)


COMPACT_CASES = {
    "five_rows": _five_rows,
    "one_cell": _one_cell,
    "padded": _padded,
    "pruned": _pruned,
    "wide_sigmoid": _wide_sigmoid,
    "every_cell": _every_cell,
}


class TestCompactPairPass:
    """The pair stack's subnetworks run only on the cells a batch touches;
    the pass must agree with a dense reference built from the core."""

    @pytest.mark.parametrize("case", sorted(COMPACT_CASES))
    def test_matches_the_dense_reference(self, case):
        rng = np.random.default_rng(60)
        core, codes = COMPACT_CASES[case](rng)
        d_eta = rng.normal(size=(codes.shape[0], core.out_dim))
        cache = forward_pass(core, codes)
        _assert_close(cache.eta, forward_eta(core, codes))
        _check_backward(core, cache, codes, d_eta, (0.07, 0.03))
        # The same pair pass on frozen mains, as the pair phase runs it.
        mains = forward_pass(core, codes, compute_pairs=False).eta
        pairs = forward_pass(core, codes, eta_offset=mains, compute_feats=False)
        _assert_close(pairs.eta, forward_eta(core, codes))
        _check_backward(core, pairs, codes, d_eta, (0.0, 0.0))

    @pytest.mark.parametrize("case", sorted(COMPACT_CASES))
    def test_each_pair_runs_only_on_its_distinct_cells(self, case, monkeypatch):
        import namlite.core as core_mod

        core, codes = COMPACT_CASES[case](np.random.default_rng(61))
        ran = []
        real = core_mod._mlp_tables

        def recording(sm, weights, activation):
            ran.append(sm.shape)
            return real(sm, weights, activation)

        monkeypatch.setattr(core_mod, "_mlp_tables", recording)
        run = forward_pass(core, codes, compute_feats=False).stacks["pair"]
        cells = flat_pair_codes(core, codes)
        distinct = [np.unique(cells[:, t]) for t in range(core.pairs.n_pairs)]
        K = max(d.size for d in distinct)
        assert ran == [(core.pairs.n_pairs, K, core.pairs.emb.shape[-1])]
        touched, slots = run.grid
        C = core.feats.padded ** 2
        for t, d in enumerate(distinct):
            mine = (slots >= t * K) & (slots < (t + 1) * K)
            np.testing.assert_array_equal(touched[mine], d + t * C)
            np.testing.assert_array_equal(slots[mine], t * K + np.arange(d.size))
