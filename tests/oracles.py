"""Reference implementations that tests check the batched code against.

Each one computes, slowly and directly, something the package computes
in batches or in fewer passes: the smoothing of one bin or pair cell, the
monotone transform of one shape, a fitted split's prediction per split,
the forward pass gathered by (term, cell) index pairs, the gradients of
a core by central differences and by a dense per-entry backward pass
over every cell, the sigmoid as a pick between two branches, and the
bin edge merge one edge per pass.
"""

import numpy as np

from namlite.core import (
    KernelConfig,
    _link,
    backward_pass,
    bin_tables,
    flat_pair_codes,
    flat_views,
    forward_pass,
    pair_bin_tables,
    param_dict,
    smooth_step,
    smooth_step_grad,
    smoothing_operator,
)
from namlite.errors import ConfigError, TrainingError

# --- single-sample smoothing and monotone ops ---------------------------------


def smoothed_embedding(tables, j: int, i: int, cfg: KernelConfig) -> np.ndarray:
    """Reference single-row smoothing; `tables[j]` is (n_bins_j+1, d)."""
    emb = np.asarray(tables[j], dtype=np.float64)
    n_bins = emb.shape[0] - 1
    if not 0 <= i <= n_bins:
        raise ConfigError(f"bin index {i} out of range for feature {j}")
    S = smoothing_operator(n_bins, n_bins + 1, cfg)
    return S[i] @ emb


def pair_smoothed_embedding(pair_tables, pair, indices, cfg: KernelConfig) -> np.ndarray:
    """Reference 2-D smoothing; `pair_tables[pair]` is (na+1, nb+1, d)."""
    emb = np.asarray(pair_tables[pair], dtype=np.float64)
    na, nb = emb.shape[0] - 1, emb.shape[1] - 1
    ia, ib = indices
    if not (0 <= ia <= na and 0 <= ib <= nb):
        raise ConfigError(f"bin indices {indices} out of range for pair {pair}")
    Sa = smoothing_operator(na, na + 1, cfg)
    Sb = smoothing_operator(nb, nb + 1, cfg)
    # Separable kernel: per-axis smoothing composes to the 2-D Gaussian.
    return np.einsum("a,b,abd->d", Sa[ia], Sb[ib], emb)


def monotone_output(raw: np.ndarray, direction: int, offset: float) -> np.ndarray:
    """Cumulative-squares transform over bins 1..n; missing bin stays free.

    raw[0] is the missing bin; it is excluded from the chain and emitted
    as offset + raw[0].
    """
    if direction not in (-1, 1):
        raise ConfigError(f"monotone direction must be -1 or +1, got {direction}")
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1:
        raise ConfigError("monotone transform applies to scalar-output shapes only")
    out = np.empty_like(raw)
    out[0] = offset + raw[0]
    out[1:] = offset + direction * np.cumsum(raw[1:] ** 2)
    return out


# --- one split's prediction ------------------------------------------------------


def predict_eta(split, codes: np.ndarray) -> np.ndarray:
    """beta0 plus every term's centered contribution, each read from its
    core's ungated table times its gate, minus its center."""
    core = split.core
    eta = split.beta0
    builds, centers = (bin_tables, pair_bin_tables), (split.c_feat, split.c_pair)
    for (stack, gamma), build, c in zip(core.stacks(), builds, centers):
        tab = stack.gates(gamma)[:, None, None] * build(core) - c[:, None, :]
        cells = stack.cell_codes(core.feats, codes)
        eta = eta + np.einsum("bto->bo", tab[np.arange(tab.shape[0]), cells])
    return eta


def predict_linked(split, codes: np.ndarray) -> np.ndarray:
    """One split's prediction, g(`predict_eta`)."""
    return _link(predict_eta(split, codes), split.core.link)


# --- the forward pass by (term, cell) index pairs --------------------------------


def forward_eta(core, codes, pair_codes=None):
    """eta of a full forward pass, each stack's outputs gathered from its
    ungated tables by (term, cell) index pairs, then weighted by its gates."""
    eta = np.zeros((codes.shape[0], core.out_dim))
    builds, given = (bin_tables, pair_bin_tables), (codes, pair_codes)
    for (stack, gamma), build, cells in zip(core.stacks(), builds, given):
        if cells is None:
            cells = stack.cell_codes(core.feats, codes)
        tabs = build(core)
        vals = tabs[np.arange(tabs.shape[0])[None, :], cells]
        eta = eta + np.einsum("bto,t->bo", vals, smooth_step(stack.mu, gamma) * stack.active)
    return eta


# --- finite-difference gradients ------------------------------------------------


def _objective(core, codes, pair_codes, target, reg, preg):
    """Half the squared error of eta, plus each stack's gate regularizer."""
    cache = forward_pass(core, codes, pair_codes)
    loss = 0.5 * np.sum((cache.eta - target) ** 2)
    for stack, gamma in core.stacks():
        weight = reg if stack.prefix == "feat" else preg
        loss += weight * np.sum(stack.gates(gamma))
    return loss


def fd_worst(core, codes, target, reg=0.0, preg=0.0, h=1e-4):
    """Max relative error between analytic and central-difference grads."""
    pair_codes = flat_pair_codes(core, codes)
    cache = forward_pass(core, codes, pair_codes)
    grads = backward_pass(core, cache, cache.eta - target, reg, preg)
    worst = 0.0
    for name, arr in param_dict(core).items():
        flat = arr.reshape(-1)
        fd = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = _objective(core, codes, pair_codes, target, reg, preg)
            flat[i] = orig - h
            lo = _objective(core, codes, pair_codes, target, reg, preg)
            flat[i] = orig
            fd[i] = (hi - lo) / (2 * h)
        a = grads[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-3)
        worst = max(worst, float(np.max(np.abs(a - fd) / denom)))
    return worst


# --- the per-entry backward pass -------------------------------------------------


def backward_reference(core, cache, codes, d_eta, reg_param=0.0, pair_reg_param=0.0):
    """`backward_pass` computed densely and entry by entry: the gates and
    their slopes from `smooth_step`, views of the gradient vector by
    `param_dict` name picked by prefix, the scatter by np.add.at into
    every cell of the tables, the monotone and subnetwork backward on
    copies, and one finiteness check per entry.

    It reads from the cache only which stacks ran. Everything else comes
    from the core and `codes`: each stack's smoothed embeddings and hidden
    layers over every cell, its outputs from `bin_tables` or
    `pair_bin_tables`, gathered by (term, cell) index pairs, and the
    outputs before the monotone transform from the last hidden layer.
    """
    params = param_dict(core)
    grads = {"flat": np.empty(core.flat.size)}
    views = dict(zip(params, flat_views(grads["flat"], [a.shape for a in params.values()])))
    reg = {"feat": reg_param, "pair": pair_reg_param}
    builds = {"feat": bin_tables, "pair": pair_bin_tables}
    for stack, gamma in core.stacks():
        if stack.prefix not in cache.stacks:
            continue
        pre = stack.prefix
        g = {k: v for k, v in views.items() if k.startswith(pre + "_")}
        grads.update(g)
        tabs = builds[pre](core)
        n, cells, out = tabs.shape
        idx = stack.cell_codes(core.feats, codes)
        vals = tabs[np.arange(n)[None, :], idx]
        sgrad = smooth_step_grad(stack.mu, gamma) * stack.active
        d_gate = np.einsum("bo,bto->t", d_eta, vals)
        g[f"{pre}_mu"][...] = d_gate * sgrad + reg[pre] * sgrad
        gates = smooth_step(stack.mu, gamma) * stack.active
        d_vals = d_eta[:, None, :] * gates[None, :, None]
        d_tabs = np.zeros((n * cells, out))
        np.add.at(d_tabs, (idx + np.arange(n) * cells).ravel(), d_vals.reshape(-1, out))
        d_tabs = d_tabs.reshape(n, cells, out)
        acts = [stack.smoothed(core.feats, stack.emb)]
        for W, b in stack.weights[:-1]:
            h = acts[-1] @ W + b[:, None, :]
            acts.append(np.maximum(h, 0.0) if core.activation == "relu" else h)
        W, b = stack.weights[-1]
        raw = acts[-1] @ W + b[:, None, :]
        if pre == "feat":
            d_tabs = _monotone_grad_reference(stack, d_tabs, raw, g["feat_off"])
        dh = d_tabs
        for l in range(len(stack.weights) - 1, -1, -1):
            W, _ = stack.weights[l]
            np.matmul(acts[l].transpose(0, 2, 1), dh, out=g[f"{pre}_W{l}"])
            dh.sum(axis=1, out=g[f"{pre}_b{l}"])
            dh = dh @ W.transpose(0, 2, 1)
            if l > 0 and core.activation == "relu":
                dh = dh * (acts[l] > 0)
        stack.smoothed(core.feats, dh, out=g[f"{pre}_emb"])
    for name, g in grads.items():
        if name != "flat" and not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name}")
    return grads


def _monotone_grad_reference(feats, d_tabs, raw, d_off):
    d_raw = d_tabs.copy()
    d_off[...] = 0.0
    for j in np.flatnonzero(feats.mono_dir):
        n = int(feats.n_bins[j])
        d = float(feats.mono_dir[j])
        dout = d_tabs[j, : n + 1, 0]
        r = raw[j, 1 : n + 1, 0]
        tail = np.cumsum(dout[1:][::-1])[::-1]
        d_raw[j, 1 : n + 1, 0] = d * 2.0 * r * tail
        d_off[j] = dout.sum()
    return d_raw


# --- the sigmoid as a pick between two branches ------------------------------------


def sigmoid_where(x):
    """1 / (1 + e) where x >= 0, else e / (1 + e), with e = exp(-|x|):
    both branches in full, then np.where picks."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# --- bin edge merge, one edge per pass ----------------------------------------------


def continuous_edges_loop(x, max_bins: int, min_samples_per_bin: int) -> tuple[float, ...]:
    """Quantile edges, then while the smallest bin (the first of equals) is
    under `min_samples_per_bin`, drop its right edge (the last bin its left
    one) and count every value again."""
    qs = np.arange(1, max_bins) / max_bins
    edges = np.unique(np.quantile(x, qs))
    while edges.size > 0:
        idx = np.searchsorted(edges, x, side="left")
        counts = np.bincount(idx, minlength=edges.size + 1)
        b = int(np.argmin(counts))
        if counts[b] >= min_samples_per_bin:
            break
        drop = b - 1 if b == edges.size else b
        edges = np.delete(edges, drop)
    return tuple(float(e) for e in edges)
