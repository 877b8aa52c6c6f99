"""Reference implementations that tests check the batched code against.

Each one computes, slowly and directly, something the package computes
in batches: the smoothing of one bin or pair cell, the monotone transform
of one shape, a fitted split's prediction per split, and the gradients
of a core by central differences.
"""

import numpy as np

from namlite.core import (
    KernelConfig,
    _link,
    backward_pass,
    bin_tables,
    flat_pair_codes,
    forward_pass,
    pair_bin_tables,
    param_dict,
    smoothing_operator,
)
from namlite.errors import ConfigError

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
