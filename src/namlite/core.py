"""Differentiable core: smoothed bin embeddings, subnetworks, and gates.

Everything runs in float64. Per-feature parameters are stacked and padded
to a common bin count M so forward and backward are batched matrix
products across features. Padding rows are never indexed by data and
their smoothing-operator rows are zero, so they receive no gradient and
stay at their initial values.

Each feature has one smoothing operator, in `FeatureStack.smooth`; pairs
read their two axes' operators from it. Every operator is symmetric,
S = Sᵀ exactly (see `smoothing_operator`), so backprop multiplies by S
where the chain rule has Sᵀ, and pair smoothing is its own gradient.

Every learnable array of a core is a view into one float64 vector,
`ModelCore.flat`: the feature stack's arrays in the order of its
`learnable()` list, then the pair stack's. So `param_dict` views stay
live, gradients come back in the same layout, the stacks a training
phase trains are one slice of it, and the optimizer and the
early-stopping snapshots work on whole vectors. The arrays are edited
in place only and never rebound: an array assigned over a stack's field
is no longer seen by training. The pair stack is replaced only through
`ModelCore.attach_pairs`, which moves both stacks into a new vector, so
views taken before it are stale.

Features and pairs are stacks of one kind, listed with their gate widths
by `ModelCore.stacks()`; forward, backward and the table builders run one
code path over them, and so do save, load, predict and the importance
scores. Each stack supplies what differs: its `param_dict` name `prefix`,
`cell_codes` (the bin codes, or `flat_pair_codes`), `extents` (each term's
true table shape inside the padded one, which saving cuts to),
`smoothed` (S @ x, or the two-axis pair smoothing; each its own gradient)
and `monotone` with its backward `monotone_grad` (identity for pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingError

__all__ = [
    "KernelConfig",
    "FeatureStack",
    "PairStack",
    "ModelCore",
    "ForwardCache",
    "StackPass",
    "smooth_step",
    "smooth_step_grad",
    "kernel_weights",
    "smoothing_operator",
    "flat_pair_codes",
    "bin_tables",
    "pair_bin_tables",
    "forward_pass",
    "backward_pass",
    "init_core",
    "flat_views",
    "param_dict",
    "sigmoid",
]

ACTIVATIONS = ("relu", "identity")


# --- gates -------------------------------------------------------------------


def smooth_step(mu, gamma: float):
    """Cubic smooth-step gate: 0 below -gamma/2, 1 above +gamma/2, C1 overall."""
    if gamma <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    m = np.asarray(mu, dtype=np.float64)
    g = float(gamma)
    inner = -(2.0 / g**3) * m**3 + (3.0 / (2.0 * g)) * m + 0.5
    out = np.where(m <= -g / 2, 0.0, np.where(m >= g / 2, 1.0, inner))
    return float(out) if np.isscalar(mu) else out


def smooth_step_grad(mu, gamma: float):
    if gamma <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    m = np.asarray(mu, dtype=np.float64)
    g = float(gamma)
    inner = -(6.0 / g**3) * m**2 + 3.0 / (2.0 * g)
    out = np.where(np.abs(m) >= g / 2, 0.0, inner)
    return float(out) if np.isscalar(mu) else out


# --- kernel smoothing --------------------------------------------------------


def kernel_weights(size: int, phi: float) -> np.ndarray:
    """Gaussian weights over offsets -size..size; phi=0 collapses to one-hot."""
    if size < 0:
        raise ConfigError(f"kernel size must be >= 0, got {size}")
    if phi < 0:
        raise ConfigError(f"phi must be >= 0, got {phi}")
    offsets = np.arange(-size, size + 1, dtype=np.float64)
    if phi == 0:
        return (offsets == 0).astype(np.float64)
    return np.exp(-(offsets**2) / (2.0 * phi))


@dataclass(frozen=True)
class KernelConfig:
    phi: float = 3.0
    size: int = 5


def smoothing_operator(n_bins: int, padded: int, cfg: KernelConfig) -> np.ndarray:
    """Matrix S with (S @ emb)[i] = smoothed embedding of bin i.

    Row 0 passes the missing bin through untouched; rows 1..n_bins mix
    neighbors at Gaussian weights, dropping offsets that leave [1, n_bins].
    Rows and columns past n_bins (padding) are zero. S[i, t] depends on
    |i - t| and on both bins being observed, so S = Sᵀ exactly: backprop
    relies on this and smooths gradients with S itself.
    """
    half = kernel_weights(cfg.size, cfg.phi)[cfg.size :]  # offsets 0..size
    i = np.arange(padded)
    dist = np.abs(i[:, None] - i[None, :])
    observed = (i >= 1) & (i <= n_bins)
    mask = (dist <= cfg.size) & observed[:, None] & observed[None, :]
    S = np.where(mask, half[np.minimum(dist, cfg.size)], 0.0)
    S[0, 0] = 1.0
    return S


# --- parameter containers ----------------------------------------------------


def flat_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the 1-D `flat`, one per shape, from its start."""
    views, start = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(flat[start : start + n].reshape(shape))
        start += n
    return views


def _layer_arrays(prefix: str, weights) -> list[tuple[str, np.ndarray]]:
    out = []
    for l, (W, b) in enumerate(weights):
        out += [(f"{prefix}_W{l}", W), (f"{prefix}_b{l}", b)]
    return out


def _layers_from(views) -> list[tuple[np.ndarray, np.ndarray]]:
    return list(zip(views[0::2], views[1::2]))


class _Stack:
    """What both stacks share; without monotone terms (pairs) `monotone` passes through."""

    def gates(self, gamma: float) -> np.ndarray:
        return smooth_step(self.mu, gamma) * self.active

    def monotone(self, raw: np.ndarray) -> np.ndarray:
        return raw

    def monotone_grad(self, d_tabs: np.ndarray, raw: np.ndarray, grads: dict) -> np.ndarray:
        return d_tabs


@dataclass
class FeatureStack(_Stack):
    emb: np.ndarray  # (p, M, d)
    weights: list  # [(W, b)] with W (p, in, out), b (p, out)
    mu: np.ndarray  # (p,)
    n_bins: np.ndarray  # (p,) observed bins, excluding missing
    smooth: np.ndarray  # (p, M, M), fixed
    mono_dir: np.ndarray  # (p,) in {-1, 0, +1}
    mono_off: np.ndarray  # (p,)
    active: np.ndarray  # (p,) bool

    prefix = "feat"

    @property
    def n_features(self) -> int:
        return int(self.emb.shape[0])

    @property
    def padded(self) -> int:
        return int(self.emb.shape[1])

    def learnable(self) -> list[tuple[str, np.ndarray]]:
        """Trainable arrays by `param_dict` name, in buffer order."""
        return ([("feat_off", self.mono_off), ("feat_emb", self.emb)]
                + _layer_arrays("feat", self.weights) + [("feat_mu", self.mu)])

    def _bind(self, views: list[np.ndarray]) -> None:
        self.mono_off, self.emb, *layers, self.mu = views
        self.weights = _layers_from(layers)

    def cell_codes(self, feats: FeatureStack, codes: np.ndarray) -> np.ndarray:
        return codes

    def extents(self, feats: FeatureStack) -> list[tuple[int, ...]]:
        """Each feature's true table shape, (n_j + 1,): its missing bin, then its observed bins."""
        return [(int(n) + 1,) for n in self.n_bins]

    def smoothed(
        self, feats: FeatureStack, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Each feature's operator applied to its (M, d) table in `x`."""
        return np.matmul(self.smooth, x, out=out)

    def monotone(self, raw: np.ndarray) -> np.ndarray:
        out = raw
        idx = np.flatnonzero(self.mono_dir)
        if idx.size:
            out = raw.copy()
            for j in idx:
                n = int(self.n_bins[j])
                d = float(self.mono_dir[j])
                r = raw[j, 1 : n + 1, 0]
                out[j, 1 : n + 1, 0] = self.mono_off[j] + d * np.cumsum(r**2)
                out[j, 0, 0] = self.mono_off[j] + raw[j, 0, 0]
        return out

    def monotone_grad(self, d_tabs: np.ndarray, raw: np.ndarray, grads: dict) -> np.ndarray:
        """Undo the monotone transform where it applies; writes the offsets' gradient."""
        d_raw = d_tabs
        d_off = grads["feat_off"]
        d_off[...] = 0.0
        idx = np.flatnonzero(self.mono_dir)
        if idx.size:
            d_raw = d_tabs.copy()
            for j in idx:
                n = int(self.n_bins[j])
                d = float(self.mono_dir[j])
                dout = d_tabs[j, : n + 1, 0]
                r = raw[j, 1 : n + 1, 0]
                tail = np.cumsum(dout[1:][::-1])[::-1]
                d_raw[j, 1 : n + 1, 0] = d * 2.0 * r * tail
                d_off[j] = dout.sum()
        return d_raw


@dataclass
class PairStack(_Stack):
    pairs: list  # [(ja, jb)] feature index pairs
    emb: np.ndarray  # (q, M, M, d)
    weights: list  # [(W, b)] with W (q, in, out)
    mu: np.ndarray  # (q,)
    active: np.ndarray  # (q,) bool

    prefix = "pair"

    @property
    def n_pairs(self) -> int:
        return int(self.emb.shape[0])

    def learnable(self) -> list[tuple[str, np.ndarray]]:
        """Trainable arrays by `param_dict` name, in buffer order (gates last)."""
        return [("pair_emb", self.emb)] + _layer_arrays("pair", self.weights) + [("pair_mu", self.mu)]

    def _bind(self, views: list[np.ndarray]) -> None:
        self.emb, *layers, self.mu = views
        self.weights = _layers_from(layers)

    def cell_codes(self, feats: FeatureStack, codes: np.ndarray) -> np.ndarray:
        """Each row's flat cell per pair, a * M + b, from its features' bin codes."""
        ja, jb = np.array(self.pairs).T
        return codes[:, ja] * feats.padded + codes[:, jb]

    def extents(self, feats: FeatureStack) -> list[tuple[int, ...]]:
        """Each pair's true table shape, (n_a + 1, n_b + 1), from its features' bin counts."""
        return [(int(feats.n_bins[a]) + 1, int(feats.n_bins[b]) + 1) for a, b in self.pairs]

    def smoothed(
        self, feats: FeatureStack, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Smooth the q pair tables in `x`, (q, M, M, d), along both axes: (q, M*M, d).

        Axis a takes each pair's first-feature operator from `feats.smooth`,
        axis b its second. The operators are symmetric and the kernel is
        separable, so this is also its own gradient with respect to `x`.
        """
        S = feats.smooth
        ja, jb = np.array(self.pairs).T
        q, M = ja.size, S.shape[1]
        sm_a = (S[ja] @ x.reshape(q, M, -1)).reshape(q, M, M, -1)
        if out is not None:
            out = out.reshape(sm_a.shape)
        return np.matmul(S[jb][:, None], sm_a, out=out).reshape(q, M * M, -1)


def _pack(stacks) -> np.ndarray:
    """Copy the stacks' learnable arrays into one new vector and rebind them as its views."""
    arrays = [[a for _, a in s.learnable()] for s in stacks]
    flat = np.empty(sum(a.size for arrs in arrays for a in arrs))
    start = 0
    for stack, arrs in zip(stacks, arrays):
        views = flat_views(flat[start:], [a.shape for a in arrs])
        for view, a in zip(views, arrs):
            view[...] = a
        stack._bind(views)
        start += sum(a.size for a in arrs)
    return flat


@dataclass
class ModelCore:
    """Feature and pair stacks plus the gate and output settings.

    Building one moves the learnable arrays of both stacks into one
    float64 buffer (the module docstring has the contract).
    """

    feats: FeatureStack
    pairs: PairStack | None
    gamma: float
    pair_gamma: float
    out_dim: int
    activation: str
    link: str  # "identity" | "sigmoid"
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.attach_pairs(self.pairs)

    def attach_pairs(self, pairs: PairStack | None) -> None:
        """Replace the pair stack (None drops it) and repack both stacks into a new `flat`."""
        self.pairs = pairs
        self.flat = _pack([stack for stack, _ in self.stacks()])

    def stacks(self) -> list[tuple[FeatureStack | PairStack, float]]:
        """(stack, gate width) for each stack that holds parameters: features, then pairs if any.

        A stack's gates are `stack.gates(width)`."""
        if self.pairs is not None and self.pairs.n_pairs > 0:
            return [(self.feats, self.gamma), (self.pairs, self.pair_gamma)]
        return [(self.feats, self.gamma)]


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "identity":
        return z
    raise ConfigError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow: e = exp(-|x|) is at most 1 on both sides."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _link(eta: np.ndarray, link: str) -> np.ndarray:
    if link == "identity":
        return eta
    if link == "sigmoid":
        return sigmoid(eta)
    raise ConfigError(f"unknown link {link!r}")


# --- per-bin tables ----------------------------------------------------------


def _mlp_tables(smooth_lhs, weights, activation):
    """Smooth the table, then run the subnetwork on every bin row."""
    h = smooth_lhs
    hidden = []
    for W, b in weights[:-1]:
        h = _act(h @ W + b[:, None, :], activation)
        hidden.append(h)
    W, b = weights[-1]
    raw = h @ W + b[:, None, :]
    return raw, hidden


def _stack_tables(core: ModelCore, stack):
    """A stack's ungated tables (n, cells, out), then what backprop reads:
    the tables before `monotone`, the hidden layers and the smoothed embeddings."""
    sm = stack.smoothed(core.feats, stack.emb)
    raw, hidden = _mlp_tables(sm, stack.weights, core.activation)
    return stack.monotone(raw), raw, hidden, sm


def bin_tables(core: ModelCore) -> np.ndarray:
    """Ungated per-bin outputs for every feature: (p, M, out)."""
    return _stack_tables(core, core.feats)[0]


def pair_bin_tables(core: ModelCore) -> np.ndarray:
    """Ungated per-cell outputs for every pair: (q, M*M, out); the core must have pairs."""
    return _stack_tables(core, core.pairs)[0]


def flat_pair_codes(core: ModelCore, codes: np.ndarray) -> np.ndarray | None:
    if core.pairs is None or core.pairs.n_pairs == 0:
        return None
    return core.pairs.cell_codes(core.feats, codes)


# --- batched forward / backward ----------------------------------------------


@dataclass
class StackPass:
    """One stack's part of a forward pass, as `backward_pass` reads it."""

    codes: np.ndarray  # (B, n) cell codes
    vals: np.ndarray  # (B, n, out) ungated outputs
    raw: np.ndarray  # (n, cells, out) tables before the monotone transform
    hidden: list
    sm: np.ndarray  # (n, cells, d) smoothed embeddings


@dataclass
class ForwardCache:
    eta: np.ndarray  # (B, out)
    stacks: dict[str, StackPass]  # by stack prefix, for each stack that ran


def forward_pass(
    core: ModelCore,
    codes: np.ndarray,
    pair_codes: np.ndarray | None = None,
    eta_offset: np.ndarray | None = None,
    compute_feats: bool = True,
    compute_pairs: bool = True,
) -> ForwardCache:
    """Batch forward over bin-index rows; returns eta without intercept or link.

    With compute_feats=False the feature contribution must already be in
    eta_offset (used while pairs train against frozen mains).
    """
    B = codes.shape[0]
    eta = np.zeros((B, core.out_dim))
    if eta_offset is not None:
        eta = eta + eta_offset
    compute = {"feat": compute_feats, "pair": compute_pairs}
    given = {"feat": codes, "pair": pair_codes}
    runs = {}
    for stack, gamma in core.stacks():
        if not compute[stack.prefix]:
            continue
        cells = given[stack.prefix]
        if cells is None:
            cells = stack.cell_codes(core.feats, codes)
        tabs, raw, hidden, sm = _stack_tables(core, stack)
        vals = tabs[np.arange(tabs.shape[0])[None, :], cells]  # (B, n, out)
        eta = eta + np.einsum("bto,t->bo", vals, stack.gates(gamma))
        runs[stack.prefix] = StackPass(cells, vals, raw, hidden, sm)
    return ForwardCache(eta=eta, stacks=runs)


def _mlp_backward(d_raw, sm, hidden, weights, activation, out):
    """Gradients of the per-bin MLP into `out`, one (dW, db) per layer; returns dsm."""
    acts = [sm] + hidden
    dh = d_raw
    for l in range(len(weights) - 1, -1, -1):
        W, _ = weights[l]
        dW, db = out[l]
        np.matmul(acts[l].transpose(0, 2, 1), dh, out=dW)
        dh.sum(axis=1, out=db)
        dh = dh @ W.transpose(0, 2, 1)
        if l > 0:
            if activation == "relu":
                dh = dh * (acts[l] > 0)
            # identity: pass through
    return dh


def _scatter_bins(d_vals: np.ndarray, codes: np.ndarray, M: int) -> np.ndarray:
    """Accumulate per-sample output grads into per-bin tables.

    One bincount over (feature, bin, output) cells; it adds the rows in
    order, as np.add.at did, so the sums are bit-identical to it.
    """
    _, p, out = d_vals.shape
    flat = ((np.arange(p)[None, :] * M + codes)[:, :, None] * out + np.arange(out)).ravel()
    acc = np.bincount(flat, weights=d_vals.ravel(), minlength=p * M * out)
    return acc.reshape(p, M, out)


def backward_pass(
    core: ModelCore,
    cache: ForwardCache,
    d_eta: np.ndarray,
    reg_param: float = 0.0,
    pair_reg_param: float = 0.0,
) -> dict[str, np.ndarray]:
    """Exact gradients of (batch loss + gate regularizer) per parameter.

    The gradients fill one vector laid out like `core.flat`, returned
    under "flat"; the per-parameter entries are views of it. The section
    of a stack the cache did not run is left unwritten and has no
    entries. A gate gradient is exact everywhere: a gate fixed at 1 sits
    at mu = gamma/2, where the smooth step's slope is exactly 0, so its
    gradient is exactly 0 and a training phase can train its whole stack.
    """
    params = param_dict(core)
    grads: dict[str, np.ndarray] = {"flat": np.empty(core.flat.size)}
    views = dict(zip(params, flat_views(grads["flat"], [a.shape for a in params.values()])))
    reg = {"feat": reg_param, "pair": pair_reg_param}
    for stack, gamma in core.stacks():
        run = cache.stacks.get(stack.prefix)
        if run is None:
            continue
        pre = stack.prefix
        g = {k: v for k, v in views.items() if k.startswith(pre + "_")}
        grads.update(g)
        sgrad = smooth_step_grad(stack.mu, gamma) * stack.active
        d_gate = np.einsum("bo,bto->t", d_eta, run.vals)
        g[f"{pre}_mu"][...] = d_gate * sgrad + reg[pre] * sgrad
        d_vals = d_eta[:, None, :] * stack.gates(gamma)[None, :, None]
        d_tabs = _scatter_bins(d_vals, run.codes, run.raw.shape[1])
        dsm = _mlp_backward(
            stack.monotone_grad(d_tabs, run.raw, g), run.sm, run.hidden, stack.weights,
            core.activation,
            [(g[f"{pre}_W{l}"], g[f"{pre}_b{l}"]) for l in range(len(stack.weights))],
        )
        stack.smoothed(core.feats, dsm, out=g[f"{pre}_emb"])
    for name, g in grads.items():
        if name != "flat" and not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name}")
    return grads


# --- initialization ----------------------------------------------------------


def _init_layers(rng, batch: int, dims: list[int], out_dim: int):
    """Hidden layers ~ U(-1/sqrt(fan_in), +); final layer zero so every
    shape function starts identically at 0."""
    sizes = dims + [out_dim]
    weights = []
    prev = dims[0]
    for i, width in enumerate(sizes[1:]):
        last = i == len(sizes) - 2
        if last:
            W = np.zeros((batch, prev, width))
            b = np.zeros((batch, width))
        else:
            a = 1.0 / np.sqrt(prev)
            W = rng.uniform(-a, a, size=(batch, prev, width))
            b = rng.uniform(-a, a, size=(batch, width))
        weights.append((W, b))
        prev = width
    return weights


def _new_terms(
    rng, shape: tuple, hidden_sizes, out_dim: int, gamma: float, trainable: bool
) -> dict:
    """Fresh arrays for a stack of n terms with (n, *cells, d) tables.

    A gate that selection trains starts partly open (mu = gamma/4), any
    other fixed at exactly 1 (mu = gamma/2).
    """
    n, d = shape[0], shape[-1]
    a = 1.0 / np.sqrt(d)
    emb = rng.uniform(-a, a, size=shape)
    weights = _init_layers(rng, n, [d] + list(hidden_sizes), out_dim)
    mu = np.full(n, gamma / 4.0 if trainable else gamma / 2.0)
    return dict(emb=emb, weights=weights, mu=mu, active=np.ones(n, dtype=bool))


def init_core(
    n_bins: np.ndarray,
    out_dim: int,
    kernel: KernelConfig,
    rng: np.random.Generator,
    embedding_dim: int = 16,
    hidden_sizes: tuple[int, ...] = (32,),
    activation: str = "relu",
    link: str = "identity",
    gamma: float = 1.0,
    pair_gamma: float | None = None,
    gates_trainable: bool = False,
    pairs: list | None = None,
    mono_dir: np.ndarray | None = None,
    pair_gates_trainable: bool = False,
) -> ModelCore:
    """Build a fresh model over features with the given observed bin counts.

    `gates_trainable` and `pair_gates_trainable` choose the gates' start
    (see `_new_terms`).
    """
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    n_bins = np.asarray(n_bins, dtype=np.int64)
    p = n_bins.size
    if p == 0:
        raise ConfigError("model needs at least one feature")
    M = int(n_bins.max()) + 1
    d = embedding_dim
    if pair_gamma is None:
        pair_gamma = gamma / 4.0
    if mono_dir is None:
        mono_dir = np.zeros(p, dtype=np.int64)
    else:
        mono_dir = np.asarray(mono_dir, dtype=np.int64)
        if mono_dir.shape != (p,):
            raise ConfigError("monotone directions must have one entry per feature")
        if np.any(mono_dir != 0) and out_dim != 1:
            raise ConfigError("monotone constraints require a scalar output")
    feats = FeatureStack(
        **_new_terms(rng, (p, M, d), hidden_sizes, out_dim, gamma, gates_trainable),
        n_bins=n_bins,
        smooth=np.stack([smoothing_operator(int(n), M, kernel) for n in n_bins]),
        mono_dir=mono_dir,
        mono_off=np.zeros(p),
    )
    idx = np.flatnonzero(mono_dir)
    if idx.size:
        # The cumulative-squares transform is stationary at raw output 0,
        # so a zero final layer could never move: constrained subnets get
        # the same fan-in init as hidden layers instead.
        W, b = feats.weights[-1]
        a_fin = 1.0 / np.sqrt(W.shape[1])
        W[idx] = rng.uniform(-a_fin, a_fin, size=(idx.size,) + W.shape[1:])
        b[idx] = rng.uniform(-a_fin, a_fin, size=(idx.size,) + b.shape[1:])
    pstack = None
    if pairs:
        for ja, jb in pairs:
            if not (0 <= ja < p and 0 <= jb < p) or ja == jb:
                raise ConfigError(f"invalid feature pair ({ja}, {jb})")
        terms = _new_terms(rng, (len(pairs), M, M, d), hidden_sizes, out_dim, pair_gamma,
                           pair_gates_trainable)
        pstack = PairStack(pairs=[(int(x), int(y)) for x, y in pairs], **terms)
    return ModelCore(
        feats=feats,
        pairs=pstack,
        gamma=gamma,
        pair_gamma=pair_gamma,
        out_dim=out_dim,
        activation=activation,
        link=link,
    )


# --- parameter plumbing ------------------------------------------------------


def param_dict(core: ModelCore) -> dict[str, np.ndarray]:
    """Live views of every learnable array, keyed by stable names."""
    return dict(kv for stack, _ in core.stacks() for kv in stack.learnable())
