"""Losses, the minibatch trainer, centering, and the k-split ensemble.

Training runs in phases. Final fits keep every gate fixed at exactly 1;
gates only move during selection phases, so a finalized model always
satisfies the saturated-gate centering identity. Pair effects train
against frozen mains whose per-sample contribution is precomputed once.

`_prepare` does the setup that `fit`, `select_features` and
`regularization_path` share, once per call: it bins the table, normalizes
the targets, and fixes the monotone directions, the survival evaluation
grid, the folds and one seed per fold. Its `split(i)` builds fold i's
context (`_Split`): the bin codes, the two objectives, the seed and a
factory for cores with the config's architecture. `fit_single_split`
trains every split of `fit`. Pairs are screened once, on split 0's
trained mains, and split 0 keeps those mains. Selection trains its gates
on `split(0)`, the same fold that `fit` trains first.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import survival as sv
from .core import (
    KernelConfig,
    ModelCore,
    _link,
    backward_pass,
    bin_tables,
    flat_pair_codes,
    flat_views,
    forward_pass,
    init_core,
    pair_bin_tables,
    sigmoid,
    smooth_step,
)
from .data import (
    BinMap,
    FeatureSchema,
    fit_bins,
    infer_schema,
    split_folds,
    transform,
)
from .errors import ConfigError, DataError, TrainingError

__all__ = [
    "TrainConfig",
    "SingleSplitModel",
    "EnsembleModel",
    "loss_mse",
    "loss_bce",
    "loss_ipcw",
    "fit_single_split",
    "finalize",
    "fit",
    "predict",
]

TASKS = ("regression", "classification", "survival")


def _is_int(v) -> bool:
    """An integer, numpy's included, but not a bool (JSON true would pass as 1)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# Each declared config field type: the test a value must pass, and its name.
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                        "a list of integers"),
    "dict[str, int]": (lambda v: isinstance(v, dict) and all(
        isinstance(k, str) and _is_int(d) for k, d in v.items()), "a map of names to integers"),
}


def _check_types(cfg) -> None:
    """Raise ConfigError for the first field whose value is not of its annotated type.

    `X | None` also takes None."""
    for f in fields(cfg):
        optional = f.type.endswith(" | None")
        ok, what = _FIELD_TYPES[f.type.removesuffix(" | None")]
        value = getattr(cfg, f.name)
        if not (ok(value) or (optional and value is None)):
            what += " or null" if optional else ""
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")


@dataclass
class TrainConfig:
    task: str = "regression"
    n_val_splits: int = 5
    batch_size: int = 128
    max_epochs: int = 100
    early_stop_patience: int = 5
    learning_rate: float = 5e-3
    num_pairs: int = 0
    embedding_dim: int = 16
    hidden_sizes: tuple[int, ...] = (32,)
    activation: str = "relu"
    kernel_weight: float = 3.0  # phi
    kernel_size: int = 5
    max_bins: int = 32
    min_samples_per_bin: int | None = None
    monotone: dict[str, int] = field(default_factory=dict)
    censor_estimator: str = "km"
    n_eval_times: int | None = None
    pair_select_reg: float = 1e-3
    # Ignored: splits train one after another. Kept so that run configs
    # that still carry it load; `to_dict` leaves it out.
    threads: int | None = None
    seed: int = 0

    def validate(self) -> None:
        _check_types(self)  # first, so the range checks below compare numbers
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        for name, low in (("n_val_splits", 2), ("batch_size", 1), ("max_epochs", 0),
                          ("early_stop_patience", 1), ("num_pairs", 0), ("embedding_dim", 1),
                          ("kernel_size", 0), ("seed", 0), ("threads", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}")
        if not (0 < self.learning_rate < np.inf):
            raise ConfigError("learning_rate must be positive and finite")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be positive")
        if not (0 <= self.kernel_weight < np.inf):
            raise ConfigError("kernel_weight must be non-negative and finite")
        if not (0 <= self.pair_select_reg < np.inf):
            raise ConfigError("pair_select_reg must be non-negative and finite")
        if self.censor_estimator not in ("km", "cox"):
            raise ConfigError("censor_estimator must be 'km' or 'cox'")
        for name, d in self.monotone.items():
            if d not in (-1, 0, 1):
                raise ConfigError(f"monotone direction for {name!r} must be -1, 0, or +1")
        if self.task == "survival" and any(d != 0 for d in self.monotone.values()):
            raise ConfigError("monotone constraints require a scalar output task")

    def kernel(self) -> KernelConfig:
        return KernelConfig(phi=self.kernel_weight, size=self.kernel_size)

    def to_dict(self) -> dict:
        """Every field in declaration order, except the ignored `threads`."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "threads"}
        d["hidden_sizes"] = list(self.hidden_sizes)
        d["monotone"] = dict(self.monotone)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """A validated config from `to_dict`'s keys; raises ConfigError on any other key."""
        known = {f for f in cls.__dataclass_fields__}
        bad = set(d) - known
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        cfg = cls(**d)
        cfg.validate()
        cfg.hidden_sizes = tuple(cfg.hidden_sizes)
        cfg.monotone = dict(cfg.monotone)
        return cfg


# --- losses -------------------------------------------------------------------


def loss_mse(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DataError("mse inputs must share a shape")
    return float(np.mean((pred - target) ** 2))


def loss_bce(pred, target) -> float:
    """Mean negative Bernoulli log-likelihood of probabilities `pred`."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if not np.all(np.isin(target, (0.0, 1.0))):
        raise DataError("bce targets must be 0 or 1")
    p = np.clip(pred, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(target * np.log(p) + (1.0 - target) * np.log1p(-p)))


def loss_ipcw(cdf, labels, eval_times, censor) -> float:
    """Censoring-weighted Brier-style loss over the evaluation grid.

    `cdf[i, k]` is the predicted P(T <= t_k | X_i). With no censoring the
    weights collapse to 1 and this is the plain Brier mean.
    """
    cdf = np.asarray(cdf, dtype=np.float64)
    if cdf.ndim == 1:
        cdf = cdf[:, None]
    w_alive, w_event = sv.ipcw_weights(labels, eval_times, censor)
    if cdf.shape != w_alive.shape:
        raise DataError("cdf matrix must be n_samples x n_eval_times")
    return float(np.mean(w_alive * cdf**2 + w_event * (1.0 - cdf) ** 2))


class _MseObjective:
    link = "identity"

    def __init__(self, y: np.ndarray):
        self.y = y
        self.out_dim = 1

    def loss_grad(self, eta, rows):
        err = eta[:, 0] - self.y[rows]
        return float(np.mean(err**2)), (2.0 * err / rows.size)[:, None]


class _BceObjective:
    link = "sigmoid"

    def __init__(self, y: np.ndarray):
        self.y = y
        self.out_dim = 1

    def loss_grad(self, eta, rows):
        z = eta[:, 0]
        y = self.y[rows]
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        return loss, ((sigmoid(z) - y) / rows.size)[:, None]


class _IpcwObjective:
    link = "sigmoid"

    def __init__(self, w_alive: np.ndarray, w_event: np.ndarray):
        self.w_alive = w_alive
        self.w_event = w_event
        self.out_dim = w_alive.shape[1]

    def loss_grad(self, eta, rows):
        p = sigmoid(eta)
        w1 = self.w_alive[rows]
        w2 = self.w_event[rows]
        loss = float(np.mean(w1 * p**2 + w2 * (1.0 - p) ** 2))
        d_p = (2.0 * w1 * p - 2.0 * w2 * (1.0 - p)) / p.size
        return loss, d_p * p * (1.0 - p)


# The objective each task trains; its `link` maps eta to the prediction.
_OBJECTIVES = {
    "regression": _MseObjective,
    "classification": _BceObjective,
    "survival": _IpcwObjective,
}

# --- optimizer ----------------------------------------------------------------


class Adam:
    """Adaptive-moment descent over the whole stacks of one core that train.

    `prefixes` names them. Their sections of `core.flat` are adjacent, so
    the parameters are one slice of it (`span`), and the moments `m` and
    `v` are one vector each over that slice: a step is one update of
    whole vectors. `step` takes `backward_pass`'s gradients, whose "flat"
    vector shares the core's layout. A parameter whose gradient is always
    exactly 0 keeps moments of 0, so its update is 0 and its bits do not
    change: that holds a fixed gate and a non-monotone feature's offset.
    """

    def __init__(self, core: ModelCore, prefixes, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        trained, end = [], 0  # (prefix, start and end in core.flat, array shapes)
        for stack, _ in core.stacks():
            arrays = stack.learnable()
            start, end = end, end + sum(a.size for _, a in arrays)
            if stack.prefix in prefixes:
                for name, a in arrays:
                    if not np.may_share_memory(a, core.flat):
                        raise ValueError(f"{name} was rebound; it is not a view of the core's buffer")
                trained.append((stack.prefix, start, end, [a.shape for _, a in arrays]))
        lo = trained[0][1]
        self.span = slice(lo, trained[-1][2])
        self.params = core.flat[self.span]
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        # Per-array views of the moments of each stack, for zero_rows.
        self._rows = {prefix: flat_views(self.m[at - lo :], shapes) + flat_views(self.v[at - lo :], shapes)
                      for prefix, at, _, shapes in trained}

    def step(self, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        g = grads["flat"][self.span]
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g**2
        self.params -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)

    def zero_rows(self, prefix: str, row: int) -> None:
        """Kill momentum for one term of the stack named `prefix` so it never moves again."""
        for moment in self._rows[prefix]:
            moment[row] = 0.0


# --- phased training loop -----------------------------------------------------


@dataclass(frozen=True)
class _Phase:
    """A training phase: its name and, by prefix, each stack it trains
    with that stack's gate regularizer.

    A phase trains every parameter of its stacks. A gate that must not
    move is fixed at 1, where its gradient is exactly 0 (see `Adam`).
    """

    name: str
    regs: dict[str, float]


def _reg_value(core: ModelCore, phase: _Phase) -> float:
    val = 0.0
    for stack, gamma in core.stacks():
        reg = phase.regs.get(stack.prefix, 0.0)
        if reg > 0:
            val += reg * float(np.sum(stack.gates(gamma)))
    return val


def _snapshot(core: ModelCore):
    active = [stack.active.copy() for stack, _ in core.stacks()]
    return core.flat.copy(), active


def _restore(core: ModelCore, snap) -> None:
    params, active = snap
    core.flat[...] = params
    for (stack, _), was in zip(core.stacks(), active):
        stack.active[...] = was


def _prune(core: ModelCore, adam: Adam, phase: _Phase) -> None:
    """Switch off every term of a trained stack whose gate hit 0, and kill its momentum.

    A fixed gate is exactly 1, so only stacks whose gates train lose terms."""
    for stack, gamma in core.stacks():
        if stack.prefix in phase.regs:
            s = smooth_step(stack.mu, gamma)
            for j in np.flatnonzero(stack.active & (s <= 0.0)):
                stack.active[j] = False
                adam.zero_rows(stack.prefix, int(j))


# --- objectives per split -----------------------------------------------------


def _normalize_targets(task: str, y, n: int):
    if task == "survival":
        labels = sv.as_survival_labels(y)
        if labels.size != n:
            raise DataError(f"expected {n} labels, got {labels.size}")
        return labels
    fields = y.keys() if isinstance(y, dict) else getattr(getattr(y, "dtype", None), "names", ())
    if fields:
        raise DataError(
            f"{task} targets must be one number per row, got labels with fields {list(fields)}; "
            'survival labels (event, time) need task="survival"'
        )
    arr = np.asarray(y, dtype=np.float64).reshape(-1)
    if arr.size != n:
        raise DataError(f"expected {n} targets, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DataError("targets must be finite")
    if task == "classification" and not np.all(np.isin(arr, (0.0, 1.0))):
        raise DataError("classification targets must be 0 or 1")
    return arr


def _censor_model(cfg: TrainConfig, labels: np.ndarray, codes: np.ndarray):
    """Censoring-survival estimator fit on one training fold.

    The Cox route uses the fold's bin codes as its design matrix, dropping
    constant columns; with no censored samples both routes degenerate to
    the all-ones curve.
    """
    flipped = labels.copy()
    flipped["event"] = ~labels["event"]
    if cfg.censor_estimator == "km" or not flipped["event"].any():
        curve = sv.kaplan_meier(flipped)
        return ("km", curve, None)
    X = codes.astype(np.float64)
    keep = np.flatnonzero(X.std(axis=0) > 0)
    if keep.size == 0:
        return ("km", sv.kaplan_meier(flipped), None)
    model = sv.cox_fit(X[:, keep], flipped)
    return ("cox", model, keep)


def _censor_for(censor, codes: np.ndarray):
    kind, est, keep = censor
    if kind == "km":
        return est
    return sv.CoxCensor(est, codes[:, keep].astype(np.float64))


@dataclass
class _Split:
    """One train/validation fold, built once: bin codes, objectives, seed.

    Every training phase on the fold runs through it, and every core it
    trains comes from `new_core`, which fills in the config-derived
    architecture.
    """

    cfg: TrainConfig
    codes_tr: np.ndarray
    codes_val: np.ndarray
    obj_tr: object
    obj_val: object
    n_bins: np.ndarray
    mono_dir: np.ndarray
    seed_seq: np.random.SeedSequence

    def rngs(self) -> tuple[np.random.Generator, np.random.Generator]:
        """Fresh (init, shuffle) generators: each call spawns two new children."""
        init_ss, shuffle_ss = self.seed_seq.spawn(2)
        return np.random.default_rng(init_ss), np.random.default_rng(shuffle_ss)

    def new_core(self, rng: np.random.Generator, **kw) -> ModelCore:
        """A fresh core over this split's features; `kw` sets gates and pairs."""
        cfg = self.cfg
        kw.setdefault("mono_dir", self.mono_dir)
        return init_core(
            self.n_bins,
            self.obj_tr.out_dim,
            cfg.kernel(),
            rng,
            embedding_dim=cfg.embedding_dim,
            hidden_sizes=tuple(cfg.hidden_sizes),
            activation=cfg.activation,
            link=self.obj_tr.link,
            **kw,
        )

    def run(self, core: ModelCore, phase: _Phase, shuffle_rng) -> list[dict]:
        """Train `phase`'s stacks of `core`; keep the epoch of lowest validation loss."""
        cfg = self.cfg
        n_tr = self.codes_tr.shape[0]
        feats, pairs = "feat" in phase.regs, "pair" in phase.regs

        def fold(codes):
            """Bin codes, pair cells if pairs train, and the frozen mains' eta if mains do not."""
            pc = flat_pair_codes(core, codes) if pairs else None
            off = None if feats else forward_pass(core, codes, compute_pairs=False).eta
            return codes, pc, off

        def forward(inputs, rows=slice(None)):
            codes, pc, off = (None if a is None else a[rows] for a in inputs)
            return forward_pass(core, codes, pair_codes=pc, eta_offset=off,
                                compute_feats=feats, compute_pairs=pairs)

        tr_in, val_in = fold(self.codes_tr), fold(self.codes_val)
        adam = Adam(core, phase.regs, cfg.learning_rate)
        best = _snapshot(core)
        best_val = np.inf
        bad = 0
        history = []
        batch = min(cfg.batch_size, n_tr)
        val_rows = np.arange(self.codes_val.shape[0])
        for epoch in range(cfg.max_epochs):
            perm = shuffle_rng.permutation(n_tr)
            epoch_loss = 0.0
            for start in range(0, n_tr, batch):
                rows = perm[start : start + batch]
                cache = forward(tr_in, rows)
                loss, d_eta = self.obj_tr.loss_grad(cache.eta, rows)
                if not np.isfinite(loss):
                    raise TrainingError(
                        f"training loss diverged at epoch {epoch} ({phase.name} phase)"
                    )
                grads = backward_pass(core, cache, d_eta, phase.regs.get("feat", 0.0),
                                      phase.regs.get("pair", 0.0))
                adam.step(grads)
                epoch_loss += loss * rows.size / n_tr
            _prune(core, adam, phase)
            # Keep only eta: the cache's per-row arrays would outlive the epoch.
            val_eta = forward(val_in).eta
            val = self.obj_val.loss_grad(val_eta, val_rows)[0] + _reg_value(core, phase)
            if not np.isfinite(val):
                raise TrainingError(
                    f"validation loss diverged at epoch {epoch} ({phase.name} phase)"
                )
            history.append(
                {"epoch": epoch, "train_loss": epoch_loss, "val_loss": val}
            )
            if val < best_val:
                best_val = val
                best = _snapshot(core)
                bad = 0
            else:
                bad += 1
                if bad >= cfg.early_stop_patience:
                    break
        _restore(core, best)
        return history


@dataclass
class _Prepared:
    """`fit`'s setup, done once: bin codes, targets and the fold policy.

    `split(i)` builds fold i's context. `fit` trains every fold from it;
    `select_features` and `regularization_path` train on `split(0)`. So
    all three see the same folds, seeds and survival grid.
    """

    cfg: TrainConfig
    schema: list[FeatureSchema]
    bin_maps: list[BinMap]
    codes: np.ndarray
    y: np.ndarray
    n_bins: np.ndarray
    mono_dir: np.ndarray
    eval_times: np.ndarray | None
    folds: list[tuple[np.ndarray, np.ndarray]]
    seeds: list[np.random.SeedSequence]

    @property
    def feature_names(self) -> list[str]:
        return [bm.feature for bm in self.bin_maps]

    def split(self, i: int) -> _Split:
        """Fold i's context; its objectives, censoring model included, are built here."""
        cfg = self.cfg
        tr, va = self.folds[i]
        codes_tr, y_tr, codes_val, y_val = self.codes[tr], self.y[tr], self.codes[va], self.y[va]
        if cfg.task == "survival":
            censor = _censor_model(cfg, y_tr, codes_tr)
            w1, w2 = sv.ipcw_weights(y_tr, self.eval_times, _censor_for(censor, codes_tr))
            v1, v2 = sv.ipcw_weights(y_val, self.eval_times, _censor_for(censor, codes_val))
            obj_tr, obj_val = _IpcwObjective(w1, w2), _IpcwObjective(v1, v2)
        else:
            obj_tr, obj_val = _OBJECTIVES[cfg.task](y_tr), _OBJECTIVES[cfg.task](y_val)
        return _Split(cfg, codes_tr, codes_val, obj_tr, obj_val, self.n_bins, self.mono_dir,
                      self.seeds[i])


def _prepare(table, y, cfg: TrainConfig, schema, selected_feats=None) -> _Prepared:
    """Validate `cfg`, then bin the table and normalize the targets once."""
    cfg.validate()
    if schema is None:
        schema = infer_schema(table)
    if selected_feats is not None:
        wanted = set(selected_feats)
        missing = wanted - {fs.name for fs in schema}
        if missing:
            raise DataError(f"selected features not in table: {sorted(missing)}")
        schema = [fs for fs in schema if fs.name in wanted]
    if not schema:
        raise ConfigError("no features to fit")
    bin_maps = fit_bins(table, schema, cfg.max_bins, cfg.min_samples_per_bin)
    codes = transform(table, bin_maps).codes
    n = codes.shape[0]
    y = _normalize_targets(cfg.task, y, n)
    names = [bm.feature for bm in bin_maps]
    mono = np.zeros(len(names), dtype=np.int64)
    for name, d in cfg.monotone.items():
        if name not in names:
            raise ConfigError(f"monotone constraint names unknown feature {name!r}")
        mono[names.index(name)] = d
    eval_times = sv.eval_time_grid(y, cfg.n_eval_times) if cfg.task == "survival" else None
    return _Prepared(
        cfg, schema, bin_maps, codes, y,
        np.array([bm.n_bins for bm in bin_maps], dtype=np.int64),
        mono,
        eval_times,
        split_folds(n, cfg.n_val_splits, cfg.seed),
        np.random.SeedSequence(cfg.seed).spawn(cfg.n_val_splits),
    )


def _train_mains(split: _Split, rng, shuffle_rng) -> tuple[ModelCore, list[dict]]:
    """A fresh core with its mains trained on `split`, gates fixed at 1."""
    core = split.new_core(rng)
    return core, split.run(core, _Phase("mains", {"feat": 0.0}), shuffle_rng)


# --- split models -------------------------------------------------------------


def _ungated_tables(core: ModelCore) -> list[np.ndarray]:
    """The core's outputs per bin, (p, M, out), then per pair cell, (q, M*M, out), if any."""
    return [build(core) for build, _ in zip((bin_tables, pair_bin_tables), core.stacks())]


@dataclass
class SingleSplitModel:
    """One finalized split: its core, `beta0` and the centers c_feat, c_pair.

    Plain data: the ensemble compiles the split's gated, centered tables
    on first use (`EnsembleModel.tables`).
    """

    core: ModelCore
    beta0: np.ndarray  # (out,)
    c_feat: np.ndarray  # (p, out)
    c_pair: np.ndarray  # (q, out)
    history: dict
    val_loss: float


def finalize(core: ModelCore, codes_tr: np.ndarray, history: dict, val_loss: float) -> SingleSplitModel:
    """Compute centering constants and the post-hoc intercept.

    c_j is the training mean of the gated shape output; beta0 is the sum
    of all c's, so centered and raw routes agree when gates sit at 0 or 1.
    """
    # One center per term of each stack; c_pair stays (0, out) without pairs.
    centers = [np.zeros((0, core.out_dim))] * 2
    for k, ((stack, gamma), tab) in enumerate(zip(core.stacks(), _ungated_tables(core))):
        vals = tab[np.arange(tab.shape[0])[None, :], stack.cell_codes(core.feats, codes_tr)]
        centers[k] = stack.gates(gamma)[:, None] * vals.mean(axis=0)
    c_feat, c_pair = centers
    return SingleSplitModel(
        core=core,
        beta0=c_feat.sum(axis=0) + c_pair.sum(axis=0),
        c_feat=c_feat,
        c_pair=c_pair,
        history=history,
        val_loss=val_loss,
    )


def fit_single_split(
    split: _Split, pairs: list | None = None, trained: tuple | None = None
) -> SingleSplitModel:
    """Train mains, and then `pairs` on top of them, on one split.

    Gates stay fixed at 1 throughout; early stopping restores the epoch
    with the lowest validation loss. `trained` is the (core, mains
    history) that pair screening left on this split; its mains are kept,
    and the pair phase draws fresh streams from the split's seed.
    """
    rng, shuffle_rng = split.rngs()
    if trained is None:
        core, mains = _train_mains(split, rng, shuffle_rng)
    else:
        core, mains = trained
    history = {"mains": mains}
    if pairs:
        history["pairs"] = _train_pairs(split, core, pairs, rng, shuffle_rng)
    val_losses = [h["val_loss"] for hs in history.values() for h in hs]
    val_loss = min(val_losses) if val_losses else np.inf
    return finalize(core, split.codes_tr, history, val_loss)


def _attach_pairs(
    split: _Split,
    core: ModelCore,
    pairs: list,
    rng: np.random.Generator,
    pair_gamma: float,
    trainable_gates: bool,
) -> None:
    # The fresh core only donates its pair stack. Without monotone
    # directions it draws no constrained final layers ahead of the pairs.
    # `trainable_gates` starts the gates partly open, not fixed at 1.
    fresh = split.new_core(
        rng,
        mono_dir=None,
        gamma=core.gamma,
        pair_gamma=pair_gamma,
        pairs=list(pairs),
        pair_gates_trainable=trainable_gates,
    )
    core.attach_pairs(fresh.pairs)
    core.pair_gamma = pair_gamma


def _train_pairs(split: _Split, core: ModelCore, pairs: list, rng, shuffle_rng) -> list[dict]:
    """Attach fixed-gate pairs to `core` and train them on its frozen mains."""
    _attach_pairs(split, core, pairs, rng, core.pair_gamma, trainable_gates=False)
    return split.run(core, _Phase("pairs", {"pair": 0.0}), shuffle_rng)


# --- pair selection on the first split ----------------------------------------


def _main_importance(core: ModelCore, codes: np.ndarray) -> np.ndarray:
    feats, gamma = core.stacks()[0]
    tabs = bin_tables(core)
    vals = tabs[np.arange(feats.n_features)[None, :], codes]
    contrib = vals * feats.gates(gamma)[None, :, None]
    return np.abs(contrib).mean(axis=(0, 2))


def _pair_universe(core: ModelCore | None, codes: np.ndarray) -> list[tuple[int, int]]:
    """All pairs, or pairs among the top 20 features by main importance.

    Only more than 20 features need `core`, a core with trained mains.
    """
    p = codes.shape[1]
    if p > 20:
        imp = _main_importance(core, codes)
        top = np.sort(np.argsort(-imp, kind="stable")[:20])
    else:
        top = np.arange(p)
    return [(int(a), int(b)) for i, a in enumerate(top) for b in top[i + 1 :]]


def _select_pairs(
    split: _Split,
    core: ModelCore,
    rng: np.random.Generator,
    shuffle_rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Train pair gates over the candidate universe; keep the largest open ones.

    A candidate whose gate closed to exactly 0 is never kept, so fewer
    than `num_pairs` pairs, or none, may come back.
    """
    from .select import default_gamma

    cfg = split.cfg
    universe = _pair_universe(core, split.codes_tr)
    if not universe:
        return []
    gamma = default_gamma(split.codes_tr.shape[0], cfg.batch_size, cfg.embedding_dim)
    _attach_pairs(split, core, universe, rng, gamma / 4.0, trainable_gates=True)
    split.run(core, _Phase("pair-select", {"pair": cfg.pair_select_reg}), shuffle_rng)
    pair_stack, pair_gamma = core.stacks()[-1]
    gates = pair_stack.gates(pair_gamma)
    open_ = [i for i in range(len(universe)) if gates[i] > 0]
    order = sorted(open_, key=lambda i: (-gates[i], universe[i]))
    chosen = sorted(universe[i] for i in order[: cfg.num_pairs])
    core.attach_pairs(None)
    return chosen


# --- ensemble -----------------------------------------------------------------

# Cells one predict gather reads at most; larger batches go in row blocks,
# so batch predict memory does not grow with the number of splits.
_GATHER_CELLS = 1 << 16


@dataclass
class EnsembleModel:
    task: str
    config: TrainConfig
    schema: list[FeatureSchema]
    bin_maps: list[BinMap]
    selected_pairs: list[tuple[str, str]]
    eval_times: np.ndarray | None
    n_samples: int
    splits: list[SingleSplitModel]

    @property
    def feature_names(self) -> list[str]:
        return [bm.feature for bm in self.bin_maps]

    def folds(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return split_folds(self.n_samples, self.config.n_val_splits, self.config.seed)

    def predict(self, table) -> np.ndarray:
        codes = transform(table, self.bin_maps).codes
        return self.predict_codes(codes)

    def predict_codes(self, codes: np.ndarray) -> np.ndarray:
        """Mean over splits of g(beta0 + sum of centered contributions).

        One gather per stack reads every split's cells for a block of rows;
        the link applies per split before the average.
        """
        tables, offsets, beta0 = self._compiled()
        core = self.splits[0].core
        n, out = codes.shape[0], beta0.shape[1]
        pred = np.empty((n, out))
        step = max(1, _GATHER_CELLS // (sum(o.size for o in offsets) * out))
        for s in range(0, n, step):
            eta = beta0[:, None, :]
            for (stack, _), tab, off in zip(core.stacks(), tables, offsets):
                c = stack.cell_codes(core.feats, codes[s : s + step])
                vals = tab.reshape(-1, out)[off[:, None, :] + c]  # (K, rows, terms, out)
                eta = eta + np.einsum("kbto->kbo", vals)
            pred[s : s + step] = _link(eta, core.link).mean(axis=0)
        if self.task == "survival":
            return pred
        return pred[:, 0]

    def tables(self) -> tuple[np.ndarray, ...]:
        """Every split's gated, centered tables, compiled on first use: one
        read-only (K, terms, cells, out) table per stack of `core.stacks()`."""
        return self._compiled()[0]

    def _compiled(self):
        """`tables()`; per stack, the (K, terms) offsets of each term's first
        row in its table flattened to (K * terms * cells, out); and `beta0`,
        (K, out). Every split reads cell codes as split 0's core makes them.

        Kept in `_memo`, not a dataclass field, with the splits it was built
        from, and built again when `splits` holds any other object: a split
        is never edited in place, but built anew through the constructor.
        """
        memo = getattr(self, "_memo", None)
        if memo is None or list(map(id, memo[0])) != list(map(id, self.splits)):
            per_split = [[stack.gates(gamma)[:, None, None] * tab - c[:, None, :]
                          for (stack, gamma), tab, c in zip(
                              sp.core.stacks(), _ungated_tables(sp.core), (sp.c_feat, sp.c_pair))]
                         for sp in self.splits]
            tables = tuple(np.stack(tabs) for tabs in zip(*per_split))
            offsets = []
            for tab in tables:
                tab.flags.writeable = False
                K, terms, cells, _ = tab.shape
                offsets.append((np.arange(K)[:, None] * terms + np.arange(terms)) * cells)
            beta0 = np.stack([sp.beta0 for sp in self.splits])
            memo = self._memo = (list(self.splits), (tables, offsets, beta0))
        return memo[1]


def _check_selection(selected_feats, selected_pairs) -> None:
    """DataError for a feature or pair selection of the wrong shape, before any binning."""
    if isinstance(selected_feats, str):
        raise DataError(f"selected features must be a list of names, not the string "
                        f"{selected_feats!r}")
    if isinstance(selected_pairs, str):
        raise DataError(f"selected pairs must be a list of name pairs, not the string "
                        f"{selected_pairs!r}")
    for pair in selected_pairs or []:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise DataError(f"selected pair {pair!r} must name two features")
        if pair[0] == pair[1]:
            raise DataError(f"selected pair {tuple(pair)!r} names feature {pair[0]!r} twice")


def fit(
    table,
    y,
    cfg: TrainConfig,
    *,
    schema: list[FeatureSchema] | None = None,
    selected_feats: list[str] | None = None,
    selected_pairs: list[tuple[str, str]] | None = None,
) -> EnsembleModel:
    """Fit the k-split ensemble: bins once, pairs screened on split 0.

    Splits train one after another, each on its own train/validation
    fold; predictions are averaged across splits after the link.
    """
    _check_selection(selected_feats, selected_pairs)
    prep = _prepare(table, y, cfg, schema, selected_feats)
    names = prep.feature_names
    pair_idx: list[tuple[int, int]] = []
    screened = None
    if selected_pairs:
        for a, b in selected_pairs:
            if a not in names or b not in names:
                raise DataError(f"selected pair ({a!r}, {b!r}) not in features")
        raw_idx = [(names.index(a), names.index(b)) for a, b in selected_pairs]
        pair_idx = sorted((min(a, b), max(a, b)) for a, b in raw_idx)
        for (a, b), nxt in zip(pair_idx, pair_idx[1:]):
            if (a, b) == nxt:
                raise DataError(f"pair ({names[a]!r}, {names[b]!r}) is selected more than once")
    elif cfg.num_pairs > 0 and len(names) >= 2:
        # Pairs are screened once, on split 0's trained mains; split 0
        # keeps those mains and trains the chosen pairs on top.
        split = prep.split(0)
        rng, shuffle_rng = split.rngs()
        core, mains = _train_mains(split, rng, shuffle_rng)
        pair_idx = _select_pairs(split, core, rng, shuffle_rng)
        screened = (split, (core, mains))

    splits = []
    for i in range(cfg.n_val_splits):
        split, trained = screened if i == 0 and screened else (prep.split(i), None)
        splits.append(fit_single_split(split, pairs=pair_idx, trained=trained))
        del split, trained  # free this fold's context before the next one is built
    pair_names = [(names[a], names[b]) for a, b in pair_idx]
    return EnsembleModel(
        task=cfg.task,
        config=replace(
            cfg, hidden_sizes=tuple(cfg.hidden_sizes), monotone=dict(cfg.monotone)
        ),
        schema=prep.schema,
        bin_maps=list(prep.bin_maps),
        selected_pairs=pair_names,
        eval_times=prep.eval_times,
        n_samples=prep.codes.shape[0],
        splits=splits,
    )


def predict(ensemble: EnsembleModel, table) -> np.ndarray:
    """Transform through stored bin maps and average linked split outputs."""
    return ensemble.predict(table)
