"""Embedded feature and pair selection: gate training, pruning, lambda path."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .core import forward_pass, sigmoid
from .errors import ConfigError
from .train import (_FIELD_TYPES, TrainConfig, _check_types, _is_int, _pair_universe, _Phase,
                    _prepare, _Split)
from .train import _train_mains

__all__ = [
    "SelectionConfig",
    "SelectionResult",
    "PathRecord",
    "PathResult",
    "default_gamma",
    "select_features",
    "regularization_path",
    "lookup_feats",
]

log = logging.getLogger("namlite")


def default_gamma(n_samples: int, batch_size: int, embedding_dim: int) -> float:
    """Gate width scaled to steps per epoch and embedding size, capped at 1."""
    if n_samples <= 0 or batch_size <= 0 or embedding_dim <= 0:
        raise ConfigError("default_gamma arguments must be positive")
    return min((n_samples / batch_size) * (1.0 / 250.0) * (16.0 / embedding_dim), 1.0)


@dataclass
class SelectionConfig:
    reg_param: float = 0.0
    pair_reg_param: float = 0.0
    gamma: float | None = None
    pair_gamma: float | None = None
    select_pairs: bool = False

    def validate(self) -> None:
        _check_types(self)
        if not (0 <= self.reg_param < np.inf and 0 <= self.pair_reg_param < np.inf):
            raise ConfigError("regularization parameters must be non-negative and finite")
        if self.gamma is not None and not (0 < self.gamma < np.inf):
            raise ConfigError("gamma must be positive and finite")
        if self.pair_gamma is not None and not (0 < self.pair_gamma < np.inf):
            raise ConfigError("pair_gamma must be positive and finite")


@dataclass
class SelectionResult:
    selected_feats: list[str]
    selected_pairs: list[tuple[str, str]]
    gate_values: dict[str, float]
    pair_gate_values: dict[tuple[str, str], float] = field(default_factory=dict)


@dataclass(frozen=True)
class PathRecord:
    reg_param: float
    num_feats: int
    val_loss: float
    val_score: float
    selected_feats: tuple[str, ...]


@dataclass(frozen=True)
class PathResult:
    records: list[PathRecord]
    feats: dict[int, list[str]]


def lookup_feats(feats: dict[int, list[str]], num: int) -> list[str]:
    """Exact key, else the nearest smaller recorded size."""
    if num in feats:
        return feats[num]
    smaller = [k for k in feats if k < num]
    if not smaller:
        raise KeyError(f"no recorded selection of size <= {num}")
    return feats[max(smaller)]


# --- shared setup --------------------------------------------------------------


@dataclass
class _SelectionRun:
    core: object
    split: _Split
    shuffle_rng: np.random.Generator
    feature_names: list[str]
    pair_universe: list[tuple[int, int]]


def _build_selection(table, y, cfg: TrainConfig, sel: SelectionConfig, schema):
    """Split 0 of `fit`'s pipeline, with a gated core over every feature."""
    prep = _prepare(table, y, cfg, schema)
    sel.validate()
    split = prep.split(0)
    names = prep.feature_names
    gamma = sel.gamma or default_gamma(split.codes_tr.shape[0], cfg.batch_size, cfg.embedding_dim)
    pair_gamma = sel.pair_gamma or gamma / 4.0
    init_rng, shuffle_rng = split.rngs()
    universe: list[tuple[int, int]] = []
    if sel.select_pairs and len(names) >= 2:
        # Past 20 features, candidates come from ranking trained mains, as in fit.
        probe = _train_mains(split, init_rng, shuffle_rng)[0] if len(names) > 20 else None
        universe = _pair_universe(probe, split.codes_tr)
    core = split.new_core(
        init_rng,
        gamma=gamma,
        pair_gamma=pair_gamma,
        gates_trainable=True,
        pairs=universe or None,
        pair_gates_trainable=bool(universe),
    )
    return _SelectionRun(core, split, shuffle_rng, names, universe)


def _run_selection_step(run: _SelectionRun, reg: float, pair_reg: float):
    regs = {"feat": reg, "pair": pair_reg} if run.pair_universe else {"feat": reg}
    return run.split.run(run.core, _Phase("selection", regs), run.shuffle_rng)


def _result_from(run: _SelectionRun) -> SelectionResult:
    names = run.feature_names
    gates = [stack.gates(gamma) for stack, gamma in run.core.stacks()]
    gate_values = dict(zip(names, map(float, gates[0])))
    # The core's pair stack, the last, holds the universe it was built with,
    # in order; without a universe there is no pair stack and nothing to zip.
    pair_gate_values = {
        (names[a], names[b]): float(g) for (a, b), g in zip(run.pair_universe, gates[-1])
    }
    selected = [name for name, g in gate_values.items() if g > 0]
    if not selected:
        log.warning("selection kept zero features (reg_param too large?)")
    return SelectionResult(
        selected_feats=selected,
        selected_pairs=[key for key, g in pair_gate_values.items() if g > 0],
        gate_values=gate_values,
        pair_gate_values=pair_gate_values,
    )


def select_features(
    table,
    y,
    cfg: TrainConfig,
    sel: SelectionConfig | None = None,
    schema=None,
) -> SelectionResult:
    """Train with the gate regularizer on the first split and keep open gates.

    Features whose gate hits exactly 0 are pruned mid-training and report
    gate value 0.0. The final model should be refit on the selected set.
    """
    sel = sel or SelectionConfig()
    run = _build_selection(table, y, cfg, sel, schema)
    _run_selection_step(run, sel.reg_param, sel.pair_reg_param)
    return _result_from(run)


# --- validation scores ----------------------------------------------------------


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank; all NaN if any is NaN.

    Matches ``scipy.stats.rankdata(x)``. Ranks are half-integers, so they
    are exact in float64.
    """
    x = np.ravel(x)
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _rank_auc(y: np.ndarray, scores: np.ndarray) -> float:
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _val_metrics(run: _SelectionRun, cfg: TrainConfig) -> tuple[float, float]:
    """Task loss and score (AUC / RMSE / IPCW) on the validation fold."""
    split = run.split
    cache = forward_pass(run.core, split.codes_val, compute_pairs=bool(run.pair_universe))
    rows = np.arange(split.codes_val.shape[0])
    val_loss = split.obj_val.loss_grad(cache.eta, rows)[0]
    if cfg.task == "classification":
        score = _rank_auc(split.obj_val.y, sigmoid(cache.eta[:, 0]))
    elif cfg.task == "regression":
        score = float(np.sqrt(val_loss))
    else:
        score = val_loss
    return float(val_loss), float(score)


# --- regularization path ---------------------------------------------------------


def regularization_path(
    table,
    y,
    cfg: TrainConfig,
    init_reg_param: float,
    sel: SelectionConfig | None = None,
    schema=None,
    ladder_factor: float = 2.0,
    max_steps: int = 20,
) -> PathResult:
    """Double lambda from init_reg_param with warm starts until nothing survives.

    Each step records the selected count, validation loss, and a task
    score. The feats map keeps the first (smallest lambda) selection seen
    at each count; query it with lookup_feats.
    """
    is_real = _FIELD_TYPES["float"][0]
    if not (is_real(init_reg_param) and 0 < init_reg_param < np.inf):
        raise ConfigError(f"init_reg_param must be positive and finite, got {init_reg_param!r}")
    if not (is_real(ladder_factor) and 1 < ladder_factor < np.inf):
        raise ConfigError(f"ladder_factor must be above 1 and finite, got {ladder_factor!r}")
    if not (_is_int(max_steps) and max_steps >= 1):
        raise ConfigError(f"max_steps must be an integer >= 1, got {max_steps!r}")
    sel = sel or SelectionConfig()
    run = _build_selection(table, y, cfg, sel, schema)
    records: list[PathRecord] = []
    feats: dict[int, list[str]] = {}
    reg = float(init_reg_param)
    pair_scale = (sel.pair_reg_param / sel.reg_param) if sel.reg_param > 0 else 1.0
    prev_num = None
    for _ in range(max_steps):
        pair_reg = reg * pair_scale if run.pair_universe else 0.0
        _run_selection_step(run, reg, pair_reg)
        result = _result_from(run)
        val_loss, val_score = _val_metrics(run, cfg)
        num = len(result.selected_feats)
        records.append(
            PathRecord(
                reg_param=reg,
                num_feats=num,
                val_loss=val_loss,
                val_score=val_score,
                selected_feats=tuple(result.selected_feats),
            )
        )
        feats.setdefault(num, list(result.selected_feats))
        if prev_num is not None and num > prev_num:
            log.warning(
                "selected count rose from %d to %d as lambda grew", prev_num, num
            )
        prev_num = num
        if num == 0:
            break
        reg *= ladder_factor
    return PathResult(records=records, feats=feats)
