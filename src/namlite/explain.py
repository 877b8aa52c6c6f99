"""Shape-function exports, importance scores, and calibration tables.

Everything here is read-only over a fitted ensemble. Scores and curves
are reported per split with mean and standard error across splits; the
confidence convention (1.96 * SE) is recorded in export metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import transform
from .errors import ConfigError, DataError
from .survival import CalibrationBin, as_survival_labels, calibration_table
from .train import EnsembleModel

__all__ = [
    "IMPORTANCE_MODES",
    "ImportanceEntry",
    "ImportanceReport",
    "ShapeBlock",
    "ShapeFunctionExport",
    "PairShapeExport",
    "CalibrationExport",
    "feature_importance",
    "shape_function",
    "pair_shape_function",
    "calibration",
    "importance_to_csv",
    "shape_to_csv",
    "pair_shape_to_csv",
    "calibration_to_csv",
    "export_to_json",
    "render_svg",
]

IMPORTANCE_MODES = ("include", "ignore", "stratify")


# --- report containers ---------------------------------------------------


@dataclass
class ImportanceEntry:
    name: str
    kind: str  # "feature" | "pair"
    mean: float
    se: float
    per_split: list[float]
    missing_mean: float | None = None
    missing_se: float | None = None
    missing_per_split: list[float] | None = None


@dataclass
class ImportanceReport:
    mode: str
    entries: list[ImportanceEntry]
    metadata: dict = field(default_factory=dict)


@dataclass
class ShapeBlock:
    eval_time: float | None
    values: np.ndarray  # (k_splits, n_bins_plotted)
    mean: np.ndarray
    se: np.ndarray


@dataclass
class ShapeFunctionExport:
    feature: str
    kind: str  # "continuous" | "categorical"
    labels: list[str]
    include_missing: bool
    blocks: list[ShapeBlock]
    metadata: dict = field(default_factory=dict)


@dataclass
class PairShapeExport:
    feature_a: str
    feature_b: str
    labels_a: list[str]
    labels_b: list[str]
    eval_time: float | None
    mean: np.ndarray  # (n_bins_a+1, n_bins_b+1)
    metadata: dict = field(default_factory=dict)


@dataclass
class CalibrationExport:
    eval_time: float
    bins: list[CalibrationBin]
    metadata: dict = field(default_factory=dict)


# --- shared helpers -------------------------------------------------------


def _mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error across axis 0 (the split axis)."""
    k = values.shape[0]
    mean = values.mean(axis=0)
    if k > 1:
        se = values.std(axis=0, ddof=1) / np.sqrt(k)
    else:
        se = np.zeros_like(mean)
    return mean, se


def _metadata(ens: EnsembleModel, **extra) -> dict:
    from .persist import model_hash

    meta = {
        "model_hash": model_hash(ens),
        "task": ens.task,
        "n_splits": len(ens.splits),
        "ci": "mean +/- 1.96*se across splits",
    }
    meta.update(extra)
    return meta


def _time_indices(ens: EnsembleModel, eval_times) -> list[int]:
    """Grid indices nearest the requested times; all of them when None."""
    if ens.task != "survival":
        return [0]
    grid = ens.eval_times
    if eval_times is None:
        return list(range(grid.size))
    wanted = np.atleast_1d(np.asarray(eval_times, dtype=np.float64))
    if wanted.size == 0:
        raise ConfigError("eval times must not be empty; pass None for the whole grid")
    if not np.all(np.isfinite(wanted)):
        raise ConfigError(f"eval times must be finite, got {wanted.tolist()}")
    return [int(np.argmin(np.abs(grid - t))) for t in wanted]


def _feature_index(ens: EnsembleModel, feature: str) -> int:
    names = ens.feature_names
    if feature not in names:
        raise DataError(f"feature {feature!r} not in model")
    return names.index(feature)


def _codes_for(ens: EnsembleModel, table) -> np.ndarray:
    return transform(table, ens.bin_maps).codes


# --- importance ------------------------------------------------------------


def _mean(values: np.ndarray) -> float:
    return values.mean() if values.size else 0.0


def _split_scores(core, tabs, codes: np.ndarray, mode: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (scores, missing) couple per stack of a split's core, for one sample block.

    `tabs` holds the split's compiled table for each stack.

    A term's score is the mean absolute centered gated contribution,
    averaged over output dimensions. The stratify missing score is the one
    rule that differs by stack: for a feature it is the magnitude of its
    missing-bin output, for a pair the mean over samples that hit any
    missing cell.
    """
    observed = codes > 0
    out = []
    for (stack, _), tab in zip(core.stacks(), tabs):
        n = tab.shape[0]
        per_cell = np.abs(tab).mean(axis=2)  # (n, cells)
        contrib = per_cell[np.arange(n)[None, :], stack.cell_codes(core.feats, codes)]
        if stack.prefix == "feat":
            seen, missing = observed, per_cell[:, 0]
        else:
            ja, jb = np.array(stack.pairs).T
            seen = observed[:, ja] & observed[:, jb]
            missing = np.array([_mean(contrib[~seen[:, k], k]) for k in range(n)])
        scores = [_mean(contrib[slice(None) if mode == "include" else seen[:, k], k])
                  for k in range(n)]
        out.append((np.array(scores), missing))
    return out


def feature_importance(
    ens: EnsembleModel, table, mode: str = "include", pooled: bool = False
) -> ImportanceReport:
    """Mean absolute contribution scores on the training table.

    Each split scores its own training fold unless pooled is set, in which
    case every split scores all rows. The table must be the one the model
    was fit on when using per-split folds.
    """
    if mode not in IMPORTANCE_MODES:
        raise ConfigError(f"unknown importance mode {mode!r}")
    codes = _codes_for(ens, table)
    if not pooled and codes.shape[0] != ens.n_samples:
        raise DataError(
            f"table has {codes.shape[0]} rows but the model was fit on "
            f"{ens.n_samples}; pass pooled=True for non-training data"
        )
    folds, tables = ens.folds(), ens.tables()
    rows = []
    for s, sp in enumerate(ens.splits):
        block = codes if pooled else codes[folds[s][0]]
        rows.append(_split_scores(sp.core, [tab[s] for tab in tables], block, mode))
    stratify = mode == "stratify"
    entries = []
    kinds = [("feature", ens.feature_names),
             ("pair", [f"{a} x {b}" for a, b in ens.selected_pairs])]
    for (kind, names), *couples in zip(kinds, *rows):  # one stack of every split
        sc = np.stack([c[0] for c in couples])  # (k, terms)
        ms = np.stack([c[1] for c in couples])
        s_mean, s_se = _mean_se(sc)
        m_mean, m_se = _mean_se(ms)
        for j, name in enumerate(names):
            entries.append(
                ImportanceEntry(
                    name=name,
                    kind=kind,
                    mean=float(s_mean[j]),
                    se=float(s_se[j]),
                    per_split=sc[:, j].tolist(),
                    missing_mean=float(m_mean[j]) if stratify else None,
                    missing_se=float(m_se[j]) if stratify else None,
                    missing_per_split=ms[:, j].tolist() if stratify else None,
                )
            )
    entries.sort(key=lambda e: (-e.mean, e.name))
    meta = _metadata(
        ens,
        mode=mode,
        pooled=pooled,
        samples="all rows" if pooled else "per-split training folds",
    )
    return ImportanceReport(mode=mode, entries=entries, metadata=meta)


# --- shape functions --------------------------------------------------------


def shape_function(
    ens: EnsembleModel,
    feature: str,
    include_missing: bool = True,
    eval_times=None,
) -> ShapeFunctionExport:
    """Centered gated per-bin outputs with cross-split mean and SE.

    Survival models produce one block per requested evaluation time (all
    grid times when unspecified); requested times snap to the nearest
    grid time. Bin index 0 is the missing bin.
    """
    j = _feature_index(ens, feature)
    bm = ens.bin_maps[j]
    nb = bm.n_bins + 1
    lo = 0 if include_missing else 1
    labels = [bm.label(i) for i in range(lo, nb)]
    stacked = ens.tables()[0][:, j, lo:nb]  # (k, nb-lo, out)
    blocks = []
    grid = ens.eval_times
    for t_idx in _time_indices(ens, eval_times):
        vals = stacked[:, :, t_idx]
        mean, se = _mean_se(vals)
        blocks.append(
            ShapeBlock(
                eval_time=None if grid is None else float(grid[t_idx]),
                values=vals,
                mean=mean,
                se=se,
            )
        )
    meta = _metadata(
        ens,
        feature=feature,
        include_missing=include_missing,
        eval_times=[b.eval_time for b in blocks if b.eval_time is not None] or None,
    )
    return ShapeFunctionExport(
        feature=feature,
        kind=bm.kind,
        labels=labels,
        include_missing=include_missing,
        blocks=blocks,
        metadata=meta,
    )


def pair_shape_function(
    ens: EnsembleModel, feature_a: str, feature_b: str, eval_time=None
) -> PairShapeExport:
    """Centered gated pair surface on the full bin-index grid, split-averaged."""
    names = ens.feature_names
    key = None
    for cand in ((feature_a, feature_b), (feature_b, feature_a)):
        if list(cand) in [list(p) for p in ens.selected_pairs]:
            key = cand
            break
    if key is None:
        raise DataError(f"pair ({feature_a!r}, {feature_b!r}) not selected")
    q = [tuple(p) for p in ens.selected_pairs].index(key)
    ja, jb = names.index(key[0]), names.index(key[1])
    core = ens.splits[0].core
    nba, nbb = core.pairs.extents(core.feats)[q]
    if ens.task == "survival":
        grid = ens.eval_times
        if eval_time is None:
            t_idx = grid.size // 2
        else:
            idx = _time_indices(ens, eval_time)
            if len(idx) != 1:
                raise ConfigError(f"a pair surface takes one eval time, got {len(idx)}")
            t_idx = idx[0]
        t_out = float(grid[t_idx])
    else:
        t_idx, t_out = 0, None
    M = core.feats.padded
    surfaces = ens.tables()[1][:, q, :, t_idx].reshape(-1, M, M)[:, :nba, :nbb]
    mean = surfaces.mean(axis=0)
    meta = _metadata(ens, pair=[key[0], key[1]], eval_time=t_out)
    return PairShapeExport(
        feature_a=key[0],
        feature_b=key[1],
        labels_a=[ens.bin_maps[ja].label(i) for i in range(nba)],
        labels_b=[ens.bin_maps[jb].label(i) for i in range(nbb)],
        eval_time=t_out,
        mean=mean,
        metadata=meta,
    )


# --- calibration -------------------------------------------------------------


def calibration(
    ens: EnsembleModel, table, labels, eval_times=None, n_bins: int = 10
) -> list[CalibrationExport]:
    """Predicted-vs-KM calibration tables at the requested grid times."""
    if ens.task != "survival":
        raise ConfigError("calibration requires a survival model")
    labels = as_survival_labels(labels)
    preds = ens.predict(table)  # (n, K)
    base = _metadata(ens)
    out = []
    for t_idx in _time_indices(ens, eval_times):
        t = float(ens.eval_times[t_idx])
        bins = calibration_table(preds[:, t_idx], labels, t, n_bins=n_bins)
        out.append(
            CalibrationExport(
                eval_time=t,
                bins=bins,
                metadata=dict(base, eval_time=t, n_bins=n_bins),
            )
        )
    return out


# --- text exports ------------------------------------------------------------


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {k}: {json.dumps(v)}" for k, v in meta.items()]


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv(meta: dict, header: list[str], rows: list[list]) -> str:
    lines = _meta_lines(meta)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def importance_to_csv(report: ImportanceReport) -> str:
    header = ["name", "kind", "mean", "se"]
    if report.mode == "stratify":
        header += ["missing_mean", "missing_se"]
    rows = []
    for e in report.entries:
        row = [e.name, e.kind, e.mean, e.se]
        if report.mode == "stratify":
            row += [e.missing_mean, e.missing_se]
        rows.append(row)
    return _csv(report.metadata, header, rows)


def shape_to_csv(export: ShapeFunctionExport) -> str:
    header = ["eval_time", "bin", "label", "mean", "se"]
    k = export.blocks[0].values.shape[0]
    header += [f"split_{s}" for s in range(k)]
    offset = 0 if export.include_missing else 1
    rows = []
    for block in export.blocks:
        for i, label in enumerate(export.labels):
            rows.append(
                [block.eval_time, i + offset, label, float(block.mean[i]), float(block.se[i])]
                + [float(v) for v in block.values[:, i]]
            )
    return _csv(export.metadata, header, rows)


def pair_shape_to_csv(export: PairShapeExport) -> str:
    header = ["bin_a", "label_a", "bin_b", "label_b", "mean"]
    rows = []
    for a, la in enumerate(export.labels_a):
        for b, lb in enumerate(export.labels_b):
            rows.append([a, la, b, lb, float(export.mean[a, b])])
    return _csv(export.metadata, header, rows)


def calibration_to_csv(exports: list[CalibrationExport]) -> str:
    meta = dict(exports[0].metadata) if exports else {}
    meta.pop("eval_time", None)
    header = ["eval_time", "bin", "size", "mean_pred", "km_cdf"]
    rows = []
    for ex in exports:
        for i, b in enumerate(ex.bins):
            rows.append([ex.eval_time, i, b.size, b.mean_pred, b.km_cdf])
    return _csv(meta, header, rows)


def export_to_json(export) -> str:
    """Generic JSON serialization for any export in this module."""

    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if hasattr(o, "__dataclass_fields__"):
            return {k: getattr(o, k) for k in o.__dataclass_fields__}
        raise TypeError(f"not JSON-serializable: {type(o)!r}")

    return json.dumps(export, default=default, indent=2) + "\n"


# --- SVG ---------------------------------------------------------------------


def render_svg(export, kind: str, **opts) -> str:
    """Render an export as a deterministic standalone SVG document."""
    from . import svg

    renderers = {
        "importance-bars": svg.importance_bars,
        "shape-line": svg.shape_line,
        "shape-category-bars": svg.shape_category_bars,
        "pair-heatmap": svg.pair_heatmap,
        "calibration": svg.calibration_plot,
    }
    if kind not in renderers:
        raise ConfigError(f"unknown plot kind {kind!r}")
    return renderers[kind](export, **opts)
