"""Versioned JSON persistence for fitted ensembles.

Every stack of a core goes through one `_terms_doc`/`_terms_in` pair,
row-major as nested lists, each embedding cut to its term's `extents`;
floats survive the repr round-trip exactly, so save -> load -> save
reproduces identical bytes. Smoothing operators are rebuilt from the
config on load rather than stored. Loading checks keys, shapes and
finiteness and raises DataError on any model it cannot use.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .core import ACTIVATIONS, FeatureStack, ModelCore, PairStack, smoothing_operator
from .data import KINDS, BinMap, FeatureSchema
from .errors import ConfigError, DataError
from .train import _OBJECTIVES, EnsembleModel, SingleSplitModel, TrainConfig

__all__ = [
    "FORMAT_VERSION",
    "model_to_dict",
    "model_from_dict",
    "dumps_model",
    "loads_model",
    "save_model",
    "load_model",
    "model_hash",
]

FORMAT_VERSION = "1.0"


def _terms_doc(stack, feats: FeatureStack) -> dict:
    """One stack's saved arrays, each term's embedding cut to its extent.

    Pairs lead with their feature index and features end with their
    monotone settings: the key order the format fixed.
    """
    doc = {"index": [[int(a), int(b)] for a, b in stack.pairs]} if stack.prefix == "pair" else {}
    doc.update(
        emb=[e[tuple(map(slice, ext))] for e, ext in zip(stack.emb, stack.extents(feats))],
        weights=[[W, b] for W, b in stack.weights],
        mu=stack.mu,
        active=stack.active.astype(int),
    )
    if stack.prefix == "feat":
        doc.update(mono_dir=stack.mono_dir, mono_off=stack.mono_off)
    return doc


def _core_doc(core: ModelCore) -> dict:
    terms = {stack.prefix: _terms_doc(stack, core.feats) for stack, _ in core.stacks()}
    return {
        "gamma": core.gamma,
        "pair_gamma": core.pair_gamma,
        "out_dim": core.out_dim,
        "activation": core.activation,
        "link": core.link,
        "feats": terms["feat"],
        "pairs": terms.get("pair"),
    }


def _split_doc(sp: SingleSplitModel) -> dict:
    return {
        "beta0": sp.beta0,
        "c_feat": sp.c_feat,
        "c_pair": sp.c_pair,
        "val_loss": float(sp.val_loss),
        "core": _core_doc(sp.core),
    }


def _model_doc(ens: EnsembleModel) -> dict:
    """The saved document with parameter arrays still as ndarrays.

    Arrays are taken at their true (unpadded) sizes. ``_tolist`` turns the
    result into the JSON tree; ``_content_key`` digests it without
    serializing.
    """
    return {
        "format_version": FORMAT_VERSION,
        "task": ens.task,
        "n_samples": int(ens.n_samples),
        "config": ens.config.to_dict(),
        "schema": [fs.to_dict() for fs in ens.schema],
        "bin_maps": [bm.to_dict() for bm in ens.bin_maps],
        "selected_pairs": [[a, b] for a, b in ens.selected_pairs],
        "eval_times": ens.eval_times,
        "splits": [_split_doc(sp) for sp in ens.splits],
    }


def _tolist(node):
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {k: _tolist(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_tolist(v) for v in node]
    return node


def _content_key(doc) -> bytes:
    """Digest of a model document that changes whenever its JSON would.

    The document is encoded with each array replaced by its dtype and
    shape, while the raw bytes of the arrays go into the digest in document
    order. That JSON skeleton and its length, hashed after them, fix the
    structure and each array's size, and the bytes fix each array's
    ``tolist`` text.
    """
    h = hashlib.blake2b(digest_size=32)

    def array_meta(a):
        h.update(np.ascontiguousarray(a))
        return [a.dtype.str, a.shape]

    skeleton = json.dumps(doc, default=array_meta).encode()
    h.update(skeleton)
    h.update(len(skeleton).to_bytes(8, "little"))
    return h.digest()


def model_to_dict(ens: EnsembleModel) -> dict:
    return _tolist(_model_doc(ens))


def _check(ok, what: str) -> None:
    if not ok:
        raise DataError(f"invalid model: {what}")


def _floats_in(raw, shape: tuple, what: str) -> np.ndarray:
    a = np.asarray(raw, dtype=np.float64)
    _check(a.shape == shape, f"{what} has shape {a.shape}, expected {shape}")
    _check(np.isfinite(a).all(), f"{what} is not finite")
    return a


def _terms_in(cls, raw: dict, shape: tuple, out_dim: int, what: str, feats=None, **fields):
    """One stack of `cls` from its saved arrays; its padded tables are `shape`, (n, *cells, d).

    The layers must chain from d inputs to ``out_dim``. Each term's
    embedding must have its extent; the rest of the padded table stays
    zero. `feats` is the feature stack a pair stack reads.
    """
    n, width = shape[0], shape[-1]
    _check(len(raw["emb"]) == n, f"{len(raw['emb'])} embeddings for {n} {what}")
    active = np.asarray(raw["active"], dtype=np.int64)
    _check(active.shape == (n,), f"{what}.active must hold one flag per term")
    weights = []
    for k, (W, b) in enumerate(raw["weights"]):
        W = np.asarray(W, dtype=np.float64)
        out = W.shape[-1] if W.ndim == 3 else -1
        W = _floats_in(W, (n, width, out), f"{what}.weights[{k}].W")
        b = _floats_in(b, (n, out), f"{what}.weights[{k}].b")
        weights.append((W, b))
        width = out
    _check(weights and width == out_dim, f"{what} layers do not end at out_dim {out_dim}")
    stack = cls(emb=np.zeros(shape), weights=weights, mu=_floats_in(raw["mu"], (n,), f"{what}.mu"),
                active=active.astype(bool), **fields)
    for k, ext in enumerate(stack.extents(feats or stack)):
        cut = tuple(map(slice, ext))
        stack.emb[k][cut] = _floats_in(raw["emb"][k], (*ext, shape[-1]), f"{what}.emb[{k}]")
    return stack


def _core_in(
    d: dict, n_bins: np.ndarray, cfg: TrainConfig, smooth: np.ndarray, out_dim: int
) -> ModelCore:
    p = n_bins.size
    M = smooth.shape[1]
    dims = cfg.embedding_dim
    _check(int(d["out_dim"]) == out_dim, f"out_dim {d['out_dim']}, expected {out_dim}")
    _check(d["activation"] in ACTIVATIONS, f"unknown activation {d['activation']!r}")
    _check(d["link"] == _OBJECTIVES[cfg.task].link,
           f"link {d['link']!r} does not match task {cfg.task!r}")
    gamma, pair_gamma = float(d["gamma"]), float(d["pair_gamma"])
    _check(np.isfinite([gamma, pair_gamma]).all() and min(gamma, pair_gamma) > 0,
           "gate widths must be positive and finite")
    f = d["feats"]
    mono_dir = np.asarray(f["mono_dir"], dtype=np.int64)
    _check(mono_dir.shape == (p,) and np.isin(mono_dir, (-1, 0, 1)).all(),
           "mono_dir must hold -1, 0 or +1 per feature")
    feats = _terms_in(FeatureStack, f, (p, M, dims), out_dim, "feats", n_bins=n_bins,
                      smooth=smooth, mono_dir=mono_dir,
                      mono_off=_floats_in(f["mono_off"], (p,), "feats.mono_off"))
    pairs = None
    if d["pairs"] is not None:
        index = [(int(a), int(b)) for a, b in d["pairs"]["index"]]
        _check(all(0 <= a < p and 0 <= b < p and a != b for a, b in index),
               "pair index out of range")
        pairs = _terms_in(PairStack, d["pairs"], (len(index), M, M, dims), out_dim, "pairs",
                          feats, pairs=index)
    return ModelCore(
        feats=feats,
        pairs=pairs,
        gamma=gamma,
        pair_gamma=pair_gamma,
        out_dim=out_dim,
        activation=str(d["activation"]),
        link=str(d["link"]),
    )


def _split_in(s: dict, n_bins, cfg, smooth, out_dim: int) -> SingleSplitModel:
    core = _core_in(s["core"], n_bins, cfg, smooth, out_dim)
    q = 0 if core.pairs is None else core.pairs.n_pairs
    c_pair = np.asarray(s["c_pair"], dtype=np.float64).reshape(-1, out_dim)  # [] if q == 0
    return SingleSplitModel(
        core=core,
        beta0=_floats_in(s["beta0"], (out_dim,), "beta0"),
        c_feat=_floats_in(s["c_feat"], (n_bins.size, out_dim), "c_feat"),
        c_pair=_floats_in(c_pair, (q, out_dim), "c_pair"),
        history={},
        val_loss=float(s["val_loss"]),
    )


def _bin_map_in(raw: dict) -> BinMap:
    bm = BinMap.from_dict(raw)
    _check(bm.kind in KINDS, f"unknown bin map kind {bm.kind!r}")
    edges = np.asarray(bm.edges, dtype=np.float64)
    _check(np.isfinite(edges).all() and (np.diff(edges) > 0).all(),
           f"bin edges of {bm.feature!r} must be finite and increasing")
    _check(len(set(bm.categories)) == len(bm.categories),
           f"repeated categories in {bm.feature!r}")
    return bm


def _model_in(d: dict) -> EnsembleModel:
    version = str(d.get("format_version", ""))
    major = version.split(".", 1)[0]
    ours = FORMAT_VERSION.split(".", 1)[0]
    if not major.isdigit() or int(major) > int(ours):
        raise DataError(
            f"model format version {version!r} is newer than supported {FORMAT_VERSION}"
        )
    cfg = TrainConfig.from_dict(d["config"])
    task = str(d["task"])
    _check(task == cfg.task, f"task {task!r} differs from config task {cfg.task!r}")
    schema = [FeatureSchema.from_dict(s) for s in d["schema"]]
    bin_maps = [_bin_map_in(b) for b in d["bin_maps"]]
    _check(bin_maps, "no features")
    _check([(fs.name, fs.kind) for fs in schema] == [(bm.feature, bm.kind) for bm in bin_maps],
           "schema does not match bin maps")
    n_bins = np.array([bm.n_bins for bm in bin_maps], dtype=np.int64)
    eval_times = d["eval_times"]
    if task == "survival":
        eval_times = np.asarray(eval_times, dtype=np.float64)
        _check(eval_times.ndim == 1 and eval_times.size > 0
               and np.isfinite(eval_times).all() and (np.diff(eval_times) > 0).all(),
               "survival eval_times must be finite and increasing")
        out_dim = eval_times.size
    else:
        _check(eval_times is None, f"eval_times given for a {task} model")
        out_dim = 1
    n_samples = int(d["n_samples"])
    _check(n_samples >= cfg.n_val_splits, f"n_samples {n_samples} below n_val_splits")
    M = int(n_bins.max()) + 1
    smooth = np.stack([smoothing_operator(int(n), M, cfg.kernel()) for n in n_bins])
    _check(np.isfinite(smooth).all(), "kernel smoothing is not finite")
    _check(d["splits"], "no splits")
    splits = [_split_in(s, n_bins, cfg, smooth, out_dim) for s in d["splits"]]
    selected_pairs = [(a, b) for a, b in d["selected_pairs"]]
    names = [bm.feature for bm in bin_maps]
    for sp in splits:
        index = [] if sp.core.pairs is None else sp.core.pairs.pairs
        _check([(names[a], names[b]) for a, b in index] == selected_pairs,
               "pair index does not match selected_pairs")
    return EnsembleModel(
        task=task,
        config=cfg,
        schema=schema,
        bin_maps=bin_maps,
        selected_pairs=selected_pairs,
        eval_times=eval_times,
        n_samples=n_samples,
        splits=splits,
    )


def model_from_dict(d: dict) -> EnsembleModel:
    """Rebuild an ensemble from its saved document.

    Anything that does not describe a usable model raises DataError:
    missing keys, wrong types, array shapes that disagree with the bin maps
    or the output size, and non-finite parameters.
    """
    try:
        return _model_in(d)
    except ConfigError as e:
        raise DataError(f"invalid model config: {e}") from e
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as e:
        raise DataError(f"invalid model: {type(e).__name__}: {e}") from e


def dumps_model(ens: EnsembleModel) -> str:
    return json.dumps(model_to_dict(ens), separators=(",", ":"))


def loads_model(text: str) -> EnsembleModel:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"model file is not valid JSON: {e}") from None
    return model_from_dict(d)


def save_model(ens: EnsembleModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(ens))
        fh.write("\n")


def load_model(path) -> EnsembleModel:
    try:
        with open(path, encoding="utf-8") as fh:
            return loads_model(fh.read())
    except OSError as e:
        raise DataError(f"cannot read model {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"model {path} is not UTF-8 text ({e.reason})") from None


def model_hash(ens: EnsembleModel) -> str:
    """SHA-256 hex digest of ``dumps_model(ens)``, memoized by content.

    The value is exactly that digest. Serializing is the costly part, so
    the last (content key, digest) pair is kept on the instance and the
    model is serialized again only when ``_content_key`` changes, which it
    does whenever the saved text would, in-place array edits included.
    """
    key = _content_key(_model_doc(ens))
    memo = getattr(ens, "_hash_memo", None)
    if memo is not None and memo[0] == key:
        return memo[1]
    digest = hashlib.sha256(dumps_model(ens).encode("utf-8")).hexdigest()
    ens._hash_memo = (key, digest)
    return digest
