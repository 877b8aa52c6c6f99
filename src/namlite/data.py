"""Column schemas, quantile binning, and integer bin encoding.

Tables enter as any mapping of column name to a value sequence (a plain
dict or a pandas DataFrame both work through ``.items()``). Every feature
is discretized to integer bin indices before modeling; index 0 is reserved
for missing values in all features.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "MISSING_TOKENS",
    "KINDS",
    "FeatureSchema",
    "BinMap",
    "BinnedMatrix",
    "infer_schema",
    "apply_schema_override",
    "fit_bins",
    "transform",
    "split_folds",
    "read_csv",
    "default_min_samples_per_bin",
]

# Tokens treated as missing, matched case-insensitively after stripping.
MISSING_TOKENS = frozenset({"", "na", "nan", "null"})

KINDS = ("continuous", "categorical", "binary")


@dataclass(frozen=True)
class FeatureSchema:
    """Name and kind of one input column."""

    name: str
    kind: str

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        return cls(str(d["name"]), str(d["kind"]))


@dataclass(frozen=True)
class BinMap:
    """Learned discretization of one feature.

    Continuous features store ascending distinct ``edges``; value v maps to
    bin 1 + #{edges < v}. Categorical features store the ordered category
    list; category i maps to bin 1 + i. Bin 0 is always the missing bin.
    ``edge_array`` and ``category_bins`` are built from those once, on
    first use; they are not fields, so equality and the saved form do not
    see them.
    """

    feature: str
    kind: str
    edges: tuple[float, ...] = ()
    categories: tuple[str, ...] = ()

    @property
    def n_bins(self) -> int:
        """Number of observed-value bins, excluding the missing bin."""
        if self.kind == "continuous":
            return len(self.edges) + 1
        return len(self.categories)

    @property
    def total_bins(self) -> int:
        return self.n_bins + 1

    @cached_property
    def edge_array(self) -> np.ndarray:
        """``edges`` as a read-only float64 array."""
        edges = np.array(self.edges, dtype=np.float64)
        edges.flags.writeable = False
        return edges

    @cached_property
    def category_bins(self) -> dict[str, int]:
        """Bin index of each category."""
        return {c: i + 1 for i, c in enumerate(self.categories)}

    def label(self, index: int) -> str:
        """Human-readable label for one bin index."""
        if index == 0:
            return "missing"
        if self.kind == "continuous":
            lo = "-inf" if index == 1 else _fmt(self.edges[index - 2])
            hi = "inf" if index == self.n_bins else _fmt(self.edges[index - 1])
            close = "]" if index < self.n_bins else ")"
            return f"({lo}, {hi}{close}"
        return self.categories[index - 1]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "kind": self.kind,
            "edges": [float(e) for e in self.edges],
            "categories": list(self.categories),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BinMap":
        return cls(
            feature=str(d["feature"]),
            kind=str(d["kind"]),
            edges=tuple(float(e) for e in d["edges"]),
            categories=tuple(str(c) for c in d["categories"]),
        )


@dataclass(frozen=True)
class BinnedMatrix:
    """Integer-coded design matrix plus the maps that produced it."""

    codes: np.ndarray  # (n_samples, n_features) int64
    bin_maps: tuple[BinMap, ...]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# --- table access -----------------------------------------------------------


def table_items(table) -> list[tuple[str, list | np.ndarray]]:
    """Normalize a table-like object to [(name, values)] with equal lengths.

    List and ndarray columns are passed through as they are, not copied;
    any other sequence becomes a list.
    """
    if not hasattr(table, "items"):
        raise DataError(
            "expected a mapping of column name -> values (dict or DataFrame), "
            f"got {type(table).__name__}"
        )
    out = []
    for name, vals in table.items():
        if not isinstance(vals, (list, np.ndarray)):
            vals = list(vals)
        out.append((str(name), vals))
    if out:
        n = len(out[0][1])
        for name, vals in out:
            if len(vals) != n:
                raise DataError(
                    f"column {name!r} has {len(vals)} values, expected {n}"
                )
    return out


def _parse_numeric(values) -> np.ndarray | None:
    """Parse a column to float64 with NaN for missing, or None if non-numeric.

    A float64 ndarray column is returned as it is, so callers only read
    the result. Cells that are sequences, such as lists of equal length,
    do not parse.
    """
    try:
        arr = np.asarray(values)
    except Exception:
        arr = np.asarray(values, dtype=object)
    if arr.dtype.kind in "fiub" and arr.ndim == 1:
        return arr.astype(np.float64, copy=False)
    out = np.empty(len(values), dtype=np.float64)
    for i, v in enumerate(values):
        if v is None:
            out[i] = np.nan
            continue
        if isinstance(v, str):
            tok = v.strip()
            if tok.lower() in MISSING_TOKENS:
                out[i] = np.nan
                continue
            try:
                out[i] = float(tok)
            except ValueError:
                return None
            continue
        try:
            out[i] = float(v)
        except (TypeError, ValueError):
            return None
        except OverflowError:
            text = _clipped_repr(v)
            raise DataError(f"value {text} in row {i} is too large for a float") from None
    return out


def _clipped_repr(v) -> str:
    """repr(v), shortened past 40 characters; an int too long to print is described."""
    try:
        text = repr(v)
    except ValueError:  # Python refuses to print ints past its digit limit
        return f"<{type(v).__name__} too long to print>"
    return text if len(text) <= 40 else f"{text[:20]}...{text[-10:]}"


def _first_bad_token(values: list) -> str:
    """The first cell that is not a number, named for an error message: a
    string by its stripped token, quoted, and any other cell by `_clipped_repr`."""
    for v in values:
        if v is None:
            continue
        tok = v.strip() if isinstance(v, str) else v
        if isinstance(tok, str) and tok.lower() in MISSING_TOKENS:
            continue
        try:
            float(tok)
        except (TypeError, ValueError):
            return repr(tok) if isinstance(tok, str) else _clipped_repr(tok)
    return "?"


def _category_keys(values: list, numeric: np.ndarray | None) -> list:
    """Canonical per-row category keys; None marks missing."""
    if numeric is not None:
        return [None if math.isnan(x) else repr(x) for x in numeric.tolist()]
    keys = []
    for v in values:
        if v is None:
            keys.append(None)
            continue
        if isinstance(v, float) and math.isnan(v):
            keys.append(None)
            continue
        tok = str(v).strip()
        keys.append(None if tok.lower() in MISSING_TOKENS else tok)
    return keys


# Columns shorter than this are keyed row by row, so a one-row predict does
# not pay the distinct pass's fixed cost. Measured on one 5-category list
# column through `transform`, row by row against distinct: 1 row 11.2 us
# both ways, 2 rows 10.8 against 13.5, 16 rows 15.7 against 17.2, 32 rows
# 21.0 against 19.7. The crossover lies between 16 and 32 rows.
_DISTINCT_MIN_ROWS = 16


def _category_codes(values) -> tuple[list, np.ndarray | None]:
    """Canonical keys of a column's distinct values, and each row's index into them.

    A list whose distinct values are all ``str`` or None is made distinct
    by one dict, and only the distinct values are parsed and keyed; that
    gives the same keys, since a column is numeric iff all of them parse.
    Any other column, and a short one, is keyed row by row and comes back
    with no index: in a mixed list 1, 1.0 and True are one dict key but
    three categories.
    """
    if len(values) >= _DISTINCT_MIN_ROWS and isinstance(values, list):
        try:
            index = dict.fromkeys(values)
        except TypeError:  # an unhashable cell
            index = {}
        if index and all(type(v) is str or v is None for v in index):
            for i, v in enumerate(index):
                index[v] = i
            uniq = list(index)
            inv = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
            return _category_keys(uniq, _parse_numeric(uniq)), inv
    return _category_keys(values, _parse_numeric(values)), None


# --- schema -----------------------------------------------------------------


def infer_schema(table) -> list[FeatureSchema]:
    """Infer a kind for every column.

    A column is numeric iff every non-missing value parses as a float.
    Exactly two distinct non-missing values make a column binary; otherwise
    numeric columns are continuous and the rest categorical.
    """
    schema = []
    for name, vals in table_items(table):
        numeric = _parse_numeric(vals)
        if numeric is not None:
            nonmiss = numeric[~np.isnan(numeric)]
            if nonmiss.size == 0:
                raise DataError(f"column {name!r} has no non-missing values")
            distinct = np.unique(nonmiss).size
            kind = "binary" if distinct == 2 else "continuous"
        else:
            keys = set(_category_codes(vals)[0]) - {None}
            if not keys:
                raise DataError(f"column {name!r} has no non-missing values")
            kind = "binary" if len(keys) == 2 else "categorical"
        schema.append(FeatureSchema(name, kind))
    return schema


def apply_schema_override(
    schema: list[FeatureSchema], kinds: dict[str, str]
) -> list[FeatureSchema]:
    """Replace inferred kinds with user-supplied ones."""
    by_name = {fs.name: fs for fs in schema}
    for name, kind in kinds.items():
        if name not in by_name:
            raise ConfigError(f"schema override names unknown column {name!r}")
        if kind not in KINDS:
            raise ConfigError(
                f"unknown kind {kind!r} for column {name!r}; expected one of {KINDS}"
            )
    return [
        FeatureSchema(fs.name, kinds.get(fs.name, fs.kind)) for fs in schema
    ]


# --- binning ----------------------------------------------------------------


def default_min_samples_per_bin(n_samples: int) -> int:
    return min(50, math.ceil(0.01 * n_samples))


def _continuous_edges(
    x: np.ndarray, max_bins: int, min_samples_per_bin: int
) -> tuple[float, ...]:
    """Quantile edges at i/max_bins, merged until every bin holds at least
    `min_samples_per_bin` of `x`.

    Each merge takes the smallest bin, the leftmost of equals, into its
    right neighbour (the last bin into its left one), and their counts
    add. So the values are counted once. Empty bins go first, all at
    once: a run of them joins the bin after it, a run at the end the bin
    before it. The rest merge through a heap of (count, position).
    """
    qs = np.arange(1, max_bins) / max_bins
    edges = np.unique(np.quantile(x, qs))
    counts = np.bincount(np.searchsorted(edges, x, side="left"), minlength=edges.size + 1)
    if counts.min() >= min_samples_per_bin:
        return tuple(float(e) for e in edges)
    # Edge i parts bins i and i + 1; an empty bin i drops it, and so does
    # the bin before a trailing empty run.
    keep = counts[:-1] > 0
    keep[np.flatnonzero(counts)[-1] :] = False
    edges, count = edges[keep], counts[counts > 0].tolist()
    # Bins are named by their first position; a merge keeps the left name,
    # so names stay in order and the heap breaks ties to the left.
    last = len(count) - 1
    nxt, prev = list(range(1, last + 2)), list(range(-1, last))
    heap = [(c, b) for b, c in enumerate(count)]
    heapq.heapify(heap)
    keep = [True] * last
    for _ in range(last):  # at most one merge per edge
        c, b = heapq.heappop(heap)
        while count[b] != c:  # stale: b grew or was merged away
            c, b = heapq.heappop(heap)
        if c >= min_samples_per_bin:
            break
        left, right = (prev[b], b) if nxt[b] > last else (b, nxt[b])
        count[left] += count[right]
        count[right] = -1
        keep[right - 1] = False
        nxt[left] = nxt[right]
        if nxt[right] <= last:
            prev[nxt[right]] = left
        heapq.heappush(heap, (count[left], left))
    return tuple(float(e) for e, k in zip(edges, keep) if k)


def fit_bins(
    table,
    schema: list[FeatureSchema],
    max_bins: int = 32,
    min_samples_per_bin: int | None = None,
) -> list[BinMap]:
    """Learn per-feature bin maps from training data.

    Continuous features get quantile edges at i/max_bins which are then
    merged until every bin holds at least ``min_samples_per_bin`` training
    values. Categorical and binary features get one bin per distinct value.
    """
    if max_bins < 2:
        raise ConfigError(f"max_bins must be >= 2, got {max_bins}")
    cols = dict(table_items(table))
    n = len(next(iter(cols.values()))) if cols else 0
    if n == 0:
        raise DataError("cannot fit bins on an empty table")
    if min_samples_per_bin is None:
        min_samples_per_bin = default_min_samples_per_bin(n)
    maps = []
    for fs in schema:
        if fs.name not in cols:
            raise DataError(f"schema column {fs.name!r} not present in table")
        vals = cols[fs.name]
        if fs.kind == "continuous":
            numeric = _parse_numeric(vals)
            if numeric is None:
                raise DataError(
                    f"column {fs.name!r} declared continuous but token "
                    f"{_first_bad_token(vals)} does not parse as a number"
                )
            x = numeric[~np.isnan(numeric)]
            if x.size == 0:
                raise DataError(f"column {fs.name!r} has no non-missing values")
            if not np.all(np.isfinite(x)):
                raise DataError(f"column {fs.name!r} contains non-finite values")
            if x.size < min_samples_per_bin:
                raise DataError(
                    f"column {fs.name!r} has {x.size} non-missing values, "
                    f"fewer than min_samples_per_bin={min_samples_per_bin}"
                )
            edges = _continuous_edges(x, max_bins, min_samples_per_bin)
            maps.append(BinMap(fs.name, fs.kind, edges=edges))
        elif fs.kind in ("categorical", "binary"):
            cats = tuple(sorted(set(_category_codes(vals)[0]) - {None}))
            if not cats:
                raise DataError(f"column {fs.name!r} has no non-missing values")
            if fs.kind == "binary" and len(cats) != 2:
                raise DataError(
                    f"column {fs.name!r} declared binary but has {len(cats)} "
                    "distinct values"
                )
            maps.append(BinMap(fs.name, fs.kind, categories=cats))
        else:
            raise ConfigError(f"unknown kind {fs.kind!r} for column {fs.name!r}")
    return maps


def transform(table, bin_maps: list[BinMap]) -> BinnedMatrix:
    """Encode a table to bin indices using previously fitted maps.

    Missing values map to 0. Categories unseen during fitting also map to
    0; they carry no information the model was trained on. The continuous
    columns are parsed into one (k, n) float block and checked together;
    a bad table raises for its first offending column in map order. A
    categorical column is keyed once per distinct value, and its codes
    are gathered from those keys' bins by each row's index.
    """
    cols = dict(table_items(table))
    n = len(next(iter(cols.values()))) if cols else 0
    codes = np.zeros((n, len(bin_maps)), dtype=np.int64)
    cont = [j for j, bm in enumerate(bin_maps) if bm.kind == "continuous"]
    block = np.empty((len(cont), n))
    filled = 0
    # A missing or unparsable column ends the parse, but an infinite value
    # in an earlier column is still the error raised.
    error = None
    for bm in bin_maps:
        if bm.feature not in cols:
            error = f"column {bm.feature!r} missing from table"
            break
        if bm.kind != "continuous":
            continue
        vals = cols[bm.feature]
        numeric = _parse_numeric(vals)
        if numeric is None:
            error = (
                f"column {bm.feature!r} is continuous but token "
                f"{_first_bad_token(vals)} does not parse as a number"
            )
            break
        block[filled] = numeric
        filled += 1
    inf = np.isinf(block[:filled])
    if inf.any():
        bad = bin_maps[cont[int(np.argmax(inf.any(axis=1)))]].feature
        raise DataError(f"column {bad!r} contains non-finite values")
    if error is not None:
        raise DataError(error)
    idx = np.empty(block.shape, dtype=np.int64)
    for r, j in enumerate(cont):
        # NaN sorts after every edge; the missing mask below resets it to 0.
        idx[r] = bin_maps[j].edge_array.searchsorted(block[r], side="left")
    idx += 1
    idx[np.isnan(block)] = 0
    codes[:, cont] = idx.T
    for j, bm in enumerate(bin_maps):
        if bm.kind != "continuous":
            keys, inv = _category_codes(cols[bm.feature])
            lookup = bm.category_bins
            bins = [0 if k is None else lookup.get(k, 0) for k in keys]
            codes[:, j] = bins if inv is None else np.array(bins)[inv]
    return BinnedMatrix(codes=codes, bin_maps=tuple(bin_maps))


# --- validation folds -------------------------------------------------------


def split_folds(
    n_samples: int, n_val_splits: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic (train_idx, val_idx) pairs with disjoint validation folds.

    Validation folds partition range(n_samples); their sizes differ by at
    most one. The same (n_samples, n_val_splits, seed) always yields the
    same folds.
    """
    if n_val_splits < 2:
        raise ConfigError(f"n_val_splits must be >= 2, got {n_val_splits}")
    if n_val_splits > n_samples:
        raise DataError(
            f"n_val_splits={n_val_splits} exceeds n_samples={n_samples}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_samples)
    parts = np.array_split(perm, n_val_splits)
    folds = []
    for i, part in enumerate(parts):
        val = np.sort(part)
        train = np.sort(np.concatenate([p for k, p in enumerate(parts) if k != i]))
        folds.append((train, val))
    return folds


# --- CSV --------------------------------------------------------------------


def read_csv(path) -> dict[str, list[str]]:
    """Read an RFC-4180 CSV into an ordered column dict of raw strings.

    The file is UTF-8; a leading byte-order mark is dropped, not read into
    the first column's name.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    seen = set()
    for name in header:
        if name in seen:
            raise DataError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    cols: dict[str, list[str]] = {name: [] for name in header}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
            )
        for name, cell in zip(header, row):
            cols[name].append(cell)
    return cols
