"""Schema inference, quantile binning, transforms, folds, and CSV reading."""

import math
import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namlite.data import (
    MISSING_TOKENS,
    BinMap,
    BinnedMatrix,
    FeatureSchema,
    _category_keys,
    _continuous_edges,
    _first_bad_token,
    _parse_numeric,
    apply_schema_override,
    default_min_samples_per_bin,
    fit_bins,
    infer_schema,
    read_csv,
    split_folds,
    transform,
)
from namlite.errors import ConfigError, DataError

from oracles import continuous_edges_loop


def _quantile_oracle(sorted_x, q):
    """Linear interpolation between order statistics at position q*(n-1)."""
    pos = q * (len(sorted_x) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return sorted_x[lo] + frac * (sorted_x[hi] - sorted_x[lo])


# --- schema inference -------------------------------------------------------


class TestInferSchema:
    def test_two_string_values_binary(self):
        schema = infer_schema({"sex": ["F", "F", "M"]})
        assert schema == [FeatureSchema("sex", "binary")]

    def test_numeric_continuous(self):
        schema = infer_schema({"age": [74.0, 23.0, 20.0]})
        assert schema == [FeatureSchema("age", "continuous")]

    def test_two_numeric_values_binary(self):
        schema = infer_schema({"flag": [0, 1, 1, 0]})
        assert schema == [FeatureSchema("flag", "binary")]

    def test_many_strings_categorical(self):
        schema = infer_schema({"city": ["a", "b", "c", "a"]})
        assert schema == [FeatureSchema("city", "categorical")]

    def test_all_missing_column_raises(self):
        with pytest.raises(DataError):
            infer_schema({"x": ["", "na", None]})

    def test_missing_tokens_ignored_for_kind(self):
        schema = infer_schema({"x": ["1.5", "NA", "2.5", ""]})
        assert schema[0].kind == "binary"

    def test_pure_function_of_value_multiset(self):
        vals = [3.0, 1.0, 2.0, 1.0, None]
        a = infer_schema({"x": vals})
        b = infer_schema({"x": list(reversed(vals))})
        assert a == b

    def test_int_too_large_for_float_raises(self):
        with pytest.raises(DataError, match=r"value 1000.*0000 in row 0 is too large"):
            infer_schema({"x": [10**400, 1.0, 2.0]})
        # Past Python's digit limit the value cannot be printed, only described.
        with pytest.raises(DataError, match=r"<int too long to print> in row 1"):
            infer_schema({"x": [1.0, 10**5000, 2.0]})

    def test_override_replaces_kind(self):
        schema = infer_schema({"flag": [0, 1, 1]})
        out = apply_schema_override(schema, {"flag": "categorical"})
        assert out[0].kind == "categorical"

    def test_override_unknown_column_raises(self):
        with pytest.raises(ConfigError):
            apply_schema_override([FeatureSchema("a", "binary")], {"b": "binary"})

    def test_override_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            apply_schema_override([FeatureSchema("a", "binary")], {"a": "ordinal"})


# --- binning ----------------------------------------------------------------


class TestFitBins:
    def test_uniform_1_to_100_quantile_edges(self):
        """max_bins=4 on 1..100 puts edges at the interpolated quartiles."""
        x = list(range(1, 101))
        bm = fit_bins({"x": x}, [FeatureSchema("x", "continuous")], max_bins=4, min_samples_per_bin=1)[0]
        expected = tuple(_quantile_oracle(sorted(x), q) for q in (0.25, 0.5, 0.75))
        assert expected == (25.75, 50.5, 75.25)
        np.testing.assert_allclose(bm.edges, expected)
        assert bm.n_bins == 4
        assert bm.total_bins == 5

    def test_categorical_one_bin_per_value(self):
        bm = fit_bins({"c": ["A", "B", "C", "A"]}, [FeatureSchema("c", "categorical")])[0]
        assert bm.categories == ("A", "B", "C")
        assert bm.n_bins == 3
        assert bm.total_bins == 4

    def test_constant_column_single_bin(self):
        bm = fit_bins({"x": [5.0] * 40}, [FeatureSchema("x", "continuous")], min_samples_per_bin=1)[0]
        assert bm.edges == ()
        assert bm.n_bins == 1

    def test_underfilled_bin_merges_right(self):
        """A lone middle value cannot hold a bin of its own at min=5."""
        x = [1.0] * 10 + [2.0] + [3.0] * 10
        bm = fit_bins(
            {"x": x}, [FeatureSchema("x", "continuous")], max_bins=3, min_samples_per_bin=5
        )[0]
        assert bm.edges == (1.0,)
        codes = transform({"x": x}, [bm]).codes[:, 0]
        counts = np.bincount(codes, minlength=bm.total_bins)
        assert counts[0] == 0
        assert np.all(counts[1:] >= 5)

    def test_binary_declared_but_three_values_raises(self):
        with pytest.raises(DataError):
            fit_bins({"x": ["a", "b", "c"]}, [FeatureSchema("x", "binary")])

    def test_continuous_with_bad_token_raises(self):
        """The first cell that does not parse is named, whatever its type."""
        bm = BinMap("x", "continuous", edges=(1.0,))
        for values, token in ((["1.0", " oops ", "2.0"], "'oops'"),
                              ([1.0, {}, 2.0], "{}"),
                              ([[1.0], [2.0]], "[1.0]")):
            for run in (lambda: fit_bins({"x": values}, [FeatureSchema("x", "continuous")]),
                        lambda: transform({"x": values}, [bm])):
                with pytest.raises(DataError, match=f"token {re.escape(token)} does not parse"):
                    run()

    @pytest.mark.parametrize("kind", ["continuous", "categorical"])
    def test_int_too_large_for_float_raises(self, kind):
        with pytest.raises(DataError, match="in row 0 is too large for a float"):
            fit_bins({"x": [10**400, 1.0]}, [FeatureSchema("x", kind)])

    def test_too_few_nonmissing_raises(self):
        with pytest.raises(DataError):
            fit_bins(
                {"x": [1.0, None, None, None]},
                [FeatureSchema("x", "continuous")],
                min_samples_per_bin=2,
            )

    def test_max_bins_below_two_raises(self):
        with pytest.raises(ConfigError):
            fit_bins({"x": [1.0, 2.0]}, [FeatureSchema("x", "continuous")], max_bins=1)

    def test_default_min_samples_per_bin(self):
        assert default_min_samples_per_bin(100) == 1
        assert default_min_samples_per_bin(200) == 2
        assert default_min_samples_per_bin(10_000) == 50
        assert default_min_samples_per_bin(1_000_000) == 50

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(-50, 50), min_size=20, max_size=200),
        st.integers(2, 8),
    )
    def test_min_count_floor_holds(self, values, max_bins):
        """Every non-missing bin keeps at least min_samples_per_bin rows."""
        floor = 3
        bm = fit_bins(
            {"x": values},
            [FeatureSchema("x", "continuous")],
            max_bins=max_bins,
            min_samples_per_bin=floor,
        )[0]
        codes = transform({"x": values}, [bm]).codes[:, 0]
        counts = np.bincount(codes, minlength=bm.total_bins)
        assert np.all(counts[1:] >= floor)

    @pytest.mark.parametrize("kind", ["uniform", "few_values", "point_mass", "rounded"])
    def test_edges_match_the_one_edge_per_pass_merge(self, kind):
        """The counted merge gives the loop's edges, ties and empty bins included."""
        rng = np.random.default_rng(["uniform", "few_values", "point_mass", "rounded"].index(kind))
        for _ in range(150):
            n = int(rng.integers(1, 400))
            x = {
                "uniform": lambda: rng.uniform(size=n),
                "few_values": lambda: rng.integers(0, rng.integers(1, 8), size=n).astype(float),
                "point_mass": lambda: np.where(rng.random(n) < 0.7, 0.0, rng.normal(size=n)),
                "rounded": lambda: np.round(rng.exponential(size=n), 1),
            }[kind]()
            max_bins, floor = int(rng.integers(2, 200)), int(rng.integers(0, 40))
            want = continuous_edges_loop(x, max_bins, floor)
            assert _continuous_edges(x, max_bins, floor) == want

    def test_huge_max_bins_on_few_rows_is_quick(self):
        """One count, then merges over at most as many bins as rows: the
        one-edge-per-pass loop ran for minutes on this column."""
        def too_slow(signum, frame):
            raise TimeoutError("fit_bins ran for more than 60 s")

        x = np.random.default_rng(3).uniform(size=120)
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(60)
        try:
            bm = fit_bins({"x": x}, [FeatureSchema("x", "continuous")], max_bins=1_000_000)[0]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        codes = transform({"x": x}, [bm]).codes[:, 0]
        assert np.bincount(codes)[1:].min() >= default_min_samples_per_bin(120)


# --- transform ---------------------------------------------------------------


class TestTransform:
    def setup_method(self):
        self.bm = BinMap("x", "continuous", edges=(1.0, 2.0, 3.0))
        self.cat = BinMap("c", "categorical", categories=("A", "B", "C"))

    def test_missing_maps_to_zero(self):
        codes = transform({"x": [None, "", "nan", 1.5]}, [self.bm]).codes[:, 0]
        np.testing.assert_array_equal(codes, [0, 0, 0, 2])

    def test_below_first_edge_maps_to_one(self):
        codes = transform({"x": [0.25]}, [self.bm]).codes[:, 0]
        assert codes[0] == 1

    def test_edge_value_goes_left(self):
        """v equal to an edge lands in the bin that ends at that edge."""
        codes = transform({"x": [1.0, 2.0, 3.0, 3.5]}, [self.bm]).codes[:, 0]
        np.testing.assert_array_equal(codes, [1, 2, 3, 4])

    def test_unseen_category_maps_to_missing(self):
        codes = transform({"c": ["A", "Z", "C", None]}, [self.cat]).codes[:, 0]
        np.testing.assert_array_equal(codes, [1, 0, 3, 0])

    def test_column_absent_raises(self):
        with pytest.raises(DataError):
            transform({"y": [1.0]}, [self.bm])

    def test_int_too_large_for_float_raises(self):
        with pytest.raises(DataError, match="in row 0 is too large for a float"):
            transform({"x": [10**400, 1.0]}, [self.bm])

    def test_codes_within_index_space(self):
        codes = transform({"x": [-99.0, 99.0, None]}, [self.bm]).codes
        assert codes.min() >= 0
        assert codes.max() <= self.bm.n_bins

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=50))
    def test_monotone_in_value(self, values):
        """v1 <= v2 implies code(v1) <= code(v2) for non-missing values."""
        order = sorted(values)
        codes = transform({"x": order}, [self.bm]).codes[:, 0]
        assert np.all(np.diff(codes) >= 0)

    def test_labels(self):
        assert self.bm.label(0) == "missing"
        assert self.bm.label(1) == "(-inf, 1]"
        assert self.bm.label(2) == "(1, 2]"
        assert self.bm.label(4) == "(3, inf)"
        assert self.cat.label(2) == "B"

    def test_binmap_dict_round_trip(self):
        for bm in (self.bm, self.cat):
            assert BinMap.from_dict(bm.to_dict()) == bm


def _transform_per_column(table, bin_maps):
    """Oracle: the column-at-a-time transform, each column copied to a list."""
    cols = {str(name): list(vals) for name, vals in table.items()}
    lengths = {len(v) for v in cols.values()}
    n = lengths.pop() if lengths else 0
    codes = np.zeros((n, len(bin_maps)), dtype=np.int64)
    for j, bm in enumerate(bin_maps):
        if bm.feature not in cols:
            raise DataError(f"column {bm.feature!r} missing from table")
        vals = cols[bm.feature]
        if bm.kind == "continuous":
            numeric = _parse_numeric(vals)
            if numeric is None:
                raise DataError(
                    f"column {bm.feature!r} is continuous but token "
                    f"{_first_bad_token(vals)} does not parse as a number"
                )
            if np.any(np.isinf(numeric)):
                raise DataError(f"column {bm.feature!r} contains non-finite values")
            miss = np.isnan(numeric)
            edges = np.asarray(bm.edges, dtype=np.float64)
            idx = 1 + np.searchsorted(edges, np.where(miss, 0.0, numeric), side="left")
            codes[:, j] = np.where(miss, 0, idx)
        else:
            lookup = {c: i + 1 for i, c in enumerate(bm.categories)}
            keys = _category_keys(vals, _parse_numeric(vals))
            codes[:, j] = [0 if k is None else lookup.get(k, 0) for k in keys]
    return BinnedMatrix(codes=codes, bin_maps=tuple(bin_maps))


def _kind_per_row(vals) -> str:
    """Oracle: infer_schema's kind for one column, keyed row by row."""
    vals = list(vals)
    numeric = _parse_numeric(vals)
    if numeric is not None:
        nonmiss = numeric[~np.isnan(numeric)]
        if nonmiss.size == 0:
            raise DataError("no non-missing values")
        return "binary" if np.unique(nonmiss).size == 2 else "continuous"
    keys = {k for k in _category_keys(vals, None) if k is not None}
    if not keys:
        raise DataError("no non-missing values")
    return "binary" if len(keys) == 2 else "categorical"


def _categories_per_row(vals) -> tuple:
    """Oracle: fit_bins' categories for one column, keyed row by row."""
    vals = list(vals)
    keys = {k for k in _category_keys(vals, _parse_numeric(vals)) if k is not None}
    if not keys:
        raise DataError("no non-missing values")
    return tuple(sorted(keys))


def _outcome(fn, *args):
    """What fn returns, or its DataError's text."""
    try:
        return fn(*args)
    except DataError as e:
        return f"DataError: {e}"


def _check_against_row_keys(vals) -> None:
    """infer_schema's kind and fit_bins' categories match the row-keyed oracles."""
    kind = _outcome(lambda: infer_schema({"v": vals})[0].kind)
    want = _outcome(_kind_per_row, vals)
    assert kind.startswith("DataError") if want.startswith("DataError") else kind == want
    cats = _outcome(lambda: fit_bins({"v": vals}, [FeatureSchema("v", "categorical")])[0]
                    .categories)
    want = _outcome(_categories_per_row, vals)
    assert cats.startswith("DataError") if isinstance(want, str) else cats == want


_CELLS = st.one_of(
    st.sampled_from([1, 1.0, True, False, 0, 0.0, -0.0, "1", "1.0", " 1 ", "-0", "x", "NA",
                     "", " ", None, float("nan"), float("inf"), [1]]),
    st.text(alphabet="ab01. ", max_size=3),
    st.integers(-2, 2),
    st.floats(-2, 2, width=16),
)
_COLUMNS = st.one_of(
    st.lists(_CELLS, max_size=40),
    st.lists(st.one_of(st.none(), st.sampled_from(["a", " a", "0", "-0", "0.0", "1", "NA"]),
                       st.text(alphabet="ab01. ", max_size=3)), max_size=40),
    st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, float("nan")]), max_size=40).map(np.array),
)


@settings(deadline=None, max_examples=200)
@given(_COLUMNS)
def test_distinct_keys_match_row_keys(vals):
    """Random mixed-type columns, as drawn and repeated to 16 rows or more: codes,
    kinds and categories match the row-keyed oracles."""
    maps = [BinMap("v", "categorical", categories=("-0.0", "0.0", "1", "1.0", "True", "a"))]
    reps = -(-16 // max(len(vals), 1))
    for col in (vals, np.tile(vals, reps) if isinstance(vals, np.ndarray) else vals * reps):
        got = _outcome(lambda: transform({"v": col}, maps).codes.tolist())
        assert got == _outcome(lambda: _transform_per_column({"v": col}, maps).codes.tolist())
        _check_against_row_keys(col)


def _error_text(fn, *args) -> str:
    with pytest.raises(DataError) as info:
        fn(*args)
    return str(info.value)


class TestTransformOracle:
    """The block transform gives the per-column oracle's codes and errors."""

    MAPS = [
        BinMap("a", "continuous", edges=(-1.0, 0.0, 0.5, 2.0)),
        BinMap("color", "categorical", categories=("blue", "green", "red")),
        BinMap("b", "continuous", edges=(10.0,)),
        BinMap("grade", "categorical", categories=("1.0", "2.0", "3.5")),
        BinMap("flag", "binary", categories=("no", "yes")),
        BinMap("c", "continuous", edges=(0.0, 1.0, 2.0, 3.0, 4.0)),
        BinMap("kind", "categorical", categories=("-0.0", "0.0", "1", "1.0", "True", "x")),
    ]

    # Cells of one non-numeric list: 1, 1.0 and True are one dict key but
    # three categories, and [1] cannot be a dict key at all.
    MIXED = (1, 1.0, True, "1", "x", " x ", -0.0, 0.0, float("nan"), None, "NA", " ", [1])

    def _tables(self, n: int, seed: int) -> list[dict]:
        """One table in several column representations, missing values included."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n)
        b = rng.uniform(5.0, 15.0, n)
        c = rng.uniform(-1.0, 5.0, n).round(0)  # hits the edges exactly
        a[rng.uniform(size=n) < 0.2] = np.nan
        b_tok = [str(v) for v in b]
        for i in np.flatnonzero(rng.uniform(size=n) < 0.3):
            b_tok[i] = rng.choice(sorted(MISSING_TOKENS) + [" NA ", "NaN"])
        color = rng.choice(["red", "green", "blue", "pink", "", " red "], n).tolist()
        grade = rng.choice([1.0, 2.0, 3.5, 4.0, np.nan], n)
        flag = rng.choice(["yes", "no", "null"], n).tolist()
        color_none = [None if i % 4 == 0 else v for i, v in enumerate(color)]
        mixed = [self.MIXED[i] for i in rng.integers(len(self.MIXED), size=n)]
        mixed_obj = np.empty(n, dtype=object)
        for i, v in enumerate(mixed):
            mixed_obj[i] = v
        zeros = rng.choice([0.0, -0.0, 1.0, np.nan], n)
        zero_tok = rng.choice(["0", "-0", " -0.0 ", "1", "1.0", "NA", " ", "nan"], n).tolist()
        return [
            {"a": a.tolist(), "color": color, "b": b_tok, "grade": grade.tolist(),
             "flag": flag, "c": c.tolist(), "kind": mixed},
            {"a": a, "color": np.array(color), "b": np.array(b_tok), "grade": grade,
             "flag": np.array(flag), "c": c, "kind": zeros},
            {"a": np.array(a, dtype=object), "color": np.array(color_none, dtype=object),
             "b": np.array(b_tok, dtype=object), "grade": np.array(grade, dtype=object),
             "flag": np.array(flag, dtype=object), "c": c.astype(np.int64), "kind": mixed_obj},
            {"a": [None if math.isnan(v) else v for v in a], "color": color_none,
             "b": b.astype(np.float32), "grade": [str(v) for v in grade],
             "flag": tuple(flag), "c": [int(v) for v in c], "kind": zeros.tolist()},
            {"a": a, "color": color_none, "b": b_tok, "grade": grade.astype(np.float32),
             "flag": (np.array(flag) == "yes").tolist(), "c": c.astype(np.int32),
             "kind": zero_tok},
        ]

    @pytest.mark.parametrize("n", [0, 1, 7, 15, 16, 500])
    def test_codes_match_oracle(self, n):
        for seed in range(3):
            for table in self._tables(n, seed):
                got = transform(table, self.MAPS)
                want = _transform_per_column(table, self.MAPS)
                assert got.codes.dtype == np.int64
                assert got.codes.shape == (n, len(self.MAPS))
                np.testing.assert_array_equal(got.codes, want.codes)
                assert got.bin_maps == want.bin_maps

    def test_rows_match_their_batch(self):
        table = self._tables(40, 5)[1]
        batch = transform(table, self.MAPS).codes
        for i in range(40):
            row = {k: v[i : i + 1] for k, v in table.items()}
            np.testing.assert_array_equal(transform(row, self.MAPS).codes[0], batch[i])

    def test_numeric_categories_and_unseen(self):
        maps = self.MAPS[:6]
        table = {"a": [0.1] * 4, "color": ["red", "pink", None, "blue"], "b": [1.0] * 4,
                 "grade": [2, 3.5, 4, None], "flag": ["yes", "maybe", "no", "NA"],
                 "c": [1.0] * 4}
        codes = transform(table, maps).codes
        np.testing.assert_array_equal(codes[:, 1], [3, 0, 0, 1])
        np.testing.assert_array_equal(codes[:, 3], [2, 3, 0, 0])
        np.testing.assert_array_equal(codes[:, 4], [2, 0, 1, 0])
        np.testing.assert_array_equal(codes, _transform_per_column(table, maps).codes)

    @pytest.mark.parametrize("kind, want", [
        ([1, 1.0, True, "1"], [4, 4, 4, 4]),
        ([1, 1.0, True, "x"], [3, 4, 5, 6]),
        (np.array([0.0, -0.0, np.nan, 1.0]), [2, 1, 0, 4]),
        ([-0.0, 0.0, float("nan"), None], [1, 2, 0, 0]),
        (["-0", " 0 ", "NA", "1"], [1, 2, 0, 4]),
        ([[1], " x ", " ", "None"], [0, 6, 0, 0]),
        ([[1], [1.0], [2], [1]], [0, 0, 0, 0]),
    ])
    @pytest.mark.parametrize("repeat", [1, 5])
    def test_mixed_categories_and_unseen(self, kind, want, repeat):
        """Expected codes, at four rows and at twenty (past the distinct-pass minimum)."""
        table = {"a": [0.1] * 4, "color": ["red", "pink", None, "blue"], "b": [1.0] * 4,
                 "grade": [2, 3.5, 4, None], "flag": ["yes", "maybe", "no", "NA"],
                 "c": [1.0] * 4, "kind": kind}
        table = {k: v * repeat if isinstance(v, list) else np.tile(v, repeat)
                 for k, v in table.items()}
        codes = transform(table, self.MAPS).codes
        np.testing.assert_array_equal(codes[:, 1], [3, 0, 0, 1] * repeat)
        np.testing.assert_array_equal(codes[:, 3], [2, 3, 0, 0] * repeat)
        np.testing.assert_array_equal(codes[:, 4], [2, 0, 1, 0] * repeat)
        np.testing.assert_array_equal(codes[:, 6], want * repeat)
        np.testing.assert_array_equal(codes, _transform_per_column(table, self.MAPS).codes)

    @pytest.mark.parametrize("n", [1, 7, 16, 500])
    def test_kinds_and_categories_match_row_keys(self, n):
        """infer_schema and fit_bins agree with keys made row by row."""
        for seed in range(3):
            for table in self._tables(n, seed):
                for name, vals in table.items():
                    if name not in ("a", "b", "c"):
                        _check_against_row_keys(vals)

    def test_input_columns_are_not_changed(self):
        table = self._tables(30, 1)[1]
        before = {k: v.copy() for k, v in table.items()}
        transform(table, self.MAPS)
        for k, v in table.items():
            np.testing.assert_array_equal(v, before[k])

    @pytest.mark.parametrize("edit, column", [
        ({"b": ["1.0", "bad", "2.0"]}, "b"),
        ({"b": [1.0, np.inf, 2.0]}, "b"),
        ({"b": [1.0, -np.inf, 2.0]}, "b"),
        ({"b": ["1.0", "-inf", None]}, "b"),
        ({"a": [1.0, 2.0, np.inf], "b": ["1.0", "bad", "2.0"]}, "a"),
        ({"b": [np.inf, 1.0, 1.0], "c": ["x", "1", "2"]}, "b"),
        ({"b": ["bad", 1.0, 1.0], "c": [np.inf, 1.0, 1.0]}, "b"),
        ({"c": [1.0, 2.0, np.inf]}, "c"),
        ({"b": None}, "b"),
        ({"grade": None, "c": [np.inf, 1.0, 1.0]}, "grade"),
        ({"c": None, "b": [np.inf, 1.0, 1.0]}, "b"),
        ({"b": [[1.0], [2.0], [1.0]]}, "b"),
    ])
    def test_errors_match_oracle(self, edit, column):
        """The first offending column in map order is the one named."""
        table = {"a": [0.0, 1.0, None], "color": ["red"] * 3, "b": [11.0, 9.0, 10.0],
                 "grade": [1.0, 2.0, 3.5], "flag": ["yes", "no", "yes"],
                 "c": [0.0, 1.5, 4.5], "kind": ["x", 1, None]}
        for k, v in edit.items():
            if v is None:
                del table[k]
            else:
                table[k] = v
        for cast in (list, np.asarray):
            t = {k: cast(v) if k in edit else v for k, v in table.items()}
            got = _error_text(transform, t, self.MAPS)
            assert got == _error_text(_transform_per_column, t, self.MAPS)
            assert got.startswith(f"column {column!r} ")

    def test_binmap_caches_are_not_fields(self):
        bm = BinMap("x", "continuous", edges=(1.0, 2.0))
        before = bm.to_dict()
        np.testing.assert_array_equal(bm.edge_array, [1.0, 2.0])
        assert not bm.edge_array.flags.writeable
        assert bm.edge_array is bm.edge_array
        cat = BinMap("c", "categorical", categories=("A", "B"))
        assert cat.category_bins == {"A": 1, "B": 2}
        assert bm.to_dict() == before
        assert bm == BinMap("x", "continuous", edges=(1.0, 2.0))
        assert hash(bm) == hash(BinMap("x", "continuous", edges=(1.0, 2.0)))


# --- folds --------------------------------------------------------------------


class TestSplitFolds:
    def test_partition_properties(self):
        folds = split_folds(10, 5, seed=7)
        assert len(folds) == 5
        vals = [set(v.tolist()) for _, v in folds]
        assert all(len(v) == 2 for v in vals)
        assert set().union(*vals) == set(range(10))
        for i in range(5):
            for k in range(i + 1, 5):
                assert not (vals[i] & vals[k])

    def test_train_is_complement(self):
        for train, val in split_folds(23, 4, seed=0):
            assert set(train.tolist()) | set(val.tolist()) == set(range(23))
            assert not (set(train.tolist()) & set(val.tolist()))

    def test_deterministic(self):
        a = split_folds(50, 3, seed=11)
        b = split_folds(50, 3, seed=11)
        for (ta, va), (tb, vb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(va, vb)

    def test_leave_one_out_edge(self):
        folds = split_folds(5, 5, seed=1)
        assert all(v.size == 1 for _, v in folds)

    def test_errors(self):
        with pytest.raises(ConfigError):
            split_folds(10, 1, seed=0)
        with pytest.raises(DataError):
            split_folds(3, 5, seed=0)


# --- CSV -----------------------------------------------------------------------


class TestReadCsv:
    def test_round_trip_with_quoting(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('a,b\n1,"x,y"\n2,z\n')
        cols = read_csv(path)
        assert cols == {"a": ["1", "2"], "b": ["x,y", "z"]}

    def test_duplicate_column_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(DataError):
            read_csv(path)

    def test_ragged_row_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(DataError):
            read_csv(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_csv(path)

    def test_leading_bom_is_dropped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbftarget,x\n1,2\n")
        assert read_csv(path) == {"target": ["1"], "x": ["2"]}

    def test_undecodable_bytes_raise_data_error_naming_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,b\n1,café\n".encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv: not UTF-8"):
            read_csv(path)
