"""Tests for repro.dataframe.frame."""

import numpy as np
import pytest

from repro.dataframe import DataFrame, Series


@pytest.fixture
def df():
    return DataFrame(
        {
            "size": [100, 200, 300, 400],
            "runtime": [1.0, 2.0, 3.5, 4.0],
            "hardware": ["H0", "H1", "H0", "H1"],
        }
    )


class TestConstruction:
    def test_shape_and_columns(self, df):
        assert df.shape == (4, 3)
        assert df.columns == ["size", "runtime", "hardware"]

    def test_from_records(self):
        frame = DataFrame.from_records([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert frame.shape == (2, 2)

    def test_from_records_union_of_keys(self):
        frame = DataFrame.from_records([{"a": 1}, {"b": 2}])
        assert set(frame.columns) == {"a", "b"}

    def test_empty(self):
        frame = DataFrame({})
        assert frame.shape == (0, 0)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            DataFrame({"a": [1, 2], "b": [1]})

    def test_explicit_column_order(self):
        frame = DataFrame({"a": [1], "b": [2]}, columns=["b", "a"])
        assert frame.columns == ["b", "a"]

    def test_missing_column_in_data_rejected(self):
        with pytest.raises(KeyError):
            DataFrame({"a": [1]}, columns=["a", "z"])


class TestColumnAccess:
    def test_getitem_column(self, df):
        assert isinstance(df["size"], Series)
        assert df["size"].to_list() == [100, 200, 300, 400]

    def test_getitem_missing_column(self, df):
        with pytest.raises(KeyError, match="no column"):
            df["nope"]

    def test_getitem_list_selects(self, df):
        sub = df[["runtime", "size"]]
        assert sub.columns == ["runtime", "size"]

    def test_setitem_scalar_broadcasts(self, df):
        df["flag"] = 1
        assert df["flag"].to_list() == [1, 1, 1, 1]

    def test_setitem_length_mismatch(self, df):
        with pytest.raises(ValueError):
            df["bad"] = [1, 2]

    def test_setitem_series(self, df):
        df["double"] = df["runtime"] * 2
        assert df["double"].to_list() == [2.0, 4.0, 7.0, 8.0]

    def test_drop(self, df):
        out = df.drop("hardware")
        assert "hardware" not in out
        assert "hardware" in df  # original untouched

    def test_drop_missing(self, df):
        with pytest.raises(KeyError):
            df.drop("nope")

    def test_rename(self, df):
        out = df.rename({"size": "n"})
        assert "n" in out and "size" not in out

    def test_contains(self, df):
        assert "size" in df
        assert "nope" not in df


class TestRowAccess:
    def test_row(self, df):
        assert df.row(1) == {"size": 200, "runtime": 2.0, "hardware": "H1"}

    def test_row_negative_index(self, df):
        assert df.row(-1)["size"] == 400

    def test_row_out_of_range(self, df):
        with pytest.raises(IndexError):
            df.row(10)

    def test_iterrows(self, df):
        rows = list(df.iterrows())
        assert len(rows) == 4
        assert rows[0]["hardware"] == "H0"

    def test_iterrows_yields_the_row_dicts(self, df):
        for i, row in enumerate(df.iterrows()):
            reference = df.row(i)
            assert list(row) == list(reference)
            assert all(type(row[k]) is type(reference[k]) for k in row)
            assert row == reference

    def test_iterrows_empty(self):
        assert list(DataFrame({}).iterrows()) == []
        assert list(DataFrame({"a": []}).iterrows()) == []

    def test_head_tail(self, df):
        assert len(df.head(2)) == 2
        assert df.tail(1).row(0)["size"] == 400

    def test_take_reorders(self, df):
        out = df.take([2, 0])
        assert out["size"].to_list() == [300, 100]

    def test_filter_mask(self, df):
        out = df.filter(df["size"] > 150)
        assert len(out) == 3

    def test_filter_bad_mask_shape(self, df):
        with pytest.raises(ValueError):
            df.filter(np.array([True]))

    def test_getitem_boolean_mask(self, df):
        out = df[df["hardware"] == "H0"]
        assert len(out) == 2

    def test_sample_without_replacement(self, df):
        out = df.sample(3, np.random.default_rng(0))
        assert len(out) == 3

    def test_sample_too_many_raises(self, df):
        with pytest.raises(ValueError):
            df.sample(10, np.random.default_rng(0))

    def test_sample_with_replacement(self, df):
        out = df.sample(10, np.random.default_rng(0), replace=True)
        assert len(out) == 10

    def test_sort_values(self, df):
        out = df.sort_values("runtime", ascending=False)
        assert out["runtime"].to_list() == [4.0, 3.5, 2.0, 1.0]


class TestConversion:
    def test_to_dict(self, df):
        assert df.to_dict()["size"] == [100, 200, 300, 400]

    def test_to_records(self, df):
        assert df.to_records()[2]["runtime"] == 3.5

    def test_to_numpy_selected_columns(self, df):
        arr = df.to_numpy(["size", "runtime"])
        assert arr.shape == (4, 2)
        assert arr.dtype == float

    def test_to_numpy_empty_columns(self, df):
        assert df.to_numpy([]).shape == (4, 0)

    def test_copy_is_deep_for_values(self, df):
        cp = df.copy()
        cp["size"].values[0] = -1
        assert df["size"][0] == 100

    def test_describe(self, df):
        stats = df.describe()
        assert stats["size"]["count"] == 4
        assert "hardware" not in stats  # non-numeric skipped


class TestCombination:
    def test_assign(self, df):
        out = df.assign(cost=[1, 2, 3, 4])
        assert "cost" in out and "cost" not in df

    def test_append_rows(self, df):
        out = df.append_rows(df)
        assert len(out) == 8

    def test_append_rows_column_mismatch(self, df):
        other = DataFrame({"size": [1]})
        with pytest.raises(ValueError):
            df.append_rows(other)

    def test_apply_rows(self, df):
        s = df.apply_rows(lambda row: row["size"] / 100)
        assert s.to_list() == [1.0, 2.0, 3.0, 4.0]

    def test_groupby_returns_groups(self, df):
        gb = df.groupby("hardware")
        assert len(gb) == 2
