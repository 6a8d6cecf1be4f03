"""Generators, CSV loader, and stream preparation."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_load_csv
from hypothesis import given, settings
from hypothesis import strategies as st

import onlinevi.data as data_mod
from onlinevi.data import (
    CsvSchema,
    Dataset,
    StreamConfig,
    gen_iid_regression,
    gen_toy_classification,
    load_csv,
    prepare_stream,
)
from onlinevi.errors import DataError


class TestToyGenerator:
    def test_deterministic(self):
        a = gen_toy_classification(500, seed=3)
        b = gen_toy_classification(500, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_label_frequency_band(self):
        ds = gen_toy_classification(10 ** 4, seed=0)
        p_hat = float(np.mean(ds.targets > 0))
        band = 3.0 * np.sqrt((2.0 / 9.0) / 10 ** 4)   # 3 sigma of Be(2/3)
        assert abs(p_hat - 2.0 / 3.0) <= band

    def test_conditional_moments(self):
        ds = gen_toy_classification(10 ** 5, seed=1)
        pos = ds.features[ds.targets > 0]
        neg = ds.features[ds.targets < 0]
        np.testing.assert_allclose(pos.mean(axis=0), [1.0, 1.0], atol=0.03)
        np.testing.assert_allclose(neg.mean(axis=0), [-1.0, -1.0], atol=0.03)
        cov_pos = np.cov(pos.T)
        np.testing.assert_allclose(cov_pos, [[1.0, 1.0], [1.0, 3.0]], atol=0.05)
        np.testing.assert_allclose(np.cov(neg.T), np.eye(2), atol=0.05)

    def test_labels_are_pm1(self):
        ds = gen_toy_classification(100, seed=2)
        assert set(np.unique(ds.targets)) == {-1.0, 1.0}


class TestIidRegression:
    THETA = np.array([1.0, -0.5])

    def test_noiseless_exact(self):
        ds = gen_iid_regression(50, self.THETA, noise_sd=0.0, seed=0)
        np.testing.assert_allclose(ds.targets, ds.features @ self.THETA, atol=1e-15)

    def test_ols_recovery(self):
        ds = gen_iid_regression(10 ** 5, self.THETA, noise_sd=0.5, seed=1)
        fit, *_ = np.linalg.lstsq(ds.features, ds.targets, rcond=None)
        # per-coordinate 3 standard errors of the OLS estimator
        resid = ds.targets - ds.features @ fit
        sigma2 = resid @ resid / (ds.T - 2)
        cov = sigma2 * np.linalg.inv(ds.features.T @ ds.features)
        for j in range(2):
            assert abs(fit[j] - self.THETA[j]) <= 3.0 * np.sqrt(cov[j, j])

    def test_deterministic(self):
        a = gen_iid_regression(100, self.THETA, 0.3, seed=4)
        b = gen_iid_regression(100, self.THETA, 0.3, seed=4)
        np.testing.assert_array_equal(a.targets, b.targets)


class TestLoadCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_small_file_with_header(self, tmp_path):
        path = self._write(tmp_path, "a,b,label\n1.0,2.0,yes\n3.0,4.0,no\n")
        ds = load_csv(path, CsvSchema(label="label", positive_label="yes"))
        assert (ds.T, ds.d) == (2, 2)
        np.testing.assert_array_equal(ds.targets, [1.0, -1.0])
        np.testing.assert_allclose(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_headerless_by_index(self, tmp_path):
        path = self._write(tmp_path, "1.0,5.0\n2.0,7.0\n")
        ds = load_csv(path, CsvSchema(label=1, has_header=False))
        assert ds.task == "regression"
        np.testing.assert_allclose(ds.targets, [5.0, 7.0])

    def test_unparseable_cell_reports_position(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1.0,oops\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            load_csv(path, CsvSchema(label=0, has_header=True))

    def test_missing_value_is_error(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1.0,\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path, CsvSchema(label=0, has_header=True))

    @pytest.mark.parametrize("text, schema, message", [
        # the row is the file's line: blank lines count
        ("a,b,y\n1,2,3\n\n4,x,6\n", CsvSchema(label="y"),
         "data.csv: unparseable cell at row 4, column 2: 'x'"),
        ("\na,b,y\n\n1,2,3\n\n4,5\n", CsvSchema(label="y"),
         "data.csv: row 6 has 2 cells, expected 3"),
        # a named label past the rows' last cell
        ("a,b,y\n1,2\n", CsvSchema(label="y"), "data.csv: label column index 2 out of range"),
        ("a,b,y\n1,2,3\n4, ,6\n", CsvSchema(label="y"),
         "data.csv: missing value at row 3, column 2"),
        ("a,b,y\n1,2,3\n\n4,5,?\n", CsvSchema(label="y"),
         "data.csv: unparseable label at row 4, column 3: '?'"),
        # a classification label is never parsed, but must not be empty
        ("a,b,y\n1,2,yes\n4,oops,\n", CsvSchema(label="y", positive_label="yes"),
         "data.csv: unparseable cell at row 3, column 2: 'oops'"),
        ("a,b,y\n1,2,yes\n4,5,\n", CsvSchema(label="y", positive_label="yes"),
         "data.csv: missing value at row 3, column 3"),
        ("1,2,3\n\n4,5,x\n", CsvSchema(label=0, has_header=False),
         "data.csv: unparseable cell at row 3, column 3: 'x'"),
    ])
    def test_error_names_the_first_bad_cell_by_file_line(self, tmp_path, text, schema,
                                                         message):
        path = self._write(tmp_path, text)
        with pytest.raises(DataError) as err:
            load_csv(path, schema)
        assert str(err.value) == f"{tmp_path}/{message}"

    def test_values_are_the_floats_of_the_stripped_cells(self, tmp_path):
        cells = [[" 1.5", "-2e-3 ", "0.1", "yes"], ["1e308", " 7 ", "-0.0", "no"],
                 ["0.30000000000000004", "+3", "1_000", " yes "], ["5e-324", "-1e-320", "2.5E+2", "x"]]
        path = self._write(tmp_path, "".join(",".join(row) + "\n\n" for row in cells))
        ds = load_csv(path, CsvSchema(label=3, has_header=False, positive_label="yes"))
        expected = np.array([[float(cell.strip()) for cell in row[:3]] for row in cells])
        assert ds.features.tobytes() == expected.tobytes()
        assert ds.features.shape == (4, 3) and ds.features.flags.c_contiguous
        np.testing.assert_array_equal(ds.targets, [1.0, -1.0, 1.0, -1.0])

    def test_published_shape_audit_passes(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["f" + ",f".join(str(j) for j in range(30)) + ",diagnosis"]
        for i in range(569):
            label = "M" if i % 3 == 0 else "B"
            rows.append(",".join(f"{v:.3f}" for v in rng.normal(size=30)) + "," + label)
        path = self._write(tmp_path, "\n".join(rows) + "\n")
        ds = load_csv(path, CsvSchema(label="diagnosis", positive_label="M"),
                      name="breast-cancer")
        assert (ds.T, ds.d) == (569, 30)

    def test_published_shape_audit_fails_on_mismatch(self, tmp_path):
        path = self._write(tmp_path, "a,b,label\n1.0,2.0,yes\n")
        with pytest.raises(DataError, match="published"):
            load_csv(path, CsvSchema(label="label", positive_label="yes"),
                     name="Pima Indians")

    def test_alternative_delimiter(self, tmp_path):
        path = self._write(tmp_path, "a;b;y\n1.0;2.0;0.5\n")
        ds = load_csv(path, CsvSchema(label="y", delimiter=";"))
        assert ds.targets[0] == 0.5

    def test_clean_files_are_parsed_in_bulk(self, tmp_path, monkeypatch):
        # CRLF line ends, quoted and padded cells, blank lines and `;`: no row loop
        def refused(*args):
            raise AssertionError("the row loop ran")

        monkeypatch.setattr(data_mod, "_row_table", refused)
        text = '\r\na;"b";y\r\n"1.5" ; 2e-3\t;yes\r\n\r\n\xa0-7;"0.1";no\r\n'
        ds = load_csv(self._write(tmp_path, text),
                      CsvSchema(label="y", positive_label="yes", delimiter=";"))
        assert ds.features.tobytes() == np.array([[1.5, 2e-3], [-7.0, 0.1]]).tobytes()
        np.testing.assert_array_equal(ds.targets, [1.0, -1.0])

    def test_spellings_only_float_reads_go_through_the_row_loop(self, tmp_path, monkeypatch):
        calls = []
        rows = data_mod._row_table

        def counting(*args):
            calls.append(1)
            return rows(*args)

        monkeypatch.setattr(data_mod, "_row_table", counting)
        ds = load_csv(self._write(tmp_path, "a,y\n1_0,2\n3,4\n"), CsvSchema(label="y"))
        assert calls == [1]
        np.testing.assert_array_equal(ds.features, [[10.0], [3.0]])


# ---------------------------------------------------------------------------
# property: the bulk parse gives the row loop's bits or its error

_PAD = st.sampled_from(["", "", "", " ", "\t", "\xa0", "  "])
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10 ** 6, 10 ** 6).map(str))
#: spellings that only float() reads, that neither reader reads, and that
#: read as values no dataset takes
_ODD = st.sampled_from(["1_0", "nan", "-nan", "inf", "-inf", "Infinity", "+INF", "1e400",
                        "5e-324", ".5", "5.", "", "x", "1.5.2", "#3", "1 2"])
_LABEL = st.sampled_from(["yes", "no", " yes", "YES", "1"])
_ODD_LABEL = st.sampled_from(["", "y es", '"yes'])


@st.composite
def _cell(draw, text, padded_quote=False):
    """A cell: the text with padding around it, or quoted with padding
    inside and after (before the quote, as ``padded_quote`` allows, the
    padding keeps the quote in the cell's text)."""
    value = draw(_PAD) + draw(text) + draw(_PAD)
    if draw(st.integers(0, 3)) == 0:
        value = ('' if not padded_quote else draw(_PAD)) + f'"{value}"' + draw(_PAD)
    return value


@st.composite
def _csv_case(draw):
    """A CSV text and a schema over it: a clean file, or one with a few
    faults (odd cells, short or long rows, trailing delimiters,
    whitespace-only lines, a label out of range)."""
    faults = draw(st.integers(0, 2))  # each fault's odds are 1 in 20 / faults
    fault = lambda: faults > 0 and draw(st.integers(1, 20)) <= faults
    delimiter = draw(st.sampled_from([",", ",", ";"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    width = draw(st.integers(1, 4))
    has_header = draw(st.booleans())
    label = draw(st.sampled_from([-1, width])) if fault() else draw(st.integers(0, width - 1))
    positive = draw(st.sampled_from([None, None, "yes"]))
    lines = [delimiter.join(f"c{j}" for j in range(width))] if has_header else []
    for _ in range(draw(st.integers(0 if fault() else 1, 6))):
        cells = draw(st.sampled_from([width - 1, width + 1])) if fault() else width
        row = []
        for j in range(cells):
            if j == label and positive:
                text = _ODD_LABEL if fault() else _LABEL
            else:
                text = _ODD if fault() else _FINITE
            row.append(draw(_cell(text, padded_quote=fault())))
        lines.append(delimiter.join(row) + (delimiter if fault() else ""))
        if draw(st.integers(0, 4)) == 0:
            lines.append(" " if fault() else "")  # a whitespace-only or blank line
    text = newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))
    if has_header and draw(st.booleans()):
        label = f"c{label}"
    schema = CsvSchema(label=label, positive_label=positive, delimiter=delimiter,
                       has_header=has_header)
    return text, schema


def _outcome(load, path, schema):
    try:
        ds = load(path, schema)
    except DataError as err:
        return "error", str(err)
    return (ds.features.shape, ds.features.view(np.uint64).tobytes(),
            ds.targets.view(np.uint64).tobytes(), ds.task)


class TestLoadCsvProperty:
    """``load_csv`` gives the bits of the cell-by-cell loop
    (``reference_load_csv``) on every file that loop reads, and its error
    message on every file it rejects."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_csv_case())
    def test_same_bits_or_same_error_as_the_row_loop(self, case):
        text, schema = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            assert _outcome(load_csv, path, schema) == _outcome(reference_load_csv, path,
                                                                schema)


class TestPrepareStream:
    def _dataset(self, n=50):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(n, 3))
        feats[:, 2] = 7.0  # constant feature for the zero-variance branch
        targets = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        return Dataset(feats, targets, "classification", "unit-test")

    def test_identity(self):
        ds = self._dataset()
        out = prepare_stream(ds, StreamConfig(permute=False, standardize=False))
        np.testing.assert_array_equal(out.features, ds.features)
        np.testing.assert_array_equal(out.targets, ds.targets)

    def test_standardization_moments(self):
        out = prepare_stream(self._dataset(200),
                             StreamConfig(permute=False, standardize=True))
        means = out.features.mean(axis=0)
        sds = out.features.std(axis=0)
        assert np.max(np.abs(means)) <= 1e-10
        np.testing.assert_allclose(sds[:2], 1.0, atol=1e-10)
        assert sds[2] == 0.0  # constant feature centered only

    def test_permutation_is_bijection(self):
        ds = self._dataset(100)
        out = prepare_stream(ds, StreamConfig(seed=7, permute=True))
        key = lambda arr: sorted(map(tuple, arr))
        assert key(out.features) == key(ds.features)
        assert sorted(out.targets) == sorted(ds.targets)
        assert not np.array_equal(out.features, ds.features)

    def test_subsample_after_permutation(self):
        ds = self._dataset(100)
        out = prepare_stream(ds, StreamConfig(seed=7, permute=True, subsample=10))
        full = prepare_stream(ds, StreamConfig(seed=7, permute=True))
        np.testing.assert_array_equal(out.features, full.features[:10])
        assert out.T == 10

    def test_shape_and_labels_preserved(self):
        ds = self._dataset(60)
        out = prepare_stream(ds, StreamConfig(seed=1, permute=True, standardize=True))
        assert (out.T, out.d) == (ds.T, ds.d)
        assert set(np.unique(out.targets)) <= {-1.0, 1.0}

    def test_deterministic(self):
        ds = self._dataset(80)
        a = prepare_stream(ds, StreamConfig(seed=9, permute=True))
        b = prepare_stream(ds, StreamConfig(seed=9, permute=True))
        np.testing.assert_array_equal(a.features, b.features)


class TestDatasetValidation:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            Dataset(np.array([[np.nan]]), np.array([1.0]), "regression", "bad")

    def test_rejects_nonbinary_classification(self):
        with pytest.raises(DataError):
            Dataset(np.ones((2, 1)), np.array([1.0, 0.5]), "classification", "bad")
