"""Synthetic generators, CSV ingestion, seeded permutation, standardization.

All randomness flows through the counter-based generator in ``rng`` so
datasets and stream orders are bit-identical across reruns.
"""

from __future__ import annotations

import copy
import csv
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .losses import DataExample
from .rng import CounterRng

CLASSIFICATION = "classification"
REGRESSION = "regression"

#: Published (rows, features) per dataset; loads are audited against this
#: table when the dataset name matches (normalized to lowercase words).
KNOWN_SHAPES = {
    "toy classification": (10000, 2),
    "breast cancer": (569, 30),
    "pima indians": (768, 8),
    "cover type": (581012, 54),
    "boston housing": (506, 13),
    "california housing": (20640, 9),
}

#: Desk-scale default cap for the one oversized dataset (Cover Type).
DEFAULT_SUBSAMPLE_CAP = 50000


def _normalize_name(name: str) -> str:
    return " ".join(name.lower().replace("-", " ").replace("_", " ").split())


@dataclass(frozen=True, eq=False)
class Dataset:
    features: np.ndarray  # (T, d)
    targets: np.ndarray   # (T,)
    task: str
    name: str
    note: str = ""

    def __post_init__(self):
        self._keep(np.array(self.features, dtype=float),
                   np.array(self.targets, dtype=float).reshape(-1))

    @classmethod
    def _owning(cls, features: np.ndarray, targets: np.ndarray, task: str, name: str,
                note: str = "") -> "Dataset":
        """A dataset that keeps ``features`` and ``targets``, float64 arrays
        that nothing else holds, after checking them, without a copy."""
        ds = object.__new__(cls)
        for key, value in (("task", task), ("name", name), ("note", note)):
            object.__setattr__(ds, key, value)
        ds._keep(features, targets)
        return ds

    def _keep(self, features: np.ndarray, targets: np.ndarray) -> None:
        """Check the rows, then keep the arrays, read-only."""
        if features.ndim != 2 or features.shape[0] < 1:
            raise DataError("features must be a nonempty (T, d) matrix")
        if targets.size != features.shape[0]:
            raise DataError("targets length must equal the number of rows")
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(targets))):
            raise DataError("dataset contains NaN or infinite entries")
        if self.task == CLASSIFICATION:
            if not np.all(np.isin(targets, (-1.0, 1.0))):
                raise DataError("classification targets must be exactly +/-1")
        elif self.task != REGRESSION:
            raise DataError(f"unknown task {self.task!r}")
        features.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    @property
    def T(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def examples(self) -> list[DataExample]:
        return [DataExample(self.features[i], self.targets[i]) for i in range(self.T)]

    def head(self, n: int) -> "Dataset":
        """The first n rows (every row when n >= T)."""
        return self._rows(slice(min(n, self.T)))

    def tail(self, n: int) -> "Dataset":
        """The last n rows (every row when n >= T)."""
        return self._rows(slice(self.T - min(n, self.T), None))

    def _rows(self, rows: slice) -> "Dataset":
        """The rows ``rows`` as read-only views of this dataset's arrays:
        rows that construction checked are neither copied nor checked again."""
        features = self.features[rows]
        if features.shape[0] < 1:
            raise DataError("features must be a nonempty (T, d) matrix")
        view = copy.copy(self)
        object.__setattr__(view, "features", features)
        object.__setattr__(view, "targets", self.targets[rows])
        return view


@dataclass(frozen=True)
class StreamConfig:
    seed: int = 0
    permute: bool = True
    standardize: bool = False
    subsample: int | None = None


def gen_toy_classification(n: int, seed: int) -> Dataset:
    """The 2-d toy stream: labels +1 with probability 2/3, and

        x | y=+1 ~ N((1, 1),  [[1, 1], [1, 3]])
        x | y=-1 ~ N((-1, -1), I2)

    sampled via the Cholesky factor of each covariance.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = CounterRng(seed, "toy-classification")
    labels = np.where(rng.uniforms(n) < 2.0 / 3.0, 1.0, -1.0)
    z = rng.normals(2 * n).reshape(n, 2)
    chol_pos = np.array([[1.0, 0.0], [1.0, np.sqrt(2.0)]])  # L L^T = [[1,1],[1,3]]
    x_pos = np.array([1.0, 1.0]) + z @ chol_pos.T
    x_neg = np.array([-1.0, -1.0]) + z
    features = np.where(labels[:, None] > 0.0, x_pos, x_neg)
    return Dataset(features, labels, CLASSIFICATION, "toy-classification",
                   note=f"generated, seed={seed}")


def gen_iid_regression(n: int, theta_star, noise_sd: float, seed: int) -> Dataset:
    """i.i.d. regression stream: x ~ N(0, I_d), y = <theta*, x> + eps with
    eps ~ N(0, noise_sd^2)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if noise_sd < 0:
        raise DomainError("noise_sd must be >= 0")
    theta_star = np.asarray(theta_star, dtype=float).reshape(-1)
    d = theta_star.size
    rng = CounterRng(seed, "iid-regression")
    features = rng.normals(n * d).reshape(n, d)
    noise = noise_sd * rng.normals(n) if noise_sd > 0 else np.zeros(n)
    targets = features @ theta_star + noise
    return Dataset(features, targets, REGRESSION, "iid-regression",
                   note=f"generated, seed={seed}, noise_sd={noise_sd}")


@dataclass(frozen=True)
class CsvSchema:
    """How to read a CSV: which column is the label, what counts as the
    positive class (classification only), delimiter, and header presence."""

    label: str | int
    positive_label: str | None = None
    delimiter: str = ","
    has_header: bool = True


def _bad_cell(path, row: list[str], line: int, label_idx: int,
              positive_label: str | None) -> DataError:
    """The error for the first bad cell of a row that failed to parse,
    found cell by cell: only the error path pays for the diagnosis."""
    for j, cell in enumerate(row):
        text = cell.strip()
        if text == "":
            return DataError(f"{path}: missing value at row {line}, column {j + 1}")
        if j == label_idx and positive_label is not None:
            continue
        try:
            float(text)
        except ValueError:
            what = "label" if j == label_idx else "cell"
            return DataError(f"{path}: unparseable {what} at row {line}, column {j + 1}: {text!r}")
    raise AssertionError(f"{path}: row {line} parses")


def _label_index(path, schema: CsvSchema, header: list[str] | None) -> int:
    """The label's column: ``schema.label`` itself, or its place in the
    header."""
    if isinstance(schema.label, int):
        return schema.label
    if header is None:
        raise DataError("label column by name requires a header")
    try:
        return header.index(schema.label)
    except ValueError:
        raise DataError(f"{path}: no column named {schema.label!r}") from None


def _class_label(positive_label: str):
    """The converter of a classification label cell: +1 on an exact match
    of the stripped text, -1 otherwise, and an error on an empty cell."""
    def convert(cell: str) -> float:
        text = cell.strip()
        if not text:
            raise ValueError("missing label")
        return 1.0 if text == positive_label else -1.0
    return convert


def _bulk_table(path, schema: CsvSchema) -> tuple[np.ndarray, np.ndarray] | None:
    """(features, targets) parsed by numpy's C reader, or None where it
    refuses the file; then ``_row_table`` decides.

    The reader converts each cell with ``PyOS_string_to_double``, the
    correctly rounded routine behind ``float()``, after stripping the same
    whitespace, so a table it accepts has the values the row loop gives.  It
    refuses more: ``1_0``, and with the row loop a whitespace-only line, a
    short or long row, an empty cell.  Blank lines it skips, as
    ``csv.reader``'s empty rows are.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        header = next(filter(None, reader), None) if schema.has_header else None
        try:
            label_idx = _label_index(path, schema, header)
        except DataError:
            return None
        if label_idx < 0:
            return None
        converters = None
        if schema.positive_label is not None:
            converters = {label_idx: _class_label(schema.positive_label)}
        # the rest of the file, from the line after the header's
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a file without data rows
            try:
                table = np.loadtxt(fh, delimiter=schema.delimiter, comments=None,
                                   quotechar='"', ndmin=2, converters=converters)
            except (ValueError, TypeError):  # TypeError: a delimiter it cannot take
                return None
    if table.shape[0] == 0 or label_idx >= table.shape[1]:
        return None
    targets = table[:, label_idx].copy()
    return np.delete(table, label_idx, axis=1), targets


def _row_table(path, schema: CsvSchema) -> tuple[np.ndarray, np.ndarray]:
    """(features, targets) converted row by row as ``csv.reader`` yields
    them: the reference semantics, and the errors naming row and column."""
    header: list[str] | None = None
    width = None
    # each row converted as the reader yields it, into growing float storage
    features, targets = array("d"), array("d")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        for row in reader:
            if not row:
                continue
            if schema.has_header and header is None:
                header = row
                continue
            line = reader.line_num  # the row's line in the file, blank lines counted
            if width is None:
                label_idx = _label_index(path, schema, header)
                if not (0 <= label_idx < len(row)):
                    raise DataError(f"{path}: label column index {label_idx} out of range")
                width = len(row)
            if len(row) != width:
                raise DataError(f"{path}: row {line} has {len(row)} cells, expected {width}")
            texts = [cell.strip() for cell in row]
            label = texts.pop(label_idx)
            try:
                values = [float(text) for text in texts]
                if schema.positive_label is None:
                    target = float(label)
                elif label:
                    target = 1.0 if label == schema.positive_label else -1.0
                else:
                    raise ValueError
            except ValueError:
                raise _bad_cell(path, row, line, label_idx, schema.positive_label) from None
            features.extend(values)
            targets.append(target)
    if width is None:
        raise DataError(f"{path}: empty file" if header is None
                        else f"{path}: no data rows after header")
    return np.frombuffer(features).reshape(len(targets), width - 1), np.frombuffer(targets)


def load_csv(path, schema: CsvSchema, name: str | None = None) -> Dataset:
    """RFC-4180-style reader; '.' decimal separator.

    Features are all non-label columns in file order.  With a
    ``positive_label`` the task is classification and labels map to +1 on
    an exact string match, -1 otherwise; without one the label column must
    parse as floats (regression).  Unparseable or missing cells are hard
    errors with their row (the line in the file) and column; no imputation.

    The table is parsed in bulk by numpy's C reader; only a file that reader
    refuses goes through the row loop, which names the bad cell, or accepts
    a spelling only ``float()`` reads (such as ``1_0``).
    """
    table = _bulk_table(path, schema)
    task = CLASSIFICATION if schema.positive_label is not None else REGRESSION
    ds_name = name if name is not None else str(path)
    note = f"loaded from {path}"
    if table is None:
        ds = Dataset(*_row_table(path, schema), task, ds_name, note=note)
    else:  # the bulk parse's arrays are the dataset's own
        ds = Dataset._owning(*table, task, ds_name, note=note)
    normalized = _normalize_name(ds_name)
    if normalized in KNOWN_SHAPES:
        expected = KNOWN_SHAPES[normalized]
        if (ds.T, ds.d) != expected:
            raise DataError(
                f"{ds_name}: shape ({ds.T}, {ds.d}) does not match the published "
                f"table entry {expected}")
    return ds


def prepare_stream(ds: Dataset, cfg: StreamConfig) -> Dataset:
    """Permute (seeded Fisher-Yates), then optionally keep the first
    ``subsample`` rows, then optionally z-score each feature with
    statistics of the resulting dataset (computed before streaming;
    zero-variance features are centered only)."""
    features, targets = ds.features, ds.targets
    note = ds.note
    if cfg.permute:
        perm = CounterRng(cfg.seed, "stream-permutation").permutation(ds.T)
        features, targets = features[perm], targets[perm]
        note += f"; permuted seed={cfg.seed}"
    if cfg.subsample is not None:
        if cfg.subsample < 1 or cfg.subsample > ds.T:
            raise DomainError(f"subsample must be in [1, {ds.T}]")
        features, targets = features[: cfg.subsample], targets[: cfg.subsample]
        note += f"; subsampled to {cfg.subsample}"
    if cfg.standardize:
        mean = features.mean(axis=0)
        sd = features.std(axis=0)
        scale = np.where(sd > 0.0, sd, 1.0)
        features = (features - mean) / scale
        note += "; standardized"
    return Dataset(features, targets, ds.task, ds.name, note=note)
