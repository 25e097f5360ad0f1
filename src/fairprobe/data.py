"""CSV ingestion, label encoding, per-feature value domains, and seeded splits.

All columns are discrete: a feature is either ``integer`` (kept as-is) or
``categorical`` (label-encoded by first occurrence in file order). The label
column must be binary 0/1. Rows with empty cells are dropped at load time.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    EmptyData,
    FairprobeError,
    InputNotFound,
    InvalidCell,
    MissingHeader,
    NonBinaryLabel,
    SchemaMismatch,
    UnknownFeature,
)

log = logging.getLogger(__name__)

KIND_CATEGORICAL = "categorical"
KIND_INTEGER = "integer"
_KINDS = (KIND_CATEGORICAL, KIND_INTEGER)


def read_json_object(path: str | Path, what: str, invalid: type[FairprobeError]) -> dict:
    """The JSON object in the file at `path`. A missing file raises
    InputNotFound; invalid JSON, a NaN, Infinity or -Infinity constant, or a
    non-object document raises `invalid`. `what` names the file in the message."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputNotFound(f"{what} file {path} not found") from None

    def reject(constant: str):
        raise invalid(f"{what} file {path} holds {constant}, which strict JSON does not allow")

    try:
        doc = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise invalid(f"{what} file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise invalid(f"{what} file {path} must hold a JSON object")
    return doc


@dataclass(frozen=True)
class Schema:
    """Feature order, kinds, the sensitive subset, and the label column name."""

    feature_names: tuple[str, ...]
    sensitive_features: tuple[str, ...]
    label_name: str
    declared_kinds: Mapping[str, str]

    def __post_init__(self):
        names = self.feature_names
        if len(set(names)) != len(names):
            raise SchemaMismatch("feature names must be unique")
        unknown = set(self.sensitive_features) - set(names)
        if unknown:
            raise SchemaMismatch(f"sensitive features not declared: {sorted(unknown)}")
        if self.label_name in names:
            raise SchemaMismatch("label column cannot also be a feature")
        if set(self.declared_kinds) != set(names):
            raise SchemaMismatch("declared_kinds must cover exactly the feature names")
        bad = {k: v for k, v in self.declared_kinds.items() if v not in _KINDS}
        if bad:
            raise SchemaMismatch(f"unknown feature kinds: {bad}")

    @property
    def width(self) -> int:
        return len(self.feature_names)

    def index(self, feature: str) -> int:
        try:
            return self.feature_names.index(feature)
        except ValueError:
            raise UnknownFeature(feature) from None

    @classmethod
    def from_json(cls, path: str | Path) -> "Schema":
        """Load a schema from a JSON document.

        Expected layout::

            {"label": "income",
             "sensitive": ["gender", "age"],
             "features": {"age": "integer", "workclass": "categorical", ...}}

        The order of keys in ``features`` fixes the feature order.
        """
        doc = read_json_object(path, "schema", SchemaMismatch)
        if "label" not in doc:
            raise SchemaMismatch(f"schema file {path} declares no 'label'")
        features = doc.get("features")
        if not isinstance(features, dict) or not features:
            raise SchemaMismatch("schema file must declare a non-empty 'features' map")
        return cls(
            feature_names=tuple(features.keys()),
            sensitive_features=tuple(doc.get("sensitive", ())),
            label_name=doc["label"],
            declared_kinds=dict(features),
        )


@dataclass(frozen=True)
class ValueDomain:
    """Permitted values of one feature: a contiguous integer range or a finite set."""

    kind: str  # "range" | "set"
    lo: int = 0
    hi: int = 0
    values: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind == "range":
            if self.lo > self.hi:
                raise ValueError(f"empty range domain [{self.lo}, {self.hi}]")
        elif self.kind == "set":
            if not self.values:
                raise ValueError("empty set domain")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @staticmethod
    def range_of(lo: int, hi: int) -> "ValueDomain":
        return ValueDomain(kind="range", lo=int(lo), hi=int(hi))

    @staticmethod
    def set_of(values) -> "ValueDomain":
        return ValueDomain(kind="set", values=tuple(sorted(int(v) for v in set(values))))

    @property
    def size(self) -> int:
        if self.kind == "range":
            return self.hi - self.lo + 1
        return len(self.values)

    def as_tuple(self) -> tuple[int, ...]:
        if self.kind == "range":
            return tuple(range(self.lo, self.hi + 1))
        return self.values

    # sample_excluding and clamp take a scalar or an array and answer in kind

    def _nth(self, k):
        """The k-th smallest value(s) of the domain: an int for a scalar k."""
        out = self.lo + k if self.kind == "range" else np.asarray(self.values)[k]
        return out if np.ndim(out) else int(out)

    def sample(self, rng: np.random.Generator, size=None):
        return self._nth(rng.integers(self.size, size=size))

    def sample_excluding(self, rng: np.random.Generator, old):
        """Uniform draw over the domain minus ``old``, per value of ``old``:
        over the whole domain where ``old`` lies outside it, and the one value
        of a singleton domain."""
        old = np.asarray(old)
        if self.size == 1:
            return self._nth(np.zeros_like(old))
        if self.kind == "range":
            pos = old - self.lo
            member = (pos >= 0) & (pos < self.size)
        else:
            vals = np.asarray(self.values)
            pos = np.searchsorted(vals, old)
            member = vals[np.minimum(pos, len(vals) - 1)] == old
        k = rng.integers(self.size - member.astype(np.int64))
        return self._nth(k + (member & (k >= pos)))

    def clamp(self, v):
        """The domain value(s) nearest to ``v``, the lower one on a tie."""
        if self.kind == "range":
            return self._nth(np.clip(v, self.lo, self.hi) - self.lo)
        return self._nth(np.abs(np.asarray(self.values) - np.expand_dims(v, -1)).argmin(-1))


@dataclass
class Dataset:
    """Encoded tabular data: integer code matrix plus binary labels.

    Treated as read-only after construction, so instances can be shared
    across parallel experiment runs. ``domains`` is None only for empty
    (post-split) datasets; any downstream use of an empty dataset raises
    EmptyData.
    """

    rows: np.ndarray
    labels: np.ndarray
    schema: Schema
    domains: tuple[ValueDomain, ...] | None

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def width(self) -> int:
        return self.schema.width

    @property
    def is_empty(self) -> bool:
        return self.n_rows == 0

    def require_rows(self, context: str = "dataset") -> None:
        if self.is_empty:
            raise EmptyData(f"{context} has no rows")


def _observed_domains(rows: np.ndarray, schema: Schema) -> tuple[ValueDomain, ...]:
    domains = []
    for j, name in enumerate(schema.feature_names):
        col = rows[:, j]
        if schema.declared_kinds[name] == KIND_INTEGER:
            domains.append(ValueDomain.range_of(col.min(), col.max()))
        else:
            domains.append(ValueDomain.set_of(np.unique(col)))
    return tuple(domains)


def load_csv(path: str | Path, schema: Schema) -> Dataset:
    """Load and encode a comma-separated file with a header row.

    Header columns may appear in any order but must match the schema exactly
    (all features plus the label, nothing else). Categorical cells are encoded
    by first occurrence in file order; rows with empty cells are dropped and
    counted in the log.
    """
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8")
    except FileNotFoundError:
        raise InputNotFound(f"dataset file {path} not found") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise MissingHeader(f"{path} is empty") from None

        expected = set(schema.feature_names) | {schema.label_name}
        got = set(header)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise SchemaMismatch(f"header mismatch: missing={missing} extra={extra}")

        col_of = {name: header.index(name) for name in header}
        label_col = col_of[schema.label_name]
        feat_cols = [col_of[name] for name in schema.feature_names]
        encoders: dict[str, dict[str, int]] = {
            name: {}
            for name in schema.feature_names
            if schema.declared_kinds[name] == KIND_CATEGORICAL
        }

        rows: list[list[int]] = []
        labels: list[int] = []
        dropped = 0
        for lineno, raw in enumerate(reader, start=2):
            cells = [c.strip() for c in raw]
            if len(cells) != len(header) or any(c == "" for c in cells):
                dropped += 1
                continue
            try:
                label = int(cells[label_col])
            except ValueError:
                raise NonBinaryLabel(
                    f"line {lineno}: label {cells[label_col]!r} is not an integer"
                ) from None
            if label not in (0, 1):
                raise NonBinaryLabel(f"line {lineno}: label {label} not in {{0,1}}")
            encoded = []
            for name, col in zip(schema.feature_names, feat_cols):
                cell = cells[col]
                if schema.declared_kinds[name] == KIND_CATEGORICAL:
                    codes = encoders[name]
                    encoded.append(codes.setdefault(cell, len(codes)))
                else:
                    try:
                        encoded.append(int(cell))
                    except ValueError:
                        raise InvalidCell(
                            f"line {lineno}: {name}={cell!r} is not an integer"
                        ) from None
            rows.append(encoded)
            labels.append(label)

    if dropped:
        log.warning("%s: dropped %d rows with missing cells", path, dropped)
    if not rows:
        raise EmptyData(f"{path} contains no usable data rows")

    matrix = np.asarray(rows, dtype=np.int64)
    return Dataset(
        rows=matrix,
        labels=np.asarray(labels, dtype=np.int64),
        schema=schema,
        domains=_observed_domains(matrix, schema),
    )


def from_arrays(rows: np.ndarray, labels: np.ndarray, schema: Schema) -> Dataset:
    """Build a Dataset directly from encoded arrays (fixtures, augmentation)."""
    matrix = np.asarray(rows, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[1] != schema.width:
        raise SchemaMismatch("row matrix width does not match schema")
    if matrix.shape[0] != labels.shape[0]:
        raise SchemaMismatch("rows and labels disagree on length")
    if matrix.shape[0] == 0:
        raise EmptyData("cannot build a dataset with zero rows")
    if not np.isin(labels, (0, 1)).all():
        raise NonBinaryLabel("labels must all be 0 or 1")
    return Dataset(
        rows=matrix,
        labels=labels,
        schema=schema,
        domains=_observed_domains(matrix, schema),
    )


def _subset(dataset: Dataset, idx: np.ndarray) -> Dataset:
    rows = dataset.rows[idx]
    return Dataset(
        rows=rows,
        labels=dataset.labels[idx],
        schema=dataset.schema,
        domains=_observed_domains(rows, dataset.schema) if len(idx) else None,
    )


def subsample(dataset: Dataset, k_percent: float, seed: int) -> Dataset:
    """round(k_percent% of the rows), at least one, drawn without replacement
    under the seed and kept in file order; the dataset itself at 100%."""
    if k_percent >= 100.0:
        return dataset
    n_keep = max(1, int(round(dataset.n_rows * k_percent / 100.0)))
    idx = np.sort(np.random.default_rng(seed).permutation(dataset.n_rows)[:n_keep])
    return _subset(dataset, idx)


def split_train_test(
    dataset: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive row partition with |train| = round(fraction * n).

    The same seed always reproduces the identical partition. Each side gets
    its own observed domains and shares the schema. A side with zero rows is
    returned with domains=None and trips EmptyData when used downstream.
    """
    if not (0.0 < train_fraction <= 1.0):
        raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction}")
    dataset.require_rows("dataset to split")
    n = dataset.n_rows
    n_train = int(round(train_fraction * n))
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return _subset(dataset, train_idx), _subset(dataset, test_idx)
