"""Tabular datasets: CSV loading, owner-partition files, train/test splitting."""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MalformedInput, OwnerPartition, UnknownColumn


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus optional label and group columns.

    Rows are addressed by 0-based position; those positions are the entry ids
    used by owner partitions over the row axis. Feature columns are addressed
    by 0-based position for partitions over the feature axis. features is
    held as a C-ordered float64 array, copied only when it is not one.
    """

    features: np.ndarray
    feature_names: tuple[str, ...]
    labels: np.ndarray | None = None
    label_name: str | None = None
    groups: tuple[str, ...] | None = None
    group_name: str | None = None

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or min(feats.shape) < 1:
            raise MalformedInput(f"features must be 2-D with at least one row and column, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise MalformedInput("features contain NaN or infinite values")
        if len(self.feature_names) != feats.shape[1]:
            raise MalformedInput("feature_names length does not match feature columns")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.float64)
            if labels.shape != (feats.shape[0],):
                raise MalformedInput("labels length does not match row count")
            if not np.isfinite(labels).all():
                raise MalformedInput("labels contain NaN or infinite values")
            object.__setattr__(self, "labels", labels)
        if self.groups is not None:
            if len(self.groups) != feats.shape[0]:
                raise MalformedInput("groups length does not match row count")
            object.__setattr__(self, "groups", tuple(str(g) for g in self.groups))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, rows) -> "Dataset":
        """New dataset with the given rows, in the given order."""
        rows = np.asarray(list(rows), dtype=np.intp)
        return Dataset(
            features=self.features[rows],
            feature_names=self.feature_names,
            labels=None if self.labels is None else self.labels[rows],
            label_name=self.label_name,
            groups=None if self.groups is None else tuple(self.groups[int(r)] for r in rows),
            group_name=self.group_name,
        )


def load_csv(
    path: str | Path,
    *,
    label: str | None = None,
    group: str | None = None,
) -> Dataset:
    """Load a headed CSV into a Dataset.

    The optional label column is parsed as numbers when possible, otherwise
    mapped to 0..k-1 by sorted distinct value. The optional group column is
    kept as strings. Every remaining column must parse as a finite float.
    Column names must be distinct. Every MalformedInput raised names the
    file.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"{path}: cannot read the file ({exc})") from None
    if header is None:
        raise MalformedInput(f"{path}: empty file")
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise MalformedInput(f"{path}: repeated column names {repeated}")
    for name in (label, group):
        if name is not None and name not in header:
            raise UnknownColumn(f"{path}: no column named {name!r}")
    label_idx = header.index(label) if label is not None else None
    group_idx = header.index(group) if group is not None else None
    feat_idx = [i for i in range(len(header)) if i not in (label_idx, group_idx)]
    if not feat_idx:
        raise MalformedInput(f"{path}: no feature columns left")

    feats = np.empty((len(rows), len(feat_idx)), dtype=np.float64)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise MalformedInput(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        for c, i in enumerate(feat_idx):
            try:
                feats[r, c] = float(row[i])
            except ValueError:
                raise MalformedInput(
                    f"{path}: non-numeric value {row[i]!r} in column {header[i]!r}, row {r + 2}"
                ) from None

    labels = None
    if label_idx is not None:
        raw = [row[label_idx] for row in rows]
        try:
            labels = np.array([float(v) for v in raw], dtype=np.float64)
        except ValueError:
            codes = {v: float(i) for i, v in enumerate(sorted(set(raw)))}
            labels = np.array([codes[v] for v in raw], dtype=np.float64)

    groups = tuple(row[group_idx] for row in rows) if group_idx is not None else None
    try:
        return Dataset(
            features=feats,
            feature_names=tuple(header[i] for i in feat_idx),
            labels=labels,
            label_name=label,
            groups=groups,
            group_name=group,
        )
    except MalformedInput as exc:
        raise MalformedInput(f"{path}: {exc}") from None


def check_test_ratio(test_ratio: float) -> None:
    """Raise MalformedInput unless 0 < test_ratio < 1, as split_dataset needs."""
    if not 0.0 < test_ratio < 1.0:
        raise MalformedInput(f"test_ratio must be in (0, 1), got {test_ratio}")


def split_dataset(
    dataset: Dataset, test_ratio: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Random train/test split; both halves keep ascending original-row order.

    Entry ids used by partitions refer to row positions WITHIN the returned
    train set.
    """
    check_test_ratio(test_ratio)
    m = len(dataset)
    n_test = max(1, round(m * test_ratio))
    if n_test >= m:
        raise MalformedInput("test split would leave no training rows")
    order = rng.permutation(m)
    test_rows = np.sort(order[:n_test])
    train_rows = np.sort(order[n_test:])
    return dataset.take(train_rows), dataset.take(test_rows)


def read_json(path: str | Path, what: str) -> object:
    """The parsed JSON file at `path`; `what` names the file in a parse error.

    A file that cannot be read (missing, a directory, not UTF-8) or parsed
    raises MalformedInput.
    """
    try:
        with Path(path).open(encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{what} is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"{path}: cannot read the file ({exc})") from None


def load_partition(source: str | Path | dict) -> OwnerPartition:
    """Read an owner partition from a JSON file or an already-parsed dict.

    Shape: {"owners": {"A": [0, 1, 2], "B": [3]}}.
    """
    if isinstance(source, (str, Path)):
        source = read_json(source, "partition file")
    if not isinstance(source, dict) or "owners" not in source:
        raise MalformedInput('partition JSON must be an object with an "owners" key')
    owners = source["owners"]
    if not isinstance(owners, dict):
        raise MalformedInput('"owners" must map owner ids to entry lists')
    for owner, entries in owners.items():
        if not isinstance(entries, list):
            raise MalformedInput(f"owner {owner!r}: entries must be a list")
    return OwnerPartition(owners)
