"""Synthetic multi-label image dataset: generation, splits, storage.

The generator mimics the structure of a multi-label radiology collection at
desk scale: a dominant fraction of all-normal samples, strongly imbalanced
class prevalences, optional label co-occurrence boosts, and grouped samples
(synthetic "patients") so splits can be leakage-free at the group level.

Each positive class plants a deterministic spatial template (alternating
horizontal / vertical bars at class-specific positions, so templates of
different classes overlap where they cross) on a noisy constant background.

On-disk format: ``images.bin`` with magic ``MSMD0001``, a little-endian
uint32 header (N, channels, H, W) and raw float32 image data in dataset
order; ``labels.csv`` with one row per sample (sample_id, group_id, one 0/1
column per class). Images are quantized to float32 at generation time so the
round-trip through disk is bit-exact.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DimensionError, FormatError

FLOAT = np.float64

MAGIC = b"MSMD0001"
BACKGROUND_LEVEL = 0.1
TEMPLATE_AMPLITUDE = 0.4

DEFAULT_PREVALENCES = (0.25, 0.174, 0.121, 0.085, 0.059, 0.041, 0.029, 0.02)


@dataclass(frozen=True)
class GeneratorSpec:
    num_classes: int = 8
    num_samples: int = 2000
    num_groups: int = 100
    image_size: tuple[int, int] = (32, 32)
    channels: int = 1
    class_prevalence: tuple[float, ...] = DEFAULT_PREVALENCES
    cooccurrence_pairs: tuple[tuple[int, int, float], ...] = ((0, 1, 0.2), (2, 3, 0.15))
    normal_fraction: float = 0.5
    noise_sigma: float = 0.1
    seed: int = 7

    def validate(self):
        if self.num_classes < 1 or self.num_samples < 1 or self.num_groups < 1:
            raise ConfigError(f"counts must be positive: {self}")
        if len(self.class_prevalence) != self.num_classes:
            raise ConfigError(
                f"class_prevalence has {len(self.class_prevalence)} entries for {self.num_classes} classes"
            )
        for p in self.class_prevalence:
            if not 0.0 < p < 1.0:
                raise ConfigError(f"prevalence {p} outside (0, 1)")
        if not 0.0 <= self.normal_fraction <= 1.0:
            raise ConfigError(f"normal_fraction {self.normal_fraction} outside [0, 1]")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma {self.noise_sigma} must be nonnegative")
        for a, b, boost in self.cooccurrence_pairs:
            if not (0 <= a < self.num_classes and 0 <= b < self.num_classes):
                raise ConfigError(f"co-occurrence pair ({a}, {b}) out of class range")
            if boost < 0 or self.class_prevalence[b] + boost > 1.0:
                raise ConfigError(f"boost {boost} pushes class {b} probability above 1")
        if len(self.image_size) != 2:
            raise ConfigError(f"image_size needs two values, got {self.image_size}")
        if min(self.image_size) < 8 or self.channels < 1:
            raise ConfigError(f"image_size {self.image_size} x {self.channels} too small")
        return self

    @property
    def class_names(self):
        return [f"class_{c}" for c in range(self.num_classes)]


@dataclass
class Dataset:
    """In-memory dataset: float32 images in [0, 1], binary labels, group ids."""

    images: np.ndarray  # (N, channels, H, W) float32
    labels: np.ndarray  # (N, C) int8
    group_ids: np.ndarray  # (N,) int64
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.class_names:
            self.class_names = [f"class_{c}" for c in range(self.labels.shape[1])]

    def __len__(self):
        return self.images.shape[0]


def class_template(class_index, channels, height, width):
    """Deterministic planted pattern for one class.

    Even classes are horizontal bars, odd classes vertical bars; positions
    follow a golden-ratio sequence so bars of the same orientation stay apart
    while different orientations cross (shared pixels between classes). Bars
    sit inside a margin that survives the training crop window.
    """
    t = np.zeros((channels, height, width), dtype=FLOAT)
    horizontal = class_index % 2 == 0
    slot = class_index // 2
    extent = height if horizontal else width
    margin = max(1, round(extent / 8))
    thickness = max(2, round(extent / 8))
    span = extent - 2 * margin - thickness
    if span < 0:
        raise ConfigError(f"image extent {extent} too small for templates")
    frac = (slot * 0.618034) % 1.0
    start = margin + round(frac * span)
    if horizontal:
        t[:, start : start + thickness, :] = TEMPLATE_AMPLITUDE
    else:
        t[:, :, start : start + thickness] = TEMPLATE_AMPLITUDE
    return t


def generate(spec: GeneratorSpec) -> Dataset:
    """Draw the full dataset; deterministic from spec.seed.

    Each sample uses its own generator seeded with ``seed ^ index`` so
    generation could be parallelized per sample without changing output.
    """
    spec.validate()
    h, w = spec.image_size
    prev = np.asarray(spec.class_prevalence, dtype=FLOAT)
    templates = np.stack([class_template(c, spec.channels, h, w) for c in range(spec.num_classes)])
    images = np.empty((spec.num_samples, spec.channels, h, w), dtype=np.float32)
    labels = np.zeros((spec.num_samples, spec.num_classes), dtype=np.int8)
    group_ids = np.arange(spec.num_samples, dtype=np.int64) % spec.num_groups
    for i in range(spec.num_samples):
        rng = np.random.default_rng(spec.seed ^ i)
        is_normal = rng.random() < spec.normal_fraction
        u = rng.random(spec.num_classes)
        if not is_normal:
            pos = u < prev
            # Boosts re-test the same uniform draw against a raised threshold,
            # triggered by base positives only (no chaining through boosts).
            base_pos = pos.copy()
            for a, b, boost in spec.cooccurrence_pairs:
                if base_pos[a] and u[b] < prev[b] + boost:
                    pos[b] = True
            labels[i] = pos
        img = np.full((spec.channels, h, w), BACKGROUND_LEVEL, dtype=FLOAT)
        if spec.noise_sigma > 0:
            img += rng.normal(0.0, spec.noise_sigma, size=img.shape)
        img += templates[labels[i] == 1].sum(axis=0)
        images[i] = np.clip(img, 0.0, 1.0).astype(np.float32)
    return Dataset(images, labels, group_ids, spec.class_names)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    grouped: bool = True
    seed: int = 0

    def validate(self):
        if abs(sum(self.fractions) - 1.0) > 1e-9 or any(f <= 0 for f in self.fractions):
            raise ConfigError(f"split fractions {self.fractions} must be positive and sum to 1")
        return self


def split(dataset: Dataset, spec: SplitSpec):
    """Assign samples to train/val/test index arrays.

    Grouped mode assigns whole groups to folds so no group id crosses folds;
    fold sizes land within one group of the target fractions.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    if spec.grouped:
        groups = np.unique(dataset.group_ids)
        if groups.size < 10:
            raise DataError(f"grouped split needs >= 10 groups, got {groups.size}")
        order = rng.permutation(groups)
        n_train = round(spec.fractions[0] * groups.size)
        n_val = round(spec.fractions[1] * groups.size)
        fold_groups = {
            "train": set(order[:n_train].tolist()),
            "val": set(order[n_train : n_train + n_val].tolist()),
            "test": set(order[n_train + n_val :].tolist()),
        }
        folds = {
            name: np.flatnonzero(np.isin(dataset.group_ids, list(ids)))
            for name, ids in fold_groups.items()
        }
    else:
        order = rng.permutation(len(dataset))
        n_train = round(spec.fractions[0] * len(dataset))
        n_val = round(spec.fractions[1] * len(dataset))
        folds = {
            "train": np.sort(order[:n_train]),
            "val": np.sort(order[n_train : n_train + n_val]),
            "test": np.sort(order[n_train + n_val :]),
        }
    for name, idx in folds.items():
        if idx.size == 0:
            raise DataError(f"split produced an empty {name} fold")
    return folds


# ---------------------------------------------------------------------------
# normalization and cropping
# ---------------------------------------------------------------------------

def channel_stats(images):
    """Per-channel mean and std over samples and space, in float64."""
    x = np.asarray(images, dtype=FLOAT)
    mean = x.mean(axis=(0, 2, 3))
    std = x.std(axis=(0, 2, 3))
    return mean, std


def normalize(images_by_fold: dict, train_fold: str = "train"):
    """Standardize every fold with the train fold's per-channel statistics."""
    if train_fold not in images_by_fold or len(images_by_fold[train_fold]) == 0:
        raise DataError(f"normalize: train fold {train_fold!r} is missing or empty")
    mean, std = channel_stats(images_by_fold[train_fold])
    denom = np.maximum(std, 1e-6)
    out = {}
    for name, imgs in images_by_fold.items():
        x = np.asarray(imgs, dtype=FLOAT)
        out[name] = (x - mean[None, :, None, None]) / denom[None, :, None, None]
    return out, (mean, std)


def crop_batch(images, out_size, training, rng=None):
    """Crop a batch with per-sample random offsets (training) or center (eval)."""
    images = np.asarray(images)
    n = images.shape[0]
    h, w = images.shape[-2:]
    if out_size > h or out_size > w:
        raise DimensionError(f"crop size {out_size} exceeds image {h}x{w}")
    if not training:
        top = (h - out_size) // 2
        left = (w - out_size) // 2
        return images[..., top : top + out_size, left : left + out_size]
    tops = rng.integers(0, h - out_size + 1, size=n)
    lefts = rng.integers(0, w - out_size + 1, size=n)
    out = np.empty(images.shape[:-2] + (out_size, out_size), dtype=images.dtype)
    for i in range(n):
        out[i] = images[i, :, tops[i] : tops[i] + out_size, lefts[i] : lefts[i] + out_size]
    return out


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------

def write_atomic(path, data):
    """Write bytes or text to ``path`` through ``<name>.tmp`` and a rename.

    Readers see the old file or the new one, never a partial write. If the
    write or the rename fails, the temp file is removed and the error re-raised.
    """
    path = Path(path)
    tmp = path.parent / (path.name + ".tmp")
    try:
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            tmp.write_text(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save(dataset: Dataset, directory):
    """Write images.bin and labels.csv under ``directory`` (temp + rename)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n, channels, h, w = dataset.images.shape
    payload = MAGIC + struct.pack("<4I", n, channels, h, w)
    payload += dataset.images.astype("<f4").tobytes()
    write_atomic(directory / "images.bin", payload)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sample_id", "group_id", *dataset.class_names])
    for i in range(n):
        writer.writerow([i, int(dataset.group_ids[i]), *map(int, dataset.labels[i])])
    write_atomic(directory / "labels.csv", buf.getvalue())


def load(directory) -> Dataset:
    """Read a dataset back; raises FormatError with a byte offset on corruption."""
    directory = Path(directory)
    raw = (directory / "images.bin").read_bytes()
    if len(raw) < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic {raw[:8]!r}, expected {MAGIC!r}", offset=0)
    header_end = len(MAGIC) + 16
    if len(raw) < header_end:
        raise FormatError("truncated header", offset=len(raw))
    n, channels, h, w = struct.unpack("<4I", raw[len(MAGIC) : header_end])
    expected = header_end + n * channels * h * w * 4
    if len(raw) != expected:
        raise FormatError(
            f"image payload has {len(raw) - header_end} bytes, expected {expected - header_end}",
            offset=min(len(raw), expected),
        )
    images = np.frombuffer(raw, dtype="<f4", offset=header_end).reshape(n, channels, h, w).copy()

    text = (directory / "labels.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise FormatError("labels.csv is empty", offset=0)
    header = rows[0]
    if header[:2] != ["sample_id", "group_id"]:
        raise FormatError(f"labels.csv header starts with {header[:2]}, expected sample_id, group_id")
    class_names = header[2:]
    body = rows[1:]
    if len(body) != n:
        raise FormatError(f"labels.csv has {len(body)} rows for {n} image records")
    labels = np.zeros((n, len(class_names)), dtype=np.int8)
    group_ids = np.zeros(n, dtype=np.int64)
    for r, row in enumerate(body):
        try:
            group_ids[r] = int(row[1])
            values = [int(v) for v in row[2:]]
            if not set(values) <= {0, 1}:
                raise ValueError(f"labels must be 0 or 1, got {row[2:]}")
            labels[r] = values
        except (ValueError, IndexError) as exc:
            raise FormatError(f"labels.csv row {r + 2} malformed: {exc}") from exc
    return Dataset(images, labels, group_ids, class_names)


def save_splits(folds: dict, path):
    payload = {name: np.asarray(idx).tolist() for name, idx in folds.items()}
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))


def load_splits(path, num_samples):
    """Fold name -> sample indices; each index is in range and in one fold once."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path} holds a {type(payload).__name__}, expected an object of folds")
    fold_of = {}
    for name, idx in payload.items():
        if not isinstance(idx, list) or not all(type(i) is int for i in idx):
            raise FormatError(f"{path} fold {name!r}: expected a list of integer indices")
        for i in idx:
            if not 0 <= i < num_samples:
                raise FormatError(f"splits.json fold {name!r}: index {i} outside [0, {num_samples})")
            if i in fold_of:
                raise FormatError(f"splits.json lists index {i} in fold {fold_of[i]!r} and again in {name!r}")
            fold_of[i] = name
    return {name: np.asarray(idx, dtype=np.int64) for name, idx in payload.items()}


# ---------------------------------------------------------------------------
# key = value files (generator specs, experiment configs)
# ---------------------------------------------------------------------------

def parse_fields(cls, text: str):
    """Parse ``key = value`` lines into the dataclass ``cls`` and validate it.

    Every field is a key; missing keys keep their defaults, and each value is
    parsed like its field's default. Lists are comma-separated and the items
    of a tuple colon-joined (``0:1:0.2``); a bool is written 0 or 1. ``#``
    starts a comment at the start of a line or after whitespace, so
    ``runs/#1`` is a value. Parse errors carry the 1-based line number.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in defaults:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = _parse_value(value, defaults[key])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse {key!r}: {exc}") from exc
    return cls(**overrides).validate()


def _parse_value(text, like):
    if isinstance(like, tuple):
        items = [item.strip() for item in text.split(",")] if text else []
        return tuple(_parse_item(item, like[0]) for item in items)
    if isinstance(like, bool):
        return bool(int(text))
    return type(like)(text)


def _parse_item(text, like):
    if not isinstance(like, tuple):
        return _parse_value(text, like)
    parts = text.split(":")
    if len(parts) != len(like):
        raise ValueError(f"{text!r} needs {len(like)} ':'-separated parts")
    return tuple(_parse_value(part.strip(), part_like) for part, part_like in zip(parts, like))


def format_fields(obj) -> str:
    """Render a dataclass in the ``key = value`` syntax ``parse_fields`` reads."""
    return "".join(f"{f.name} = {_format_value(getattr(obj, f.name))}\n" for f in fields(obj))


def _format_value(value, sep=", "):
    if isinstance(value, tuple):
        return sep.join(_format_value(item, ":") for item in value)
    return str(int(value)) if isinstance(value, bool) else str(value)
