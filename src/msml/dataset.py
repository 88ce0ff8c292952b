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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DimensionError, FormatError

FLOAT = np.float64

MAGIC = b"MSMD0001"
BACKGROUND_LEVEL = 0.1
TEMPLATE_AMPLITUDE = 0.4
GENERATE_CHUNK = 256  # samples whose float64 pixels generate works on at once
LOAD_CHUNK = 256  # rows of images.bin that load holds at once, as float32

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
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigError(f"noise_sigma {self.noise_sigma} must be finite and nonnegative")
        for a, b, boost in self.cooccurrence_pairs:
            if not (0 <= a < self.num_classes and 0 <= b < self.num_classes) or a == b:
                raise ConfigError(f"co-occurrence pair ({a}, {b}) needs two distinct classes in [0, {self.num_classes})")
            p = self.class_prevalence[b]
            if not (0 <= boost and p + boost <= 1.0):  # written so that a NaN boost fails
                raise ConfigError(f"co-occurrence pair ({a}, {b}) boost {boost} outside [0, {1 - p:g}]")
        if len(self.image_size) != 2:
            raise ConfigError(f"image_size needs two values, got {self.image_size}")
        if min(self.image_size) < 8 or self.channels < 1:
            raise ConfigError(f"image_size {self.image_size} x {self.channels} too small")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self

    @property
    def class_names(self):
        return [f"class_{c}" for c in range(self.num_classes)]

    @property
    def group_ids(self):
        """The group of each sample: sample i belongs to group i % num_groups."""
        return np.arange(self.num_samples, dtype=np.int64) % self.num_groups


@dataclass
class Dataset:
    """In-memory dataset: float32 images in [0, 1], binary labels, group ids."""

    images: np.ndarray  # (N, channels, H, W) float32
    labels: np.ndarray  # (N, C) int8
    group_ids: np.ndarray  # (N,) int64
    class_names: list[str]

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

    Two generators spawned from ``SeedSequence(seed)`` make every random draw:
    the first draws all samples' ``1 + num_classes`` uniforms in one call (the
    normal-or-not draw, then one per class), and the second, when
    ``noise_sigma > 0``, each chunk's standard-normal pixels. Both fill in
    sample order, so the first m samples of a dataset are the m-sample dataset
    of its seed, whatever ``GENERATE_CHUNK`` is; two seeds share no sample.
    Noise scaling, templates, clipping and the float32 cast run on
    ``GENERATE_CHUNK`` samples at a time, so the float64 pixels held at once
    are one chunk's.
    """
    spec.validate()
    n, h, w = spec.num_samples, *spec.image_size
    label_rng, pixel_rng = map(np.random.default_rng, np.random.SeedSequence(spec.seed).spawn(2))
    prev = np.asarray(spec.class_prevalence, dtype=FLOAT)
    draws = label_rng.random((n, 1 + spec.num_classes))
    u = draws[:, 1:]
    pos = u < prev
    # Boosts re-test the same uniform draw against a raised threshold,
    # triggered by base positives only (no chaining through boosts).
    base_pos = pos.copy()
    for a, b, boost in spec.cooccurrence_pairs:
        pos[:, b] |= base_pos[:, a] & (u[:, b] < prev[b] + boost)
    pos[draws[:, 0] < spec.normal_fraction] = False  # a normal sample has no labels
    labels = pos.astype(np.int8)
    templates = np.stack([class_template(c, spec.channels, h, w) for c in range(spec.num_classes)])
    images = np.empty((n, spec.channels, h, w), dtype=np.float32)
    pixels = np.empty((min(n, GENERATE_CHUNK), spec.channels, h, w), dtype=FLOAT)
    for start in range(0, n, GENERATE_CHUNK):
        stop = min(start + GENERATE_CHUNK, n)
        x = pixels[: stop - start]
        if spec.noise_sigma > 0:  # the bits of full(BACKGROUND_LEVEL) + normal(0, sigma)
            pixel_rng.standard_normal(out=x)
            x *= spec.noise_sigma
            x += BACKGROUND_LEVEL
        else:
            x.fill(BACKGROUND_LEVEL)
        template_sums = {}  # this chunk's label rows (as bytes) -> templates[row == 1].sum(axis=0)
        for j, row in enumerate(labels[start:stop]):
            key = row.tobytes()
            if key not in template_sums:
                template_sums[key] = templates[row == 1].sum(axis=0)
            x[j] += template_sums[key]
        images[start:stop] = np.clip(x, 0.0, 1.0, out=x)
    return Dataset(images, labels, spec.group_ids, spec.class_names)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

SPLIT_FRACTIONS = (0.7, 0.1, 0.2)  # train, val, test share of the groups


def split(group_ids, seed: int):
    """Assign whole groups to train/val/test arrays of indices into
    ``group_ids``, so no group id crosses folds; fold sizes land within one
    group of ``SPLIT_FRACTIONS``."""
    ids = np.sort(group_ids)
    groups = np.concatenate((ids[:1], ids[1:][ids[1:] != ids[:-1]]))  # distinct and sorted, as np.unique gives them
    if groups.size < 10:
        raise DataError(f"grouped split needs >= 10 groups, got {groups.size}")
    order = np.random.default_rng(seed).permutation(groups)
    n_train = round(SPLIT_FRACTIONS[0] * groups.size)
    n_val = round(SPLIT_FRACTIONS[1] * groups.size)
    # at >= 10 groups val gets round(0.1 g) >= 1 of them and test >= 0.2 g - 1 >= 1: no fold is empty
    fold_groups = {
        "train": order[:n_train],
        "val": order[n_train : n_train + n_val],
        "test": order[n_train + n_val :],
    }
    return {name: np.flatnonzero(np.isin(group_ids, fold)) for name, fold in fold_groups.items()}


# ---------------------------------------------------------------------------
# normalization and cropping
# ---------------------------------------------------------------------------

def channel_stats(images, overwrite_input=False):
    """Per-channel (mean, scale) over samples and space, in float64: the
    statistics a fold is standardized with. The scale is the std floored at
    1e-6, so a constant channel standardizes to zeros.

    The bits are those of ``x.mean(axis=(0, 2, 3))`` and ``x.std(axis=(0, 2, 3))``
    for ``x`` the images as float64. The std is computed in numpy's own order
    (subtract the mean, square, sum, divide, sqrt) in place on one float64
    array, so no second temporary is made: a copy, leaving ``images`` unchanged,
    or with ``overwrite_input`` a float64 ``images`` itself, left garbled.
    """
    if len(images) == 0:
        raise DataError("channel_stats: the train fold is empty")
    x = (np.asarray if overwrite_input else np.array)(images, dtype=FLOAT)
    axes = (0, 2, 3)
    mean = x.mean(axis=axes)
    x -= mean[None, :, None, None]
    np.multiply(x, x, out=x)
    std = np.sqrt(x.sum(axis=axes) / (x.size // x.shape[1]))
    return mean, np.maximum(std, 1e-6)


def crop_batch(images, out_size, training, rng=None):
    """Crop a batch to ``out_size``, an (height, width) pair or one int for a
    square, with per-sample random offsets (training) or centered (eval)."""
    n = images.shape[0]
    h, w = images.shape[-2:]
    oh, ow = (out_size, out_size) if np.ndim(out_size) == 0 else out_size
    if oh > h or ow > w:
        raise DimensionError(f"crop size {oh}x{ow} exceeds image {h}x{w}")
    if not training:
        top = (h - oh) // 2
        left = (w - ow) // 2
        return images[..., top : top + oh, left : left + ow]
    tops = rng.integers(0, h - oh + 1, size=n)
    lefts = rng.integers(0, w - ow + 1, size=n)
    out = np.empty(images.shape[:-2] + (oh, ow), dtype=images.dtype)
    for i in range(n):
        out[i] = images[i, :, tops[i] : tops[i] + oh, lefts[i] : lefts[i] + ow]
    return out


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------

def write_atomic(path, *parts):
    """Write ``parts`` to ``path``, in order, through a temp file and a rename.

    The parts are str, written as UTF-8, or any bytes-like objects (bytes,
    bytearray, memoryview, a C-contiguous array), each written from its own
    buffer without a copy. Each call creates its own ``<name>.<random hex>.tmp``
    beside ``path``, so concurrent writers each rename a whole file into place
    and readers never see a partial write. If the write or the rename fails,
    the temp file is removed and the error re-raised.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def decode_utf8(data: bytes, what, offset=0):
    """``data`` as text; a byte that is not UTF-8 raises FormatError at its offset
    (``offset`` is where ``data`` starts in its file)."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8: {exc.reason}", offset=offset + exc.start) from exc


def save(dataset: Dataset, directory):
    """Write images.bin and labels.csv into the existing ``directory`` (temp + rename)."""
    directory = Path(directory)
    n, channels, h, w = dataset.images.shape
    pixels = np.ascontiguousarray(dataset.images, dtype="<f4")  # the images themselves, when already float32
    write_atomic(directory / "images.bin", MAGIC + struct.pack("<4I", n, channels, h, w), pixels)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sample_id", "group_id", *dataset.class_names])
    writer.writerows(np.column_stack((np.arange(n), dataset.group_ids, dataset.labels)).tolist())
    write_atomic(directory / "labels.csv", buf.getvalue())


def load(directory, folds=None, dtype=np.float32):
    """Read a dataset back; raises FormatError with a byte offset on corruption.

    ``images.bin`` is read ``LOAD_CHUNK`` rows at a time, and every pixel of it
    is checked finite. Without ``folds``: the Dataset of every row. ``folds``
    names folds of ``splits.json``; the result is then a dict of name -> that
    fold's Dataset, its rows in index order. The pixels come as ``dtype``."""
    directory = Path(directory)
    header_end = len(MAGIC) + 16
    with open(directory / "images.bin", "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(header_end)
        if head[: len(MAGIC)] != MAGIC:
            raise FormatError(f"bad magic {head[:8]!r}, expected {MAGIC!r}", offset=0)
        if len(head) < header_end:
            raise FormatError("truncated header", offset=len(head))
        n, channels, h, w = struct.unpack("<4I", head[len(MAGIC) :])
        expected = header_end + n * channels * h * w * 4
        if size != expected:  # checked before the pixels are allocated
            raise FormatError(
                f"image payload has {size - header_end} bytes, expected {expected - header_end}",
                offset=min(size, expected),
            )
        names = (None,) if folds is None else folds
        splits = {None: np.arange(n)} if folds is None else load_splits(directory / "splits.json", n)
        if missing := [name for name in names if name not in splits]:
            raise DataError(f"{directory / 'splits.json'} has no fold {missing[0]!r}")
        wanted = {name: splits[name] for name in names}
        images = {name: np.empty((len(idx), channels, h, w), dtype) for name, idx in wanted.items()}
        chunk = np.empty((min(n, LOAD_CHUNK), channels, h, w), dtype="<f4")
        for start in range(0, n, LOAD_CHUNK):
            x = chunk[: n - start]
            at = header_end + start * x[0].nbytes
            if (got := fh.readinto(x)) != x.nbytes:  # the file shrank after fstat
                raise FormatError(f"image payload has {at + got - header_end} bytes, expected {expected - header_end}",
                                  offset=at + got)
            finite = np.isfinite(x)
            if not finite.all():  # argmin finds the first False of the flattened chunk
                raise FormatError("images.bin holds a NaN or an infinite pixel", offset=at + 4 * int(np.argmin(finite)))
            for name, idx in wanted.items():
                here = (start <= idx) & (idx < start + len(x))  # the fold's rows in this chunk
                images[name][here] = x[idx[here] - start]

    text = decode_utf8((directory / "labels.csv").read_bytes(), "labels.csv")
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise FormatError(f"labels.csv is not valid CSV: {exc}") from exc
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
            if int(row[0]) != r:
                raise ValueError(f"sample_id {row[0]} is not the row's index {r}")
            group_ids[r] = int(row[1])
            values = [int(v) for v in row[2:]]
            if not set(values) <= {0, 1}:
                raise ValueError(f"labels must be 0 or 1, got {row[2:]}")
            labels[r] = values
        except (ValueError, IndexError) as exc:
            raise FormatError(f"labels.csv row {r + 2} malformed: {exc}") from exc
    datasets = {name: Dataset(images[name], labels[idx], group_ids[idx], class_names) for name, idx in wanted.items()}
    return datasets[None] if folds is None else datasets


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
        if text not in ("0", "1"):
            raise ValueError(f"a bool is 0 or 1, got {text!r}")
        return text == "1"
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
