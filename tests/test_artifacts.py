"""Damaged artifacts: a truncated or bit-flipped checkpoint, images.bin,
labels.csv or splits.json either loads or raises FormatError or DataError,
and a damaged images.bin that loads holds only finite pixels."""

import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msml import dataset as ds
from msml.cli import load_folds
from msml.errors import DataError, FormatError
from msml.model import ModelConfig, TwoStreamModel, model_from_checkpoint, save_checkpoint

ARTIFACTS = ("model.ckpt", "images.bin", "labels.csv", "splits.json")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    data = ds.generate(ds.GeneratorSpec(
        num_classes=2, num_samples=12, num_groups=10, image_size=(8, 8),
        class_prevalence=(0.4, 0.3), cooccurrence_pairs=(), seed=3,
    ))
    ds.save(data, root)
    ds.save_splits(ds.split(data.group_ids, 3), root / "splits.json")
    cfg = ModelConfig(num_classes=2, input_size=(8, 8), conv_blocks=((2, 3, True), (2, 3, True)), proj_width=2)
    save_checkpoint(TwoStreamModel(cfg, seed=1), root / "model.ckpt")
    return root


def damaged(raw, data):
    """``raw`` cut short at a drawn length, or with one drawn bit flipped."""
    if data.draw(st.booleans(), label="truncate"):
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.mark.parametrize("name", ARTIFACTS)
@settings(deadline=None, max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_artifact_loads_or_raises_format_or_data_error(pristine, tmp_path, name, data):
    work = tmp_path / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(pristine, work)
    (work / name).write_bytes(damaged((pristine / name).read_bytes(), data))
    try:
        load_folds(work)
        model_from_checkpoint(work / "model.ckpt")
    except (FormatError, DataError):
        return
    assert np.isfinite(ds.load(work).images).all()
