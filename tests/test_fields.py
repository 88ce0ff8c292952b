"""The one key = value codec shared by generator specs and experiment configs."""

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msml import dataset as ds
from msml.cli import ExperimentConfig
from msml.errors import ConfigError
from msml.train import STRATEGIES


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Free-text values are taken verbatim up to a comment or the line end, so the
# alphabet excludes '#' and line breaks but keeps '=', ',' and ':'.
words = st.text(string.ascii_letters + string.digits + "/._-=:, ", min_size=1).map(str.strip).filter(bool)


@st.composite
def generator_specs(draw):
    k = draw(st.integers(1, 6))
    classes = st.integers(0, k - 1)
    return ds.GeneratorSpec(
        num_classes=k,
        num_samples=draw(st.integers(1, 10**6)),
        num_groups=draw(st.integers(1, 10**4)),
        image_size=(draw(st.integers(8, 512)), draw(st.integers(8, 512))),
        channels=draw(st.integers(1, 4)),
        class_prevalence=tuple(draw(st.lists(floats(1e-6, 0.5), min_size=k, max_size=k))),
        cooccurrence_pairs=tuple(draw(st.lists(st.tuples(classes, classes, floats(0.0, 0.5)), max_size=3))),
        normal_fraction=draw(floats(0.0, 1.0)),
        noise_sigma=draw(floats(0.0, 10.0)),
        seed=draw(st.integers(0, 2**63)),
    ).validate()


@st.composite
def experiment_configs(draw):
    blocks = st.tuples(st.integers(1, 64), st.integers(1, 7), st.booleans())
    return ExperimentConfig(
        dataset=draw(words),
        model=draw(st.sampled_from(("two_stream", "baseline"))),
        strategy=draw(st.sampled_from(STRATEGIES)),
        epochs=draw(st.integers(1, 100)),
        batch_size=draw(st.integers(1, 512)),
        learning_rate=draw(floats(1e-9, 1.0)),
        alpha=draw(floats(0.0, 10.0)),
        beta=draw(floats(0.0, 10.0)),
        seed=draw(st.integers(0, 2**31)),
        crop_size=draw(st.integers(1, 256)),
        conv_blocks=tuple(draw(st.lists(blocks, min_size=1, max_size=4))),
        proj_width=draw(st.integers(1, 1024)),
        dropout_rate=draw(floats(0.0, 0.99)),
        out_dir=draw(words),
    ).validate()


@given(generator_specs())
def test_generator_spec_round_trip(spec):
    assert ds.parse_fields(ds.GeneratorSpec, ds.format_fields(spec)) == spec


@given(experiment_configs())
def test_experiment_config_round_trip(cfg):
    assert ds.parse_fields(ExperimentConfig, ds.format_fields(cfg)) == cfg


def test_bools_in_tuples_are_written_as_digits():
    cfg = ExperimentConfig(dataset="d", out_dir="o", conv_blocks=((8, 3, True), (4, 1, False)))
    assert "conv_blocks = 8:3:1, 4:1:0\n" in ds.format_fields(cfg)


REQUIRED = "dataset = d\nout_dir = o\n"


@pytest.mark.parametrize(
    "cls, text, line",
    [
        (ExperimentConfig, REQUIRED + "conv_blocks =\n", None),
        (ds.GeneratorSpec, "image_size = 32, 32, 32\n", None),
        (ExperimentConfig, REQUIRED + "conv_blocks = 16:3, 32:3:1\n", 3),
        (ExperimentConfig, REQUIRED + "epochs = 2.5\n", 3),
        (ds.GeneratorSpec, "seed = 1\ncolour = red\n", 2),
    ],
    ids=["empty-conv-blocks", "three-value-image-size", "two-part-block", "float-epochs", "unknown-key"],
)
def test_rejected(cls, text, line):
    with pytest.raises(ConfigError, match=None if line is None else f"line {line}:"):
        ds.parse_fields(cls, text)
