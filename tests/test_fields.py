"""The one key = value codec shared by generator specs and experiment configs."""

import re
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msml import dataset as ds
from msml.cli import ExperimentConfig
from msml.errors import ConfigError
from msml.model import ModelConfig
from msml.train import STRATEGIES


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Free-text values are taken verbatim up to a comment or the line end. A '#'
# starts a comment only at the start of a line or after whitespace, so the
# alphabet keeps '#', '=', ',' and ':' but drops line breaks, and a word may
# hold '#' only where no whitespace precedes it.
words = (
    st.text(string.ascii_letters + string.digits + "/._-=:,# ", min_size=1)
    .map(str.strip)
    .filter(lambda w: w and not re.search(r"(^|\s)#", w))
)


@st.composite
def generator_specs(draw):
    k = draw(st.integers(1, 6))
    classes = st.integers(0, k - 1)
    pair = st.tuples(classes, classes, floats(0.0, 0.5)).filter(lambda p: p[0] != p[1])  # two distinct classes
    return ds.GeneratorSpec(
        num_classes=k,
        num_samples=draw(st.integers(1, 10**6)),
        num_groups=draw(st.integers(1, 10**4)),
        image_size=(draw(st.integers(8, 512)), draw(st.integers(8, 512))),
        channels=draw(st.integers(1, 4)),
        class_prevalence=tuple(draw(st.lists(floats(1e-6, 0.5), min_size=k, max_size=k))),
        cooccurrence_pairs=tuple(draw(st.lists(pair, max_size=3 if k > 1 else 0))),
        normal_fraction=draw(floats(0.0, 1.0)),
        noise_sigma=draw(floats(0.0, 10.0)),
        seed=draw(st.integers(0, 2**63)),
    ).validate()


odd_kernels = st.integers(0, 3).map(lambda r: 2 * r + 1)
conv_blocks = st.lists(st.tuples(st.integers(1, 64), odd_kernels, st.booleans()), min_size=1, max_size=4).map(tuple)


def smallest_input(blocks):
    """The least input side that leaves 2x2 feature maps after ``blocks``."""
    return 2 ** (1 + sum(pool for _, _, pool in blocks))


@st.composite
def experiment_configs(draw):
    blocks = draw(conv_blocks)
    model = draw(st.sampled_from(("two_stream", "baseline")))
    two_stream = model == "two_stream"  # a baseline takes only the default strategy, alpha and beta
    return ExperimentConfig(
        dataset=draw(words),
        model=model,
        strategy=draw(st.sampled_from(STRATEGIES)) if two_stream else ExperimentConfig.strategy,
        epochs=draw(st.integers(1, 100)),
        batch_size=draw(st.integers(1, 512)),
        learning_rate=draw(floats(1e-9, 1.0)),
        alpha=draw(floats(0.0, 10.0)) if two_stream else ExperimentConfig.alpha,
        beta=draw(floats(0.0, 10.0)) if two_stream else ExperimentConfig.beta,
        seed=draw(st.integers(0, 2**31)),
        crop_size=draw(st.integers(smallest_input(blocks), 256)),
        conv_blocks=blocks,
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


@st.composite
def model_configs(draw):
    blocks = draw(conv_blocks)
    side = st.integers(smallest_input(blocks), 256)
    return ModelConfig(
        num_classes=draw(st.integers(1, 64)),
        input_size=(draw(side), draw(side)),
        input_channels=draw(st.integers(1, 8)),
        conv_blocks=blocks,
        proj_width=draw(st.integers(1, 1024)),
        dropout_rate=draw(floats(0.0, 0.99)),
    ).validate()


@given(model_configs())
def test_model_config_round_trip(cfg):
    assert ds.parse_fields(ModelConfig, ds.format_fields(cfg)) == cfg


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
        (ExperimentConfig, REQUIRED + "conv_blocks = 0:3:1\n", None),
        (ExperimentConfig, REQUIRED + "conv_blocks = 8:0:1\n", None),
        (ExperimentConfig, REQUIRED + "conv_blocks = 16:3:1, 8:4:1\n", None),
        (ExperimentConfig, REQUIRED + "conv_blocks = 8:-3:1\n", None),
        (ExperimentConfig, REQUIRED + "proj_width = 0\n", None),
        (ExperimentConfig, REQUIRED + "learning_rate = -1\n", None),
        (ExperimentConfig, REQUIRED + "learning_rate = 0\n", None),
        (ExperimentConfig, REQUIRED + "learning_rate = nan\n", None),
        (ExperimentConfig, REQUIRED + "conv_blocks = 16:3:2\n", 3),
        (ExperimentConfig, REQUIRED + "conv_blocks = 16:3:1, 32:3:-1\n", 3),
        (ExperimentConfig, REQUIRED + "dropout_rate = 1.5\n", None),
        (ExperimentConfig, REQUIRED + "dropout_rate = nan\n", None),
        (ExperimentConfig, REQUIRED + "crop_size = 0\n", None),
        (ExperimentConfig, REQUIRED + "crop_size = 4\n", None),
    ],
    ids=["empty-conv-blocks", "three-value-image-size", "two-part-block", "float-epochs", "unknown-key",
         "zero-channel-block", "zero-kernel", "even-kernel", "negative-kernel", "zero-proj-width",
         "negative-rate", "zero-rate", "nan-rate", "pool-flag-2", "pool-flag--1", "dropout-1.5", "dropout-nan",
         "crop-0", "crop-4"],
)
def test_rejected(cls, text, line):
    with pytest.raises(ConfigError, match=None if line is None else f"line {line}:"):
        ds.parse_fields(cls, text)


def test_too_small_crop_is_named_by_its_config_key():
    with pytest.raises(ConfigError, match=r"^crop_size 4 leaves 0x0 feature maps after conv_blocks"):
        ds.parse_fields(ExperimentConfig, REQUIRED + "crop_size = 4\n")


def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace():
    cfg = ds.parse_fields(ExperimentConfig, "dataset = runs/#1\nout_dir = o\t# note\n# whole line\n")
    assert (cfg.dataset, cfg.out_dir) == ("runs/#1", "o")
    assert ds.parse_fields(ds.GeneratorSpec, "num_samples = 77  # trailing\n").num_samples == 77
