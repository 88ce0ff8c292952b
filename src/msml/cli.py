"""Command-line entry point.

Subcommands: ``gen-data`` (synthesize a dataset with grouped splits),
``train`` (run an experiment config), ``eval`` (score a checkpoint on a
split and write the metrics report), ``gradcheck`` (finite-difference
verification suites).

Exit codes: 0 success, 1 a failed ``gradcheck``, 2 a usage or config error or a
path the command cannot read or write, 3 numerical failure during training.
Output files are written atomically (temp file + rename), and every
file-writing command leaves its resolved configuration beside its outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset as ds
from .errors import ConfigError, DataError, MsmlError, NumericalError
from .gradcheck import SCOPES, TOLERANCES, run_scope
from .losses import LossWeights
from .metrics import ScoreMatrix, build_report
from .model import MODELS, ModelConfig, model_from_checkpoint, save_checkpoint, worker_pool
from .train import HISTORY_COLUMNS, STRATEGIES, FoldData, score_fold, train


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = ""
    model: str = "two_stream"  # or "baseline"
    strategy: str = "global"
    epochs: int = 6
    batch_size: int = 16
    learning_rate: float = 1e-4
    alpha: float = LossWeights.alpha
    beta: float = LossWeights.beta
    seed: int = 1
    crop_size: int = ModelConfig.input_size[0]
    conv_blocks: tuple = ModelConfig.conv_blocks
    proj_width: int = ModelConfig.proj_width
    dropout_rate: float = ModelConfig.dropout_rate
    out_dir: str = ""

    def validate(self):
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {sorted(MODELS)}, got {self.model!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; choose one of {STRATEGIES}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        try:
            self.model_config().validate()
        except ConfigError as exc:  # the model's input_size is this config's crop_size
            size = self.crop_size
            raise ConfigError(str(exc).replace(f"input_size {(size, size)}", f"crop_size {size}")) from None
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        self.loss_weights()  # rejects a negative or non-finite alpha or beta
        if self.model == "baseline" and (self.strategy, self.alpha, self.beta) != ("global", LossWeights.alpha, LossWeights.beta):
            raise ConfigError(f"a baseline keeps the default strategy, alpha and beta; got {self.strategy}, {self.alpha}, {self.beta}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.dataset or not self.out_dir:
            raise ConfigError("config needs both dataset and out_dir")
        return self

    def model_config(self, num_classes=1, input_channels=1):
        """The ModelConfig this experiment builds for a dataset with these counts."""
        return ModelConfig(num_classes, (self.crop_size, self.crop_size), input_channels,
                           self.conv_blocks, self.proj_width, self.dropout_rate)

    def loss_weights(self):
        """The LossWeights this experiment trains with."""
        return LossWeights(self.alpha, self.beta)


def load_folds(data_dir, names=None):
    """The named folds (all by default) as float32 pixels, each carrying the
    train fold's per-channel mean and scale. The train fold is float64 only
    inside ``channel_stats``, while the statistics are taken."""
    data_dir = Path(data_dir)
    data = ds.load(data_dir)
    folds_idx = ds.load_splits(data_dir / "splits.json", len(data))
    names = tuple(folds_idx) if names is None else names
    for name in ("train", *names):
        if name not in folds_idx:
            raise DataError(f"{data_dir / 'splits.json'} has no fold {name!r}")
    labels = {name: data.labels[folds_idx[name]] for name in names}
    pixels = {name: data.images[folds_idx[name]] for name in ("train", *names)}  # float32, each fold once
    class_names = data.class_names
    # Only the folds' gathers are needed from here on: drop the dataset's
    # pixels before channel_stats makes its float64 copy of the train fold.
    del data
    mean, scale = ds.channel_stats(pixels["train"])
    return {name: FoldData(pixels[name], labels[name], mean, scale) for name in names}, class_names


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    spec = ds.parse_fields(ds.GeneratorSpec, ds.decode_utf8(Path(args.spec).read_bytes(), args.spec))
    out_dir = Path(args.out)
    folds = ds.split(spec.group_ids, spec.seed)  # too few groups exits before a sample is drawn
    out_dir.mkdir(parents=True, exist_ok=True)  # and so does an --out that cannot be a directory
    data = ds.generate(spec)
    ds.save(data, out_dir)
    ds.save_splits(folds, out_dir / "splits.json")
    ds.write_atomic(out_dir / "manifest.txt", ds.format_fields(spec))
    print(f"wrote {len(data)} samples to {out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = ds.parse_fields(ExperimentConfig, ds.decode_utf8(Path(args.config).read_bytes(), args.config))
    folds, class_names = load_folds(cfg.dataset, ("train", "val"))
    model_cfg = cfg.model_config(len(class_names), folds["train"].images.shape[1])
    model = MODELS[cfg.model](model_cfg, cfg.seed)
    history = train(model, folds["train"], folds["val"], strategy=cfg.strategy, epochs=cfg.epochs,
                    batch_size=cfg.batch_size, seed=cfg.seed, initial_lr=cfg.learning_rate,
                    weights=cfg.loss_weights())
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out_dir / "model.ckpt")
    rows = [",".join(HISTORY_COLUMNS)]
    rows += [",".join(str(v) for v in stats.row()) for stats in history]
    ds.write_atomic(out_dir / "history.csv", "\n".join(rows) + "\n")
    ds.write_atomic(out_dir / "resolved_config.txt", ds.format_fields(cfg))
    print(f"trained {cfg.model} ({cfg.strategy}) for {cfg.epochs} epochs -> {out_dir}")
    return 0


def cmd_eval(args) -> int:
    model = model_from_checkpoint(args.checkpoint)
    needed = ("ce", "fce") if args.head == "fused" else (args.head,)
    if not set(needed) <= set(model.heads):
        raise ConfigError(f"the {args.head} head needs heads {list(needed)}; the checkpoint has {list(model.heads)}")
    folds, class_names = load_folds(args.data, (args.split,))
    fold = folds[args.split]
    try:
        scores = score_fold(model, fold)
    except DataError as exc:
        raise DataError(f"split {args.split!r}: {exc}") from exc
    chosen = sum(scores[head] for head in needed) / len(needed)
    report = build_report(ScoreMatrix(chosen, fold.labels, class_names))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds.write_atomic(out, report.to_json() + "\n")
    resolved = (
        f"checkpoint = {args.checkpoint}\ndata = {args.data}\n"
        f"split = {args.split}\nhead = {args.head}\nout = {args.out}\n"
    )
    ds.write_atomic(out.parent / (out.name + ".config.txt"), resolved)
    macro = "nan" if report.macro_auc is None else f"{report.macro_auc:.4f}"
    print(f"{args.split} macro AUC ({args.head} head): {macro} -> {out}")
    return 0


def cmd_gradcheck(args) -> int:
    scopes = SCOPES if args.scope == "all" else (args.scope,)
    all_ok = True
    for scope in scopes:
        for name, err in run_scope(scope).items():
            status = "ok" if err <= TOLERANCES[name] else "FAIL"
            all_ok &= status == "ok"
            print(f"{scope:10s} {name:16s} max rel err {err:.3e}  (tol {TOLERANCES[name]:.0e})  {status}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="msml", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset with splits")
    p.add_argument("--spec", required=True, help="generator spec file (key = value lines)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model from an experiment config")
    p.add_argument("--config", required=True, help="experiment config file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--head", default="fce", choices=("ce", "msml", "fce", "fused"))
    p.add_argument("--out", required=True, help="report file path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", default="all", choices=SCOPES + ("all",))
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        worker_pool()  # an invalid MSML_THREADS exits 2 before any work starts
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MsmlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
