"""Command-line entry point.

Subcommands: ``gen-data`` (synthesize a dataset with grouped splits),
``train`` (run an experiment config), ``eval`` (score a checkpoint on a
split and write the metrics report), ``gradcheck`` (finite-difference
verification suites).

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 numerical failure during training. Output files are written atomically
(temp file + rename), and every file-writing command leaves its resolved
configuration beside its outputs.
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
from .model import (
    BackboneConfig,
    BaselineModel,
    ModelConfig,
    TwoStreamModel,
    ensemble_fuse,
    model_from_checkpoint,
    save_checkpoint,
)
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
    alpha: float = 0.2
    beta: float = 0.6
    seed: int = 1
    crop_size: int = 28
    conv_blocks: tuple = ((16, 3, True), (32, 3, True), (32, 3, True))
    proj_width: int = 128
    dropout_rate: float = 0.5
    out_dir: str = ""

    def validate(self):
        if self.model not in ("two_stream", "baseline"):
            raise ConfigError(f"model must be two_stream or baseline, got {self.model!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; choose one of {STRATEGIES}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not self.conv_blocks:
            raise ConfigError("conv_blocks needs at least one block")
        for out_ch, kernel, _ in self.conv_blocks:
            if out_ch < 1 or kernel < 1 or kernel % 2 == 0:
                raise ConfigError(f"conv_blocks {out_ch}:{kernel}: needs out_channels >= 1 and an odd kernel >= 1")
        if self.proj_width < 1:
            raise ConfigError(f"proj_width must be >= 1, got {self.proj_width}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.dataset or not self.out_dir:
            raise ConfigError("config needs both dataset and out_dir")
        return self


def load_folds(data_dir):
    """Dataset folds, normalized with train-fold statistics."""
    data_dir = Path(data_dir)
    if not (data_dir / "images.bin").exists():
        raise DataError(f"no dataset at {data_dir}")
    data = ds.load(data_dir)
    folds_idx = ds.load_splits(data_dir / "splits.json", len(data))
    images = {name: data.images[idx] for name, idx in folds_idx.items()}
    normed, _ = ds.normalize(images, "train")
    folds = {
        name: FoldData(normed[name], data.labels[idx].astype(np.float64))
        for name, idx in folds_idx.items()
    }
    return folds, data.class_names


def build_model_from_config(cfg: ExperimentConfig, num_classes: int, input_channels: int):
    model_cfg = ModelConfig(
        num_classes=num_classes,
        input_size=(cfg.crop_size, cfg.crop_size),
        backbone=BackboneConfig(input_channels=input_channels, conv_blocks=cfg.conv_blocks),
        proj_width=cfg.proj_width,
        dropout_rate=cfg.dropout_rate,
    )
    if cfg.model == "baseline":
        return BaselineModel(model_cfg, cfg.seed)
    return TwoStreamModel(model_cfg, cfg.seed, LossWeights(cfg.alpha, cfg.beta))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    spec = ds.parse_fields(ds.GeneratorSpec, Path(args.spec).read_text())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = ds.generate(spec)
    ds.save(data, out_dir)
    folds = ds.split(data, ds.SplitSpec(seed=spec.seed))
    ds.save_splits(folds, out_dir / "splits.json")
    ds.write_atomic(out_dir / "manifest.txt", ds.format_fields(spec))
    print(f"wrote {len(data)} samples to {out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = ds.parse_fields(ExperimentConfig, Path(args.config).read_text())
    folds, class_names = load_folds(cfg.dataset)
    model = build_model_from_config(cfg, len(class_names), folds["train"].images.shape[1])
    history = train(
        model,
        folds["train"],
        folds["val"],
        strategy=cfg.strategy,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        initial_lr=cfg.learning_rate,
        crop_size=cfg.crop_size,
    )
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
    folds, class_names = load_folds(args.data)
    if args.split not in folds:
        raise ConfigError(f"unknown split {args.split!r}; have {sorted(folds)}")
    fold = folds[args.split]
    try:
        scores = score_fold(model, fold)
    except DataError as exc:
        raise DataError(f"split {args.split!r}: {exc}") from exc
    if args.head == "fused":
        if "fce" not in scores:
            raise ConfigError("fused head needs a two-stream checkpoint with an fce head")
        chosen = ensemble_fuse([scores["ce"], scores["fce"]])
    else:
        if args.head not in scores:
            raise ConfigError(f"checkpoint has heads {sorted(scores)}, not {args.head!r}")
        chosen = scores[args.head]
    report = build_report(ScoreMatrix(chosen, fold.labels.astype(np.int8), class_names))
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
        for name, err in run_scope(scope, perturb=args.perturb).items():
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
    p.add_argument("--perturb", type=float, default=0.0,
                   help="bias added to analytic gradients (harness self-test)")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MsmlError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
