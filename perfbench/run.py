"""The msml benchmark: three workloads run through the msml CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the package under ``src/``. Each
msml command runs in its own process, as a user runs it, and the benchmark
sets no thread variable. A run sets its workload up several times, then runs
whole rounds of the workload's commands until ``--seconds`` have passed,
then checks the outputs (see checks.py). The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (counts of msml
commands) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
set-ups or commands of the run. With ``--trace 1`` the run first times one
untraced episode (one set-up and one round), then runs traced episodes
under tracer.py until ``--seconds`` have passed, and reports the per-layer
metrics of layers.py, per episode, with the traced/untraced wall-time ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import PER_LAYER, Command, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
CLI = "from msml.cli import entry; entry()"
DEADLINE_S = 170.0
THREAD_CHECK_SAMPLES = 256  # four of score_fold's batches, enough for its pool

# The generator's default spec, written out in full so the checks know every
# parameter without asking the program.
BASE_SPEC = {
    "num_classes": 8,
    "num_samples": 2000,
    "num_groups": 100,
    "image_size": (32, 32),
    "channels": 1,
    "class_prevalence": (0.25, 0.174, 0.121, 0.085, 0.059, 0.041, 0.029, 0.02),
    "cooccurrence_pairs": ((0, 1, 0.2), (2, 3, 0.15)),
    "normal_fraction": 0.5,
    "noise_sigma": 0.1,
}
# The default ModelConfig (batch 16, 28x28 crops, conv blocks 16/32/32).
BASE_CONFIG = {
    "strategy": "global",
    "batch_size": 16,
    "crop_size": 28,
    "conv_blocks": "16:3:1, 32:3:1, 32:3:1",
}
E2E_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "gen_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "test_macro_auc": "AUC",
    "peak_rss_mb": "MB",
}
EVAL_SAMPLES = 6000
# Generated samples use the generator seed XOR their index, so datasets whose
# seeds differ only in low bits share samples; this offset keeps the eval
# dataset apart from the training dataset.
EVAL_SEED_OFFSET = 1 << 20


@dataclass(frozen=True)
class Step:
    """One msml command of a workload."""

    kind: str  # "gen-data", "train" or "eval"
    name: str  # dataset directory, or run directory for train and eval
    model: str = ""
    epochs: int = 1
    # At the default 1e-4, one two-stream epoch leaves the FCE head below
    # chance on some seeds (test macro-AUC 0.28 on seed 2); at 1e-3 it is 0.92.
    learning_rate: float = 1e-3
    data: str = "data"
    head: str = ""
    samples: int = 0
    seed_offset: int = 0


GEN_TRAIN_DATA = Step("gen-data", "data", samples=BASE_SPEC["num_samples"])
GEN_EVAL_DATA = Step("gen-data", "big", samples=EVAL_SAMPLES, seed_offset=EVAL_SEED_OFFSET)
TRAIN_TWO_STREAM = Step("train", "two_stream", model="two_stream")
# gen-eval trains its checkpoint in each of its set-ups, on half the default
# dataset so that three set-ups fit in a run.
GEN_CHECKPOINT_DATA = Step("gen-data", "small", samples=BASE_SPEC["num_samples"] // 2)
TRAIN_CHECKPOINT = Step("train", "two_stream", model="two_stream", data="small")
# After one epoch the baseline's test macro-AUC ranges 0.73-0.99 over seeds.
TRAIN_BASELINE = Step("train", "baseline", model="baseline", epochs=2)


def evaluate(run, data, head):
    return Step("eval", run, data=data, head=head)


@dataclass(frozen=True)
class Workload:
    why: str
    setup: tuple
    round: tuple
    setups: int  # set-ups per run; more where a set-up is short

    @property
    def primary(self):
        """The eval whose head's test macro-AUC the run reports: the round's first."""
        return next(s for s in self.round if s.kind == "eval")


WORKLOADS = {
    "train-two-stream": Workload(
        "two-stream training: conv/pool on two streams, bilinear chain, MSML loss, Adam",
        (GEN_TRAIN_DATA,),
        (TRAIN_TWO_STREAM, evaluate("two_stream", "data", "fce")),
        5,
    ),
    "train-baseline": Workload(
        "single-stream training: the same backbone kernels, no bilinear head or MSML loss",
        (GEN_TRAIN_DATA,),
        # the baseline has one head, so its round evaluates it twice
        (TRAIN_BASELINE, evaluate("baseline", "data", "ce"), evaluate("baseline", "data", "ce")),
        5,
    ),
    "gen-eval": Workload(
        "gen-data of a 3x dataset and forward-only eval of two heads on the scoring pool",
        (GEN_CHECKPOINT_DATA, TRAIN_CHECKPOINT),
        # gen-data runs twice per round: one short command per round left its
        # median too noisy
        (GEN_EVAL_DATA, GEN_EVAL_DATA,
         evaluate("two_stream", "big", "fce"), evaluate("two_stream", "big", "fused")),
        3,
    ),
}


def spec_for(step, seed):
    return {**BASE_SPEC, "num_samples": step.samples, "seed": seed + step.seed_offset}


def spec_text(spec):
    lines = []
    for key, value in spec.items():
        if key == "cooccurrence_pairs":
            value = ", ".join(f"{a}:{b}:{boost!r}" for a, b, boost in value)
        elif isinstance(value, tuple):
            value = ", ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@dataclass
class Record:
    step: Step
    phase: str  # "setup" or "round"
    wall_s: float
    unstolen_s: float  # wall_s less the time the host stole; see host_clock
    rss_mb: float
    ok: bool
    spans: str = ""


@dataclass
class Runner:
    """Runs msml commands in a work directory and records each one."""

    work: Path
    seed: int
    deadline: float
    records: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)

    def env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return env

    def argv(self, step):
        if step.kind == "gen-data":
            spec = self.work / f"{step.name}.spec.txt"
            spec.write_text(spec_text(spec_for(step, self.seed)))
            return ["gen-data", "--spec", str(spec), "--out", str(self.work / step.name)]
        if step.kind == "train":
            config = self.work / f"{step.name}.config.txt"
            settings = {"dataset": self.work / step.data, "model": step.model, **BASE_CONFIG,
                        "epochs": step.epochs, "learning_rate": repr(step.learning_rate),
                        "seed": self.seed, "out_dir": self.work / step.name}
            config.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
            return ["train", "--config", str(config)]
        return ["eval", "--checkpoint", str(self.work / step.name / "model.ckpt"),
                "--data", str(self.work / step.data), "--split", "test", "--head", step.head,
                "--out", str(self.report_path(step))]

    def report_path(self, step):
        return self.work / step.name / f"{step.data}-{step.head}.json"

    def output_path(self, step):
        if step.kind == "train":
            return self.work / step.name / "model.ckpt"
        if step.kind == "eval":
            return self.report_path(step)
        return self.work / step.name / "images.bin"

    def run(self, step, phase, traced):
        args = self.argv(step)
        spans = ""
        if traced:
            spans = str(self.work / f"spans-{len(self.records)}.json")
            argv = [sys.executable, str(TRACER), spans, *args]
        else:
            argv = [sys.executable, "-c", CLI, *args]
        with open(self.work / "commands.log", "ab") as log:
            start, start_host = time.perf_counter(), host_clock()
            proc = subprocess.Popen(argv, env=self.env(), cwd=self.work, stdout=log, stderr=log)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the command before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        wall, unstolen = time.perf_counter() - start, host_clock() - start_host
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if ok:  # identical commands must write identical files; checked later
            digest = hashlib.sha256(self.output_path(step).read_bytes()).hexdigest()
            self.hashes.setdefault(self.output_path(step), set()).add(digest)
        rss = usage.ru_maxrss / 1024.0
        self.records.append(Record(step, phase, wall, unstolen, rss, ok, spans))
        print(f"{phase} {step.kind} {step.name} {step.data if step.kind == 'eval' else ''} "
              f"{step.head} exit {proc.returncode} wall {wall:.3f} s unstolen {unstolen:.3f} s "
              f"{rss:.1f} MB", file=sys.stderr)

    def run_all(self, steps, phase, traced=False):
        """Run every step, failed or not; returns their host_clock time."""
        start = host_clock()
        for step in steps:
            self.run(step, phase, traced)
        return host_clock() - start


def run_checks(runner, workload):
    """Check every output of the run; returns (primary test macro-AUC, failures)."""
    sys.path.insert(0, str(SRC))
    import checks
    from msml.cli import load_folds
    from msml.dataset import crop_batch
    from msml.losses import msml_batch, sigmoid_bce_batch
    from msml.model import model_from_checkpoint
    from msml.train import FoldData, score_fold

    work, steps = runner.work, set(workload.setup + workload.round)
    errors = checks.check_identical({str(p.relative_to(work)): d for p, d in runner.hashes.items()})
    for step in sorted(steps, key=str):
        if step.kind == "gen-data":
            errors += checks.check_dataset(work / step.name, spec_for(step, runner.seed))
        elif step.kind == "train":
            history = (work / step.name / "history.csv").read_text()
            errors += checks.check_history(history, step.epochs, step.learning_rate)

    scored = {}
    for step in sorted((s for s in steps if s.kind == "eval"), key=str):
        key = (step.name, step.data)
        if key not in scored:
            model = model_from_checkpoint(work / step.name / "model.ckpt")
            fold = load_folds(work / step.data)[0]["test"]
            pooled = score_fold(model, fold)
            part = FoldData(fold.images[:THREAD_CHECK_SAMPLES], fold.labels[:THREAD_CHECK_SAMPLES])
            part_pooled = score_fold(model, part)
            os.environ["MSML_THREADS"] = "1"
            try:
                part_single = score_fold(model, part)
            finally:
                del os.environ["MSML_THREADS"]
            errors += checks.check_same_scores(part_pooled, part_single)
            labels = checks.fold_labels(work / step.data, "test")
            scored[key] = (model, fold, labels, pooled)
        model, fold, labels, pooled = scored[key]
        scores = (pooled["ce"] + pooled["fce"]) / 2.0 if step.head == "fused" else pooled[step.head]
        report = json.loads(runner.report_path(step).read_text())
        errors += [f"{step.data}-{step.head}: {e}" for e in checks.check_report(report, scores, labels)]

    model, fold, labels, pooled = scored[(workload.primary.name, workload.primary.data)]
    macro_auc = checks.expected_report(pooled[workload.primary.head], labels)["macro_auc"]
    errors += checks.check_learning(macro_auc)
    batch = crop_batch(fold.images[:16], model.cfg.input_size[0], training=False)
    out = model.forward(batch, training=False)
    heads = [h for h in ("ce", "msml", "fce") if getattr(out, f"logits_{h}") is not None]
    logits = {h: getattr(out, f"logits_{h}") for h in heads}
    errors += checks.check_losses(
        {"msml": [logits["msml" if "msml" in logits else "ce"]],
         "bce": [logits[h] for h in heads if h != "msml"]},
        labels[:16], msml_batch, sigmoid_bce_batch)
    return macro_auc, errors


def dataset_size(work, data, fold):
    return len(json.loads((work / data / "splits.json").read_text())[fold])


def rate_metrics(runner, workload):
    """Samples per second of each command kind, median over its commands.

    A kind is taken from the rounds when they run it, else from the set-ups.
    """
    out = {}
    for kind, metric in (("gen-data", "gen_samples_per_s"), ("train", "train_samples_per_s"),
                         ("eval", "eval_samples_per_s")):
        phase = "round" if any(s.kind == kind for s in workload.round) else "setup"
        rates = []
        for rec in runner.records:
            if rec.step.kind != kind or rec.phase != phase or not rec.ok:
                continue
            if kind == "gen-data":
                samples = rec.step.samples
            elif kind == "train":
                samples = rec.step.epochs * dataset_size(runner.work, rec.step.data, "train")
            else:
                samples = dataset_size(runner.work, rec.step.data, "test")
            rates.append(samples / rec.unstolen_s)
        out[metric] = statistics.median(rates) if rates else 0.0
    return out


def peak_rss_mb(records):
    """The largest, over the run's distinct commands, of a command's median peak RSS.

    Identical commands differ by a few percent in peak RSS (allocator and
    thread timing), so the median over a command's repetitions is taken.
    """
    by_command = {}
    for rec in records:
        by_command.setdefault((rec.phase, rec.step), []).append(rec.rss_mb)
    return max(statistics.median(v) for v in by_command.values())


def stolen_s():
    """CPU time the host has taken from this machine's CPUs, averaged over them."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    ticks = int(fields[8]) if len(fields) > 8 else 0
    return ticks / os.sysconf("SC_CLK_TCK") / len(os.sched_getaffinity(0))


def host_clock():
    """Seconds that advance only while the host lets this machine run.

    On a virtual machine the host takes CPU time for other guests ("steal",
    /proc/stat). It slows every command here by as much as a third, and it
    changes from minute to minute, so timings are taken on this clock: wall
    time less stolen time. Without steal it is the wall clock.
    """
    return time.perf_counter() - stolen_s()


def environment(start_stolen, start_s):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in sorted(os.environ)
               if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MSML_THREADS")}
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": len(os.sched_getaffinity(0)),
            "thread_variables": threads,
            "steal_share": (stolen_s() - start_stolen) / (time.perf_counter() - start_s)}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative: the generator seeds samples with seed XOR index")
    return args


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "msml" / "cli.py").is_file():
        print(f"error: no msml package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, args.seed, time.monotonic() + DEADLINE_S)
    start_stolen, start_s = stolen_s(), time.perf_counter()
    try:
        if args.trace:
            metrics = traced_run(runner, workload, args.seconds)
        else:
            metrics = timed_run(runner, workload, args.seconds)
        try:
            macro_auc, errors = run_checks(runner, workload)
        except (OSError, ValueError, KeyError) as exc:  # an output is missing or unreadable
            macro_auc, errors = 0.0, [f"{type(exc).__name__}: {exc}"]
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)
        if not args.trace:
            metrics["test_macro_auc"] = macro_auc
        print(json.dumps({"environment": environment(start_stolen, start_s)}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(runner.records)
    failed = sum(not r.ok for r in runner.records)
    units = dict(PER_LAYER) if args.trace else E2E_UNITS
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def timed_run(runner, workload, seconds):
    setups = [runner.run_all(workload.setup, "setup") for _ in range(workload.setups)]
    start = time.perf_counter()
    while True:
        runner.run_all(workload.round, "round")
        if time.perf_counter() - start >= seconds:
            break
    metrics = {"setup_s": statistics.median(setups), **rate_metrics(runner, workload)}
    metrics["peak_rss_mb"] = peak_rss_mb(runner.records)
    return metrics


def traced_run(runner, workload, seconds):
    episode = workload.setup + workload.round
    untraced = runner.run_all(episode, "round")
    first = len(runner.records)
    traced = []
    start = time.perf_counter()
    while True:
        traced.append(runner.run_all(episode, "round", traced=True))
        if time.perf_counter() - start >= seconds:
            break
    commands = []
    for rec in runner.records[first:]:
        if rec.ok:
            data = json.loads(Path(rec.spans).read_text())
            commands.append(Command(rec.wall_s, data["install_ns"], data["spans"]))
    return per_layer(commands, len(traced), statistics.median(traced) / untraced)


if __name__ == "__main__":
    sys.exit(main())
