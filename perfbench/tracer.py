"""Run one msml CLI command with every public msml function and method timed.

    python3 perfbench/tracer.py SPANS_JSON <msml subcommand and arguments>

The tracer imports every ``msml`` module, replaces each public function in
every ``msml`` namespace that binds it (so ``train.msml_batch`` and
``losses.msml_batch`` become the same wrapper) and each public method,
class method, static method and property of every ``msml`` class with a
wrapper that records a span, then runs the command through ``msml.cli.entry``
exactly as the ``msml`` console script does. It sets no thread variable.

A span is ``(id, name, start_ns, end_ns, thread, cause, tag)``. The cause is
the innermost open span of the same thread or, for the first span of a task
submitted to a thread pool or of a started thread, the span open in the
submitting thread. Spans stay in memory and are written to SPANS_JSON when
the command ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# The block a conv or pool call belongs to, read off the spatial size of its
# first argument at the default 28x28 crop and 16/32/32 conv blocks.
_BLOCK_OF_INPUT = {28: "b1", 14: "b2", 7: "b3"}
_BLOCK_OF_POOL_GRAD = {14: "b1", 7: "b2", 3: "b3"}


def _block_tag(table):
    def tag(args, kwargs):
        return table.get(args[0].shape[-1], "bx")
    return tag


def _digest(args, kwargs):
    """Fingerprint of an AUC's inputs, so repeated computations can be counted."""
    import numpy as np

    h = hashlib.blake2b(digest_size=8)
    for a in args[:2]:
        arr = np.ascontiguousarray(a)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _normalized_samples(args, kwargs):
    images_by_fold = args[0] if args else kwargs["images_by_fold"]
    return sum(len(v) for v in images_by_fold.values())


def _scored_samples(args, kwargs):
    fold = args[1] if len(args) > 1 else kwargs["fold"]
    return len(fold)


# Span name -> function of the call's arguments giving the span's tag. Conv
# and pool tags become part of the span name; the others are kept as data.
NAME_TAGS = {
    "ops.conv2d_forward": _block_tag(_BLOCK_OF_INPUT),
    "ops.conv2d_backward": _block_tag(_BLOCK_OF_INPUT),
    "ops.maxpool2d_forward": _block_tag(_BLOCK_OF_INPUT),
    "ops.maxpool2d_backward": _block_tag(_BLOCK_OF_POOL_GRAD),
}
DATA_TAGS = {
    "metrics.roc_auc": _digest,
    "dataset.normalize": _normalized_samples,
    "train.score_fold": _scored_samples,
}


class Recorder:
    """Keeps spans in memory; one per traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrappers = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def current(self):
        return self._stack()[-1]

    def run_caused_by(self, cause, fn, *args, **kwargs):
        """Run fn on this thread with ``cause`` as the cause of its first spans."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [cause]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def wrap(self, fn, name):
        """The traced version of fn; one wrapper per function object."""
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name_tag = NAME_TAGS.get(name)
        data_tag = DATA_TAGS.get(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, thread_id = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            cause = stack[-1]
            span_id = next(ids)
            span_name = f"{name}.{name_tag(args, kwargs)}" if name_tag else name
            tag = data_tag(args, kwargs) if data_tag else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, span_name, start, end, thread_id(), cause, tag))

        traced.__perfbench_traced__ = name
        self._wrappers[id(fn)] = traced
        return traced

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh)


def msml_modules():
    """The msml package and every module in it, imported."""
    import msml

    names = sorted(m.name for m in pkgutil.iter_modules(msml.__path__))
    return [msml] + [importlib.import_module(f"msml.{n}") for n in names]


def _is_msml(obj):
    return getattr(obj, "__module__", "").split(".")[0] == "msml"


def _layer(obj):
    return obj.__module__.split(".", 1)[1] if "." in obj.__module__ else obj.__module__


def _wrap_class(rec, cls):
    prefix = f"{_layer(cls)}.{cls.__qualname__}"
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{attr}"
        if inspect.isfunction(value):
            setattr(cls, attr, rec.wrap(value, name))
        elif isinstance(value, (classmethod, staticmethod)):
            setattr(cls, attr, type(value)(rec.wrap(value.__func__, name)))
        elif isinstance(value, property) and value.fget is not None:
            setattr(cls, attr, property(rec.wrap(value.fget, name), value.fset, value.fdel, value.__doc__))


def install(rec):
    """Wrap every public msml function and method; returns the modules."""
    modules = msml_modules()
    classes = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or not _is_msml(value):
                continue
            if inspect.isfunction(value):
                setattr(mod, attr, rec.wrap(value, f"{_layer(value)}.{value.__name__}"))
            elif inspect.isclass(value) and value not in classes:
                classes.append(value)
    for cls in classes:
        _wrap_class(rec, cls)
    _propagate_causes(rec)
    return modules


def _propagate_causes(rec):
    """Make pool tasks and started threads name the submitting span as cause."""
    submit = ThreadPoolExecutor.submit
    start = threading.Thread.start

    def traced_submit(pool, fn, /, *args, **kwargs):
        return submit(pool, rec.run_caused_by, rec.current(), fn, *args, **kwargs)

    def traced_start(thread):
        run, cause = thread.run, rec.current()
        thread.run = lambda: rec.run_caused_by(cause, run)
        return start(thread)

    ThreadPoolExecutor.submit = traced_submit
    threading.Thread.start = traced_start


def main(argv):
    spans_path, command = argv[0], argv[1:]
    rec = Recorder()
    t0 = time.perf_counter_ns()
    install(rec)
    install_ns = time.perf_counter_ns() - t0
    import msml.cli

    sys.argv = ["msml", *command]
    try:
        msml.cli.entry()
    finally:
        rec.dump(spans_path, install_ns=install_ns)


if __name__ == "__main__":
    main(sys.argv[1:])
