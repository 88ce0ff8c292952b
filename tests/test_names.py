"""Static guards over the ``msml`` sources.

A name used but never imported or defined (say ``os.replace`` without
``import os``) only fails when its line runs; the first guard finds it from
the symbol tables alone, without running the code. The second keeps every
``forward`` free of per-call state: a forward pass returns its caches and
never stores them on ``self``, so one model can run on several threads.
"""

import ast
import builtins
import pkgutil
import symtable
from pathlib import Path

import msml

MODULE_ATTRS = {"__name__", "__file__", "__doc__", "__package__", "__spec__",
                "__loader__", "__path__", "__builtins__"}


def _tables(table):
    yield table
    for child in table.get_children():
        yield from _tables(child)


def undefined_globals(source, filename):
    """(scope, name) for each global read in ``source`` that nothing binds."""
    top = symtable.symtable(source, filename, "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    known = bound | set(dir(builtins)) | MODULE_ATTRS
    return sorted({
        (table.get_name(), s.get_name())
        for table in _tables(top)
        for s in table.get_symbols()
        if s.is_referenced() and s.is_global() and s.get_name() not in known
    })


def test_guard_flags_a_missing_import():
    source = "def f(p):\n    os.replace(p, p)\n"
    assert undefined_globals(source, "<t>") == [("f", "os")]
    assert undefined_globals("import os\n" + source, "<t>") == []


def test_every_module_binds_the_globals_it_reads():
    found = []
    for info in pkgutil.iter_modules(msml.__path__):
        path = Path(msml.__path__[0]) / f"{info.name}.py"
        found += [(info.name, *hit) for hit in undefined_globals(path.read_text(), str(path))]
    assert found == []


def forwards_storing_on_self(source):
    """(class, method) for each ``forward`` that assigns to an attribute of ``self``."""
    hits = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "forward" and any(
                isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                for node in ast.walk(fn)
            ):
                hits.append((cls.name, fn.name))
    return hits


def test_state_guard_flags_plain_tuple_and_augmented_stores():
    for body in ("self.cache = x", "out, self._cache = f(x)", "self.calls += 1"):
        source = f"class L:\n    def forward(self, x):\n        {body}\n        return x\n"
        assert forwards_storing_on_self(source) == [("L", "forward")]
    clean = "class L:\n    def forward(self, x):\n        out, cache = f(x)\n        return out, cache\n"
    assert forwards_storing_on_self(clean) == []


def test_no_forward_stores_state_on_self():
    found = []
    for info in pkgutil.iter_modules(msml.__path__):
        path = Path(msml.__path__[0]) / f"{info.name}.py"
        found += [(info.name, *hit) for hit in forwards_storing_on_self(path.read_text())]
    assert found == []
