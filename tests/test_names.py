"""Static guards over the ``msml`` sources.

A name used but never imported or defined (say ``os.replace`` without
``import os``) only fails when its line runs; the first guard finds it from
the symbol tables alone, without running the code. The second keeps every
``forward`` free of per-call state: a forward pass returns its caches and
never stores them on ``self``, so one model can run on several threads. The
third finds dead code: a public function, class or method that nothing in the
package, its tests or its benchmark refers to. The fourth finds code kept only
for the tests: a public name that neither the package (its re-exports aside)
nor the benchmark refers to. The fifth keeps the layer ops and the bilinear
chain free of array conversions: their callers pass float64 arrays, converted
once where data enters the program.
"""

import ast
import builtins
import pkgutil
import symtable
from pathlib import Path

import msml

ROOT = Path(__file__).resolve().parent.parent

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


def public_defs(source):
    """(qualified name, name) of each public top-level def or class and public method."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def references(source):
    """Every name ``source`` uses, imports or spells out as a whole string literal."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name.rpartition(".")[2], node.asname}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_dead_code_guard_flags_unreferenced_public_names():
    source = ("def used():\n    pass\n\ndef unused():\n    pass\n\ndef _private():\n    pass\n\n"
              "class K:\n    def run(self):\n        pass\n\n    def idle(self):\n        pass\n")
    user = "from m import used as u\ngetattr(K(), 'run')()\n"
    used = references(source) | references(user)
    assert [q for q, name in public_defs(source) if name not in used] == ["unused", "K.idle"]


PACKAGE = sorted(Path(msml.__path__[0]).glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").rglob("*.py"))


def unreferenced(user_files):
    """(module, qualified name) of each public def in ``msml`` that no file of ``user_files`` refers to."""
    used = set().union(*(references(path.read_text()) for path in user_files))
    return [(path.stem, qual) for path in PACKAGE
            for qual, name in public_defs(path.read_text()) if name not in used]


def test_every_public_name_is_referenced():
    assert unreferenced(PACKAGE + sorted((ROOT / "tests").rglob("*.py")) + BENCHMARK) == []


def test_no_public_name_is_used_only_by_tests():
    # re-exports in __init__.py do not count as uses
    assert unreferenced([path for path in PACKAGE if path.name != "__init__.py"] + BENCHMARK) == []


def conversions(source):
    """Line of each call to ``np.asarray``, ``np.array`` or ``_as_f64`` in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np" and node.func.attr in ("asarray", "array")
        or isinstance(node.func, ast.Name) and node.func.id == "_as_f64"))


def test_conversion_guard_flags_asarray_array_and_as_f64():
    source = "def f(x, y, z):\n    x = np.asarray(x)\n    y = np.array(y, dtype=float)\n    return _as_f64(z) + np.zeros(1)\n"
    assert conversions(source) == [2, 3, 4]


def test_layer_ops_and_bilinear_chain_convert_no_input():
    found = {name: conversions((Path(msml.__path__[0]) / f"{name}.py").read_text()) for name in ("ops", "bilinear")}
    assert found == {"ops": [], "bilinear": []}
