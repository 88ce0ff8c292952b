"""The tracer wraps every public msml function and method, and writes spans."""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
ENV = {"PYTHONPATH": str(SRC)}

# Runs in a fresh interpreter: install() patches the msml modules and the
# thread pool of the process it runs in.
COVERAGE_PROBE = textwrap.dedent(
    """
    import ast, inspect, json, sys
    from pathlib import Path
    sys.path.insert(0, sys.argv[1])
    import tracer

    modules = tracer.install(tracer.Recorder())
    unwrapped = []
    for mod in modules:
        if not hasattr(mod, "__file__") or mod.__name__ == "msml":
            continue
        tree = ast.parse(Path(mod.__file__).read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names = [(m, node.name) for m in modules if node.name in vars(m)]
                for m, attr in names:
                    if inspect.isfunction(vars(m)[attr]) and not hasattr(
                        vars(m)[attr], "__perfbench_traced__"
                    ):
                        unwrapped.append(f"{m.__name__}.{attr}")
            elif isinstance(node, ast.ClassDef):
                cls = vars(mod)[node.name]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        raw = vars(cls)[item.name]
                        fn = raw.fget if isinstance(raw, property) else getattr(raw, "__func__", raw)
                        if not hasattr(fn, "__perfbench_traced__"):
                            unwrapped.append(f"{mod.__name__}.{node.name}.{item.name}")
    print(json.dumps(unwrapped))
    """
)


def test_every_public_function_and_method_is_wrapped():
    out = subprocess.run(
        [sys.executable, "-c", COVERAGE_PROBE, str(BENCH)],
        env=ENV, capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(out.stdout) == []


def test_public_names_exist():
    # The probe above walks source files; make sure it has something to walk.
    defs = [n for f in (SRC / "msml").glob("*.py")
            for n in ast.parse(f.read_text()).body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    assert len(defs) > 50


def test_traced_command_writes_spans(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("num_samples = 200\nnum_groups = 20\nseed = 3\n")
    spans_path = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans_path),
         "gen-data", "--spec", str(spec), "--out", str(tmp_path / "data")],
        env=ENV, check=True, capture_output=True, timeout=120,
    )
    assert (tmp_path / "data" / "images.bin").exists()
    data = json.loads(spans_path.read_text())
    assert data["install_ns"] > 0
    by_name = {}
    for sid, name, start, end, thread, cause, tag in data["spans"]:
        by_name.setdefault(name, []).append((sid, start, end, cause))
    (main_id, main_start, main_end, _), = by_name["cli.main"]
    (gen_id, gen_start, gen_end, gen_cause), = by_name["dataset.generate"]
    assert main_start <= gen_start <= gen_end <= main_end
    # generate is called from cmd_gen_data, which main calls
    (cmd_id, _, _, cmd_cause), = by_name["cli.cmd_gen_data"]
    assert (gen_cause, cmd_cause) == (cmd_id, main_id)
