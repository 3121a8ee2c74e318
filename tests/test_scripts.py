"""Smoke runs of the scripts in scripts/, so an API change cannot break
them silently, and a scan of src/fraclab for definitions and imports that
nothing uses."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = Path(__file__).resolve().parent.parent / "src" / "fraclab"

# Definitions that nothing in src/ refers to, kept for the reason given.
KEEP = {
    "exponents.py:critical_trace_exponent": "the paper's p*(x) = (n - 1) pbar(x) / (n - s pbar(x))",
    "exponents.py:conjugate_field": "the paper's conjugate exponent",
    "embeddings.py:proof_chain_check": "the paper's proof chain on covering patches (criterion 4)",
    "expressions.py:to_source": "the inverse of parse_expression, whose round trip the expression tests check",
    "geometry.py:GridFunction.from_callable": "README's constructor",
    "geometry.py:get_default_threads": "reads the state set_default_threads sets",
    "geometry.py:GridFunction.scaled": "the homogeneity tests and criterion 3 scale data with it",
    "exponents.py:ExponentField.eval_pair_grid": "perfbench times it",
    "geometry.py:reduce_blocks": "perfbench times a pass with it",
    "geometry.py:PairQuadrature.n_pairs": "perfbench's pair count",
    "geometry.py:PairChunk.n_pairs": "the tests' check that the pieces cover every pair once",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_stability_runs(capsys):
    rc = _load("trace_stability").main(["--resolutions", "4", "6", "--expr", "x1 + x2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "x1 + x2" in out and "worst variation" in out


def test_pin_goldens_runs(capsys):
    rc = _load("pin_goldens").main([])
    assert rc == 0
    goldens = json.loads(capsys.readouterr().out)
    assert "sweep_super_ratios_128" not in goldens
    # the same value tests/test_modular.py pins
    assert goldens["norm_identity_p2_N64"] == pytest.approx(0.577332649588925, rel=1e-12)


CODE_SNIPPET = '''"""A module docstring,
over two lines."""

import math  # a comment on a code line

# a comment line
def f(x):
    """A docstring."""
    "a string statement" "in two parts"
    y = (x +
         1)
    s = """a string
    that is a value"""
    return math.sqrt(y), s
'''


def test_code_lines_counts_lines_that_hold_code(capsys):
    code_lines = _load("code_lines")
    # import, def, the two lines of y and of s, and return
    assert code_lines.code_lines(CODE_SNIPPET) == 7
    assert code_lines.code_lines("") == 0
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total" and int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1])
    assert sorted(name for _, name in rows[:-1]) == sorted(path.name for path in SRC.glob("*.py"))


def _modules():
    """(file name, syntax tree) of every module of src/fraclab but __init__.py,
    whose re-exports use nothing."""
    return [(path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def _definitions_and_references():
    """The functions, classes and methods of src/, dunder methods aside, as
    {"module.py:Class.name": (name, node)}, and every ast.Name or
    ast.Attribute as (name, the definitions that enclose it)."""
    defs, refs = {}, []

    def walk(node, module, prefix, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    defs[f"{module}:{prefix}{child.name}"] = (child.name, child)
                walk(child, module, f"{prefix}{child.name}.", enclosing + (child,))
                continue
            if isinstance(child, (ast.Name, ast.Attribute)):
                refs.append((child.id if isinstance(child, ast.Name) else child.attr, enclosing))
            walk(child, module, prefix, enclosing)

    for module, tree in _modules():
        walk(tree, module, "", ())
    return defs, refs


def test_every_definition_in_src_is_used():
    """No definition outside KEEP goes unreferenced.  A reference inside the
    definition itself (recursion) does not count, nor does one inside a
    definition found unreferenced, so what only a dead definition uses is
    dead too."""
    defs, refs = _definitions_and_references()
    assert set(KEEP) <= set(defs)
    dead = {}
    while True:
        gone = {node for _, node in dead.values()}
        live = [(name, enc) for name, enc in refs if gone.isdisjoint(enc)]
        new = {
            label: (name, node)
            for label, (name, node) in defs.items()
            if label not in dead and label not in KEEP and not any(n == name and node not in enc for n, enc in live)
        }
        if not new:
            break
        dead.update(new)
    assert not dead, f"defined but never referenced in src/: {sorted(dead)}"


def test_every_import_in_src_is_used():
    unused = []
    for module, tree in _modules():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [
                    f"{module}:{node.lineno}:{alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert not unused, f"imported but never used: {unused}"
