"""Every name a curlab module imports is used there or re-exported, and
every private module-level name is referenced somewhere in the package.

A stand-in for pyflakes' unused-import check (F401), which is not a
dependency: each `src/curlab/*.py` and `tests/*.py` is parsed with `ast`,
and an imported name must appear as a name in the module's code or be
listed in its `__all__`. Imports on a line marked `# noqa: F401` are exempt; they keep
names that perfbench/tracing.py wraps on the module that calls them.

The dead-code guard: a function, class or constant defined at module level
under a `_` name must be read somewhere in `src/curlab/` (as a name, an
attribute or an import), so a helper or a constant that a refactor leaves
behind is found.

The scipy guard: importing curlab loads no scipy module, and neither do
the map pipelines, `directions` or `mass`; scipy is imported by the four
calls that use it, on first use.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "curlab"
TESTS = Path(__file__).resolve().parent


def _unused_imports(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nimport os  # noqa: F401\nfrom json import dumps, loads\n"
                   "__all__ = ['loads']\n\nprint(dumps)\n")
    assert _unused_imports(mod) == ["mod.py:1 math"]


def _module_private_names(tree):
    """(name, line) of each `_` name a module binds at its top level by a
    def, a class or an assignment (dunder names excepted)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(id=node.name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name) and name.id.startswith("_")
                        and not name.id.startswith("__")):
                    yield name.id, node.lineno


def _unreferenced_private_names(paths) -> list[str]:
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, line, name) for name, line in _module_private_names(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{file}:{line} {name}" for file, line, name in sorted(defined)
            if name not in read]


def test_no_unreferenced_private_names():
    assert _unreferenced_private_names(sorted(SRC.glob("*.py"))) == []


def test_unreferenced_private_name_is_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("_USED = 1\n_LEFT = 2\n_A, (_B, _C) = 3, (4, 5)\n__all__ = []\n\n"
                   "def _helper():\n    _LOCAL = _USED + _A\n    return _LOCAL\n\n"
                   "class _Gone:\n    pass\n\n\n"
                   "def _loud():\n    pass\n\n\n"
                   "_TABLE: dict = {}\n_helper()\n")
    other = tmp_path / "other.py"
    other.write_text("import mod\nfrom mod import _B\n\nmod._loud()\n")
    assert _unreferenced_private_names([mod, other]) == [
        "mod.py:2 _LEFT", "mod.py:3 _C", "mod.py:10 _Gone", "mod.py:18 _TABLE"]


# Runs in a fresh interpreter, writing CSVs into the directory argv[1];
# prints the scipy modules loaded after each step.
_SCIPY_FREE_STEPS = """
import json, sys


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


loaded = {}
from curlab import cli, jholo as jh
loaded["import curlab.cli"] = scipy_modules()
out = sys.argv[1]
for argv in (["jholo-energy", "--example", "z1", "--n", "4"],
             ["jholo-monotonicity", "--example", "z1", "--n", "5"],
             ["jholo-rate", "--example", "z1", "--n", "6", "--mode", "A", "--theta-hat", "0"],
             ["directions", "--example", "two-lines", "--h", "0.3", "--radius", "0.5"],
             ["mass", "--example", "flat-disk", "--h", "0.3", "--n", "4"]):
    assert cli.run(argv + ["--out", out]) == 0, argv
    loaded[argv[0]] = scipy_modules()
grid = dict(n_radial=12, n_eta=4, n_phi=8)
jh.coarea_slice_check(jh.map_example("z1", **grid), n_lines=64)
loaded["coarea_slice_check"] = scipy_modules()
jh.inner_variation_residual(jh.map_example("z1", **grid), jh.radial_bump_field(),
                            jh.AlmostComplexField.standard())
loaded["inner_variation_residual, standard J"] = scipy_modules()
u, J = jh.map_example("z1-warped", **grid)
jh.inner_variation_residual(u, jh.radial_bump_field(), J)
loaded["inner_variation_residual, warped J"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_import_and_map_pipelines_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_STEPS, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True, timeout=300)
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert len(loaded) == 9
    assert {step: mods for step, mods in loaded.items() if mods} == {}
