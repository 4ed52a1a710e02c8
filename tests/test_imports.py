"""Every name a curlab module imports is used there or re-exported.

A stand-in for pyflakes' unused-import check (F401), which is not a
dependency: each `src/curlab/*.py` is parsed with `ast`, and an imported
name must appear as a name in the module's code or be listed in its
`__all__`. Imports on a line marked `# noqa: F401` are exempt; they keep
names that perfbench/tracing.py wraps on the module that calls them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "curlab"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nimport os  # noqa: F401\nfrom json import dumps, loads\n"
                   "__all__ = ['loads']\n\nprint(dumps)\n")
    assert _unused_imports(mod) == ["mod.py:1 math"]
