"""Diff the reach probe's dumps against every function defined in src/repro.

Run each entry point with ``PYTHONPATH=src:tests/tools`` (see
``sitecustomize.py``), then ``python tests/tools/reach.py`` prints the
defined, reached and unreached counts and lists each unreached function.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

reached = set()
for dump in (ROOT / ".reach").glob("*.txt"):
    for row in dump.read_text().splitlines():
        filename, line, _ = row.split("\t")
        reached.add((str(Path(filename).resolve()), int(line)))

defined = {}
for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            defined[(str(path.resolve()), first)] = node

unreached = sorted(set(defined) - reached)
lines = sum(defined[key].end_lineno - key[1] + 1 for key in unreached)
for filename, line in unreached:
    print(f"{Path(filename).relative_to(ROOT)}:{line} {defined[filename, line].name}")
print(f"defined {len(defined)}  reached {len(defined) - len(unreached)}  "
      f"unreached {len(unreached)} ({lines} lines)")
