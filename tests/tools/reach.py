"""Diff the reach probe's dumps against every function defined in src/repro.

Run each entry point with ``PYTHONPATH=src:tests/tools`` (see
``sitecustomize.py``; ``survey.sh`` runs them all), then
``python tests/tools/reach.py`` prints the defined, reached and unreached
counts and checks the unreached functions against ``reach_keep.txt``.

Each keep-list entry is ``path::qualname``, optionally followed by its own
reason, under a ``[category] reason`` header.  The exit status is 1 when an
unreached function is not listed, or a listed one is now reached or gone,
so the list stays exactly the set a full survey leaves unreached.
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
KEEP = Path(__file__).resolve().parent / "reach_keep.txt"


def defined_functions():
    """``{(path, first line): (relative path, qualname, node)}`` over src/repro."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path.resolve()), first] = (
                    str(path.relative_to(ROOT)), qualname, child)
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def read_keep_list(path):
    """``{"path::qualname": category}``; a malformed file raises ValueError."""
    keep, category = {}, None
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            category = line[1:line.index("]")]
            continue
        entry = line.split()[0]
        if category is None or "::" not in entry or entry in keep:
            raise ValueError(f"{path.name}:{number}: expected one new "
                             f"'path::qualname' under a [category] header")
        keep[entry] = category
    return keep


def main() -> int:
    reached = set()
    for dump in (ROOT / ".reach").glob("*.txt"):
        for row in dump.read_text().splitlines():
            filename, line, _ = row.split("\t")
            reached.add((str(Path(filename).resolve()), int(line)))

    defined = defined_functions()
    unreached = sorted(set(defined) - reached)
    lines = sum(defined[key][2].end_lineno - key[1] + 1 for key in unreached)
    print(f"defined {len(defined)}  reached {len(defined) - len(unreached)}  "
          f"unreached {len(unreached)} ({lines} lines)")

    keep = read_keep_list(KEEP)
    names = {f"{rel}::{qualname}" for rel, qualname, _ in defined.values()}
    unreached_names = {f"{defined[key][0]}::{defined[key][1]}": key[1]
                       for key in unreached}
    for entry, line in sorted(unreached_names.items()):
        if entry not in keep:
            print(f"unreached, not on the keep-list: {entry} (line {line})")
    for entry in sorted(set(keep) - set(unreached_names)):
        state = "reached" if entry in names else "gone from src/repro"
        print(f"on the keep-list but {state}: {entry}")
    return int(set(unreached_names) != set(keep))


if __name__ == "__main__":
    sys.exit(main())
