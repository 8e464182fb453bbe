"""Count the size of the package's surface: source lines, settable values
and exports.

    python tools/count_surface.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/vlandau next to this script; pointing it at
another checkout's package compares two trees.  The counts:

* lines: newline characters of each module, as ``wc -l`` counts them;
* settable values: the independently settable values of the public API.
  Each named parameter (``self`` and ``cls`` left out) of each public
  function of a module and of each public method of a public class,
  ``__init__`` included, counts once; each field of a public dataclass
  (``ClassVar`` left out) counts once; and each of those parameters or
  fields whose default is ``None`` counts once more, since ``None`` selects
  another code path.  ``*args`` and ``**kwargs`` count 0: the values they
  pass on are counted where they are declared.  Properties take no value.
  A name is public when it does not start with ``_``;
* exports: the names the package's ``__init__.py`` imports from its
  modules (its submodules not included).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vlandau"


def line_counts(package: Path) -> dict[str, int]:
    """{module file name: newline count}, sorted by name."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted(package.glob("*.py"))}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _params(fn) -> int:
    """Named parameters of fn (self and cls left out) plus its None
    defaults."""
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    count = sum(a.arg not in ("self", "cls") for a in named)
    defaults = args.defaults + [d for d in args.kw_defaults if d is not None]
    return count + sum(map(_is_none, defaults))


def _is_property(fn) -> bool:
    return any(getattr(dec, "id", None) == "property"
               for dec in fn.decorator_list)


def _fields(cls: ast.ClassDef) -> int:
    """Fields of a dataclass body (ClassVar left out) plus None defaults."""
    count = 0
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name) and \
                "ClassVar" not in ast.unparse(stmt.annotation):
            count += 1 + _is_none(stmt.value)
    return count


def settable_values(source: str) -> int:
    """The settable values of one module's public API (module docstring)."""
    count = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            count += _params(node)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if _is_dataclass(node):
            count += _fields(node)
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and not _is_property(fn) and \
                    (fn.name == "__init__" or not fn.name.startswith("_")):
                count += _params(fn)
    return count


def exports(package: Path) -> int:
    """Names imported by the package's __init__.py from its modules."""
    tree = ast.parse((package / "__init__.py").read_text())
    return sum(len(node.names) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    lines = line_counts(package)
    for name, n in lines.items():
        print(f"{name:20s} {n:6d}")
    print(f"{'lines':20s} {sum(lines.values()):6d}")
    values = sum(settable_values(path.read_text())
                 for path in sorted(package.glob("*.py")))
    print(f"{'settable values':20s} {values:6d}")
    print(f"{'exports':20s} {exports(package):6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
