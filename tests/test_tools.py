"""tools/count_surface.py, the count of the package's lines, settable
values and exports, against independent counts, and
tools/same_outputs.py, the byte comparison of two checkouts' CLI runs."""

import importlib.util
import inspect
import os
import shutil

import pytest

import vlandau

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "vlandau")


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "tools", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def count():
    return _tool("count_surface")


def _printed(out, label):
    return [int(line.split()[-1]) for line in out.splitlines()
            if line.rsplit(None, 1)[0].strip() == label]


def test_line_total_is_the_files_line_counts(count, capsys):
    assert count.main([PACKAGE]) == 0
    out = capsys.readouterr().out
    files = sorted(name for name in os.listdir(PACKAGE)
                   if name.endswith(".py"))
    lines = {}
    for name in files:
        with open(os.path.join(PACKAGE, name)) as fh:
            lines[name] = sum(1 for _ in fh)
        assert _printed(out, name) == [lines[name]]
    assert _printed(out, "lines") == [sum(lines.values())]


def test_exports_are_the_package_names_besides_its_submodules(count):
    names = [n for n in vlandau.__all__
             if not inspect.ismodule(getattr(vlandau, n))]
    assert count.exports(count.PACKAGE) == len(names)


SOURCE = '''
from dataclasses import dataclass
from typing import ClassVar


def f(a, b=None, *args, c=1, **kwargs):
    pass


def _private(x, y=None):
    pass


@dataclass(frozen=True)
class D:
    x: int
    y: float | None = None
    z: ClassVar[int] = 1

    def method(self, k):
        pass

    @property
    def prop(self):
        return 1

    def _helper(self, q):
        pass


class Failure(Exception):
    def __init__(self, a, b):
        super().__init__(a, b)


class _Hidden:
    def method(self, k):
        pass
'''


def test_settable_values_follow_the_stated_rule(count):
    # f: a, b, c and b's None; D: x, y and y's None, method's k;
    # Failure.__init__: a, b
    assert count.settable_values(SOURCE) == 4 + 3 + 1 + 2


def test_same_outputs_tells_a_changed_character(tmp_path, monkeypatch,
                                                capsys):
    # on its check case alone: a checkout against itself is the same, and
    # a copy whose CLI prints one character otherwise differs in stdout
    same = _tool("same_outputs")
    monkeypatch.setattr(same, "CASES", [
        case for case in same.CASES if case[1] == ["check"]])
    assert same.main([ROOT, ROOT]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "check reference.cfg: same"]

    copy = tmp_path / "copy"
    for sub in ("src", "configs"):
        shutil.copytree(os.path.join(ROOT, sub), copy / sub,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "src" / "vlandau" / "cli.py"
    text = cli.read_text()
    assert text.count('print("all checks passed")') == 1
    cli.write_text(text.replace('print("all checks passed")',
                                'print("all checks Passed")'))
    assert same.main([ROOT, str(copy)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "check reference.cfg: differs in stdout"]
