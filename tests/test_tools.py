"""tools/count_surface.py, the count of the package's lines, settable
values and exports, against independent counts."""

import importlib.util
import inspect
import os

import pytest

import vlandau

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "vlandau")


@pytest.fixture(scope="module")
def count():
    spec = importlib.util.spec_from_file_location(
        "count_surface", os.path.join(ROOT, "tools", "count_surface.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
