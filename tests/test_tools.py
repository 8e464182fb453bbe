"""tools/count_surface.py, the count of the package's lines, settable
values and exports, against independent counts, and
tools/same_outputs.py, the byte comparison of two checkouts' CLI runs."""

import importlib.util
import inspect
import os
import re
import shutil
import sys

import pytest

import vlandau
from vlandau.config import parse_config

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


def _verdicts(out):
    """[(verdict, peak a, peak b)] of same_outputs' lines."""
    found = [re.fullmatch(r"check reference\.cfg: (.+) "
                          r"\(peak RSS (\d+\.\d) → (\d+\.\d) MB\)", line)
             for line in out.splitlines()]
    assert all(found), out
    return [(m[1], float(m[2]), float(m[3])) for m in found]


def test_same_outputs_tells_a_changed_character(tmp_path, monkeypatch,
                                                capsys):
    # on its check case alone: a checkout against itself is the same, and
    # a copy whose CLI prints one character otherwise differs in stdout;
    # each line ends in the two runs' peak RSS, and the copy's, which
    # also fills 64 MiB, is that much higher
    same = _tool("same_outputs")
    monkeypatch.setattr(same, "CASES", [
        case for case in same.CASES if case[1] == ["check"]])
    assert same.main([ROOT, ROOT]) == 0
    [(verdict, a, b)] = _verdicts(capsys.readouterr().out)
    assert verdict == "same" and 0.0 < a < 200.0 and 0.0 < b < 200.0

    copy = tmp_path / "copy"
    for sub in ("src", "configs"):
        shutil.copytree(os.path.join(ROOT, sub), copy / sub,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "src" / "vlandau" / "cli.py"
    text = cli.read_text()
    assert text.count('print("all checks passed")') == 1
    cli.write_text(text.replace('print("all checks passed")',
                                'print("all checks Passed"); '
                                'b"x" * (64 << 20)'))
    assert same.main([ROOT, str(copy)]) == 1
    [(verdict, a, b)] = _verdicts(capsys.readouterr().out)
    assert verdict == "differs in stdout"
    if sys.platform == "linux":     # ru_maxrss is in KiB on Linux
        assert 60.0 < b - a < 70.0, (a, b)


def test_same_outputs_prints_one_line_for_each_of_six_cases(monkeypatch,
                                                            capsys):
    # with the runs stood in for: six cases, one line each in case order,
    # and each case's config loads; the sixth is the uq-coarse grids at
    # K = 3 from t0 = 12 on 9 nodes, with a k = 1 amplitude in cos 3z and
    # sin 3z
    same = _tool("same_outputs")
    configs = []

    def run(root, args, config, cwd):
        configs.append(parse_config(config(root)))
        return {"exit code": b"0"}, 1.0

    monkeypatch.setattr(same, "run", run)
    assert same.main([ROOT, ROOT]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(same.CASES) == 6 and len(configs) == 12
    assert lines == [f"{label}: same (peak RSS 1.0 → 1.0 MB)"
                     for label, _, _ in same.CASES]
    trig = configs[-1]
    assert (trig.K, trig.t0, trig.n_z) == (3, 12.0, 9)
    assert (trig.nx, trig.nv, trig.nt, trig.t_end) == (32, 65, 88, 43.0)
    assert trig.modes == ((0, "poly", (8e-05,)),
                          (1, "trig", (1e-05, 0, 0, 0, 0, 3e-06, 3e-06)))
