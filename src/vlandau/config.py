"""Structured-text run configuration: parse, validate, serialize, hash.

Format: nested named blocks with whitespace-separated key/value lines,
one statement per line.

    params {
      a  1.0
      a1 0.002
    }
    profile {
      shape sech
      mode {
        k 0
        poly 8e-05
      }
    }

`#` starts a comment.  A block opens with `name {` and closes with a
lone `}`.  Each key is declared once, as a RunConfig field with its
block and default; the default applies when the key (or its whole block)
is omitted.  Every key takes one value, except a mode's coefficient
list.  Parsing either yields a fully validated RunConfig or raises
ConfigError anchored to a line number.
Serialization is canonical: parse(serialize(c)) == c, and the SHA-256
of the canonical text is the config's provenance hash.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .fields import PhaseGrid, TimeGrid, XGrid
from .params import DampingParams, derive_constants
from .profiles import Amplitude, Mode, ProfileSpec
from .scattering import FIELD_MAP_METHOD

_FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Configuration problem, anchored to a source line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# raw block tree
# ---------------------------------------------------------------------------

class _Node:
    """One block: scalar fields plus repeatable child blocks."""

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.fields: dict[str, tuple[int, list[str]]] = {}
        self.blocks: dict[str, list["_Node"]] = {}

    def child(self, name: str) -> "_Node | None":
        got = self.blocks.get(name)
        if not got:
            return None
        if len(got) > 1:
            raise ConfigError(f"block '{name}' given more than once",
                              got[1].line)
        return got[0]


def parse_text(text: str) -> _Node:
    root = _Node("<root>", 0)
    stack = [root]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        toks = code.replace("{", " { ").replace("}", " } ").split()
        if not toks:
            continue
        if toks == ["}"]:
            if len(stack) == 1:
                raise ConfigError("unmatched '}'", lineno)
            stack.pop()
            continue
        if toks[-1] == "{":
            if len(toks) != 2:
                raise ConfigError("a block opens as 'name {' on its own line",
                                  lineno)
            node = _Node(toks[0], lineno)
            stack[-1].blocks.setdefault(toks[0], []).append(node)
            stack.append(node)
            continue
        if "{" in toks or "}" in toks:
            raise ConfigError("one statement per line; braces cannot share "
                              "a line with other statements", lineno)
        key, values = toks[0], toks[1:]
        if not values:
            raise ConfigError(f"field '{key}' has no value", lineno)
        block = stack[-1]
        if key in block.fields or key in block.blocks:
            raise ConfigError(f"duplicate entry '{key}'", lineno)
        block.fields[key] = (lineno, values)
    if len(stack) != 1:
        raise ConfigError(f"block '{stack[-1].name}' is never closed",
                          stack[-1].line)
    return root


# ---------------------------------------------------------------------------
# typed converters
# ---------------------------------------------------------------------------

def _as_float(tok: str, line: int, key: str) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise ConfigError(f"'{key}' expects a number, got '{tok}'", line) \
            from None
    if not math.isfinite(val):
        raise ConfigError(f"'{key}' must be finite", line)
    return val


def _as_int(tok: str, line: int, key: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"'{key}' expects an integer, got '{tok}'", line) \
            from None


def _single(node: _Node, key: str) -> tuple[str, int]:
    line, toks = node.fields[key]
    if len(toks) != 1:
        raise ConfigError(f"'{key}' expects a single value", line)
    return toks[0], line


# a field's annotation -> (converter, canonical format)
_TYPES = {
    "float": (_as_float, _FLOAT_FMT),
    "int": (_as_int, "%d"),
    "str": (lambda tok, line, key: tok, "%s"),
}


def _reject_unknown(node: _Node, fields, blocks) -> None:
    for key, (line, _) in node.fields.items():
        if key not in fields:
            raise ConfigError(f"unknown field '{key}' in block "
                              f"'{node.name}'", line)
    for name, got in node.blocks.items():
        if name not in blocks:
            raise ConfigError(f"unknown block '{name}' in block "
                              f"'{node.name}'", got[0].line)


# ---------------------------------------------------------------------------
# the validated config
# ---------------------------------------------------------------------------

_MODE = "mode"   # the one key that names repeatable blocks, not a value


def _key(block: str, default, key: str | None = None):
    """A config key: its block, its default, and its name in the text when
    that is not the field name.  Field order is canonical order."""
    return field(default=default, metadata={"block": block, "key": key})


@dataclass(frozen=True)
class RunConfig:
    """A validated run config; each field is one config key."""

    a: float = _key("params", 1.0)
    a1: float = _key("params", 0.002)
    a2: float = _key("params", 0.002)
    K: int = _key("params", 2)
    t0: float = _key("params", 8.0)
    shape: str = _key("profile", "sech")
    rate: float = _key("profile", math.pi / 2.0)
    scale: float = _key("profile", 1.0)
    modes: tuple[tuple[int, str, tuple[float, ...]], ...] = _key(
        "profile", ((0, "poly", (8e-05,)), (1, "poly", (1e-05, 3e-06))),
        key=_MODE)
    nx: int = _key("grids", 64)
    nv: int = _key("grids", 129)
    v_max: float = _key("grids", 6.0)
    nt: int = _key("grids", 176)            # time nodes on [t0, t_end]
    t_end: float = _key("grids", 43.0)
    n_z: int = _key("grids", 9)
    picard_tol: float = _key("solver", 1e-10)
    max_iter: int = _key("solver", 30)
    # met by construction: the characteristics are solved exactly in one
    # pass; kept so that existing configs and their hashes stay valid
    inner_tol: float = _key("solver", 1e-12)
    max_inner: int = _key("solver", 50)
    method: str = _key("solver", FIELD_MAP_METHOD)   # the only value
    out_dir: str = _key("output", "out", key="dir")

    # -- derived builders ---------------------------------------------------

    def damping_params(self) -> DampingParams:
        return derive_constants(self.a, self.a1, self.a2, self.K, t0=self.t0)

    def profile_spec(self) -> ProfileSpec:
        modes = tuple(Mode(k, Amplitude(kind, coeffs))
                      for k, kind, coeffs in self.modes)
        return ProfileSpec(modes=modes, shape=self.shape, rate=self.rate,
                           scale=self.scale)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.t0, self.t_end, self.nt - 1)

    def phase_grid(self) -> PhaseGrid:
        return PhaseGrid(XGrid(self.nx), self.nv, self.v_max)

    # -- canonical text -----------------------------------------------------

    def canonical_text(self) -> str:
        out = []
        for block, keys in _BLOCKS.items():
            out.append(block + " {")
            for key, f in keys.items():
                value = getattr(self, f.name)
                if key != _MODE:
                    fmt = _TYPES[f.type][1]
                    out.append(f"  {key} {fmt % value}")
                    continue
                for k, kind, coeffs in value:
                    coeff_txt = " ".join(_FLOAT_FMT % c for c in coeffs)
                    out += ["  mode {", "    k %d" % k,
                            f"    {kind} {coeff_txt}", "  }"]
            out.append("}")
        return "\n".join(out) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


# block -> {key in the text: field}, in canonical order
_BLOCKS: dict[str, dict] = {}
for _f in fields(RunConfig):
    _BLOCKS.setdefault(_f.metadata["block"], {})[
        _f.metadata["key"] or _f.name] = _f

# (fields, predicate, message): checked in order once every key is parsed;
# a failure names the line of the first of its fields that the text sets,
# and '{}' in its message takes the first field's value.
_CHECKS = (
    ("a", lambda c: c.a > 0, "decay rate 'a' must be positive"),
    ("a1", lambda c: c.a1 > 0, "amplitude constants must be positive"),
    ("a2", lambda c: c.a2 > 0, "amplitude constants must be positive"),
    ("K", lambda c: c.K >= 1, "derivative order cap K must be >= 1"),
    ("t0", lambda c: c.t0 > 0, "start time must be positive"),
    ("shape", lambda c: c.shape in ("gaussian", "sech"),
     "unknown shape '{}' (expected gaussian or sech)"),
    ("rate", lambda c: c.rate > 0, "shape rate must be positive"),
    ("nx", lambda c: c.nx >= 4 and not c.nx & (c.nx - 1),
     "nx must be a power of two, at least 4"),
    ("nv", lambda c: c.nv >= 3 and c.nv % 2 == 1,
     "nv must be odd and at least 3"),
    ("v_max", lambda c: c.v_max > 0, "v_max must be positive"),
    ("nt", lambda c: c.nt >= 2, "need at least two time nodes"),
    ("t_end t0", lambda c: c.t_end > c.t0,
     "end time must exceed the start time"),
    ("n_z", lambda c: c.n_z >= 1, "need at least one z node"),
    ("picard_tol", lambda c: c.picard_tol >= 0,
     "tolerances must be nonnegative"),
    ("max_iter", lambda c: c.max_iter >= 1, "iteration caps must be >= 1"),
    ("inner_tol", lambda c: c.inner_tol >= 0,
     "tolerances must be nonnegative"),
    ("max_inner", lambda c: c.max_inner >= 1, "iteration caps must be >= 1"),
    ("method", lambda c: c.method == FIELD_MAP_METHOD,
     "unknown field-map method '{}'"),
)


def _parse_mode(node: _Node) -> tuple[int, str, tuple[float, ...]]:
    _reject_unknown(node, {"k", "poly", "trig"}, ())
    if "k" not in node.fields:
        raise ConfigError("mode block needs a wavenumber 'k'", node.line)
    tok, line = _single(node, "k")
    k = _as_int(tok, line, "k")
    if k < 0:
        raise ConfigError("mode wavenumber must be >= 0", line)
    kinds = [kind for kind in ("poly", "trig") if kind in node.fields]
    if len(kinds) != 1:
        raise ConfigError("mode block needs exactly one coefficient list "
                          "('poly' or 'trig')", node.line)
    kind = kinds[0]
    line, toks = node.fields[kind]
    coeffs = tuple(_as_float(t, line, kind) for t in toks)
    return k, kind, coeffs


def _parse_modes(nodes: list[_Node]) -> tuple:
    modes: dict = {}
    for node in nodes:
        mode = _parse_mode(node)
        if mode[0] in modes:
            raise ConfigError("duplicate mode wavenumber", node.line)
        modes[mode[0]] = mode
    return tuple(modes[k] for k in sorted(modes))


def parse_config(text: str) -> RunConfig:
    root = parse_text(text)
    _reject_unknown(root, (), _BLOCKS)
    values: dict = {}
    lines: dict[str, int] = {}
    for block, keys in _BLOCKS.items():
        node = root.child(block)
        if node is None:
            continue
        _reject_unknown(node, keys.keys() - {_MODE}, keys.keys() & {_MODE})
        for key in node.fields:
            f = keys[key]
            tok, line = _single(node, key)
            values[f.name] = _TYPES[f.type][0](tok, line, key)
            lines[f.name] = line
        if _MODE in node.blocks:
            values[keys[_MODE].name] = _parse_modes(node.blocks[_MODE])
    cfg = RunConfig(**values)
    for names, ok, message in _CHECKS:
        if not ok(cfg):
            names = names.split()
            line = next((lines[n] for n in names if n in lines), None)
            raise ConfigError(message.format(getattr(cfg, names[0])), line)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(str(path)) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config '{path}': {err}") from None
    return parse_config(text)
