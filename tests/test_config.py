"""Config grammar: parsing, canonicalization, hashing, validation."""

import dataclasses
import hashlib
import math
import pathlib
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlandau import config as C
from vlandau.config import ConfigError, RunConfig, load_config, parse_config

_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_defaults_match_reference_run():
    cfg = RunConfig()
    assert (cfg.a, cfg.a1, cfg.a2, cfg.K, cfg.t0) == (1.0, 0.002, 0.002,
                                                      2, 8.0)
    assert cfg.shape == "sech"
    assert cfg.rate == pytest.approx(math.pi / 2, rel=1e-15)
    assert cfg.modes == ((0, "poly", (8e-5,)), (1, "poly", (1e-5, 3e-6)))
    assert (cfg.nx, cfg.nv, cfg.v_max) == (64, 129, 6.0)
    assert (cfg.nt, cfg.t_end, cfg.n_z) == (176, 43.0, 9)
    assert cfg.method == "split"


def test_empty_and_comment_only_text_yield_defaults():
    assert parse_config("") == RunConfig()
    assert parse_config("# nothing here\n\n   # still nothing\n") == \
        RunConfig()


def test_canonical_round_trip():
    cfg = RunConfig()
    text = cfg.canonical_text()
    assert parse_config(text) == cfg
    # canonical form is a fixed point
    assert parse_config(text).canonical_text() == text


def test_readme_config_block_is_the_reference_config():
    readme = (_ROOT / "README.md").read_text()
    section = readme.split("## Configuration format", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    assert parse_config(block) == RunConfig()
    assert parse_config(block).content_hash() == \
        load_config(_ROOT / "configs" / "reference.cfg").content_hash()


def test_reference_file_matches_defaults():
    cfg = load_config("configs/reference.cfg")
    assert cfg == RunConfig()
    assert cfg.content_hash() == RunConfig().content_hash()


def test_content_hash_ignores_formatting():
    base = parse_config("grids {\n nx 32\n nv 65\n}")
    noisy = parse_config(
        "# a comment\ngrids {\n   nv    65   # trailing note\n   nx 32\n}\n")
    assert base == noisy
    assert base.content_hash() == noisy.content_hash()
    other = parse_config("grids {\n nx 16\n nv 65\n}")
    assert other.content_hash() != base.content_hash()


def test_partial_override_keeps_other_defaults():
    cfg = parse_config("solver {\n picard_tol 1e-8\n}")
    assert cfg.picard_tol == 1e-8
    assert cfg.nx == 64 and cfg.modes == RunConfig().modes


def test_mode_blocks_replace_defaults():
    cfg = parse_config(
        "profile {\n mode {\n  k 0\n  poly 5e-5\n }\n"
        " mode {\n  k 2\n  trig 0 1e-6\n }\n}")
    assert cfg.modes == ((0, "poly", (5e-5,)), (2, "trig", (0.0, 1e-6)))


def _error(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value


@pytest.mark.parametrize("text,fragment,line", [
    ("grids {\n nx\n}", "has no value", 2),
    ("grids {\n nx 32\n nx 64\n}", "duplicate entry 'nx'", 3),
    ("grids {\n nx 32", "never closed", 1),
    ("}\n", "unmatched '}'", 1),
    ("grids {\n nx 32 }\n", "braces cannot share", 2),
    ("params {\n a fast\n}", "expects a number", 2),
    ("grids {\n nx 3.5\n}", "expects an integer", 2),
    ("params {\n a 1.0 2.0\n}", "expects a single value", 2),
    ("grids {\n speed 3\n}", "unknown field 'speed'", 2),
    ("params {\n grids {\n  nx 4\n }\n}", "unknown block", 2),
    ("profile {\n mode {\n  poly 1e-5\n }\n}", "needs a wavenumber", 2),
    ("profile {\n mode {\n  k -1\n  poly 1e-5\n }\n}", "must be >= 0", 3),
    ("profile {\n mode {\n  k 1\n }\n}", "exactly one coefficient list", 2),
    ("profile {\n mode {\n  k 1\n  poly 1e-5\n  trig 0 1\n }\n}",
     "exactly one coefficient list", 2),
    ("profile {\n shape box\n}", "unknown shape 'box'", 2),
    ("profile {\n mode {\n  k 1\n  poly 1\n }\n mode {\n  k 1\n  poly 2\n }"
     "\n}", "duplicate mode wavenumber", 6),
    ("solver {\n method magic\n}", "unknown field-map method", 2),
    ("solver {\n method direct\n}", "unknown field-map method 'direct'", 2),
    ("params {\n a -1\n}", "must be positive", 2),
    ("grids {\n nx 48\n}", "power of two", 2),
    ("grids {\n nv 64\n}", "must be odd", 2),
    ("grids {\n t_end 5.0\n}", "must exceed the start time", 2),
    ("params {\n a 2\n}\ngrids {\n t_end 360.0\n}",
     "t_end = 360.0 is too late", 5),
    ("grids {\n nt 1\n}", "at least two time nodes", 2),
    ("grids {\n n_z 0\n}", "at least one z node", 2),
    ("params {\n t0 -2\n}", "start time must be positive", 2),
    ("params {\n a1 -1\n}", "amplitude constants must be positive", 2),
    ("params {\n a2 -1\n}", "amplitude constants must be positive", 2),
    ("params {\n K 0\n}", "order cap K must be >= 1", 2),
    ("profile {\n rate -1\n}", "shape rate must be positive", 2),
    ("grids {\n v_max -1\n}", "v_max must be positive", 2),
    ("solver {\n picard_tol -1\n}", "tolerances must be nonnegative", 2),
    ("solver {\n inner_tol -1\n}", "tolerances must be nonnegative", 2),
    ("solver {\n max_iter 0\n}", "iteration caps must be >= 1", 2),
    ("solver {\n max_inner 0\n}", "iteration caps must be >= 1", 2),
    ("solver {\n method split direct\n}", "expects a single value", 2),
])
def test_errors_carry_line_numbers(text, fragment, line):
    err = _error(text)
    assert fragment in str(err)
    assert f"line {line}:" in str(err) or err.line == line
    assert err.line == line


LATE_END = "grids {{\n nx 16\n nv 33\n nt 400\n t_end {}\n n_z 3\n}}\n"


def test_end_time_whose_weight_overflows_is_refused(tmp_path):
    # e^(a t_end) overflows a double past a t_end = log(DBL_MAX) = 709.78:
    # refused on t_end's line, where 709 still loads
    path = tmp_path / "late.cfg"
    path.write_text(LATE_END.format("760.0"))
    with pytest.raises(ConfigError, match="t_end = 760.0 is too late") as err:
        load_config(path)
    assert err.value.line == 5
    path.write_text(LATE_END.format("709.0"))
    assert load_config(path).t_end == 709.0


def test_value_must_be_finite():
    err = _error("params {\n a inf\n}")
    assert "must be finite" in str(err) and err.line == 2


def test_duplicate_named_block_rejected():
    err = _error("grids {\n nx 32\n}\ngrids {\n nv 65\n}")
    assert "more than once" in str(err) and err.line == 4


def test_block_opener_must_be_alone():
    err = _error("grids { nx 32\n}")
    # inline content after '{' on the opening line
    assert "on its own line" in str(err) or "one statement" in str(err)
    assert err.line == 1


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_derived_objects():
    cfg = RunConfig()
    p = cfg.damping_params()
    assert p.C_E == pytest.approx(0.00896, rel=1e-12)
    spec = cfg.profile_spec()
    assert spec.max_mode == 1 and spec.shape == "sech"
    tg = cfg.time_grid()
    assert tg.t0 == 8.0 and tg.t_end == 43.0 and len(tg.times) == 176
    ph = cfg.phase_grid()
    assert ph.xgrid.n == 64 and ph.nv == 129 and ph.v_max == 6.0


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_modes = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from(["poly", "trig"]),
              st.lists(_finite, min_size=1, max_size=4).map(tuple)),
    min_size=1, max_size=3, unique_by=lambda m: m[0],
).map(lambda ms: tuple(sorted(ms)))
# a is drawn as a share of the largest a t_end whose weight e^(a t_end)
# a double holds, log(DBL_MAX) = 709.78
_valid_config = st.builds(
    lambda t0, span, share, **kw: RunConfig(
        t0=t0, t_end=t0 + span,
        a=share * math.log(sys.float_info.max) / (t0 + span), **kw),
    t0=st.floats(1e-3, 1e3), span=st.floats(1e-3, 1e3),
    share=st.floats(1e-300, 0.999), a1=_positive, a2=_positive,
    K=st.integers(1, 8),
    shape=st.sampled_from(["gaussian", "sech"]), rate=_positive,
    scale=_finite, modes=_modes,
    nx=st.integers(2, 12).map(lambda e: 2 ** e),
    nv=st.integers(1, 500).map(lambda h: 2 * h + 1), v_max=_positive,
    nt=st.integers(2, 10 ** 6), n_z=st.integers(1, 100),
    picard_tol=st.floats(0.0, 1.0), max_iter=st.integers(1, 10 ** 4),
    inner_tol=st.floats(0.0, 1.0), max_inner=st.integers(1, 10 ** 4),
    method=st.sampled_from(["split"]),
    out_dir=st.text("abcxyz0123456789._-/", min_size=1, max_size=12),
)


@settings(max_examples=30, deadline=None)
@given(cfg=_valid_config)
def test_canonical_text_round_trips_every_key(cfg):
    text = cfg.canonical_text()
    parsed = parse_config(text)
    assert parsed == cfg
    assert parsed.canonical_text() == text
    assert parsed.content_hash() == cfg.content_hash() == \
        hashlib.sha256(text.encode()).hexdigest()
    # mode blocks may come in any order; the config sorts them by k
    reordered = dataclasses.replace(cfg, modes=cfg.modes[::-1])
    assert parse_config(reordered.canonical_text()) == cfg
