"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from vlandau import cli
from vlandau.config import load_config
from vlandau.fields import read_field_csv
from vlandau.scattering import BoundCheck

SMALL_GRIDS = """
grids {
  nx 32
  nv 65
  nt 80
  t_end 24.0
  n_z 5
}
"""

# the default profile depends on z, so uq's tangent solve has work to do
TINY_GRIDS = """
grids {
  nx 16
  nv 33
  nt 40
  t_end 24.0
  n_z 3
}
"""

Z_INDEPENDENT_PROFILE = """
profile {
  shape sech
  rate  1.5707963267948966
  mode {
    k 0
    poly 8e-05
  }
  mode {
    k 1
    poly 1e-05
  }
}
"""


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_passes_on_reference(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "")
    code = run_cli("check", "--config", cfg, "--out", str(tmp_path / "o"))
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
    rows = [line.split() for line in out.splitlines()]
    for name in ("A1", "A2", "A3", "A4", "A5"):
        assert [r[-1] for r in rows if r[:2] == ["check", name]] == ["PASS"]
    report = json.loads((tmp_path / "o" / "check_report.json").read_text())
    assert report["passed"] is True
    assert report["passed"] == all(c["passed"]
                                   for c in report["checks"].values())
    assert report["config_sha256"] == load_config(cfg).content_hash()


def test_check_fails_names_a4(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "params {\n a2 0.01\n}\n")
    out_dir = tmp_path / "o"
    code = run_cli("check", "--config", cfg, "--out", str(out_dir))
    out = capsys.readouterr().out
    assert code == 1
    assert "gate FAILED" in out and "A4" in out
    report = json.loads((out_dir / "check_report.json").read_text())
    assert report["passed"] == all(c["passed"]
                                   for c in report["checks"].values())
    assert run_cli("report", str(out_dir)) == 1
    lines = (out_dir / "report.csv").read_text().splitlines()
    status = {row[1]: row[5] for row in (line.split(",")
                                         for line in lines[1:])}
    assert status == {"A1": "fail", "A2": "pass", "A3": "pass",
                      "A4": "fail", "A5": "pass", "decay0": "pass",
                      "decay1": "pass", "smoothness": "pass",
                      "neutrality": "pass", "mode_resolution": "pass"}


@pytest.mark.parametrize("body", ["", "params {\n a2 0.01\n}\n"],
                         ids=["reference", "a2_too_large"])
def test_check_report_states_each_verdict_once(tmp_path, body):
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "o"
    run_cli("check", "--config", cfg, "--out", str(out))
    report = json.loads((out / "check_report.json").read_text())
    assert set(report) == {"config_sha256", "gate", "profile", "checks",
                           "passed"}

    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)
        elif isinstance(node, list):
            for value in node:
                yield from keys(value)

    for part in ("gate", "profile"):
        assert not {"margin", "passed"} & set(keys(report[part])), part
    assert report["passed"] == all(c["passed"]
                                   for c in report["checks"].values())


def _strict_loads(text):
    """json.loads that refuses the non-JSON constants Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_numbers_are_written_as_strings(tmp_path):
    path = tmp_path / "run.json"
    cli._write_json(str(path), {"a": [math.inf, -math.inf, math.nan, 0.5],
                                "b": {"c": (math.inf, 1)}, "d": "inf"})
    assert _strict_loads(path.read_text()) == {
        "a": ["inf", "-inf", "nan", 0.5], "b": {"c": ["inf", 1]}, "d": "inf"}


def test_check_report_with_an_infinite_ratio_is_valid_json(tmp_path, capsys):
    # the failing neutrality check has bound 0, so its ratio is inf: the
    # report holds it as the string "inf", and report reads it as inf
    cfg = write_cfg(tmp_path, "profile {\n scale -1\n}\n" + TINY_GRIDS)
    out = tmp_path / "o"
    assert run_cli("check", "--config", cfg, "--out", str(out)) == 1
    report = _strict_loads((out / "check_report.json").read_text())
    assert report["checks"]["neutrality"]["ratio"] == "inf"
    capsys.readouterr()
    assert run_cli("report", str(out)) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [r[4:6] for r in rows if r[:2] == ["check_report", "neutrality"]] \
        == [["inf", "FAIL"]]
    lines = (out / "report.csv").read_text().splitlines()
    assert [line.split(",")[4:] for line in lines
            if line.startswith("check_report,neutrality,")] == [["inf", "fail"]]


MODE_9_ON_16_POINTS = """
grids {
  nx 16
}
profile {
  mode {
    k 0
    poly 8e-05
  }
  mode {
    k 9
    poly 1e-06
  }
}
"""


@pytest.mark.parametrize("body, name, solve_error", [
    ("profile {\n scale -1\n}\n", "neutrality", "nonpositive mean density"),
    (MODE_9_ON_16_POINTS, "mode_resolution", "not resolved"),
], ids=["negative_scale", "unresolved_mode"])
def test_check_fails_where_solve_refuses(tmp_path, capsys, body, name,
                                         solve_error):
    # check records the solver's preconditions, so it fails exactly where
    # solve refuses to start
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "o"
    assert run_cli("check", "--config", cfg, "--out", str(out)) == 1
    assert f"profile checks FAILED: {name}" in capsys.readouterr().out
    report = json.loads((out / "check_report.json").read_text())
    assert report["passed"] is False
    assert [n for n, c in report["checks"].items() if not c["passed"]] \
        == [name]
    assert run_cli("report", str(out)) == 1
    assert f"check_report: {name} = " in capsys.readouterr().out
    assert run_cli("solve", "--config", cfg, "--out",
                   str(tmp_path / "s")) == 1
    assert solve_error in capsys.readouterr().err


def test_malformed_config_reports_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "grids {\n nx oops\n}\n")
    code = run_cli("check", "--config", cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err and "expects an integer" in err


@pytest.mark.parametrize("command", ["check", "solve", "uq"])
def test_method_direct_is_a_config_error(tmp_path, capsys, command):
    # the split map is the only field-map method
    cfg = write_cfg(tmp_path, "solver {\n method direct\n}\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "unknown field-map method 'direct'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "solve", "uq"])
def test_end_time_whose_weight_overflows_is_a_config_error(tmp_path, capsys,
                                                          command):
    # a t_end past log(DBL_MAX) = 709.78 overflows e^(a t) in the norms;
    # at 760 each command refuses the config, naming t_end, before any
    # solve, and at 709 check passes
    late = "grids {{\n nx 16\n nv 33\n nt 400\n t_end {}\n n_z 3\n}}\n"
    cfg = write_cfg(tmp_path, late.format("760.0"))
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "line 5" in err and "t_end = 760.0 is too late" in err
    assert not out.exists()
    if command == "check":
        cfg = write_cfg(tmp_path, late.format("709.0"))
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 0


def test_solve_with_a_far_sech_transform_warns_nothing(tmp_path, capsys):
    # the k = 3 mode reads the sech transform at 3 t up to 900, where
    # cosh overflows: the solve passes and stderr stays empty
    cfg = write_cfg(tmp_path, "profile {\n mode {\n  k 0\n  poly 8e-05\n"
                    " }\n mode {\n  k 3\n  poly 1e-06\n }\n}\ngrids {\n"
                    " nx 16\n nv 33\n nt 200\n t_end 300.0\n}\n")
    assert run_cli("solve", "--config", cfg, "--out",
                   str(tmp_path / "out")) == 0
    assert capsys.readouterr().err == ""


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = run_cli("check", "--config", str(tmp_path / "nope.cfg"))
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read config" in err


def test_no_arguments_is_usage_error(capsys):
    assert run_cli() == 2


@pytest.mark.parametrize("command", ["check", "solve", "uq"])
def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys, command):
    cfg = tmp_path / "bin.cfg"
    cfg.write_bytes(b"\xff\xfe\x00bad")
    code = run_cli(command, "--config", str(cfg), "--out", str(tmp_path))
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: cannot read config")
    assert str(cfg) in err[0]


def test_out_naming_a_file_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "")
    out = tmp_path / "afile"
    out.write_text("")
    code = run_cli("check", "--config", cfg, "--out", str(out))
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(out) in err[0]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_GRIDS)
    out = tmp_path / "run"
    code = run_cli("solve", "--config", cfg, "--out", str(out))
    txt = capsys.readouterr().out
    assert code == 0
    assert "converged" in txt
    manifest = json.loads((out / "solve_manifest.json").read_text())
    assert manifest["passed"] is True
    assert manifest["converged"] is True
    assert manifest["artifacts"] == {"field": "field.csv"}
    assert manifest["config_sha256"] == load_config(cfg).content_hash()
    assert (out / "field.csv").exists()
    sidecar = json.loads((out / "field.json").read_text())
    assert sidecar["format"] == "field-table-v1"


def test_solve_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRIDS)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("solve", "--config", cfg, "--out", str(a)) == 0
    assert run_cli("solve", "--config", cfg, "--out", str(b)) == 0
    csv_a = (a / "field.csv").read_bytes()
    csv_b = (b / "field.csv").read_bytes()
    assert csv_a == csv_b
    man_a = json.loads((a / "solve_manifest.json").read_text())
    man_b = json.loads((b / "solve_manifest.json").read_text())
    assert man_a == man_b


@pytest.mark.parametrize("z", ["7", "-1.5", "inf", "nan"])
def test_solve_rejects_z_outside_domain(tmp_path, capsys, z):
    cfg = write_cfg(tmp_path, SMALL_GRIDS)
    out = tmp_path / "z"
    assert run_cli("solve", "--config", cfg, "--out", str(out),
                   "--z", z) == 2
    assert "not in [-1, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_solve_nonzero_z(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRIDS)
    out = tmp_path / "z"
    assert run_cli("solve", "--config", cfg, "--out", str(out),
                   "--z", "0.5") == 0
    manifest = json.loads((out / "solve_manifest.json").read_text())
    assert manifest["z"] == 0.5


def test_solve_accepts_negative_z_in_exponent_form(tmp_path):
    # argparse alone reads "-1e-05" as an option and exits 2
    cfg = write_cfg(tmp_path, SMALL_GRIDS)
    out = tmp_path / "z"
    assert run_cli("solve", "--config", cfg, "--out", str(out),
                   "--z", "-1e-05") == 0
    manifest = json.loads((out / "solve_manifest.json").read_text())
    assert manifest["z"] == -1e-05


def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    # an infinite entry at t0, the last row the pass reaches, spoils no
    # earlier row; the certifying characteristics stop on it by name
    from vlandau import scattering
    real = scattering.field_map_zero

    def spoiled(*args):
        table = real(*args)
        values = table.values.copy()
        values[0, 3] = math.inf
        return table.with_values(values)

    monkeypatch.setattr(scattering, "field_map_zero", spoiled)
    cfg = write_cfg(tmp_path, SMALL_GRIDS)
    code = run_cli("solve", "--config", cfg, "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 3
    assert "solver failure: field is not finite" in err


def test_tiny_picard_tol_is_a_check_verdict(tmp_path):
    # the pass is exact, so picard_tol no longer stops a solve: it is the
    # bound of the fixed_point_residual check, whose verdict sets the exit
    # code (1 when the residual exceeds 1e-30, else 0)
    cfg = write_cfg(tmp_path, SMALL_GRIDS
                    + "solver {\n picard_tol 1e-30\n max_iter 1\n}\n")
    out = tmp_path / "o"
    code = run_cli("solve", "--config", cfg, "--out", str(out))
    manifest = json.loads((out / "solve_manifest.json").read_text())
    c = manifest["checks"]["fixed_point_residual"]
    norm = manifest["checks"]["field_weighted"]["value"]
    assert c["bound"] == 1e-30 and c["value"] <= 1e-14 * norm
    assert code == (0 if c["passed"] else 1)
    assert manifest["passed"] is c["passed"] and manifest["converged"]


def test_non_finite_field_is_a_solver_failure(tmp_path, monkeypatch,
                                              capsys):
    # a NaN in the free-flight field spoils the pass's field, which stops
    # the certifying characteristics solve by name, and solve exits with
    # the solver-failure code
    from vlandau import scattering
    real = scattering.field_map_zero

    def spoiled(*args):
        table = real(*args)
        values = table.values.copy()
        values[-1, 1] = math.nan
        return table.with_values(values)

    monkeypatch.setattr(scattering, "field_map_zero", spoiled)
    cfg = write_cfg(tmp_path, SMALL_GRIDS)
    code = run_cli("solve", "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 3
    assert "field is not finite" in capsys.readouterr().err


def test_solve_homogeneous_profile_single_pass(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRIDS
                    + "profile {\n mode {\n  k 0\n  poly 8e-05\n }\n}\n")
    out = tmp_path / "h"
    assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
    manifest = json.loads((out / "solve_manifest.json").read_text())
    assert manifest["converged"] is True and "iterations" not in manifest
    assert manifest["residual_norm"] == 0.0
    assert "contraction_ratio" not in manifest["checks"]


# ---------------------------------------------------------------------------
# check and solve on sampled configurations
# ---------------------------------------------------------------------------

# relative offsets from a gate boundary: just inside, on it, just outside
_NEAR = st.sampled_from([-1e-9, 0.0, 1e-9])


@st.composite
def _sampled_run(draw):
    """A config on 16 x 33 x 40 grids and a z for solve: gate parameters
    each either inside their range or within 1e-9 of its boundary, and a
    profile of one to three modes (mode 0 always) of either kind."""

    def scaled(bound, spread):
        # bound (1 + eps) near the boundary, else bound / u inside it
        if draw(st.booleans()):
            return bound * (1.0 + draw(_NEAR))
        return bound / draw(st.floats(1.0, spread))

    a2 = scaled(1.0 / (160.0 * math.e), 10.0)                  # A4
    a = 1.0 / scaled(1.0 / max(1.0, 15.0 * math.sqrt(a2)), 2.0)   # A1
    c_e_max = min(a ** 4 * math.exp(3.0) / 1350.0, a * a / 8.0)  # A3, A5
    a1 = scaled(c_e_max / (240.0 * a2 / a + 4.0), 10.0)
    t0 = 1.0 / scaled(1.0 / max(8.0, math.log(8.0 * a1) / a), 1.5)  # A2
    shape = draw(st.sampled_from(["sech", "gaussian"]))
    rate = scaled(math.pi / (2.0 * a), 1.5)       # sech transform vs e^{-a w}
    coeffs = st.lists(st.floats(-4e-5, 4e-5), min_size=1, max_size=3)
    kinds = st.sampled_from(["poly", "trig"])
    modes = [(0, draw(kinds), [draw(st.floats(-1e-5, 1.6e-4))]
              + draw(coeffs)[1:])]
    for k in draw(st.lists(st.integers(1, 8), unique=True, max_size=2)):
        modes.append((k, draw(kinds), draw(coeffs)))
    text = "\n".join(
        ["params {", f"  a {a!r}", f"  a1 {a1!r}", f"  a2 {a2!r}",
         f"  t0 {t0!r}", "}", "profile {", f"  shape {shape}",
         f"  rate {rate!r}"]
        + [f"  mode {{\n    k {k}\n    {kind} "
           + " ".join(map(repr, cs)) + "\n  }" for k, kind, cs in modes]
        + ["}", "grids {", "  nx 16", "  nv 33", "  nt 40",
           f"  t_end {t0 + 16.0!r}", "}", ""])
    return text, draw(st.floats(-1.0, 1.0))


def _all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


def _passed_and_finite(report: dict) -> bool:
    return report["passed"] is True and _all_finite(report) and all(
        c["passed"] for c in report["checks"].values())


@settings(max_examples=50, deadline=None)
@given(run=_sampled_run())
def test_check_and_solve_end_in_documented_codes(run):
    # exit 0 means every check passed with finite values, and a config
    # that check passes is one that solve starts on, at any z in [-1, 1]
    text, z = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        codes, errs = {}, {}
        for cmd, extra in (("check", []), ("solve", ["--z", repr(z)])):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                codes[cmd] = run_cli(cmd, "--config", cfg, "--out",
                                     os.path.join(tmp, cmd), *extra)
            errs[cmd] = err.getvalue()
        assert set(codes.values()) <= {0, 1, 2, 3}, (codes, errs)
        if codes["check"] == 0:
            with open(os.path.join(tmp, "check", "check_report.json")) as fh:
                assert _passed_and_finite(json.load(fh))
            assert codes["solve"] != 2 and "check failed" not in \
                errs["solve"], errs["solve"]
        if codes["solve"] == 0:
            out = os.path.join(tmp, "solve")
            with open(os.path.join(out, "solve_manifest.json")) as fh:
                assert _passed_and_finite(json.load(fh))
            read_field_csv(os.path.join(out, "field.csv"))   # finite cells


def _bounds_outside_checks(node, path=(), in_checks=False):
    """Paths of the keys that name a bound but sit in no "checks" entry."""
    if isinstance(node, dict):
        for key, value in node.items():
            if "bound" in key and not in_checks:
                yield path + (key,)
            yield from _bounds_outside_checks(value, path + (key,),
                                              in_checks or key == "checks")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _bounds_outside_checks(value, path + (i,), in_checks)


def test_every_reported_bound_is_a_check(tmp_path, capsys):
    # a bound that no verdict reads would look certified without being
    # checked: every artifact of check, solve and uq states its bounds
    # inside a "checks" entry only
    cfg = write_cfg(tmp_path, TINY_GRIDS)
    for command in ("check", "solve", "uq"):
        assert run_cli(command, "--config", cfg, "--out",
                       str(tmp_path / command)) == 0, command
    capsys.readouterr()
    artifacts = sorted(tmp_path.glob("*/*.json"))
    assert len(artifacts) == 6
    for path in artifacts:
        found = list(_bounds_outside_checks(json.loads(path.read_text())))
        assert found == [], path


# ---------------------------------------------------------------------------
# uq
# ---------------------------------------------------------------------------

def test_uq_writes_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_GRIDS + Z_INDEPENDENT_PROFILE)
    out = tmp_path / "uq"
    code = run_cli("uq", "--config", cfg, "--out", str(out))
    txt = capsys.readouterr().out
    assert code == 0
    assert "collocation sweep: 5 nodes converged" in txt
    assert "uq checks passed" in txt
    manifest = json.loads((out / "ensemble_manifest.json").read_text())
    assert len(manifest["nodes"]) == 5
    assert len(manifest["per_node"]) == 5
    assert all(node["passed"] for node in manifest["per_node"])
    theorem = json.loads((out / "theorem_report.json").read_text())
    assert theorem["passed"] is True
    corollary = json.loads((out / "corollary_report.json").read_text())
    assert corollary["passed"] is True
    assert (out / "gpc.csv").exists()


def test_uq_verdict_counts_nodes(tmp_path, monkeypatch, capsys):
    real = cli.run_collocation

    def spoil_node(*args, **kwargs):
        ens = real(*args, **kwargs)
        results = list(ens.results)
        bad = results[1]
        p = bad.params
        ratio = BoundCheck("contraction_ratio", 0.5,
                           88 * p.a2 / (p.a ** 2 - 80 * p.a2))
        results[1] = dataclasses.replace(
            bad, checks={**bad.checks, "contraction_ratio": ratio})
        return dataclasses.replace(ens, results=tuple(results))

    monkeypatch.setattr(cli, "run_collocation", spoil_node)
    cfg = write_cfg(tmp_path, TINY_GRIDS)
    code = run_cli("uq", "--config", cfg, "--out", str(tmp_path / "uq"))
    txt = capsys.readouterr().out
    assert code == 1
    assert "uq checks FAILED" in txt
    failing = [line.strip() for line in txt.splitlines() if "FAILED:" in line]
    assert failing == ["node z = 0 FAILED: contraction_ratio"]

    assert run_cli("report", str(tmp_path / "uq")) == 1
    lines = (tmp_path / "uq" / "report.csv").read_text().splitlines()
    rows = {(row[0], row[1]): row[5] for row in (line.split(",")
                                                 for line in lines[1:])}
    assert [key for key, status in rows.items() if status == "fail"] == [
        ("ensemble_manifest[node 1]", "contraction_ratio")]


def test_uq_manifests_record_velocity_grid(tmp_path):
    # per-node entries keep no tables but still name their velocity grid
    cfg = write_cfg(tmp_path, TINY_GRIDS)
    out = tmp_path / "uq"
    assert run_cli("uq", "--config", cfg, "--out", str(out)) == 0
    nodes = json.loads((out / "ensemble_manifest.json").read_text())[
        "per_node"]
    assert len(nodes) == 3
    for node in nodes:
        assert (node["grids"]["nv"], node["grids"]["v_max"]) == (33, 6.0)
    assert sorted(p.name for p in out.iterdir()) == [
        "corollary_report.json", "ensemble_manifest.json", "gpc.csv",
        "theorem_report.json"]


def test_uq_rejects_the_removed_no_refine_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_GRIDS)
    out = tmp_path / "uq"
    assert run_cli("uq", "--config", cfg, "--out", str(out),
                   "--no-refine") == 2
    assert "--no-refine" in capsys.readouterr().err
    assert not out.exists()


def test_uq_rejects_an_even_node_count(tmp_path, capsys):
    # the tangent solve runs at the node z = 0, which only odd counts have
    cfg = write_cfg(tmp_path, TINY_GRIDS.replace("n_z 3", "n_z 4"))
    out = tmp_path / "uq"
    assert run_cli("uq", "--config", cfg, "--out", str(out)) == 2
    assert "odd n_z" in capsys.readouterr().err
    assert not out.exists()


SIN_5Z_PROFILE = """
profile {
  shape sech
  rate  1.5707963267948966
  mode {
    k 0
    poly 8e-05
  }
  mode {
    k 1
    trig 1e-05 0 0 0 0 0 0 0 0 0 6e-07
  }
}
"""


def test_uq_fails_an_underresolved_z_dependence(tmp_path, capsys):
    # c1 = 1e-5 + 6e-7 sin 5z: five nodes cannot resolve it, so the
    # interpolant's first derivative misses the tangent's
    cfg = write_cfg(tmp_path, TINY_GRIDS.replace("n_z 3", "n_z 5")
                    + SIN_5Z_PROFILE)
    out = tmp_path / "uq"
    assert run_cli("uq", "--config", cfg, "--out", str(out)) == 1
    failing = [line.strip() for line in capsys.readouterr().out.splitlines()
               if "FAILED:" in line]
    assert len(failing) == 1 and failing[0].startswith(
        "theorem FAILED: z_deriv_1_resolution")
    theorem = json.loads((out / "theorem_report.json").read_text())
    assert theorem["checks"]["z_deriv_1_tangent"]["passed"] is True
    assert theorem["checks"]["z_deriv_1_resolution"]["passed"] is False


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_runs_uq(tmp_path):
    # perfbench/tracer.py rebinds functions that vlandau modules import by
    # name and stops when one is missing; run it as the benchmark does
    cfg = write_cfg(tmp_path, TINY_GRIDS)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "perfbench", "tracer.py"),
         "--spans", str(spans), "--run-id", "tier1", "--",
         "uq", "--config", cfg, "--out", str(tmp_path / "uq")],
        env=env, cwd=REPO, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = {span["name"] for span in json.loads(spans.read_text())}
    assert {"uq.run_collocation", "uq.check_corollary",
            "scattering.picard_solve"} <= names


# Linux carries the peak resident set of the process that forks a child
# over into the child's, so the children are started from a bare
# interpreter, far smaller than any of them, and not from the test process
PEAK_RSS = """
import os, subprocess, sys
with open(sys.argv[1], "w") as log:
    proc = subprocess.Popen(sys.argv[2:], stdout=log, stderr=log)
    _, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _peak_rss_mb(argv, env, log):
    """The peak resident set of a child process, from wait4, in MB."""
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, str(log)] + argv,
                          env=env, capture_output=True, text=True,
                          check=True)
    code, maxrss = map(int, proc.stdout.split())
    assert code == 0, open(log).read()
    return maxrss / 1024.0


# ru_maxrss is in KiB on Linux (bytes on macOS), and os.wait4 is POSIX
# only; the carry-over of the forking process's peak into the child's
# ru_maxrss, which the bare-interpreter parent avoids, is Linux's as well
@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss from wait4 is read in Linux units")
def test_reference_solve_adds_at_most_one_trajectory_table(tmp_path):
    # a solve keeps no trajectories and no phase table, only row blocks of
    # them, so above an interpreter that only imports vlandau and loads
    # the config, the reference solve peaks at most one (nt, P) table
    # higher (6.7 MiB, against 11.1 MiB for the table)
    cfg_path = os.path.join(REPO, "configs", "reference.cfg")
    cfg = load_config(cfg_path)
    phase = cfg.phase_grid()
    table_mb = 8 * len(cfg.time_grid()) * phase.xgrid.n * phase.nv / 2 ** 20
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
               OPENBLAS_NUM_THREADS="1")
    solve = _peak_rss_mb(
        [sys.executable, "-m", "vlandau.cli", "solve", "--config", cfg_path,
         "--z", "0.3", "--out", str(tmp_path / "solve")], env,
        tmp_path / "solve.log")
    base = _peak_rss_mb(
        [sys.executable, "-c", "import sys, vlandau; "
         "vlandau.load_config(sys.argv[1])", cfg_path], env,
        tmp_path / "import.log")
    assert solve - base <= table_mb, (solve - base, table_mb)


def test_uq_artifacts_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch,
                                                    capsys):
    # the nodes' results reach the survey in node order on any CPU count,
    # so every artifact and stdout are byte-identical on one CPU and two;
    # stderr holds one progress line per node, in node order
    cfg = write_cfg(tmp_path, TINY_GRIDS.replace("n_z 3", "n_z 5"))
    outputs = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        out = tmp_path / str(len(cpus))
        assert run_cli("uq", "--config", cfg, "--out", str(out)) == 0
        captured = capsys.readouterr()
        outputs[len(cpus)] = captured.out, {
            path.name: path.read_bytes() for path in sorted(out.iterdir())}
        progress = [line.split(" solved")[0]
                    for line in captured.err.splitlines()]
        assert progress == [f"uq: node {j} (z = {z:.6g})" for j, z in
                            enumerate(leggauss(5)[0])], \
            captured.err
    assert len(outputs[1][1]) == 4
    assert outputs[1] == outputs[2]


WORKER_DIES = """
import os, sys
from vlandau import cli, uq

parent, real = os.getpid(), uq._solve_node
os.sched_getaffinity = lambda pid: {0, 1}


def dying(*args):
    if os.getpid() != parent:
        os._exit(7)
    return real(*args)


uq._solve_node = dying
sys.exit(cli.main(sys.argv[1:]))
"""


def test_uq_worker_that_dies_is_a_solver_failure(tmp_path):
    # a worker process that exits while solving a node ends the run with
    # the solver-failure code and names the node, never a hang
    cfg = write_cfg(tmp_path, TINY_GRIDS.replace("n_z 3", "n_z 5"))
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", WORKER_DIES, "uq", "--config", cfg, "--out",
         str(tmp_path / "uq")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert re.search(r"ensemble failure: node \d \(z = [-.\de]+\) failed: "
                     r"worker process exited with code 7", proc.stderr), \
        proc.stderr


def test_uq_rejects_single_node(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_GRIDS.replace("n_z 3", "n_z 1"))
    out = tmp_path / "uq"
    code = run_cli("uq", "--config", cfg, "--out", str(out))
    assert code == 2
    assert "n_z >= 2" in capsys.readouterr().err
    assert not out.exists()
    # check keeps accepting a single z node
    assert run_cli("check", "--config", cfg, "--out", str(out)) == 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_summarizes_solve(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_GRIDS)
    out = tmp_path / "run"
    assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
    capsys.readouterr()
    code = run_cli("report", str(out))
    txt = capsys.readouterr().out
    assert code == 0
    assert "traj_velocity" in txt and "contraction_ratio" in txt
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "source,check,value,bound,ratio,passed"
    assert all(line.endswith(",pass") for line in lines[1:])


def test_report_summarizes_uq(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_GRIDS)
    out = tmp_path / "uq"
    assert run_cli("uq", "--config", cfg, "--out", str(out)) == 0
    code = run_cli("report", str(out))
    capsys.readouterr()
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert all(row[5] == "pass" for row in rows)
    checks = {(row[0], row[1]) for row in rows}
    assert {("theorem_report", "z_deriv_1_tangent"),
            ("theorem_report", "z_deriv_2_tangent"),
            ("theorem_report", "z_deriv_1_resolution"),
            ("corollary_report", "residual_k0")} <= checks
    assert not any(check.endswith("_drift") for _, check in checks)
    for j in range(3):
        assert (f"ensemble_manifest[node {j}]", "contraction_ratio") in checks


def test_report_fails_on_failed_check_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "params {\n a2 0.01\n}\n")
    out = tmp_path / "o"
    assert run_cli("check", "--config", cfg, "--out", str(out)) == 1
    capsys.readouterr()
    code = run_cli("report", str(out))
    txt = capsys.readouterr().out
    assert code == 1
    assert "check_report.json: verdict is not passed" in txt


def test_report_empty_directory(tmp_path, capsys):
    code = run_cli("report", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "(no checks)" in out


def test_report_missing_directory(tmp_path, capsys):
    code = run_cli("report", str(tmp_path / "ghost"))
    err = capsys.readouterr().err
    assert code == 2
    assert "not a directory" in err


def test_report_corrupt_manifest(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("{not json")
    code = run_cli("report", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert "corrupt or unreadable" in err


def test_report_manifest_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00bad")
    code = run_cli("report", str(tmp_path))
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == [err[0]] and err[0].startswith(
        "error: corrupt or unreadable manifest 'binary.json'")


_CHECK = {"name": "c", "value": 0.5, "bound": 1.0, "ratio": 0.5,
          "passed": True, "horizon_dominated": False}


def test_report_reads_non_finite_strings_as_numbers(tmp_path, capsys):
    checks = {"c": {**_CHECK, "value": "nan", "ratio": "nan",
                    "passed": False},
              "d": {**_CHECK, "value": "-inf", "ratio": "-inf"}}
    (tmp_path / "run.json").write_text(json.dumps({"checks": checks}))
    assert run_cli("report", str(tmp_path)) == 1
    assert "run: c = nan exceeds 1" in capsys.readouterr().out
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[1:] == ["run,c,nan,1,nan,fail", "run,d,-inf,1,-inf,pass"]


@pytest.mark.parametrize("payload", [
    {"per_node": [{}]},
    {"per_node": {"checks": {}}},
    {"checks": []},
    {"checks": {"c": {k: v for k, v in _CHECK.items() if k != "bound"}}},
    {"checks": {"c": {**_CHECK, "value": "0.5"}}},
    {"per_node": [{"checks": {"c": 1.0}}]},
    {"checks": {"c": {"value": True, "bound": False, "ratio": True,
                      "passed": True}}, "passed": True},
    # an integer no double holds, in a value or a bound
    '{"checks": {"x": {"value": 1' + "0" * 400
    + ', "bound": 1.0, "ratio": 1.0, "passed": true}}}',
    {"checks": {"c": {**_CHECK, "bound": 10 ** 400, "ratio": 0.0}}},
    # nesting too deep for the JSON reader; json.dumps cannot write it
    "[" * 200000 + "]" * 200000,
    # a verdict that its own numbers contradict
    {"checks": {"c": {**_CHECK, "value": 5.0, "ratio": 0.5}}},
    {"checks": {"c": {**_CHECK, "value": 0.5, "passed": False}}},
    {"checks": {"c": {**_CHECK, "value": "nan", "ratio": "nan"}}},
], ids=["node_without_checks", "per_node_object", "checks_list",
        "check_without_bound", "string_value", "check_not_object",
        "boolean_numbers", "huge_integer", "huge_integer_bound",
        "deep_nesting", "value_above_bound_passes",
        "value_below_bound_fails", "nan_value_passes"])
def test_report_malformed_manifest(tmp_path, capsys, payload):
    text = payload if isinstance(payload, str) else json.dumps(payload)
    (tmp_path / "run.json").write_text(text)
    code = run_cli("report", str(tmp_path))
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == [err[0]] and err[0].startswith(
        "error: corrupt or unreadable manifest 'run.json'")
    assert not (tmp_path / "report.csv").exists()
