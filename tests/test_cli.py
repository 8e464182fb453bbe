"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from vlandau import cli
from vlandau.config import load_config
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

# the default profile depends on z, so uq also runs its refinement sweep
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


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = run_cli("check", "--config", str(tmp_path / "nope.cfg"))
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read config" in err


def test_no_arguments_is_usage_error(capsys):
    assert run_cli() == 2


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


def test_solver_failure_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_GRIDS
                    + "solver {\n picard_tol 1e-30\n max_iter 1\n}\n")
    code = run_cli("solve", "--config", cfg, "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 3
    assert "did not reach" in err


def test_solve_homogeneous_profile_single_pass(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_GRIDS
                    + "profile {\n mode {\n  k 0\n  poly 8e-05\n }\n}\n")
    out = tmp_path / "h"
    assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
    manifest = json.loads((out / "solve_manifest.json").read_text())
    assert manifest["iterations"] == 1


# ---------------------------------------------------------------------------
# uq
# ---------------------------------------------------------------------------

def test_uq_writes_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_GRIDS + Z_INDEPENDENT_PROFILE)
    out = tmp_path / "uq"
    code = run_cli("uq", "--config", cfg, "--out", str(out), "--no-refine")
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


def test_uq_verdict_counts_refined_nodes(tmp_path, monkeypatch, capsys):
    real = cli.run_collocation

    def spoil_refined(*args, n_z, **kwargs):
        ens = real(*args, n_z=n_z, **kwargs)
        if n_z == 3:
            return ens
        results = list(ens.results)
        bad = results[1]
        p = bad.params
        ratio = BoundCheck("contraction_ratio", 0.5,
                           88 * p.a2 / (p.a ** 2 - 80 * p.a2))
        results[1] = dataclasses.replace(
            bad, checks={**bad.checks, "contraction_ratio": ratio})
        return dataclasses.replace(ens, results=tuple(results))

    monkeypatch.setattr(cli, "run_collocation", spoil_refined)
    cfg = write_cfg(tmp_path, TINY_GRIDS)
    code = run_cli("uq", "--config", cfg, "--out", str(tmp_path / "uq"))
    txt = capsys.readouterr().out
    assert code == 1
    assert "refinement sweep: 7 nodes converged" in txt
    assert "uq checks FAILED" in txt
    failing = [line.strip() for line in txt.splitlines() if "FAILED:" in line]
    assert len(failing) == 1
    assert failing[0].startswith("refined node z = ")
    assert failing[0].endswith("FAILED: contraction_ratio")

    assert run_cli("report", str(tmp_path / "uq")) == 1
    lines = (tmp_path / "uq" / "report.csv").read_text().splitlines()
    rows = {(row[0], row[1]): row[5] for row in (line.split(",")
                                                 for line in lines[1:])}
    assert rows[("refined_manifest[node 1]", "contraction_ratio")] == "fail"
    assert [key for key, status in rows.items() if status == "fail"] == [
        ("refined_manifest[node 1]", "contraction_ratio")]


def test_uq_manifests_record_velocity_grid(tmp_path):
    # per-node entries keep no tables but still name their velocity grid
    cfg = write_cfg(tmp_path, TINY_GRIDS)
    out = tmp_path / "uq"
    assert run_cli("uq", "--config", cfg, "--out", str(out)) == 0
    for name, n_nodes in (("ensemble_manifest.json", 3),
                          ("refined_manifest.json", 7)):
        nodes = json.loads((out / name).read_text())["per_node"]
        assert len(nodes) == n_nodes
        for node in nodes:
            assert (node["grids"]["nv"], node["grids"]["v_max"]) == (33, 6.0)


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
    assert {("theorem_report", "z_deriv_0_drift"),
            ("theorem_report", "z_deriv_1_drift"),
            ("corollary_report", "residual_k0")} <= checks
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


_CHECK = {"name": "c", "value": 0.5, "bound": 1.0, "ratio": 0.5,
          "passed": True, "horizon_dominated": False}


@pytest.mark.parametrize("payload", [
    {"per_node": [{}]},
    {"per_node": {"checks": {}}},
    {"checks": []},
    {"checks": {"c": {k: v for k, v in _CHECK.items() if k != "bound"}}},
    {"checks": {"c": {**_CHECK, "value": "0.5"}}},
    {"per_node": [{"checks": {"c": 1.0}}]},
], ids=["node_without_checks", "per_node_object", "checks_list",
        "check_without_bound", "string_value", "check_not_object"])
def test_report_malformed_manifest(tmp_path, capsys, payload):
    (tmp_path / "run.json").write_text(json.dumps(payload))
    code = run_cli("report", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert "corrupt or unreadable manifest 'run.json'" in err
    assert not (tmp_path / "report.csv").exists()
