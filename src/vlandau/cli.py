"""Command-line front end: validate, solve, sweep, and report.

Subcommands
    check   — parameter gate + profile hypothesis checks
    solve   — one deterministic fixed-point solve at a given z
    uq      — collocation sweep in z with gPC projection and
              derivative-bound reports (the z-derivatives at 0 from the
              tangent solve at the node z = 0, so n_z must be odd)
    report  — aggregate manifests in a directory into one summary table

Exit codes: 0 all checks pass, 1 a checked inequality failed, 2 usage
or configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .config import ConfigError, RunConfig, load_config
from .params import AdmissibilityError, check_assumptions
from .profiles import HypothesisError, check_profile
from .scattering import FIELD_MAP_METHOD, ConvergenceError, picard_solve, \
    solver_preconditions
from .fields import write_field_csv
from .uq import CollocationError, check_corollary, check_theorem_bounds, \
    gauss_legendre_nodes, gpc_coefficients, run_collocation, write_gpc_csv

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _z_value(text: str) -> float:
    """--z: a number in [-1, 1]; nan and inf are rejected too."""
    try:
        z = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not -1.0 <= z <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in [-1, 1]")
    return z


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlandau",
        description="Backward-in-time fixed-point solver for damped "
                    "electric fields with prescribed asymptotic profiles")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="run configuration file")
        sp.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (overrides the config)")

    sp = sub.add_parser("check", help="validate parameters and profile")
    common(sp)
    sp = sub.add_parser("solve", help="single deterministic solve")
    common(sp)
    sp.add_argument("--z", type=_z_value, default=0.0,
                    help="parameter value in [-1, 1] (default 0)")
    sp = sub.add_parser("uq", help="collocation sweep over z (odd n_z)")
    common(sp)
    sp = sub.add_parser("report", help="summarize manifests in a directory")
    sp.add_argument("directory", help="directory containing run manifests")
    return parser


def _outdir(cfg: RunConfig, args) -> str:
    out = args.out if args.out else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return out


# JSON (RFC 8259) has no inf or nan, so artifacts hold these strings
_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _strict_json(node):
    """node with each non-finite float replaced by its _NON_FINITE string."""
    if isinstance(node, dict):
        return {key: _strict_json(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_strict_json(value) for value in node]
    finite = not isinstance(node, float) or math.isfinite(node)
    return node if finite else str(float(node))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_strict_json(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _check_rows(source: str, checks: dict) -> list:
    """Table rows of BoundCheck.as_dict entries, sorted by name."""
    return [{"source": source, "check": name, **chk}
            for name, chk in sorted(checks.items())]


def _print_rows(rows) -> None:
    if not rows:
        print("(no checks)")
        return
    headers = ("source", "check", "value", "bound", "ratio", "status")
    table = [headers]
    for r in rows:
        table.append((r["source"], r["check"], "%.6g" % r["value"],
                      "%.6g" % r["bound"], "%.6g" % r["ratio"],
                      "PASS" if r["passed"] else "FAIL"))
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    for n, row in enumerate(table):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if n == 0:
            print("  ".join("-" * w for w in widths))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(cfg: RunConfig, args) -> int:
    out = _outdir(cfg, args)
    params = cfg.damping_params()
    spec = cfg.profile_spec()
    gate = check_assumptions(params)

    z_samples = (0.0,)
    if not spec.is_z_independent:
        nodes, _ = gauss_legendre_nodes(cfg.n_z)
        z_samples = tuple(sorted(set(float(z) for z in nodes) | {0.0}))
    profile = check_profile(spec, params.a, params.a1, params.a2, params.K,
                            z_samples=z_samples)
    checks = {**gate.checks, **profile.checks,
              **solver_preconditions(spec, cfg.nx, z_samples)}
    failed = [name for name, c in checks.items() if not c.passed]
    rows = {name: c.as_dict() for name, c in checks.items()}

    print(f"admissibility gate (C_E = {params.C_E:.6g}, t0 = {params.t0:g}), "
          "profile hypotheses and solver preconditions over z samples "
          f"{', '.join('%.4g' % z for z in z_samples)}:")
    _print_rows(_check_rows("check", rows))

    payload = {
        "config_sha256": cfg.content_hash(),
        "gate": gate.as_dict(),
        "profile": profile.as_dict(),
        "checks": rows,
        "passed": not failed,
    }
    _write_json(os.path.join(out, "check_report.json"), payload)

    if not gate.passed:
        print("gate FAILED: " + ", ".join(gate.failures))
        return EXIT_CHECK_FAILED
    if failed:
        print("profile checks FAILED: " + ", ".join(failed))
        return EXIT_CHECK_FAILED
    print("all checks passed")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig, args) -> int:
    out = _outdir(cfg, args)
    params = cfg.damping_params()
    spec = cfg.profile_spec()
    result = picard_solve(spec, params, args.z, cfg.time_grid(),
                          cfg.phase_grid(), tol=cfg.picard_tol)

    manifest = result.manifest()
    manifest["config_sha256"] = cfg.content_hash()
    manifest["artifacts"] = {"field": "field.csv"}
    write_field_csv(result.field, os.path.join(out, "field.csv"),
                    metadata={"z": result.z, "method": FIELD_MAP_METHOD,
                              "config_sha256": cfg.content_hash()})
    _write_json(os.path.join(out, "solve_manifest.json"), manifest)

    print("converged in one backward pass (residual "
          f"{result.residual_norm:.3e})")
    _print_rows(_check_rows("solve", manifest["checks"]))
    if result.passed:
        print("all bound checks passed")
        return EXIT_PASS
    print("bound checks FAILED")
    return EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# uq
# ---------------------------------------------------------------------------

def cmd_uq(cfg: RunConfig, args) -> int:
    if cfg.n_z < 2:
        raise ConfigError("uq needs n_z >= 2: its z-derivative estimates "
                          "reach order n_z - 2")
    if cfg.n_z % 2 == 0:
        raise ConfigError("uq needs an odd n_z: the tangent solve runs at "
                          "the node z = 0")
    out = _outdir(cfg, args)
    params = cfg.damping_params()
    spec = cfg.profile_spec()
    ens = run_collocation(spec, params, cfg.time_grid(), cfg.phase_grid(),
                          n_z=cfg.n_z, tol=cfg.picard_tol)
    print(f"collocation sweep: {ens.n_nodes} nodes converged")

    gpc = gpc_coefficients(ens)
    write_gpc_csv(gpc, os.path.join(out, "gpc.csv"))
    theorem = check_theorem_bounds(ens)
    corollary = check_corollary(ens)

    manifest = ens.manifest()
    manifest["config_sha256"] = cfg.content_hash()
    manifest["artifacts"] = {"gpc": "gpc.csv",
                             "theorem": "theorem_report.json",
                             "corollary": "corollary_report.json"}
    manifest["gpc_mode_magnitudes"] = list(gpc.mode_magnitudes())
    manifest["gpc_decay_rate_log10"] = gpc.decay_rate()
    _write_json(os.path.join(out, "ensemble_manifest.json"), manifest)
    _write_json(os.path.join(out, "theorem_report.json"), theorem.as_dict())
    _write_json(os.path.join(out, "corollary_report.json"),
                corollary.as_dict())

    for k, norm in enumerate(theorem.norms):
        cert = theorem.checks.get(f"z_deriv_{k}_tangent")
        note = f"  (certificate {cert.bound:.6g})" if cert else ""
        print(f"  |d^{k}_z E|_a,t0 = {norm:.6g}{note}")
    print(f"  residual k=0 worst node ratio = {corollary.k0_ratio:.6g}")

    verdicts = [("theorem", theorem), ("corollary", corollary)] + [
        (f"node z = {r.z:.6g}", r) for r in ens.results]
    failed = [(source, v) for source, v in verdicts if not v.passed]
    for source, v in failed:
        names = ", ".join(n for n, c in sorted(v.checks.items())
                          if not c.passed)
        print(f"  {source} FAILED: {names or 'non-finite result'}")
    print("uq checks " + ("FAILED" if failed else "passed"))
    return EXIT_CHECK_FAILED if failed else EXIT_PASS


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _corrupt(name: str, detail) -> ConfigError:
    return ConfigError(f"corrupt or unreadable manifest '{name}': {detail}")


def _read_numbers(obj: dict) -> dict:
    """A JSON object with the _NON_FINITE strings of its value, bound and
    ratio read as the numbers that _is_check wants."""
    for key in ("value", "bound", "ratio"):
        if isinstance(obj.get(key), str):
            obj[key] = _NON_FINITE.get(obj[key], obj[key])
    return obj


def _load_manifest(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, object_hook=_read_numbers)
    except (OSError, json.JSONDecodeError) as err:
        raise _corrupt(os.path.basename(path), err) from None


def _is_check(row) -> bool:
    """A BoundCheck.as_dict entry: numeric value, bound, ratio; bool passed."""
    return isinstance(row, dict) and isinstance(row.get("passed"), bool) \
        and all(isinstance(row.get(key), (int, float))
                for key in ("value", "bound", "ratio"))


def _manifest_rows(name: str, manifest: dict) -> list:
    """Rows of a manifest's checks and of each per_node entry's checks."""
    stem = name[:-len(".json")]
    nodes = manifest.get("per_node", [])
    if not isinstance(nodes, list) or \
            not all(isinstance(n, dict) for n in nodes):
        raise _corrupt(name, "'per_node' is not a list of objects")
    rows = []
    for source, checks in [(stem, manifest.get("checks", {}))] + [
            (f"{stem}[node {j}]", n.get("checks"))
            for j, n in enumerate(nodes)]:
        if not isinstance(checks, dict) or \
                not all(map(_is_check, checks.values())):
            raise _corrupt(name, f"malformed checks in {source}")
        rows.extend(_check_rows(source, checks))
    return rows


def _report_rows(directory: str) -> tuple[list, list]:
    """Rows of each JSON file's checks and the files whose verdict failed."""
    rows, failed_files = [], []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        manifest = _load_manifest(os.path.join(directory, name))
        if not isinstance(manifest, dict):      # not one of our reports
            continue
        rows.extend(_manifest_rows(name, manifest))
        if manifest.get("passed") is False:
            failed_files.append(name)
    return rows, failed_files


def cmd_report(args) -> int:
    directory = args.directory
    if not os.path.isdir(directory):
        raise ConfigError(f"'{directory}' is not a directory")
    rows, failed_files = _report_rows(directory)
    _print_rows(rows)

    csv_path = os.path.join(directory, "report.csv")
    lines = ["source,check,value,bound,ratio,passed"]
    for r in rows:
        lines.append("%s,%s,%.17g,%.17g,%.17g,%s" % (
            r["source"], r["check"], r["value"], r["bound"], r["ratio"],
            "pass" if r["passed"] else "fail"))
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    failures = [f"{r['source']}: {r['check']} = {r['value']:.6g} exceeds "
                f"{r['bound']:.6g}" for r in rows if not r["passed"]]
    failures += [f"{name}: verdict is not passed" for name in failed_files]
    if failures:
        print(f"{len(failures)} failure(s):")
        print("\n".join("  " + line for line in failures))
        return EXIT_CHECK_FAILED
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--z" in argv[:-1]:
        # argparse reads a negative number in exponent form, such as
        # -1e-05, as an option; bind it to --z as one token instead
        i = argv.index("--z")
        argv[i:i + 2] = [f"--z={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        return EXIT_USAGE if exit_err.code else EXIT_PASS

    try:
        if args.command == "report":
            return cmd_report(args)
        cfg = load_config(args.config)
        if args.command == "check":
            return cmd_check(cfg, args)
        if args.command == "solve":
            return cmd_solve(cfg, args)
        if args.command == "uq":
            return cmd_uq(cfg, args)
        raise ConfigError(f"unknown command '{args.command}'")
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (AdmissibilityError, HypothesisError) as err:
        print(f"check failed: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ConvergenceError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except CollocationError as err:
        print(f"ensemble failure: {err}", file=sys.stderr)
        if isinstance(err.cause, (ConvergenceError, ChildProcessError)):
            return EXIT_SOLVER
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
