"""The benchmark's use of the library.

perfbench/workloads.py writes each run configuration in the program's
canonical form, so that its sha256 is the config_sha256 of every manifest,
and validates each run's outputs against the reference tables that
perfbench/reference.py makes through picard_solve.  Both modules are
imported as they stand.
"""

import os

import numpy as np
import pytest

from vlandau import cli
from vlandau.config import parse_config

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        import reference
        import workloads
        yield workloads, reference


def test_workload_configs_are_canonical(bench):
    workloads, _ = bench
    for w in workloads.WORKLOADS.values():
        texts = (workloads.make_inputs(w, seed=1).config,
                 workloads.config_text(w, (workloads.C1_MEAN,)))
        for text in texts:
            assert parse_config(text).canonical_text() == text, w.name


def test_reference_solve_reproduces_the_stored_table(bench):
    workloads, reference = bench
    w = workloads.WORKLOADS["uq-coarse"]
    values, times = reference._solve(w, workloads.C1_MEAN)
    stored = reference.ReferenceField(w.name)
    assert np.array_equal(times, stored.times)
    err = workloads._weighted_rel_err(values, stored.field(workloads.C1_MEAN),
                                      stored.times)
    assert err <= reference.FIELD_TOL


@pytest.mark.parametrize("end", [0, 1])
def test_uq_coarse_run_passes_the_benchmarks_validation(bench, tmp_path, end):
    # the benchmark's own verdict, gPC reference check included, at each
    # end of the slope range its seeds draw from
    workloads, reference = bench
    w = workloads.WORKLOADS["uq-coarse"]
    inp = workloads.Inputs(w, z=None, slope=workloads.UQ_SLOPES[end])
    config = tmp_path / "run.cfg"
    config.write_text(inp.config)
    out = str(tmp_path / "out")
    code = cli.main(inp.cli_args(str(config), out))
    ref = reference.ReferenceField(w.name)
    assert workloads.validate(inp, str(config), out, code, ref) == []
