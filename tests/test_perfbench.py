"""The benchmark's use of the library.

perfbench/workloads.py writes each run configuration in the program's
canonical form, so that its sha256 is the config_sha256 of every manifest,
and perfbench/reference.py makes its reference tables through
picard_solve.  Both modules are imported as they stand.
"""

import os

import numpy as np
import pytest

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
