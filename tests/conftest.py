"""Shared fixtures.

The reference configuration is the library's built-in default.  Expensive
session fixtures (full-grid fixed points and collocation ensembles) are
created lazily so that test files which never request them stay fast.
"""

import pytest

from vlandau import config as vconfig
from vlandau import scattering, uq


@pytest.fixture(scope="session")
def ref_cfg():
    return vconfig.RunConfig()


@pytest.fixture(scope="session")
def ref_params(ref_cfg):
    return ref_cfg.damping_params()


@pytest.fixture(scope="session")
def ref_spec(ref_cfg):
    return ref_cfg.profile_spec()


@pytest.fixture(scope="session")
def ref_tgrid(ref_cfg):
    return ref_cfg.time_grid()


@pytest.fixture(scope="session")
def ref_phase(ref_cfg):
    return ref_cfg.phase_grid()


@pytest.fixture(scope="session")
def ref_solve(ref_spec, ref_params, ref_tgrid, ref_phase):
    """Fixed point at z = 0 on the reference grids."""
    return scattering.picard_solve(ref_spec, ref_params, 0.0, ref_tgrid,
                                   ref_phase)


@pytest.fixture(scope="session")
def ref_traj(ref_solve):
    """The characteristics of ref_solve's field, stored whole: the blocks
    of its certifying march, bitwise."""
    return scattering.solve_characteristics(
        ref_solve.field, ref_solve.phase, ref_solve.params.a)


@pytest.fixture(scope="session")
def ens9(ref_spec, ref_params, ref_tgrid, ref_phase):
    """9-node collocation ensemble on the reference grids."""
    return uq.run_collocation(ref_spec, ref_params, ref_tgrid, ref_phase,
                              n_z=9)
