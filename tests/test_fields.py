"""Grid, kernel, norm, and serialization tests."""

import math

import numpy as np
import pytest
from scipy import integrate

import helpers as H
from vlandau import fields as F

TWO_PI = 2 * np.pi


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_xgrid_basics():
    g = F.XGrid(8)
    assert g.dx == pytest.approx(TWO_PI / 8, rel=1e-15)
    assert np.allclose(g.points, np.arange(8) * TWO_PI / 8)
    for bad in (12, 3, 0, 2):
        with pytest.raises(ValueError):
            F.XGrid(bad)


def test_phase_grid_weights_integrate_one():
    g = F.PhaseGrid(F.XGrid(16), 33, 6.0)
    # int int 1 dx dv over the box = 2 pi * 12
    assert g.weights.sum() == pytest.approx(TWO_PI * 12.0, rel=1e-13)
    assert g.weights.shape == (16, 33)
    assert g.v[0] == -6.0 and g.v[-1] == 6.0 and g.v[16] == 0.0
    with pytest.raises(ValueError):
        F.PhaseGrid(F.XGrid(16), 32, 6.0)    # even nv
    with pytest.raises(ValueError):
        F.PhaseGrid(F.XGrid(16), 33, -1.0)


def test_phase_grid_trapezoid_exact_for_linear():
    g = F.PhaseGrid(F.XGrid(8), 21, 3.0)
    # trapezoid weights integrate  v + c  exactly
    vals = 2.5 + 4.0 * g.v
    assert float((g.v_weights * vals).sum()) == pytest.approx(2.5 * 6.0,
                                                              rel=1e-13)


def test_time_grid():
    tg = F.TimeGrid(8.0, 43.0, 175)
    assert len(tg) == 176
    assert tg.dt == pytest.approx(0.2, rel=1e-12)
    assert tg.times[0] == 8.0 and tg.times[-1] == pytest.approx(43.0)
    with pytest.raises(ValueError):
        F.TimeGrid(8.0, 8.0, 10)
    with pytest.raises(ValueError):
        F.TimeGrid(-1.0, 5.0, 10)


# ---------------------------------------------------------------------------
# force kernel
# ---------------------------------------------------------------------------

def test_kernel_values_and_periodicity():
    assert float(H.kernel_B(0.0)) == 0.5
    assert float(H.kernel_B(np.pi)) == pytest.approx(0.0, abs=1e-15)
    assert float(H.kernel_B(TWO_PI - 1e-9)) == pytest.approx(-0.5, rel=1e-6)
    x = np.linspace(-10, 10, 101)
    assert np.allclose(H.kernel_B(x + TWO_PI), H.kernel_B(x), atol=1e-12)


def test_kernel_is_mean_free():
    val, _ = integrate.quad(lambda x: float(H.kernel_B(x)), 0.0, TWO_PI,
                            epsabs=1e-14)
    assert val == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# field tables and spectral calculus
# ---------------------------------------------------------------------------

def _table(fn, nx=64, t0=8.0, t_end=20.0, steps=48):
    return H.tabulate_field(F.TimeGrid(t0, t_end, steps), F.XGrid(nx), fn)


def test_field_table_shape_validation():
    tg, xg = F.TimeGrid(8.0, 10.0, 4), F.XGrid(8)
    with pytest.raises(ValueError):
        F.FieldTable(tg, xg, np.zeros((4, 8)))   # needs 5 rows


def test_spectral_dx_exact_for_trig_polynomials():
    tab = _table(lambda x, t: 3 * np.sin(2 * x) - np.cos(5 * x) + 1.0)
    got = F.spectral_dx(tab)
    expect = _table(lambda x, t: 6 * np.cos(2 * x) + 5 * np.sin(5 * x))
    assert np.allclose(got.values, expect.values, atol=1e-12)


def test_spectral_dx_kills_nyquist():
    tab = _table(lambda x, t: np.cos(32 * x), nx=64)
    assert np.abs(F.spectral_dx(tab).values).max() <= 1e-12


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def test_weighted_norm_pure_decay():
    a = 1.0
    tab = _table(lambda x, t: math.exp(-a * t) * np.cos(x))
    rep = F.weighted_norm(tab, a)
    assert rep.value == pytest.approx(1.0, rel=1e-12)
    # strictly decreasing weighted profile: supremum at the first sample
    tab2 = _table(lambda x, t: math.exp(-2 * a * t) * np.cos(x))
    rep2 = F.weighted_norm(tab2, a)
    assert rep2.value == pytest.approx(math.exp(-8.0), rel=1e-12)
    assert not rep2.horizon_dominated


def test_weighted_norm_moment():
    a = 1.0
    tab = _table(lambda x, t: t * math.exp(-a * t) * np.ones_like(x))
    rep = F.weighted_norm(tab, a, moment=1)
    assert rep.value == pytest.approx(1.0, rel=1e-12)


def test_weighted_norm_horizon_flag():
    # e^{-t/2} weighted by e^{t} grows: supremum pinned to the last sample
    tab = _table(lambda x, t: math.exp(-0.5 * t) * np.ones_like(x))
    rep = F.weighted_norm(tab, 1.0)
    assert rep.horizon_dominated


def test_weighted_norm_homogeneity():
    tab = _table(lambda x, t: math.exp(-t) * np.cos(x - 1.0))
    one = F.weighted_norm(tab, 1.0)
    three = F.weighted_norm(tab.with_values(3.0 * tab.values), 1.0)
    assert three.value == pytest.approx(3.0 * one.value, rel=1e-14)


def test_weighted_sup_validation():
    with pytest.raises(ValueError):
        F.weighted_sup([1.0, 2.0], [1.0, 1.0], a=-1.0)
    with pytest.raises(ValueError):
        F.weighted_sup([1.0, 2.0], [1.0, 1.0], a=1.0, moment=-2)


def test_zero_field():
    z = F.zero_field(F.TimeGrid(8.0, 10.0, 4), F.XGrid(8))
    assert np.all(z.values == 0.0)
    assert F.weighted_norm(z, 1.0).value == 0.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    tg, xg = F.TimeGrid(8.0, 12.0, 7), F.XGrid(16)
    tab = F.FieldTable(tg, xg, rng.standard_normal((8, 16)))
    p = tmp_path / "field.csv"
    F.write_field_csv(tab, p, metadata={"z": 0.25})
    back, side = F.read_field_csv(p)
    assert np.array_equal(back.values, tab.values)       # bit-exact
    assert back.tgrid == tab.tgrid and back.xgrid == tab.xgrid
    assert side["z"] == 0.25 and side["format"] == "field-table-v1"
    # identical tables serialize to identical bytes
    p2 = tmp_path / "field2.csv"
    F.write_field_csv(tab, p2, metadata={"z": 0.25})
    assert p.read_bytes() == p2.read_bytes()


def test_csv_read_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,1,2\n")
    with pytest.raises(ValueError, match="missing 't' header"):
        F.read_field_csv(p)
    p.write_text("t,0,1\n8.0,1.0\n8.5,1.0,2.0\n")
    with pytest.raises(ValueError, match="fields"):
        F.read_field_csv(p)
    p.write_text("t,0,1\n8.0,1.0,2.0\n8.5,1.0,2.0\n9.7,1.0,2.0\n")
    with pytest.raises(ValueError, match="not uniform"):
        F.read_field_csv(p)
    # the position header must be the grid 2 pi i/n, n a power of two >= 4
    for xs in ([0.0],                                   # one x column
               np.pi * np.arange(4),                    # a period of 4 pi
               TWO_PI / 3 * np.arange(3),               # n not a power of 2
               TWO_PI / 4 * (np.arange(4) + 0.5)):      # shifted nodes
        head = ",".join("%.17g" % x for x in xs)
        row = ",".join(["1.0"] * len(xs))
        p.write_text(f"t,{head}\n8.0,{row}\n8.5,{row}\n")
        with pytest.raises(ValueError, match="position header") as exc:
            F.read_field_csv(p)
        assert str(p) in str(exc.value)
    # every header token, time and cell must be a finite number
    grid = ",".join("%.17g" % x for x in TWO_PI / 4 * np.arange(4))
    first, last = "8.0,1,2,3,4", "8.5,1,2,3,4"
    for head, row, what in ((grid, "8.0,1,2,nan,4", "non-finite"),
                            (grid, "8.0,1,inf,3,4", "non-finite"),
                            (grid, "-inf,1,2,3,4", "non-finite"),
                            (grid, "8.0,1,2,3,x", "non-numeric"),
                            (grid, "x,1,2,3,4", "non-numeric"),
                            ("0,x,3,4", first, "non-numeric"),
                            ("0,nan,3,4", first, "non-finite")):
        p.write_text(f"t,{head}\n{row}\n{last}\n")
        with pytest.raises(ValueError, match=what) as exc:
            F.read_field_csv(p)
        assert str(p) in str(exc.value)


@pytest.mark.parametrize("times", [(3.0, 2.0, 1.0), (-1.0, 0.0, 1.0)])
def test_csv_read_names_the_file_of_a_bad_time_column(tmp_path, times):
    # a decreasing time column, or one that does not start above 0, is
    # refused with the file's path, as every other malformed table is
    p = tmp_path / "times.csv"
    grid = ",".join("%.17g" % x for x in TWO_PI / 4 * np.arange(4))
    rows = "".join(f"{t},1,2,3,4\n" for t in times)
    p.write_text(f"t,{grid}\n{rows}")
    with pytest.raises(ValueError, match="0 < t0 < t_end") as exc:
        F.read_field_csv(p)
    assert str(exc.value).startswith(f"{p}: ")
