"""Link physics: SINR with explicit interferer sets, capacity, power floor."""

import math

import pytest

from m3sim.grid import GridParams, SubcellGrid
from m3sim.radio import LinkContext, RadioError, RadioParams, link_capacity, link_sinr, min_power

GRID = SubcellGrid(GridParams(H=4))


def test_sinr_noise_only():
    # d_r^2 = 3 * 125^2 = 46875 exactly, so every term below is exact
    radio = RadioParams(power=0.15, alpha=2.0, noise=1e-4)
    ctx = LinkContext(tx=GRID.cell(1), rx=GRID.cell(0))
    assert link_sinr(ctx, radio, GRID) == pytest.approx(0.15 / 4.6875, rel=1e-15)


def test_noise_term_is_the_noise_over_the_hop_gain():
    radio = RadioParams(noise=1e-4, alpha=2.0)
    assert radio.noise_term(GRID.params.relay_distance) == pytest.approx(4.6875, rel=1e-15)


def test_sinr_with_one_interferer():
    radio = RadioParams(power=0.15, alpha=2.0, noise=1e-4)
    tx, rx = GRID.cell(1), GRID.cell(0)
    other = GRID.cell(8)  # ring-2 subcell two relay steps from the receiver
    got = link_sinr(LinkContext(tx, rx, (other,)), radio, GRID)
    expected = 0.15 / (0.15 / 2.0**2 + 1e-4 * 46875.0)
    assert got == pytest.approx(expected, rel=1e-15)
    # adding interference can only lower the SINR
    assert got < link_sinr(LinkContext(tx, rx), radio, GRID)


def test_sinr_rejects_bad_geometry():
    radio = RadioParams()
    with pytest.raises(RadioError):
        link_sinr(LinkContext(GRID.cell(1), GRID.cell(4)), radio, GRID)  # not adjacent
    with pytest.raises(RadioError):
        link_sinr(LinkContext(GRID.cell(1), GRID.cell(0), (GRID.cell(0),)), radio, GRID)


def test_capacity_log_bases():
    assert link_capacity(0.0) == 0.0
    assert link_capacity(1.0) == pytest.approx(1.0)
    assert link_capacity(3.0) == pytest.approx(2.0)
    with pytest.raises(RadioError):
        link_capacity(-0.1)


def test_min_power_exact():
    assert min_power(GRID.params, sensitivity=1e-6, alpha=2.0) == pytest.approx(0.046875, rel=1e-12)
    # a deeper tessellation shortens hops and lowers the floor
    assert min_power(GridParams(H=8), 1e-6, 2.0) < min_power(GridParams(H=4), 1e-6, 2.0)
    with pytest.raises(RadioError):
        min_power(GRID.params, sensitivity=0.0, alpha=2.0)
    with pytest.raises(RadioError):
        min_power(GRID.params, sensitivity=1e-6, alpha=-1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"power": 0.0},
        {"power": -1.0},
        {"alpha": 0.0},
        {"noise": -1e-9},
        {"noise": 0.0},
        {"noise": math.inf},
        {"power": math.nan},
        {"alpha": math.nan},
        {"noise": math.nan},
        {"sensitivity": 0.0},
        {"sensitivity": math.nan},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(RadioError):
        RadioParams(**kwargs)
