"""State-vector compression, reconstruction rules and the depth hill-climb."""

import math

import pytest

from m3sim.compression import (
    CompressedStateVector,
    CompressionError,
    absorb,
    aggregate_availability,
    climb_topology,
    compressed_vector,
    full_vector,
    reconstruct_gain,
    topology_step,
)


def test_full_vector_fields_are_consistent():
    full = full_vector(H=4, n_o=(45, 45), zeta=0.25, phi=360.0)
    assert full.N == 60
    assert full.p_a == 0.75
    assert full.p_o == (0.75, 0.75)
    assert full.p_phi == 1.0
    assert full.gain == pytest.approx((8.0 / (math.sqrt(3) * 1000.0)) ** 2)


def test_absorb_drops_redundancy():
    comp = absorb(full_vector(H=4, n_o=(45, 45), zeta=0.25, phi=360.0))
    # 1 - (1 - 0.75 * 0.75)^2 with exact dyadic fractions
    assert comp.p == 0.80859375
    assert comp == CompressedStateVector(H=4, n_o=(45, 45), p=0.80859375, zeta=0.25, phi=360.0)
    assert compressed_vector(4, (45, 45), 0.25, 360.0) == comp


def test_absorb_rejects_inconsistent_subcell_count():
    full = full_vector(H=4, n_o=(45,), zeta=0.25, phi=360.0)
    broken = full.__class__(**{**full.__dict__, "N": 61})
    with pytest.raises(CompressionError, match="inconsistent"):
        absorb(broken)


def test_aggregate_availability_algebra():
    assert aggregate_availability(1.0, 1.0, [1.0]) == 1.0
    assert aggregate_availability(0.5, 1.0, [1.0, 1.0]) == pytest.approx(0.75)
    one = aggregate_availability(0.9, 0.5, [0.6])
    assert one == pytest.approx(0.9 * 0.5 * 0.6)
    # a second operator can only help
    assert aggregate_availability(0.9, 0.5, [0.6, 0.1]) > one
    with pytest.raises(CompressionError):
        aggregate_availability(1.1, 1.0, [0.5])
    with pytest.raises(CompressionError):
        aggregate_availability(0.5, 1.0, [])
    with pytest.raises(CompressionError):
        aggregate_availability(0.5, 1.0, [2.0])


def test_reconstruction_rules():
    assert reconstruct_gain(4, 1000.0, 2.0) == pytest.approx((8e-3 / math.sqrt(3)) ** 2)
    assert reconstruct_gain(8, 1000.0, 2.0) == pytest.approx(4 * reconstruct_gain(4, 1000.0, 2.0))
    with pytest.raises(CompressionError):
        reconstruct_gain(0, 1000.0, 2.0)


@pytest.mark.parametrize("R, alpha", [(math.inf, 2.0), (math.nan, 2.0), (1000.0, math.inf), (1000.0, math.nan)])
def test_reconstruct_gain_rejects_non_finite_inputs(R, alpha):
    with pytest.raises(CompressionError, match="invalid gain parameters"):
        reconstruct_gain(4, R, alpha)


def test_reconstruct_gain_names_its_overflow():
    # 2H/(sqrt(3)R) is about 4619 here, and 4619**300 is past the largest float
    with pytest.raises(CompressionError, match=r"gain overflows a float at H=4, R=0\.001, alpha=300\.0"):
        reconstruct_gain(4, 1e-3, 300.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"H": 0, "n_o": (5,), "zeta": 0.5, "phi": 90.0},
        {"H": 2, "n_o": (), "zeta": 0.5, "phi": 90.0},
        {"H": 2, "n_o": (-1,), "zeta": 0.5, "phi": 90.0},
        {"H": 2, "n_o": (5,), "zeta": 1.5, "phi": 90.0},
        {"H": 2, "n_o": (5,), "zeta": 0.5, "phi": 400.0},
    ],
)
def test_vector_validation(kwargs):
    # H=0 already fails grid construction; every failure is a ValueError
    with pytest.raises(ValueError):
        full_vector(**kwargs)


@pytest.mark.parametrize(
    "build, args, message",
    [
        (compressed_vector, (2.5, [10], 0.1, 360.0), r"H must be a whole number, got 2\.5"),
        (compressed_vector, (True, [10], 0.1, 360.0), r"H must be a whole number, got True"),
        (compressed_vector, (math.inf, [10], 0.1, 360.0), r"H must be a whole number, got inf"),
        (compressed_vector, (2, [2.7], 0.1, 360.0), r"terminal counts must be whole numbers, got \(2\.7,\)"),
        (compressed_vector, (2, [3, True], 0.1, 360.0), r"terminal counts must be whole numbers, got \(3, True\)"),
        (full_vector, (2, (2.7,), 0.1, 360.0), r"terminal counts must be whole numbers, got \(2\.7,\)"),
        (full_vector, (2, (False,), 0.1, 360.0), r"terminal counts must be whole numbers, got \(False,\)"),
    ],
)
def test_vectors_refuse_a_depth_or_count_that_is_not_a_whole_number(build, args, message):
    with pytest.raises(CompressionError, match=message):
        build(*args)


def test_full_vector_grid_mismatch():
    from m3sim.grid import GridParams

    with pytest.raises(CompressionError):
        full_vector(H=4, n_o=(5,), zeta=0.1, phi=360.0, grid_like=GridParams(H=3))


def test_topology_step_climbs_toward_peak():
    peak_at_5 = lambda h: -((h - 5) ** 2)
    assert topology_step(3, peak_at_5) == 4
    assert topology_step(5, peak_at_5) == 5
    assert topology_step(7, peak_at_5) == 6
    assert climb_topology(2, peak_at_5) == 5
    assert climb_topology(9, peak_at_5) == 5


def test_topology_step_ties_prefer_deeper():
    flat = lambda h: 0.0
    assert topology_step(4, flat) == 4  # no improvement anywhere
    vee = lambda h: abs(h - 4.0)  # both neighbours improve equally
    assert topology_step(4, vee) == 5


def test_topology_step_respects_bounds():
    increasing = lambda h: float(h)
    assert topology_step(6, increasing, h_max=6) == 6
    decreasing = lambda h: -float(h)
    assert topology_step(1, decreasing) == 1  # h_min stops the descent
    with pytest.raises(CompressionError):
        topology_step(0, increasing)


def test_climb_stops_at_bound():
    increasing = lambda h: float(h)
    assert climb_topology(2, increasing, h_max=7) == 7
