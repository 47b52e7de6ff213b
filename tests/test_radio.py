"""Link physics: SINR with explicit interferer sets, capacity, power floor."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3sim.grid import GridParams, SubcellGrid
from m3sim.radio import RadioError, RadioParams, link_capacity, link_sinr, min_power, slot_sinrs

GRID = SubcellGrid(GridParams(H=4))


def test_sinr_noise_only():
    # d_r^2 = 3 * 125^2 = 46875 exactly, so every term below is exact
    radio = RadioParams(power=0.15, alpha=2.0, noise=1e-4)
    assert link_sinr(1, 0, (), radio, GRID) == pytest.approx(0.15 / 4.6875, rel=1e-15)


def test_noise_term_is_the_noise_over_the_hop_gain():
    radio = RadioParams(noise=1e-4, alpha=2.0)
    assert radio.noise_term(GRID.params.relay_distance) == pytest.approx(4.6875, rel=1e-15)


def test_sinr_with_one_interferer():
    radio = RadioParams(power=0.15, alpha=2.0, noise=1e-4)
    tx, rx = 1, 0
    other = 8  # ring-2 subcell two relay steps from the receiver
    got = link_sinr(tx, rx, (other,), radio, GRID)
    expected = 0.15 / (0.15 / 2.0**2 + 1e-4 * 46875.0)
    assert got == pytest.approx(expected, rel=1e-15)
    # adding interference can only lower the SINR
    assert got < link_sinr(tx, rx, (), radio, GRID)


def test_sinr_rejects_bad_geometry():
    radio = RadioParams()
    with pytest.raises(RadioError):
        link_sinr(1, 4, (), radio, GRID)  # not adjacent
    with pytest.raises(RadioError):
        link_sinr(1, 0, (0,), radio, GRID)


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
    "sensitivity, alpha, message",
    [
        (math.inf, 2.0, "sensitivity must be finite, got inf"),
        (math.nan, 2.0, "sensitivity must be positive, got nan"),
        (1e-6, math.inf, "path-loss exponent must be finite, got inf"),
        (1e-6, math.nan, "path-loss exponent must be positive, got nan"),
    ],
)
def test_min_power_rejects_non_finite_inputs_by_name(sensitivity, alpha, message):
    with pytest.raises(RadioError, match=message):
        min_power(GridParams(H=4), sensitivity, alpha)


def test_min_power_names_the_overflow_of_its_power_law():
    # d_r = 216.5 m at R=1000, H=4: d_r**200 is past the largest float
    message = "minimum power sensitivity * d_r**alpha overflows at alpha=200.0"
    with pytest.raises(RadioError, match=re.escape(message)):
        min_power(GridParams(H=4), 1e-6, 200.0)


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


@pytest.mark.parametrize(
    "field, label",
    [("power", "transmit power"), ("alpha", "path-loss exponent"), ("sensitivity", "sensitivity")],
)
def test_params_must_be_finite(field, label):
    with pytest.raises(RadioError, match=f"^{label} must be finite, got inf$"):
        RadioParams(**{field: math.inf})


# -- the interference-term table against the per-interferer formula -----------

SINR_GRIDS = {h: SubcellGrid(GridParams(H=h)) for h in (4, 10)}
ALPHAS = (2.0, 3.5, 4.0)


def _ref_link_sinr(tx, rx, interferers, radio, grid):
    """SINR with one sqrt and power per interferer, summed in the given order."""
    tx, rx = grid.cell(tx), grid.cell(rx)
    if grid.squared_step_distance(tx, rx) != 1:
        raise RadioError("not adjacent")
    interference = 0.0
    for cell in (grid.cell(a) for a in interferers):
        if cell.i == rx.i:
            raise RadioError("co-located")
        dq, dr = cell.q - rx.q, cell.r - rx.r
        z = math.sqrt(dq * dq + dr * dr + dq * dr)
        try:
            interference += radio.power / z**radio.alpha
        except OverflowError:  # the divisor overflows, so take the reciprocal, which underflows
            interference += radio.power * z**-radio.alpha
    return radio.power / (interference + radio.noise_term(grid.params.relay_distance))


@st.composite
def sinr_case(draw):
    """A link of an H=4 or H=10 grid with a random ordered set of interferers."""
    grid = SINR_GRIDS[draw(st.sampled_from(sorted(SINR_GRIDS)))]
    radio = RadioParams(
        power=draw(st.floats(1e-3, 10.0)),
        alpha=draw(st.sampled_from(ALPHAS)),
        noise=draw(st.sampled_from((1e-4, 1e-8, 1e-12))),
    )
    tx = draw(st.integers(0, len(grid.cells) - 1))
    rx = draw(st.sampled_from(grid.adjacent[tx]))
    others = [c for c in range(len(grid.cells)) if c != rx]
    interferers = draw(st.lists(st.sampled_from(others), max_size=40, unique=True))
    return tx, rx, tuple(interferers), radio, grid


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sinr_case())
def test_sinr_matches_the_per_interferer_formula(case):
    assert link_sinr(*case) == _ref_link_sinr(*case)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("H", sorted(SINR_GRIDS))
def test_sinr_reads_the_farthest_pair_of_the_grid(H, alpha):
    # receiver and interferer on opposite corners, 2H relay steps apart
    grid = SINR_GRIDS[H]
    tx, rx, far = grid.index[(H - 1, 0)], grid.index[(H, 0)], grid.index[(-H, 0)]
    assert grid.squared_step_distance(grid.cell(rx), grid.cell(far)) == 4 * H * H
    radio = RadioParams(alpha=alpha)
    case = (tx, rx, (far, 0, tx), radio, grid)
    assert link_sinr(*case) == _ref_link_sinr(*case)


def test_sinr_underflows_where_the_formula_overflows():
    # d_r = 1, so the noise term is the noise; with alpha = 1000,
    # sqrt(d2)**alpha overflows a float from d2 = 5 on
    grid = SubcellGrid(GridParams(H=4, R=8.0 / math.sqrt(3.0)))
    radio = RadioParams(alpha=1000.0)
    assert math.isfinite(radio.noise_term(grid.params.relay_distance))
    cases = [(c,) for c in range(1, len(grid.cells))] + [(8, 2, 1), (8, 30, 2)]
    outcomes = set()
    for interferers in cases:
        d2 = max(grid.squared_step_distance(grid.cell(0), grid.cell(c)) for c in interferers)
        outcomes.add("overflow" if d2 >= 5 else "finite")
        sinr = link_sinr(1, 0, interferers, radio, grid)
        assert sinr == _ref_link_sinr(1, 0, interferers, radio, grid)
        assert 0.0 <= sinr < math.inf
    assert outcomes == {"overflow", "finite"}


# -- one slot in one numpy pass against the per-link loop --------------------

# d_r = 1, so the noise term stays finite at alpha = 1000
UNIT_GRID = SubcellGrid(GridParams(H=4, R=8.0 / math.sqrt(3.0)))


@st.composite
def slot_cases(draw):
    """One slot of relay hops on an H=4 or H=10 grid.

    Its link count falls below 12 transmitters, around and above them, or
    past the kernel's 256-link blocks; at alpha = 1000 (on a grid with
    d_r = 1) far terms underflow to 0.0.  The first link's receiver always
    transmits in the slot too.
    """
    alpha = draw(st.sampled_from(ALPHAS + (1000.0,)))
    grid = UNIT_GRID if alpha == 1000.0 else SINR_GRIDS[draw(st.sampled_from(sorted(SINR_GRIDS)))]
    radio = RadioParams(
        power=draw(st.floats(1e-3, 10.0)),
        alpha=alpha,
        noise=draw(st.sampled_from((1e-4, 1e-8, 1e-12))),
    )
    hops = [(tx, rx) for tx in range(len(grid.cells)) for rx in grid.adjacent[tx]]
    count = draw(st.sampled_from(((1, 11), (12, 60), (257, 600))).flatmap(lambda span: st.integers(*span)))
    links = draw(st.randoms(use_true_random=False)).sample(hops, min(count, len(hops)))
    rx = links[0][1]
    relay = (rx, draw(st.sampled_from(grid.adjacent[rx])))
    if relay not in links:
        links.append(relay)
    return links, radio, grid


@settings(max_examples=60, deadline=None, derandomize=True)
@given(slot_cases())
def test_slot_sinrs_equal_the_per_link_loop(case):
    links, radio, grid = case
    order = tuple(sorted({tx for tx, _ in links}))
    expected = [
        link_sinr(tx, rx, tuple(t for t in order if t not in (tx, rx)), radio, grid) for tx, rx in links
    ]
    assert slot_sinrs(links, order, radio, grid) == expected
    # a subset of the links, as the memo misses of a slot are
    assert slot_sinrs(links[1::2], order, radio, grid) == expected[1::2]


def test_slot_sinrs_cross_blocks_and_read_the_underflowing_table():
    # the alpha = 1000 table of test_sinr_underflows_where_the_formula_overflows,
    # in one slot of every hop of the grid: 312 links, two blocks
    radio = RadioParams(alpha=1000.0)
    links = [(tx, rx) for tx in range(len(UNIT_GRID.cells)) for rx in UNIT_GRID.adjacent[tx]]
    order = tuple(range(len(UNIT_GRID.cells)))
    got = slot_sinrs(links, order, radio, UNIT_GRID)
    assert len(links) > 256
    assert got == [
        link_sinr(tx, rx, tuple(t for t in order if t not in (tx, rx)), radio, UNIT_GRID) for tx, rx in links
    ]
    assert all(0.0 <= sinr < math.inf for sinr in got)


def test_slot_sinrs_reject_a_non_adjacent_link_as_link_sinr_does():
    grid = SINR_GRIDS[4]
    radio = RadioParams()
    message = "^link 1->10 does not span adjacent subcells$"
    with pytest.raises(RadioError, match=message):
        link_sinr(1, 10, (), radio, grid)
    with pytest.raises(RadioError, match=message):
        slot_sinrs([(1, 0), (1, 10)], (1,), radio, grid)


def _silent_grid():
    """H=2 grid whose noise term underflows to 0.0 at noise = 1e-320."""
    grid = SubcellGrid(GridParams(H=2, R=1e-3))
    radio = RadioParams(noise=1e-320)
    assert radio.noise_term(grid.params.relay_distance) == 0.0
    return grid, radio


def test_sinr_without_interference_or_noise_fails_by_name():
    grid, radio = _silent_grid()
    message = r"^SINR of link 1->0 is not finite: power 0\.15 over interference plus noise 0\.0$"
    with pytest.raises(RadioError, match=message):
        link_sinr(1, 0, (), radio, grid)
    with pytest.raises(RadioError, match=message):
        slot_sinrs([(1, 0)], (1,), radio, grid)
