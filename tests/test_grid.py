"""Hexagonal tessellation: indexing, geometry, coloring, destinations."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from m3sim.grid import (
    DIRECTIONS,
    NUM_COLORS,
    Destinations,
    GridError,
    GridParams,
    SubcellGrid,
    SubcellId,
    _axial_ring,
    _unit_position,
    make_destinations,
    ring_index_range,
)


def test_subcell_counts():
    assert GridParams(H=1).subcell_count == 6
    assert GridParams(H=2).subcell_count == 18
    assert GridParams(H=4).subcell_count == 60
    assert GridParams(H=7).subcell_count == 168
    # the center subcell exists but is not counted
    assert len(SubcellGrid(GridParams(H=4)).cells) == 61


def test_ring_index_ranges():
    assert ring_index_range(1) == (1, 6)
    assert ring_index_range(2) == (7, 18)
    assert ring_index_range(3) == (19, 36)
    assert ring_index_range(4) == (37, 60)
    with pytest.raises(GridError):
        ring_index_range(0)


def test_relay_distance_default_grid():
    params = GridParams(H=4)
    assert params.subcell_radius == 125.0
    assert params.relay_distance == pytest.approx(216.50635094610965, abs=0)


def test_params_validation():
    with pytest.raises(GridError):
        GridParams(H=0)
    # a bool is an int, but no ring count
    for flag in (True, False):
        with pytest.raises(GridError, match=f"^ring count H must be an integer >= 1, got {flag}$"):
            GridParams(H=flag)
    with pytest.raises(GridError):
        GridParams(H=3, R=-5.0)
    with pytest.raises(GridError):
        GridParams(H=3, K=6)


@pytest.mark.parametrize(
    "radius, message",
    [
        (math.inf, "macrocell radius R must be finite, got inf"),
        (math.nan, "macrocell radius R must be positive, got nan"),
        (0.0, "macrocell radius R must be positive, got 0.0"),
    ],
)
def test_radius_must_be_finite_and_positive(radius, message):
    # an infinite radius once constructed, with an infinite subcell radius
    with pytest.raises(GridError, match=f"^{re.escape(message)}$"):
        GridParams(H=3, R=radius)


def test_cell_addressing_roundtrip():
    grid = SubcellGrid(GridParams(H=4))
    center = grid.cell(0)
    assert center.h == 0 and grid.center_position(center) == (0.0, 0.0)
    for cell in grid.cells[1:]:
        lo, hi = ring_index_range(cell.h)
        assert lo <= cell.i <= hi
        assert grid.nearest_in_ring(cell.h, cell.theta) == (cell, 0.0)
    with pytest.raises(GridError):
        grid.cell(61)


def _scanned_nearest_in_ring(grid, h, theta):
    """nearest_in_ring as one scan over the whole ring."""
    theta = theta % 360.0
    best, best_gap = None, None
    for c in grid.ring(h):
        gap = abs(c.theta - theta)
        gap = min(gap, 360.0 - gap)
        if best is None or gap < best_gap - 1e-12:
            best, best_gap = c, gap
    return best, best_gap


@pytest.mark.parametrize("H", [1, 2, 5, 10, 33, 64])
def test_nearest_in_ring_matches_the_scan_over_the_ring(H):
    grid = SubcellGrid(GridParams(H=H))
    rng = random.Random(H)
    for h in range(H + 1):
        thetas = [c.theta for c in grid.ring(h)]
        angles = thetas + [(a + b) / 2 for a, b in zip(thetas, thetas[1:] + [thetas[0] + 360.0])]
        angles += [rng.uniform(-720.0, 720.0) for _ in range(50)] + [0.0, 360.0, 359.9999999999999, -1e-300]
        for theta in angles:
            got = grid.nearest_in_ring(h, theta)
            want = _scanned_nearest_in_ring(grid, h, theta)
            assert got == want and repr(got[1]) == repr(want[1]), (h, theta)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_nearest_in_ring_refuses_a_non_finite_angle(theta):
    # NaN compares false with every ring angle, so it once snapped to the ring's first cell
    with pytest.raises(GridError, match=f"^placement angle must be finite, got {theta!r}$"):
        SubcellGrid(GridParams(H=3)).nearest_in_ring(2, theta)


def test_ring_angles_sorted():
    grid = SubcellGrid(GridParams(H=3))
    for h in range(1, 4):
        angles = [c.theta for c in grid.ring(h)]
        assert angles == sorted(angles)
        assert len(angles) == 6 * h


def test_nearest_in_ring_snaps_and_ties_low():
    grid = SubcellGrid(GridParams(H=4))
    cell, gap = grid.nearest_in_ring(2, 1.0)
    assert cell.i == 7 and gap == pytest.approx(1.0)
    # exactly between ring-1 subcells at 30 and 90 degrees: lower index wins
    cell, gap = grid.nearest_in_ring(1, 60.0)
    assert cell.i == 1 and gap == pytest.approx(30.0)
    with pytest.raises(GridError):
        grid.nearest_in_ring(5, 0.0)


def test_neighbor_structure():
    grid = SubcellGrid(GridParams(H=3))
    for cell in grid.cells:
        ns = grid.neighbors(cell)
        assert len(ns) <= 6
        if cell.h < 3:
            assert len(ns) == 6
        for n in ns:
            assert grid.squared_step_distance(cell, n) == 1
            assert abs(n.h - cell.h) <= 1


def test_coloring_is_proper_and_complete():
    """No two adjacent subcells share a color, and interior subcells see all 7."""
    grid = SubcellGrid(GridParams(H=4))
    for cell in grid.cells:
        mine = grid.colors[cell.i]
        ns = grid.neighbors(cell)
        colors = [grid.colors[n.i] for n in ns]
        assert mine not in colors
        if len(ns) == 6:
            assert sorted(colors + [mine]) == list(range(7))


def test_color_populations():
    grid = SubcellGrid(GridParams(H=4))
    pops = grid.color_populations()
    assert sum(pops) == 60
    # the center's color class is the rarest on this depth: six ring-3 cells
    assert pops[grid.colors[0]] == 6
    zero = [c.i for c in grid.cells[1:] if grid.colors[c.i] == 0]
    assert zero == [21, 24, 27, 30, 33, 36]
    assert all(grid.cell(i).h == 3 for i in zero)
    without = grid.color_populations(exclude=frozenset(zero))
    assert without[0] == 0 and sum(without) == 54


@pytest.mark.parametrize("H", range(1, 13))
def test_color_populations_count_each_ring_cell_not_excluded(H):
    grid = SubcellGrid(GridParams(H=H))
    rng = random.Random(H)
    excludes = [frozenset(), frozenset({0}), frozenset(range(len(grid.cells)))]
    excludes += [frozenset(rng.sample(range(len(grid.cells)), rng.randint(1, 7))) for _ in range(20)]
    for exclude in excludes:
        want = [0] * NUM_COLORS
        for cell in grid.cells[1:]:
            if cell.i not in exclude:
                want[grid.colors[cell.i]] += 1
        assert grid.color_populations(exclude=exclude) == want, sorted(exclude)


def test_distances():
    grid = SubcellGrid(GridParams(H=3))
    a, b = grid.cell(1), grid.cell(2)
    assert grid.squared_step_distance(a, b) == 1 and grid.squared_step_distance(a, a) == 0
    assert grid.hop_distance(a, a) == 0
    assert grid.hop_distance(grid.cell(0), grid.cell(19)) == 3


def test_destinations_from_polar_placement():
    grid = SubcellGrid(GridParams(H=4))
    dest = make_destinations(grid, [(3, 250)])
    assert [a.i for a in dest.aps] == [31]
    assert sorted(c.i for c in dest.coverage[0]) == [15, 16, 30, 32, 53, 54]
    # access points come before the base station in the absorbing order
    assert [c.i for c in dest.absorbing_cells()] == [31, 0]
    assert dest.indices() == frozenset({31, 0})


def test_destination_indices_are_built_once_and_left_out_of_equality():
    grid = SubcellGrid(GridParams(H=4))
    dest = make_destinations(grid, [(3, 250)])
    assert dest.indices() is dest.indices()
    twin = Destinations(bs=dest.bs, aps=dest.aps, coverage=dest.coverage)
    assert twin == dest and hash(twin) == hash(dest)
    assert hash(dest) == hash((dest.bs, dest.aps, dest.coverage))
    assert "_indices" not in repr(dest)
    assert Destinations(bs=dest.bs) != dest


def test_destinations_refuse_a_repeated_or_center_access_point():
    grid = SubcellGrid(GridParams(H=3))
    # built by hand, not through make_destinations: the type owns these rules
    with pytest.raises(GridError, match="duplicate access-point placements"):
        Destinations(bs=grid.cell(0), aps=(grid.cell(3), grid.cell(3)))
    for bs in (grid.cell(0), None):
        with pytest.raises(GridError, match="an access point cannot share the center subcell"):
            Destinations(bs=bs, aps=(grid.cell(0),))
    with pytest.raises(GridError, match="coverage must list one cluster per access point"):
        Destinations(bs=grid.cell(0), aps=(grid.cell(3),), coverage=((), ()))
    # make_destinations snaps and leaves the checks to the type
    with pytest.raises(GridError, match="duplicate access-point placements"):
        make_destinations(grid, [(2, 0.0), (2, 1.0)])
    with pytest.raises(GridError, match="an access point cannot share the center subcell"):
        make_destinations(grid, [(0, 0.0)])


def test_destinations_without_base_station():
    grid = SubcellGrid(GridParams(H=4))
    full = make_destinations(grid, [(3, 250)])
    ap_only = Destinations(bs=None, aps=full.aps, coverage=full.coverage)
    assert [c.i for c in ap_only.absorbing_cells()] == [31]


def _ranked(grid, cell, dest):
    """The cell's rank-table row as cells, after checking that it holds six
    entries: as many as the cell has neighbours, then only -1."""
    row = grid.rank_table(dest)[cell.i]
    degree = len(grid.neighbors(cell))
    assert len(row) == 6 and row[degree:] == (-1,) * (6 - degree)
    return [grid.cell(n) for n in row[:degree]]


def test_rank_table_is_deterministic():
    grid = SubcellGrid(GridParams(H=2))
    dest = make_destinations(grid)
    cell = grid.cell(7)
    ranked = _ranked(grid, cell, dest)
    dists = [min(grid.squared_step_distance(n, t) for t in dest.absorbing_cells()) for n in ranked]
    assert dists == sorted(dists)
    assert ranked == _ranked(grid, cell, dest)


@st.composite
def destination_case(draw):
    """A random H in 1..8 with a random destination set of up to three access points."""
    grid = SubcellGrid(GridParams(H=draw(st.integers(1, 8))))
    aps = draw(st.lists(st.integers(1, len(grid.cells) - 1), max_size=3, unique=True))
    bs = grid.cell(0) if not aps or draw(st.booleans()) else None
    return grid, Destinations(bs=bs, aps=tuple(grid.cell(a) for a in aps))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(destination_case())
def test_rank_table_matches_sort_by_minimum_distance(case):
    grid, dest = case
    targets = dest.absorbing_cells()
    for cell in grid.cells:
        expected = sorted(
            grid.neighbors(cell),
            key=lambda n: (min(grid.squared_step_distance(n, t) for t in targets), n.i),
        )
        assert _ranked(grid, cell, dest) == expected


@pytest.mark.parametrize("H", [1, 2, 7, 64])
def test_every_rank_row_holds_six_entries_the_neighbours_then_only_padding(H):
    grid = SubcellGrid(GridParams(H=H))
    for dest in (make_destinations(grid), Destinations(bs=None, aps=(grid.cells[-1],))):
        table = grid.rank_table(dest)
        assert len(table) == len(grid.cells)
        for cell, row in zip(grid.cells, table):
            steps = [(cell.q + dq, cell.r + dr) for dq, dr in DIRECTIONS]
            neighbours = sorted(grid.index[s] for s in steps if s in grid.index)
            assert len(row) == 6
            assert sorted(row[: len(neighbours)]) == neighbours
            assert row[len(neighbours) :] == (-1,) * (6 - len(neighbours))


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 30))
@example(30)
def test_rings_coloring_and_neighbors_hold_at_every_depth(H):
    grid = SubcellGrid(GridParams(H=H))
    assert len(grid.cells) == 1 + GridParams(H=H).subcell_count
    for h in range(1, H + 1):
        assert len(grid.ring(h)) == 6 * h
    for cell in grid.cells:
        color = grid.colors[cell.i]
        assert 0 <= color < NUM_COLORS
        for n in grid.neighbors(cell):
            assert grid.colors[n.i] != color
            assert cell in grid.neighbors(n)


def _ref_grid_tables(H):
    """The grid's tables built ring by ring: each ring's (theta, q, r) sorted on its own, then joined."""
    rings = [[] for _ in range(H + 1)]
    for q in range(-H, H + 1):
        for r in range(max(-H, -q - H), min(H, -q + H) + 1):
            h = _axial_ring(q, r)
            if h == 0:
                theta = 0.0
            else:
                x, y = _unit_position(q, r)
                theta = math.degrees(math.atan2(y, x)) % 360.0
            rings[h].append((theta, q, r))
    cells, ring_cells = [], []
    for h, members in enumerate(rings):
        members.sort()
        first = len(cells)
        ring = tuple(SubcellId(h=h, theta=t, i=first + k, q=q, r=r) for k, (t, q, r) in enumerate(members))
        ring_cells.append(ring)
        cells.extend(ring)
    index = {(c.q, c.r): c.i for c in cells}
    # each cell's step in every direction, -1 where it leaves the grid
    adjacent = [[index.get((c.q + dq, c.r + dr), -1) for dq, dr in DIRECTIONS] for c in cells]
    colors = tuple((c.q + 5 * c.r) % NUM_COLORS for c in cells)
    axial = [[c.q for c in cells], [c.r for c in cells]]
    return tuple(cells), index, adjacent, colors, tuple(ring_cells), axial


@pytest.mark.parametrize("H", [*range(1, 25), 32, 48, 64])
def test_grid_tables_match_the_ring_by_ring_build(H):
    grid = SubcellGrid(GridParams(H=H))
    cells, index, adjacent, colors, rings, axial = _ref_grid_tables(H)
    # SubcellId compares theta with ==; the reprs also tell -0.0 from 0.0
    assert grid.cells == cells
    assert [repr(c.theta) for c in grid.cells] == [repr(c.theta) for c in cells]
    assert grid.index == index and list(grid.index) == list(index)
    assert grid.colors == colors
    assert tuple(grid.ring(h) for h in range(H + 1)) == rings
    for table, expected in ((grid.axial_coords, axial), (grid.adjacent, adjacent)):
        assert table.tolist() == expected and table.dtype == np.intp
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
