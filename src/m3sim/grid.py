"""Hexagonal macrocell tessellation: subcell addressing, geometry, clustering.

A macrocell of radius R is split into H concentric rings of hexagonal
subcells of radius r = R/(2H); adjacent subcell centers sit d_r = sqrt(3)*r
apart.  Subcells are addressed three ways:

* linear index i (0 is the center subcell, occupied by the base station),
* ring/angle pair (h, theta) with theta in degrees counter-clockwise from
  the +x axis,
* axial lattice coordinates (q, r) used internally for exact arithmetic.

Ring h holds 6h subcells occupying linear indices 3h(h-1)+1 .. 3h(h+1);
within a ring, indices increase with theta.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

SQRT3 = math.sqrt(3.0)

# Axial steps to the six lattice neighbours (flat-top hexagons, so the
# neighbour directions sit at 30, 90, 150, 210, 270 and 330 degrees).
DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

NUM_COLORS = 7


class GridError(ValueError):
    """Invalid grid parameters or subcell reference."""


def check_finite_positive(error: type[ValueError], label: str, value: float, joint: bool = False) -> None:
    """Raise ``error`` naming ``label`` unless ``value`` is a finite number above zero.

    The message reads "must be positive" for a value not above zero (NaN
    included) and "must be finite" for +inf; with ``joint`` both read
    "must be finite and positive".
    """
    if not 0 < value < math.inf:
        fault = "finite and positive" if joint else "finite" if value > 0 else "positive"
        raise error(f"{label} must be {fault}, got {value!r}")


@dataclass(frozen=True)
class GridParams:
    """Macrocell tessellation parameters.

    H is the number of subcell rings, R the macrocell radius in meters and
    K the reuse-cluster size (only the rhombic 7-cell clustering is
    supported).
    """

    H: int
    R: float = 1000.0
    K: int = 7

    def __post_init__(self):
        if not isinstance(self.H, int) or self.H < 1:
            raise GridError(f"ring count H must be an integer >= 1, got {self.H!r}")
        check_finite_positive(GridError, "macrocell radius R", self.R)
        if self.K != NUM_COLORS:
            raise GridError(f"only the {NUM_COLORS}-cell rhombic clustering is supported, got K={self.K!r}")

    @property
    def subcell_radius(self) -> float:
        return self.R / (2 * self.H)

    @property
    def relay_distance(self) -> float:
        """Distance in meters between adjacent subcell centers."""
        return SQRT3 * self.subcell_radius

    @property
    def subcell_count(self) -> int:
        """Number of ring subcells; the center subcell is not counted."""
        return 3 * self.H * (self.H + 1)


@dataclass(frozen=True)
class SubcellId:
    """One subcell: ring h, angle theta (degrees), linear index i, axial (q, r)."""

    h: int
    theta: float
    i: int
    q: int
    r: int


def ring_index_range(h: int) -> tuple[int, int]:
    """Inclusive linear index range (first, last) of ring h >= 1."""
    if h < 1:
        raise GridError(f"ring index must be >= 1, got {h}")
    return 3 * h * (h - 1) + 1, 3 * h * (h + 1)


def _axial_ring(q: int, r: int) -> int:
    return (abs(q) + abs(r) + abs(q + r)) // 2


def _unit_position(q: int, r: int) -> tuple[float, float]:
    # In units of the subcell radius.
    return 1.5 * q, SQRT3 * (r + 0.5 * q)


class SubcellGrid:
    """Immutable tessellation of one macrocell."""

    def __init__(self, params: GridParams):
        self.params = params
        H = params.H
        # (ring, angle, q, r) of every cell, sorted once into linear index
        # order: by ring, then by angle; the center's atan2(0, 0) is 0.0
        polar = []
        for q in range(-H, H + 1):
            for r in range(max(-H, -q - H), min(H, -q + H) + 1):
                x, y = _unit_position(q, r)
                polar.append((_axial_ring(q, r), math.degrees(math.atan2(y, x)) % 360.0, q, r))
        polar.sort()
        cells = tuple(SubcellId(h=h, theta=t, i=i, q=q, r=r) for i, (h, t, q, r) in enumerate(polar))
        self.cells: tuple[SubcellId, ...] = cells
        # Integer tables: axial (q, r) -> linear index, each cell's neighbour
        # indices in DIRECTIONS order, and its reuse color.
        index = {(c.q, c.r): c.i for c in cells}
        self.index: dict[tuple[int, int], int] = index
        self.adjacent: tuple[tuple[int, ...], ...] = tuple(
            tuple(n for n in [index.get((c.q + dq, c.r + dr)) for dq, dr in DIRECTIONS] if n is not None)
            for c in cells
        )
        self.colors: tuple[int, ...] = tuple((c.q + 5 * c.r) % NUM_COLORS for c in cells)
        self._rank_tables: dict[frozenset[int], tuple[tuple[int, ...], ...]] = {}
        # each ring is the slice of ``cells`` over its index range
        self._rings: tuple[tuple[SubcellId, ...], ...] = (cells[:1],) + tuple(
            cells[lo : hi + 1] for lo, hi in map(ring_index_range, range(1, H + 1))
        )
        self._ring_thetas = tuple(tuple(c.theta for c in ring) for ring in self._rings)

    @cached_property
    def axial_coords(self) -> np.ndarray:
        """Read-only (2, cells) array: row 0 each cell's axial q, row 1 its r."""
        coords = np.array([[c.q for c in self.cells], [c.r for c in self.cells]], dtype=np.intp)
        coords.flags.writeable = False
        return coords

    # -- addressing ---------------------------------------------------------

    def cell(self, i: int) -> SubcellId:
        if not 0 <= i < len(self.cells):
            raise GridError(f"subcell index {i} outside 0..{len(self.cells) - 1}")
        return self.cells[i]

    def ring(self, h: int) -> tuple[SubcellId, ...]:
        if not 0 <= h <= self.params.H:
            raise GridError(f"ring {h} outside 0..{self.params.H}")
        return self._rings[h]

    def nearest_in_ring(self, h: int, theta: float) -> tuple[SubcellId, float]:
        """Subcell of ring h nearest to angle theta, with the angular snap in degrees.

        Ties resolve to the lower linear index: a cell later in the ring wins
        only when nearer by more than 1e-12 degrees.  A ring's angles rise
        with the index, so the nearest cell is one of the two that bracket
        theta, cyclically; every other cell lies a whole spacing further.
        A non-finite theta raises ``GridError``.
        """
        ring = self.ring(h)
        if not math.isfinite(theta):
            raise GridError(f"placement angle must be finite, got {theta!r}")
        theta = theta % 360.0
        j = bisect.bisect_right(self._ring_thetas[h], theta)
        pair = (ring[j - 1], ring[j]) if 0 < j < len(ring) else (ring[0], ring[-1])
        best, best_gap = None, None
        for c in pair:
            gap = abs(c.theta - theta)
            gap = min(gap, 360.0 - gap)
            if best is None or gap < best_gap - 1e-12:
                best, best_gap = c, gap
        return best, best_gap

    # -- geometry -----------------------------------------------------------

    def center_position(self, cell: SubcellId) -> tuple[float, float]:
        """Cartesian center of a subcell in meters, the base station at (0, 0)."""
        x, y = _unit_position(cell.q, cell.r)
        s = self.params.subcell_radius
        return x * s, y * s

    def squared_step_distance(self, a: SubcellId, b: SubcellId) -> int:
        """Exact squared center distance in units of the relay distance."""
        dq, dr = a.q - b.q, a.r - b.r
        return dq * dq + dr * dr + dq * dr

    def hop_distance(self, a: SubcellId, b: SubcellId) -> int:
        """Minimum number of lattice hops between two subcells."""
        return _axial_ring(a.q - b.q, a.r - b.r)

    def neighbors(self, cell: SubcellId) -> list[SubcellId]:
        """Existing lattice neighbours (at most six; fewer on the outer ring)."""
        return [self.cells[n] for n in self.adjacent[cell.i]]

    def rank_table(self, dest: "Destinations") -> tuple[tuple[int, ...], ...]:
        """Each cell's neighbour indices sorted by (squared distance to the nearest destination, index).

        Built once per grid and set of absorbing cells, from one (cells x
        destinations) array of squared distances; each padded neighbour row
        sorts on the exact integer key near * cells + index.
        """
        key = dest.indices()
        table = self._rank_tables.get(key)
        if table is None:
            size = len(self.cells)
            q, r = self.axial_coords
            targets = [c.i for c in dest.absorbing_cells()]
            dq, dr = q[:, None] - q[targets], r[:, None] - r[targets]
            near = (dq * dq + dr * dr + dq * dr).min(axis=1)
            degree = np.fromiter(map(len, self.adjacent), dtype=np.intp, count=size)
            padded = np.arange(len(DIRECTIONS)) < degree[:, None]
            keys = np.full(padded.shape, np.iinfo(np.intp).max)
            adjacent = np.fromiter(chain.from_iterable(self.adjacent), dtype=np.intp)
            keys[padded] = near[adjacent] * size + adjacent
            ranked = (np.sort(keys, axis=1) % size).tolist()
            table = tuple(tuple(row[:d]) for row, d in zip(ranked, degree.tolist()))
            self._rank_tables[key] = table
        return table

    # -- clustering ---------------------------------------------------------

    def cluster_color(self, cell: SubcellId) -> int:
        """Reuse color 0..6; the center has color 0 and no two neighbours share one."""
        return self.colors[cell.i]

    def color_populations(self, exclude: frozenset[int] = frozenset()) -> list[int]:
        """Ring-subcell count per color, skipping the center and excluded indices."""
        pops = [0] * NUM_COLORS
        for i in range(1, len(self.cells)):
            if i not in exclude:
                pops[self.colors[i]] += 1
        return pops


@dataclass(frozen=True)
class Destinations:
    """Route targets: the base station plus any access points with coverage.

    ``bs`` may be None for single-technology target sets (e.g. routes that
    terminate at an access point only).
    """

    bs: SubcellId | None
    aps: tuple[SubcellId, ...] = ()
    coverage: tuple[tuple[SubcellId, ...], ...] = ()
    _indices: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bs is None and not self.aps:
            raise GridError("a destination set needs a base station or an access point")
        if any(a.h == 0 for a in self.aps):
            raise GridError("an access point cannot share the center subcell")
        if len({a.i for a in self.aps}) != len(self.aps):
            raise GridError("duplicate access-point placements")
        if len(self.coverage) not in (0, len(self.aps)):
            raise GridError("coverage must list one cluster per access point")
        for cluster in self.coverage:
            for c in cluster:
                if self.bs is not None and c.i == self.bs.i:
                    raise GridError("access-point coverage may not include the base station")
        object.__setattr__(self, "_indices", frozenset(c.i for c in self.absorbing_cells()))

    def absorbing_cells(self) -> list[SubcellId]:
        """Destination subcells, access points first and the base station last."""
        cells = list(self.aps)
        if self.bs is not None:
            cells.append(self.bs)
        return cells

    def indices(self) -> frozenset[int]:
        """Linear indices of the destination subcells, built once per set."""
        return self._indices


def make_destinations(
    grid: SubcellGrid,
    ap_polars: list[tuple[int, float]] | None = None,
    coverage: list[list[tuple[int, float]]] | None = None,
) -> Destinations:
    """Build a destination set from (h, theta) access-point placements.

    Placements snap to the nearest subcell of the requested ring.  Coverage
    defaults to each access point's lattice neighbours.
    """
    aps = tuple(grid.nearest_in_ring(h, theta)[0] for h, theta in ap_polars or [])
    if coverage is None:
        clusters = tuple(tuple(grid.neighbors(a)) for a in aps)
    else:
        clusters = tuple(
            tuple(grid.nearest_in_ring(h, theta)[0] for h, theta in cluster)
            for cluster in coverage
        )
    return Destinations(bs=grid.cell(0), aps=aps, coverage=clusters)
