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

A grid is built in one array pass: one lexsort on (ring, theta, q, r) puts
every subcell in index order, and each table derives from the sorted arrays.
Only theta is computed per cell, with ``math.atan2``: numpy's ``arctan2``
differs from it in the last bit on some cells, and both the ring order and
the routes CSV read theta.  A cell's neighbours are one row of six, -1 off the
grid, in ``adjacent`` and, ranked per destination set, in ``rank_table``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

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
        if not isinstance(self.H, int) or isinstance(self.H, bool) or self.H < 1:
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
        # Every axial (q, r) within H hops of the center, theta by math.atan2
        # per cell (the center's atan2(0, 0) is 0.0), and one lexsort on
        # (ring, theta, q, r) into linear index order.
        qr = np.mgrid[-H : H + 1, -H : H + 1].reshape(2, -1)
        qr = qr[:, abs(qr.sum(axis=0)) <= H]
        x, y = _unit_position(*qr)
        theta = np.array([math.degrees(math.atan2(b, a)) % 360.0 for a, b in zip(x.tolist(), y.tolist())])
        ring = _axial_ring(*qr)
        order = np.lexsort((qr[1], qr[0], theta, ring))
        # Read-only (2, cells) array: row 0 each cell's axial q, row 1 its r.
        q, r = self.axial_coords = qr[:, order]
        self.axial_coords.flags.writeable = False
        size, (qs, rs) = len(order), self.axial_coords.tolist()
        self._thetas: list[float] = theta[order].tolist()
        self.cells: tuple[SubcellId, ...] = tuple(
            map(SubcellId, ring[order].tolist(), self._thetas, range(size), qs, rs)
        )
        # Integer tables: axial (q, r) -> linear index, each cell's neighbours
        # (a read-only (cells, 6) array in DIRECTIONS order, -1 where a step
        # leaves the grid, from a dense lookup one ring wider), and its reuse
        # color 0..6: the center's is 0 and no two neighbours share one.
        self.index: dict[tuple[int, int], int] = dict(zip(zip(qs, rs), range(size)))
        lookup = np.full((2 * H + 3, 2 * H + 3), -1, dtype=np.intp)
        lookup[q + H + 1, r + H + 1] = np.arange(size)
        dq, dr = np.array(DIRECTIONS).T
        self.adjacent: np.ndarray = lookup[q[:, None] + dq + H + 1, r[:, None] + dr + H + 1]
        self.adjacent.flags.writeable = False
        self.colors: tuple[int, ...] = tuple(((q + 5 * r) % NUM_COLORS).tolist())
        self._rank_tables: dict[frozenset[int], tuple[tuple[int, ...], ...]] = {}

    # -- addressing ---------------------------------------------------------

    def cell(self, i: int) -> SubcellId:
        if not 0 <= i < len(self.cells):
            raise GridError(f"subcell index {i} outside 0..{len(self.cells) - 1}")
        return self.cells[i]

    def ring(self, h: int) -> tuple[SubcellId, ...]:
        lo, hi = self._ring_bounds(h)
        return self.cells[lo : hi + 1]

    def _ring_bounds(self, h: int) -> tuple[int, int]:
        if not 0 <= h <= self.params.H:
            raise GridError(f"ring {h} outside 0..{self.params.H}")
        return ring_index_range(h) if h else (0, 0)

    def nearest_in_ring(self, h: int, theta: float) -> tuple[SubcellId, float]:
        """Subcell of ring h nearest to angle theta, with the angular snap in degrees.

        Ties resolve to the lower linear index: a cell later in the ring wins
        only when nearer by more than 1e-12 degrees.  A ring's angles rise
        with the index, so the nearest cell is one of the two that bracket
        theta, cyclically; every other cell lies a whole spacing further.
        A non-finite theta raises ``GridError``.
        """
        lo, hi = self._ring_bounds(h)
        if not math.isfinite(theta):
            raise GridError(f"placement angle must be finite, got {theta!r}")
        theta = theta % 360.0
        j = bisect.bisect_right(self._thetas, theta, lo, hi + 1)
        a, b = (self.cells[j - 1], self.cells[j]) if lo < j <= hi else (self.cells[lo], self.cells[hi])
        gap_a, gap_b = (min(abs(c.theta - theta), 360.0 - abs(c.theta - theta)) for c in (a, b))
        return (b, gap_b) if gap_b < gap_a - 1e-12 else (a, gap_a)

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
        return [self.cells[n] for n in self.adjacent[cell.i].tolist() if n >= 0]

    def rank_table(self, dest: "Destinations") -> tuple[tuple[int, ...], ...]:
        """Each cell's neighbour indices sorted by (squared distance to the nearest destination, index).

        Rows of six, the neighbours in rank order then -1, built once per grid
        and set of absorbing cells from one (cells x destinations) array of
        squared distances: each ``adjacent`` row sorts on the exact integer key
        near * cells + index, -1 last, and one ``tolist`` reads the rows.
        """
        key = dest.indices()
        table = self._rank_tables.get(key)
        if table is None:
            size = len(self.cells)
            q, r = self.axial_coords
            targets = [c.i for c in dest.absorbing_cells()]
            dq, dr = q[:, None] - q[targets], r[:, None] - r[targets]
            near = (dq * dq + dr * dr + dq * dr).min(axis=1)
            padding = np.iinfo(np.intp).max
            keys = np.where(self.adjacent < 0, padding, near[self.adjacent] * size + self.adjacent)
            keys.sort(axis=1)
            table = self._rank_tables[key] = tuple(map(tuple, np.where(keys == padding, -1, keys % size).tolist()))
        return table

    # -- clustering ---------------------------------------------------------

    def color_populations(self, exclude: frozenset[int] = frozenset()) -> list[int]:
        """Ring-subcell count per color, skipping the center and excluded indices."""
        counted = np.ones(len(self.cells), dtype=bool)
        counted[[0, *exclude]] = False
        return np.bincount(np.compress(counted, self.colors), minlength=NUM_COLORS).tolist()


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
        if self.bs is not None and any(c.i == self.bs.i for cluster in self.coverage for c in cluster):
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
    clusters = (
        tuple(tuple(grid.neighbors(a)) for a in aps)
        if coverage is None
        else tuple(tuple(grid.nearest_in_ring(h, theta)[0] for h, theta in cluster) for cluster in coverage)
    )
    return Destinations(bs=grid.cell(0), aps=aps, coverage=clusters)
